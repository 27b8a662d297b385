"""Construction pipeline: weight series, coupling solve, tableaux."""

import hashlib
import math

import numpy as np
import pytest

import csrkn
from csrkn.construction import method_spec, symplectic_identity_residual

from conftest import (REFERENCE_ALPHA, REFERENCE_TABLEAUX,
                      reference_tableau_arrays)

PI = math.pi


def test_build_b_legendre_is_constant(bases):
    basis = bases[csrkn.Family.SHIFTED_LEGENDRE]
    spec = method_spec("legendre4")
    lam = csrkn.build_b(basis, spec)
    np.testing.assert_allclose(lam, [1.0, 0.0, 0.0], atol=1e-15)
    coeffs = csrkn.assemble(basis, lam, csrkn.solve_alpha(basis, spec), spec)
    assert coeffs.b_poly.shape == (1,)
    assert coeffs.b_poly[0] == pytest.approx(1.0, abs=1e-15)


def test_build_b_chebyshev_polynomial(bases):
    basis = bases[csrkn.Family.SHIFTED_CHEBYSHEV1]
    lam = csrkn.build_b(basis, method_spec("chebyshev4"))
    poly = np.zeros(3)
    for j, coeff in enumerate(lam):
        poly[: j + 1] += coeff * basis.poly(j)
    # B(tau) = 2/pi - (4/(3 pi)) (8 tau^2 - 8 tau + 1)
    expected = np.array([2 / PI - 4 / (3 * PI), 32 / (3 * PI), -32 / (3 * PI)])
    np.testing.assert_allclose(poly, expected, atol=1e-14)


@pytest.mark.parametrize("name", ["legendre4", "chebyshev4", "hermite4"])
def test_velocity_weight_reflection(coefficient_sets, name):
    coeffs = coefficient_sets[name]
    tau = np.linspace(0.0, 1.0, 50)
    assert np.max(np.abs(coeffs.b(tau) - coeffs.b(1.0 - tau))) < 1e-13


def test_build_b_free_lambda_validation(bases):
    basis = bases[csrkn.Family.SHIFTED_LEGENDRE]
    spec = csrkn.ConstructionSpec(family=csrkn.Family.SHIFTED_LEGENDRE,
                                  free_lambda={4: 0.25})
    lam = csrkn.build_b(basis, spec)
    assert lam[4] == 0.25 and lam[3] == 0.0
    with pytest.raises(csrkn.ConstructionError):
        csrkn.build_b(basis, csrkn.ConstructionSpec(
            family=csrkn.Family.SHIFTED_LEGENDRE, free_lambda={1: 0.5}))
    with pytest.raises(csrkn.ConstructionError):
        csrkn.build_b(basis, csrkn.ConstructionSpec(
            family=csrkn.Family.SHIFTED_LEGENDRE, symmetric=True,
            free_lambda={5: 0.5}))


@pytest.mark.parametrize("name", list(REFERENCE_ALPHA))
def test_solve_alpha_reproduces_published_sets(bases, name):
    spec = method_spec(name)
    basis = bases[spec.family]
    alpha = csrkn.solve_alpha(basis, spec)
    for key, value in REFERENCE_ALPHA[name].items():
        assert alpha[key] == pytest.approx(value, abs=1e-12), (name, key)


def test_solve_alpha_general_legendre_without_pins(bases):
    # the unpinned solve frees the untouched coefficients instead of the
    # hard-coded zeros of the shipped method; the determined ones agree
    basis = bases[csrkn.Family.SHIFTED_LEGENDRE]
    spec = csrkn.ConstructionSpec(family=csrkn.Family.SHIFTED_LEGENDRE)
    alpha = csrkn.solve_alpha(basis, spec)
    ref = REFERENCE_ALPHA["legendre4"]
    for key in ((0, 0), (0, 1), (0, 2)):
        assert alpha[key] == pytest.approx(ref[key], abs=1e-12)
    for key in ((1, 1), (1, 2), (2, 2)):
        assert alpha[key] == 0.0


@pytest.mark.parametrize("name", list(REFERENCE_ALPHA))
def test_alpha_symplectic_constraints(bases, name):
    spec = method_spec(name)
    basis = bases[spec.family]
    alpha = csrkn.solve_alpha(basis, spec)
    gap = csrkn.inner_product(basis, np.array([0.0, 1.0]), basis.poly(1))
    assert alpha[(0, 1)] - alpha[(1, 0)] == pytest.approx(-gap, abs=1e-13)
    for i in range(3):
        for j in range(3):
            if i + j > 1:
                assert alpha[(i, j)] == pytest.approx(alpha[(j, i)], abs=0)


def test_solve_alpha_conflicting_pin(bases):
    basis = bases[csrkn.Family.SHIFTED_LEGENDRE]
    with pytest.raises(csrkn.ConstructionError):
        csrkn.solve_alpha(basis, csrkn.ConstructionSpec(
            family=csrkn.Family.SHIFTED_LEGENDRE, symmetric=True,
            free_alpha={(0, 1): 0.123}))


def test_solve_alpha_reports_coupled_rank_deficiency(bases):
    basis = bases[csrkn.Family.STANDARD_HERMITE]
    spec = csrkn.ConstructionSpec(family=csrkn.Family.STANDARD_HERMITE)
    with pytest.raises(csrkn.ConstructionError, match="rank deficiency"):
        csrkn.solve_alpha(basis, spec)


def test_assemble_legendre_kernel_values(coefficient_sets):
    coeffs = coefficient_sets["legendre4"]
    s3 = math.sqrt(3)
    c1, c2 = (3 - s3) / 6, (3 + s3) / 6
    assert coeffs.a_bar(c1, c1) == pytest.approx(1 / 6, abs=1e-14)
    assert coeffs.a_bar(c1, c2) == pytest.approx((1 - s3) / 6, abs=1e-14)


def test_assemble_rejects_broken_constraint(bases):
    basis = bases[csrkn.Family.SHIFTED_LEGENDRE]
    spec = method_spec("legendre4")
    lam = csrkn.build_b(basis, spec)
    alpha = csrkn.solve_alpha(basis, spec)
    alpha[(0, 1)] += 1e-3
    with pytest.raises(csrkn.ConstructionError):
        csrkn.assemble(basis, lam, alpha, spec)


@pytest.mark.parametrize("name", list(REFERENCE_TABLEAUX))
def test_continuous_symplectic_identity(coefficient_sets, name):
    coeffs = coefficient_sets[name]
    grid = np.linspace(0.0, 1.0, 20)
    assert symplectic_identity_residual(coeffs, grid) < 1e-12


@pytest.mark.parametrize("name", list(REFERENCE_TABLEAUX))
def test_tableaux_match_reference(tableaux, name):
    ref = reference_tableau_arrays(name)
    tableau = tableaux[name]
    for key in ("c", "a_bar", "b_bar", "b_prime"):
        np.testing.assert_allclose(getattr(tableau, key), ref[key],
                                   atol=1e-13, err_msg=f"{name}:{key}")


def test_gamma_touches_only_the_corner_pattern():
    gamma = 0.37
    base = csrkn.builtin_tableau("legendre4", 0.0)
    bumped = csrkn.builtin_tableau("legendre4", gamma)
    pattern = gamma * np.array([[1.0, -1.0], [-1.0, 1.0]])
    np.testing.assert_allclose(bumped.a_bar - base.a_bar, pattern, atol=1e-13)
    np.testing.assert_allclose(bumped.c, base.c, atol=0)
    np.testing.assert_allclose(bumped.b_prime, base.b_prime, atol=0)
    np.testing.assert_allclose(bumped.b_bar, base.b_bar, atol=0)

    base3 = csrkn.builtin_tableau("chebyshev4", 0.0)
    bumped3 = csrkn.builtin_tableau("chebyshev4", gamma)
    pattern3 = gamma * np.array([[1.0, 0.0, -1.0],
                                 [0.0, 0.0, 0.0],
                                 [-1.0, 0.0, 1.0]])
    np.testing.assert_allclose(bumped3.a_bar - base3.a_bar, pattern3,
                               atol=1e-13)


def test_hermite3_ignores_gamma():
    plain = csrkn.builtin_tableau("hermite3", 0.0)
    shifted = csrkn.builtin_tableau("hermite3", 5.0)
    np.testing.assert_allclose(plain.a_bar, shifted.a_bar, atol=0)
    np.testing.assert_allclose(plain.b_prime, shifted.b_prime, atol=0)


def test_builtin_unknown_name():
    with pytest.raises(csrkn.ConstructionError):
        csrkn.builtin_tableau("gauss99")


def test_discretize_family_mismatch(bases, coefficient_sets):
    rule = csrkn.gauss_rule(bases[csrkn.Family.STANDARD_HERMITE], 3)
    with pytest.raises(csrkn.ConstructionError):
        csrkn.discretize(coefficient_sets["legendre4"], rule)


def test_serialize_parse_round_trip(tableaux):
    for name, tableau in tableaux.items():
        text = csrkn.serialize_tableau(tableau)
        back = csrkn.parse_tableau(text)
        assert back.s == tableau.s
        np.testing.assert_array_equal(back.c, tableau.c)
        np.testing.assert_array_equal(back.a_bar, tableau.a_bar)
        np.testing.assert_array_equal(back.b_bar, tableau.b_bar)
        np.testing.assert_array_equal(back.b_prime, tableau.b_prime)


def test_parse_tableau_rejects_bad_input():
    with pytest.raises(ValueError):
        csrkn.parse_tableau("")
    with pytest.raises(ValueError):
        csrkn.parse_tableau("2 0.1 0.2 0.3")


def test_spec_validation():
    with pytest.raises(csrkn.ConstructionError):
        csrkn.ConstructionSpec(family=csrkn.Family.SHIFTED_LEGENDRE,
                               b_order=2, cn_order=2)
    with pytest.raises(csrkn.ConstructionError):
        csrkn.ConstructionSpec(family=csrkn.Family.SHIFTED_LEGENDRE,
                               tau_degree=1, cn_order=2, b_order=3)
    with pytest.raises(csrkn.ConstructionError):
        csrkn.ConstructionSpec(family=csrkn.Family.STANDARD_HERMITE,
                               symmetric=True)


def test_tableau_position_weights_follow_nodes(tableaux):
    for tableau in tableaux.values():
        np.testing.assert_allclose(
            tableau.b_bar, tableau.b_prime * (1.0 - tableau.c), atol=1e-14)


# sha256 of the serialized built-in tableaux; any change to a derived bit
# moves it.  hermite3 has no free coupling coefficient, so gamma leaves it
# unchanged.
BUILTIN_TABLEAU_SHA256 = {
    ("legendre4", -0.4):
        "13dae8a5ea9430fbd104ddd83dc4366da29e439f5d128cf7a10b03740cbf8e74",
    ("legendre4", 0.0):
        "2f0f7a15ad63846ace6d0db30d8d23fdf6ce0352cc2a69a04958462fb296cd11",
    ("legendre4", 0.3):
        "cf16fdba2a87e8a0774145e9446092eecdd9b409567b47a6cf596ac4d67fe82a",
    ("chebyshev4", -0.4):
        "efc4568df61d2ecfb132d5f234ab01908e041a3830c5d4aeedc59425a684659a",
    ("chebyshev4", 0.0):
        "e522d734fa03aec53b9c999b71483925242f4f939bea5cf0ea453746a41176fa",
    ("chebyshev4", 0.3):
        "ab37adec3970496d521e7baabddfbc97f7d55483b845973b91f84bf3ec298f5d",
    ("hermite4", -0.4):
        "df8acf68c18e0cd1a22de85e5dde5da1a680a11758d43168f53213363bc064a2",
    ("hermite4", 0.0):
        "ce6b0bf46e6734ca3b10a002a943a93991aadd4a1b8b1be743cda100caba272f",
    ("hermite4", 0.3):
        "761273303a1fb5e31bc944208ea9de4ea7c403e4716cd3febdef66a1ac8141e6",
    ("hermite3", -0.4):
        "6afdd4c5463d51559ddd0be61472ba4ced2ea96eb0b8220f5ec8c3282dcbbcb7",
    ("hermite3", 0.0):
        "6afdd4c5463d51559ddd0be61472ba4ced2ea96eb0b8220f5ec8c3282dcbbcb7",
    ("hermite3", 0.3):
        "6afdd4c5463d51559ddd0be61472ba4ced2ea96eb0b8220f5ec8c3282dcbbcb7",
}


@pytest.mark.parametrize("name,gamma", sorted(BUILTIN_TABLEAU_SHA256))
def test_builtin_tableau_pinned_sha256(name, gamma):
    text = csrkn.serialize_tableau(csrkn.builtin_tableau(name, gamma))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == BUILTIN_TABLEAU_SHA256[name, gamma]
