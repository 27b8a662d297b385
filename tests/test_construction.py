"""Construction pipeline: weight series, coupling solve, tableaux."""

import hashlib
import itertools
import math

import numpy as np
import pytest

import csrkn
from csrkn.construction import method_spec

from conftest import (REFERENCE_ALPHA, REFERENCE_TABLEAUX,
                      reference_tableau_arrays)

PI = math.pi
GRID = np.linspace(0.0, 1.0, 20)


def grid_symplectic_residual(coeffs, grid=GRID) -> float:
    """Max of B_t A(t,s) - B_s A(s,t) - B_t B_s (t - s) over grid^2: the
    continuous symplecticity identity sampled, as an oracle for the exact
    coefficient check."""
    tt, ss = np.meshgrid(grid, grid, indexing="ij")
    bt = coeffs.b(tt)
    bs = coeffs.b(ss)
    lhs = bt * coeffs.a_bar(tt, ss) - bs * coeffs.a_bar(ss, tt)
    return float(np.max(np.abs(lhs - bt * bs * (tt - ss))))


def grid_reflection_residual(coeffs, grid=GRID) -> float:
    """Max of B(tau) - B(1 - tau) over the grid."""
    return float(np.max(np.abs(coeffs.b(grid) - coeffs.b(1.0 - grid))))


def test_build_b_legendre_is_constant(bases):
    basis = bases[csrkn.Family.SHIFTED_LEGENDRE]
    spec = method_spec("legendre4")
    lam = csrkn.build_b(basis, spec)
    np.testing.assert_allclose(lam, [1.0, 0.0, 0.0], atol=1e-15)
    coeffs = csrkn.assemble(basis, lam, csrkn.solve_alpha(basis, spec), spec)
    assert coeffs.degrees[0] == 0
    np.testing.assert_allclose(coeffs.b(GRID), 1.0, rtol=0, atol=1e-15)


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
    assert grid_symplectic_residual(coeffs) < 1e-12
    assert coeffs.symplectic_residual < 1e-15


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
        "ca64e9becef4d5a2e722de7f822544903c80146e98e7b6f31bfd099643d50567",
    ("legendre4", 0.0):
        "c7e01b80cf1e950e58088669166e16658cc4b1f0e461f320664307c56c1fd054",
    ("legendre4", 0.3):
        "7d0a0f5e85483b30cc22fc710629b41f3f3f6cc162b18c4151f12ac5237dfafd",
    ("chebyshev4", -0.4):
        "3fa4fcb9403962e52cc69380fd76f7f184e1479fb827fbcc89b5323bbfd03540",
    ("chebyshev4", 0.0):
        "359c585d5336ec5e0f4d187a081ab9b4f344829b6f5da8b2ac9054facb52f12b",
    ("chebyshev4", 0.3):
        "136f1cce19e16f4c7002fb0a7e0f12454c99b2dcb0ffa2e2011480e5b6a5df11",
    ("hermite4", -0.4):
        "69494e477755f029c13ccfa2c3e538cae901b84eedf4af389dad29e56b76cd92",
    ("hermite4", 0.0):
        "dc20113ca7b6faf51f6fdfb310ea9faf854aadaac7b0a609bd2bf4699f396b6d",
    ("hermite4", 0.3):
        "9898d911de2cc575afa7bcceee13b92e122f7e99c431f16eb1481106d407172a",
    ("hermite3", -0.4):
        "34a848e3030913f3bf9a703ab0d919bab7d59b61cb02fa40fa5b9627a8154a35",
    ("hermite3", 0.0):
        "34a848e3030913f3bf9a703ab0d919bab7d59b61cb02fa40fa5b9627a8154a35",
    ("hermite3", 0.3):
        "34a848e3030913f3bf9a703ab0d919bab7d59b61cb02fa40fa5b9627a8154a35",
}


@pytest.mark.parametrize("name,gamma", sorted(BUILTIN_TABLEAU_SHA256))
def test_builtin_tableau_pinned_sha256(name, gamma):
    text = csrkn.serialize_tableau(csrkn.builtin_tableau(name, gamma))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == BUILTIN_TABLEAU_SHA256[name, gamma]


def _cli_space():
    """The specs the CLI's custom flags reach with b_order <= 8 and
    tau_degree <= 4, every family, symmetric or not; ``derive`` builds each
    on the degree-8 basis for stages <= 8."""
    for family, symmetric, b, cn, tau in itertools.product(
            csrkn.Family, (False, True), range(1, 9), range(1, 9),
            range(1, 5)):
        try:
            spec = csrkn.ConstructionSpec(family=family, b_order=b,
                                          cn_order=cn, tau_degree=tau,
                                          symmetric=symmetric)
        except csrkn.ConstructionError:
            continue
        yield spec


def test_cli_space_passes_the_retired_grid_checks():
    derived = 0
    for spec in _cli_space():
        basis = csrkn.make_basis(spec.family, 8)
        try:
            coeffs = csrkn.assemble(basis, csrkn.build_b(basis, spec),
                                    csrkn.solve_alpha(basis, spec), spec)
        except csrkn.ConstructionError as err:
            # the only failures left are coupled rank deficiencies
            assert "rank deficiency" in str(err), (spec, err)
            continue
        derived += 1
        assert grid_symplectic_residual(coeffs) <= 1e-12, spec
        assert coeffs.symplectic_residual <= 1e-12, spec
        if spec.symmetric:
            assert grid_reflection_residual(coeffs) <= 1e-12, spec
            assert coeffs.symmetry_residual == 0.0, spec
    # 263 with the monomial pipeline: 13 symmetric b_order = 8 specs failed
    # the reflection grid and 4 Legendre cn_order = 4 specs saw round-off as
    # coupling through int_0^1 P_j P_k, which vanishes for j != k
    assert derived == 280


# specs whose symmetric velocity weight the monomial round trip used to
# reject at 1.6-1.8e-12 on the reflection grid
REFLECTION_SPECS = (
    [(csrkn.Family.SHIFTED_LEGENDRE, cn, tau)
     for cn, taus in ((1, range(1, 5)), (2, range(2, 5)), (3, range(3, 5)))
     for tau in taus]
    + [(csrkn.Family.SHIFTED_CHEBYSHEV1, 1, tau) for tau in range(1, 5)])


@pytest.mark.parametrize("family,cn,tau", REFLECTION_SPECS)
def test_symmetric_b_order_8_specs_derive(family, cn, tau):
    spec = csrkn.ConstructionSpec(family=family, b_order=8, cn_order=cn,
                                  tau_degree=tau, symmetric=True)
    basis = csrkn.make_basis(family, 8)
    degrees = csrkn.assemble(basis, csrkn.build_b(basis, spec),
                             csrkn.solve_alpha(basis, spec), spec).degrees
    for s in range(1, 7):
        report = csrkn.check_discrete(csrkn.derive(spec, s))
        assert report.symplectic_residual <= 1e-12, s
        assert report.symmetry_residual <= 1e-12, s
        target = csrkn.order_bound_with_quadrature(8, cn, cn, 2 * s, *degrees)
        assert report.predicted_order >= target, s


def test_degrees_read_from_the_support():
    spec = csrkn.ConstructionSpec(family=csrkn.Family.SHIFTED_LEGENDRE,
                                  b_order=8, cn_order=3, tau_degree=3)
    basis = csrkn.make_basis(spec.family, 8)
    coeffs = csrkn.assemble(basis, csrkn.build_b(basis, spec),
                            csrkn.solve_alpha(basis, spec), spec)
    assert coeffs.degrees == (0, 3, 3)


def test_tableau_equality_and_hash_do_not_raise(tableaux):
    tableau = tableaux["legendre4"]
    copy = csrkn.parse_tableau(csrkn.serialize_tableau(tableau))
    assert (copy == tableau) is False
    assert tableau == tableau
    assert isinstance(hash(tableau), int)


def test_coefficients_equality_and_hash_do_not_raise(coefficient_sets):
    coeffs = coefficient_sets["legendre4"]
    again = csrkn.builtin_coefficients("legendre4")
    assert (again == coeffs) is False
    assert coeffs == coeffs
    assert isinstance(hash(coeffs), int)


def test_spec_hash_is_consistent_with_equality():
    family = csrkn.Family.SHIFTED_LEGENDRE
    spec = csrkn.ConstructionSpec(family, b_order=5, cn_order=3, tau_degree=3,
                                  free_alpha={(0, 3): 0.5, (1, 2): -1.0},
                                  free_lambda={4: 0.25})
    same = csrkn.ConstructionSpec(family, b_order=5, cn_order=3, tau_degree=3,
                                  free_alpha={(1, 2): -1.0, (0, 3): 0.5},
                                  free_lambda={4: 0.25})
    other = csrkn.ConstructionSpec(family, b_order=5, cn_order=3, tau_degree=3,
                                   free_alpha={(0, 3): 0.5},
                                   free_lambda={4: 0.25})
    assert same == spec and other != spec
    assert hash(same) == hash(spec)
    assert hash(csrkn.ConstructionSpec(family)) == \
        hash(csrkn.ConstructionSpec(family))
    assert {spec, same, other} == {spec, other}
    table = {spec: "spec"}
    assert table[same] == "spec" and other not in table
