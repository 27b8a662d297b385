"""Construction pipeline: weight series, coupling solve, tableaux."""

import hashlib
import itertools
import logging
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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


# alpha(1, 0) = alpha(0, 1) + <x, P_1>_w: a (1, 0) pin used to be read as
# alpha(0, 1), so alpha(1, 0) came out 0.3 + sqrt(3) / 6, and under the
# symmetry a correct (1, 0) pin was reported as a conflict
@pytest.mark.parametrize("symmetric,value", [(False, 0.3),
                                             (True, math.sqrt(3) / 12)])
def test_solve_alpha_rejects_a_pin_of_alpha_1_0(bases, symmetric, value):
    spec = csrkn.ConstructionSpec(
        family=csrkn.Family.SHIFTED_LEGENDRE, b_order=1, cn_order=1,
        tau_degree=1, free_alpha={(1, 0): value}, symmetric=symmetric)
    with pytest.raises(csrkn.ConstructionError) as info:
        csrkn.solve_alpha(bases[spec.family], spec)
    assert str(info.value) == ("alpha(1, 0) is alpha(0, 1) + <x, P_1>_w, "
                               "not free; pin alpha(0, 1) instead")


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


# numpy cut a complex lam to its real part behind a ComplexWarning
@pytest.mark.parametrize("imaginary", [1e-3j, 0j])
def test_assemble_refuses_complex_lam(bases, imaginary):
    basis = bases[csrkn.Family.SHIFTED_LEGENDRE]
    spec = method_spec("legendre4")
    lam = csrkn.build_b(basis, spec) + imaginary
    with pytest.raises(TypeError) as info:
        csrkn.assemble(basis, lam, csrkn.solve_alpha(basis, spec), spec)
    assert str(info.value) == f"lam must hold real numbers, got {lam!r}"


# None read as NaN and a complex point lost its imaginary part, in the
# weight and on either side of the kernel
@pytest.mark.parametrize("point", [None, 0.5j, [0.25, 0.5 + 0j],
                                   [None, 0.0], [[0.5], [None]]])
def test_coefficients_refuse_points_that_are_not_real(coefficient_sets,
                                                       point):
    coeffs = coefficient_sets["chebyshev4"]
    for name, evaluate in (("tau", lambda: coeffs.b(point)),
                           ("tau", lambda: coeffs.a_bar(point, 0.5)),
                           ("sigma", lambda: coeffs.a_bar(0.5, point))):
        with pytest.raises(TypeError) as info:
            evaluate()
        assert str(info.value) == (f"{name} must hold real numbers, got "
                                   f"{point!r}")


# numpy read None in lam as NaN and a string of digits as its number
@pytest.mark.parametrize("lam,error", [([None, 0.0], TypeError),
                                       ([[0.5], [None]], TypeError),
                                       (["1.0", "0.0"], ValueError)])
def test_assemble_refuses_lam_that_is_not_real(bases, lam, error):
    basis = bases[csrkn.Family.SHIFTED_LEGENDRE]
    spec = method_spec("legendre4")
    with pytest.raises(error) as info:
        csrkn.assemble(basis, lam, csrkn.solve_alpha(basis, spec), spec)
    assert str(info.value) == f"lam must hold real numbers, got {lam!r}"


def test_coefficients_refuse_points_that_are_strings(coefficient_sets):
    # numpy read a string of digits as its number
    coeffs = coefficient_sets["chebyshev4"]
    for name, evaluate in (("tau", lambda: coeffs.b("0.5")),
                           ("tau", lambda: coeffs.a_bar("0.5", 0.5)),
                           ("sigma", lambda: coeffs.a_bar(0.5, "0.5"))):
        with pytest.raises(ValueError) as info:
            evaluate()
        assert str(info.value) == f"{name} must hold real numbers, got '0.5'"


def test_assemble_rejects_broken_constraint(bases):
    basis = bases[csrkn.Family.SHIFTED_LEGENDRE]
    spec = method_spec("legendre4")
    lam = csrkn.build_b(basis, spec)
    alpha = csrkn.solve_alpha(basis, spec)
    alpha[(0, 1)] += 1e-3
    with pytest.raises(csrkn.ConstructionError):
        csrkn.assemble(basis, lam, alpha, spec)


# a symmetric spec used to accept a symplectic alpha that is not
# time-reversible: check_symmetric of its 2-point tableau read 0.489 (the
# 3-point one also sees the odd-sum pair: P_2 vanishes at the 2 nodes)
@pytest.mark.parametrize("changes,residual", [
    # alpha(1, 0) - alpha(0, 1) stays the gap <x, P_1>_w = sqrt(3) / 6
    ({(0, 1): 0.1, (1, 0): 0.1 + math.sqrt(3) / 6}, "4.887e-01"),
    ({(1, 2): 1e-3, (2, 1): 1e-3}, "1.000e-03")])
def test_assemble_rejects_symmetric_spec_with_irreversible_alpha(
        bases, changes, residual):
    basis = bases[csrkn.Family.SHIFTED_LEGENDRE]
    spec = method_spec("legendre4")
    lam = csrkn.build_b(basis, spec)
    alpha = {**csrkn.solve_alpha(basis, spec), **changes}
    # symplectic, so a spec-free assemble accepts it
    coeffs = csrkn.assemble(basis, lam, alpha)
    tableau = csrkn.discretize(coeffs, csrkn.gauss_rule(basis, 3))
    assert csrkn.check_symmetric(tableau) > 1e-4
    with pytest.raises(csrkn.ConstructionError) as info:
        csrkn.assemble(basis, lam, alpha, spec)
    assert str(info.value) == ("alpha violates alpha[0,1] = -alpha[1,0] or "
                               f"vanishing odd-sum alpha (residual "
                               f"{residual})")


def test_assemble_rejects_symmetric_spec_with_odd_lam(bases):
    basis = bases[csrkn.Family.SHIFTED_LEGENDRE]
    spec = method_spec("legendre4")
    lam = csrkn.build_b(basis, spec)
    lam[1] = 1e-3
    with pytest.raises(csrkn.ConstructionError) as info:
        csrkn.assemble(basis, lam, csrkn.solve_alpha(basis, spec), spec)
    assert str(info.value) == ("velocity weight is not reflection-symmetric "
                               "(odd-index lam must vanish)")


@pytest.mark.parametrize("key", [(5, 0), (-1, 1)])
def test_solve_alpha_rejects_pins_outside_the_range(bases, key):
    spec = method_spec("legendre4")
    spec = replace(spec, free_alpha={**spec.free_alpha, key: 0.0})
    with pytest.raises(csrkn.ConstructionError) as info:
        csrkn.solve_alpha(bases[spec.family], spec)
    assert str(info.value) == f"alpha index {key} outside range 0..2"


def test_solve_alpha_with_every_unknown_pinned(bases):
    # legendre4's unknowns are alpha(0, 0) and alpha(0, 2); with both pinned
    # the conditions are only checked
    basis = bases[csrkn.Family.SHIFTED_LEGENDRE]
    spec = method_spec("legendre4")
    alpha = csrkn.solve_alpha(basis, spec)
    pins = {**spec.free_alpha, (0, 0): alpha[(0, 0)], (0, 2): alpha[(0, 2)]}
    assert csrkn.solve_alpha(basis, replace(spec, free_alpha=pins)) == alpha
    pins[(0, 0)] = 0.2
    with pytest.raises(csrkn.ConstructionError) as info:
        csrkn.solve_alpha(basis, replace(spec, free_alpha=pins))
    assert str(info.value) == ("stage moment conditions are inconsistent: "
                               "test index 0, P_0(tau) residual 3.333e-02")


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


def test_hermite3_ignores_gamma(caplog):
    with caplog.at_level(logging.WARNING, logger="csrkn"):
        plain = csrkn.builtin_tableau("hermite3", 0.0)
        assert caplog.records == []
        shifted = csrkn.builtin_tableau("hermite3", 5.0)
    np.testing.assert_allclose(plain.a_bar, shifted.a_bar, atol=0)
    np.testing.assert_allclose(plain.b_prime, shifted.b_prime, atol=0)
    # the label does not claim a parameter the method lacks
    assert plain.gamma is None and shifted.gamma is None
    assert [(r.name, r.levelname) for r in caplog.records] == [
        ("csrkn", "WARNING")]
    assert "gamma = 5.0 is ignored" in caplog.records[0].getMessage()
    assert csrkn.builtin_tableau("legendre4", 0.3).gamma == 0.3


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", csrkn.BUILTIN_METHODS)
def test_non_finite_gamma_rejected_before_derivation(monkeypatch, name,
                                                     gamma):
    def no_basis(*args, **kwargs):
        raise AssertionError("derivation started")

    monkeypatch.setattr(csrkn.construction, "make_basis", no_basis)
    message = f"gamma must be finite, got {gamma!r}"
    with pytest.raises(csrkn.ConstructionError) as info:
        csrkn.construction.method_spec(name, gamma)
    assert str(info.value) == message
    with pytest.raises(csrkn.ConstructionError) as info:
        csrkn.builtin_tableau(name, gamma)
    assert str(info.value) == message


# a str or None used to reach math.isfinite, whose TypeError named nothing
@pytest.mark.parametrize("gamma", ["0.3", None])
@pytest.mark.parametrize("name", csrkn.BUILTIN_METHODS)
def test_non_real_gamma_error_names_gamma(name, gamma):
    for build in (method_spec, csrkn.builtin_tableau):
        with pytest.raises(TypeError) as info:
            build(name, gamma)
        assert str(info.value) == f"gamma must be a real number, got {gamma!r}"


# an int too large for a double used to escape math.isfinite as an
# OverflowError that named nothing
@pytest.mark.parametrize("name", csrkn.BUILTIN_METHODS)
def test_huge_integer_gamma_error_names_gamma(name):
    with pytest.raises(csrkn.ConstructionError) as info:
        csrkn.builtin_tableau(name, 10**400)
    assert str(info.value) == f"gamma must be finite, got {10**400!r}"


def test_huge_integer_free_alpha_error_names_the_pin():
    with pytest.raises(csrkn.ConstructionError) as info:
        csrkn.ConstructionSpec(csrkn.Family.SHIFTED_LEGENDRE, b_order=5,
                               cn_order=2, tau_degree=3,
                               free_alpha={(1, 1): 10**400})
    assert str(info.value) == f"alpha(1, 1) must be finite, got {10**400!r}"


def test_builtin_unknown_name():
    with pytest.raises(csrkn.ConstructionError):
        csrkn.builtin_tableau("gauss99")


def test_discretize_family_mismatch(bases, coefficient_sets):
    rule = csrkn.gauss_rule(bases[csrkn.Family.STANDARD_HERMITE], 3)
    with pytest.raises(csrkn.ConstructionError):
        csrkn.discretize(coefficient_sets["legendre4"], rule)


def assert_family_mismatch(build, *args):
    # chebyshev4's spec on a Legendre basis used to give a "shifted-legendre"
    # tableau of predicted order 4 built with Chebyshev's gamma factor
    with pytest.raises(csrkn.ConstructionError) as info:
        build(*args)
    assert str(info.value) == ("spec family shifted-chebyshev1 does not "
                               "match basis family shifted-legendre")


def test_build_b_rejects_a_basis_of_another_family(bases):
    assert_family_mismatch(csrkn.build_b,
                           bases[csrkn.Family.SHIFTED_LEGENDRE],
                           method_spec("chebyshev4"))


def test_solve_alpha_rejects_a_basis_of_another_family(bases):
    assert_family_mismatch(csrkn.solve_alpha,
                           bases[csrkn.Family.SHIFTED_LEGENDRE],
                           method_spec("chebyshev4"))


def test_assemble_rejects_a_basis_of_another_family(bases, coefficient_sets):
    coeffs = coefficient_sets["chebyshev4"]
    assert_family_mismatch(csrkn.assemble,
                           bases[csrkn.Family.SHIFTED_LEGENDRE], coeffs.lam,
                           coeffs.alpha, coeffs.spec)


# kernel_matrix wrote alpha(-1, 2) to the kernel's last row, so discretize
# returned another tableau, and alpha(13, 13) failed in numpy's matmul
@pytest.mark.parametrize("keys", [[(-1, 2), (2, -1)], [(13, 13)]])
def test_assemble_rejects_alpha_indices_outside_the_basis(coefficient_sets,
                                                          keys):
    coeffs = coefficient_sets["legendre4"]
    alpha = {**coeffs.alpha, **dict.fromkeys(keys, 1e-3)}
    with pytest.raises(csrkn.ConstructionError) as info:
        csrkn.assemble(coeffs.basis, coeffs.lam, alpha, coeffs.spec)
    assert str(info.value) == f"alpha index {keys[0]} outside range 0..12"


def test_discretize_samples_the_basis_once(monkeypatch, coefficient_sets):
    # the one sample is the rule's own, taken when the rule was built:
    # discretize runs the three-term recurrence zero times
    coeffs = coefficient_sets["hermite3"]
    rule = csrkn.gauss_rule(coeffs.basis, 3)
    values = csrkn.OrthonormalBasis.values
    shapes = []

    def counted(self, x, degree):
        shapes.append(np.shape(x))
        return values(self, x, degree)

    monkeypatch.setattr(csrkn.OrthonormalBasis, "values", counted)
    assert csrkn.discretize(coeffs, rule).s == 3
    assert shapes == []


def test_discretize_raises_through_check_symplectic(coefficient_sets):
    coeffs = coefficient_sets["legendre4"]
    # bypasses assemble, which would reject the broken alpha[0,1]
    broken = csrkn.ContinuousCoefficients(
        basis=coeffs.basis, lam=coeffs.lam,
        alpha={**coeffs.alpha, (0, 1): coeffs.alpha[(0, 1)] + 0.1})
    with pytest.raises(csrkn.ConstructionError,
                       match="symplecticity identities violated"):
        csrkn.discretize(broken, csrkn.gauss_rule(coeffs.basis, 2))


def test_serialize_parse_round_trip(tableaux):
    for name, tableau in tableaux.items():
        text = csrkn.serialize_tableau(tableau)
        back = csrkn.parse_tableau(text)
        assert back.s == tableau.s
        np.testing.assert_array_equal(back.c, tableau.c)
        np.testing.assert_array_equal(back.a_bar, tableau.a_bar)
        np.testing.assert_array_equal(back.b_bar, tableau.b_bar)
        np.testing.assert_array_equal(back.b_prime, tableau.b_prime)


@settings(deadline=None)
@given(st.data())
def test_parse_inverts_serialize_bit_for_bit(data):
    # any finite entries, signed zeros and subnormals included, survive the
    # "%.17g" text form with every bit intact
    s = data.draw(st.integers(1, 6))
    values = data.draw(arrays(np.float64, s * (s + 3), elements=st.floats(
        allow_nan=False, allow_infinity=False)))
    tableau = csrkn.RKNTableau(
        c=values[:s], a_bar=values[s: s + s * s].reshape(s, s),
        b_bar=values[s + s * s: 2 * s + s * s],
        b_prime=values[2 * s + s * s:])
    back = csrkn.parse_tableau(csrkn.serialize_tableau(tableau))
    for name in ("c", "a_bar", "b_bar", "b_prime"):
        assert (getattr(back, name).tobytes()
                == getattr(tableau, name).tobytes()), name


def test_serialize_matches_per_value_formatting():
    # one "%.17g" format string per row gives the bytes of formatting each
    # value on its own
    def per_value(tableau):
        rows = [tableau.c, *tableau.a_bar, tableau.b_bar, tableau.b_prime]
        return "\n".join([str(tableau.s)] + [
            " ".join(f"{v:.17g}" for v in row) for row in rows]) + "\n"

    rng = np.random.default_rng(20181)
    s = 100
    tableaux = []
    for _ in range(10):
        values = (rng.uniform(-10.0, 10.0, s * s + 3 * s)
                  * 10.0 ** rng.integers(-300, 301, s * s + 3 * s))
        tableaux.append(csrkn.RKNTableau(
            c=values[:s], a_bar=values[s: s + s * s].reshape(s, s),
            b_bar=values[s + s * s: 2 * s + s * s],
            b_prime=values[2 * s + s * s:]))
    big = np.finfo(float).max
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                        big, -big])
    tableaux.append(csrkn.RKNTableau(
        c=special, a_bar=np.tile(special, (len(special), 1)),
        b_bar=special[::-1].copy(), b_prime=special))
    for tableau in tableaux:
        assert csrkn.serialize_tableau(tableau) == per_value(tableau)


def test_parse_tableau_rejects_bad_input():
    with pytest.raises(ValueError):
        csrkn.parse_tableau("")
    with pytest.raises(ValueError):
        csrkn.parse_tableau("2 0.1 0.2 0.3")
    # no stages: the text "0" has exactly the 1 + 0 numbers it announces;
    # a negative count is named as such, not as a token-count mismatch
    for count in ("0", "-1", "-2"):
        with pytest.raises(ValueError, match="stage"):
            csrkn.parse_tableau(count)
    for entry in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match="finite"):
            csrkn.parse_tableau(f"1 0.5 0.125 {entry} 1")
    # a token int() or float() rejects is named, not left to their messages
    for count in ("2.5", "1e1", "two", "0x2"):
        with pytest.raises(ValueError) as info:
            csrkn.parse_tableau(f"{count} 0.5 0.125 0.5 1")
        assert str(info.value) == (f"tableau stage count must be an "
                                   f"integer, got '{count}'")
    for entry in ("abc", "0.5.1", "1,5", "--1"):
        with pytest.raises(ValueError) as info:
            csrkn.parse_tableau(f"1 0.5 0.125 {entry} 1")
        assert str(info.value) == (f"tableau entries must be numbers, got "
                                   f"'{entry}'")


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


# b_order 20 used to fail in the basis memo with "degree must be in 0..12
# (the cap bounds the memo)"
@pytest.mark.parametrize("fields,message", [
    ({"b_order": 20}, "b_order must be in 1..12, got 20"),
    ({"b_order": 13, "cn_order": 7, "tau_degree": 7},
     "b_order must be in 1..12, got 13"),
    ({"b_order": 0, "cn_order": 1}, "b_order must be in 1..12, got 0"),
    ({"b_order": -4}, "b_order must be in 1..12, got -4"),
    ({"cn_order": 0}, "cn_order must be >= 1")])
def test_spec_rejects_orders_out_of_range(fields, message):
    with pytest.raises(csrkn.ConstructionError) as info:
        csrkn.ConstructionSpec(csrkn.Family.SHIFTED_LEGENDRE, **fields)
    assert str(info.value) == message


def test_build_b_names_b_order_and_basis_degree():
    spec = csrkn.ConstructionSpec(csrkn.Family.SHIFTED_LEGENDRE, b_order=6)
    basis = csrkn.make_basis(spec.family, 4)
    with pytest.raises(csrkn.ConstructionError) as info:
        csrkn.build_b(basis, spec)
    assert str(info.value) == "b_order 6 exceeds basis degree 4"


def test_solve_alpha_names_alpha_range_and_basis_degree():
    spec = csrkn.ConstructionSpec(csrkn.Family.SHIFTED_LEGENDRE, b_order=8,
                                  cn_order=2, tau_degree=5)
    assert spec.alpha_range == 5
    basis = csrkn.make_basis(spec.family, 4)
    with pytest.raises(csrkn.ConstructionError) as info:
        csrkn.solve_alpha(basis, spec)
    assert str(info.value) == "alpha_range 5 exceeds basis degree 4"


# a non-integer order used to derive silently (tau_degree) or fail with a
# bare slice TypeError in build_b (b_order), and a bool passed as an
# integer; a truthy non-bool symmetric built the symmetric method
@pytest.mark.parametrize("field", ["b_order", "cn_order", "tau_degree"])
@pytest.mark.parametrize("value", [2.5, 3.0, "3", None, True])
def test_spec_rejects_non_integer_orders(field, value):
    with pytest.raises(TypeError) as info:
        csrkn.ConstructionSpec(csrkn.Family.SHIFTED_LEGENDRE,
                               **{field: value})
    assert str(info.value) == f"{field} must be an integer, got {value!r}"


@pytest.mark.parametrize("value", ["no", 1, 0, None, np.True_])
def test_spec_rejects_non_bool_symmetric(value):
    with pytest.raises(TypeError) as info:
        csrkn.ConstructionSpec(csrkn.Family.SHIFTED_LEGENDRE,
                               symmetric=value)
    assert str(info.value) == f"symmetric must be a bool, got {value!r}"


# a family name used to raise a bare AttributeError on symmetric_weight
@pytest.mark.parametrize("family", ["shifted-legendre", None, 1])
def test_spec_rejects_non_family(family):
    with pytest.raises(TypeError) as info:
        csrkn.ConstructionSpec(family, symmetric=True)
    assert str(info.value) == f"family must be a Family member, got {family!r}"


# solve_alpha reads a key as (min(key), max(key)): (1,) used to pin
# alpha(1, 1) and (0, 1, 2) alpha(0, 2)
@pytest.mark.parametrize("key", [(1,), (0, 1, 2), (1.0, 1), (1, "2"), "ab",
                                 3, None])
def test_spec_rejects_free_alpha_keys_other_than_integer_pairs(key):
    with pytest.raises(TypeError) as info:
        csrkn.ConstructionSpec(csrkn.Family.SHIFTED_LEGENDRE, b_order=5,
                               cn_order=2, tau_degree=3,
                               free_alpha={key: 0.0})
    assert str(info.value) == ("free_alpha keys must be pairs of integers, "
                               f"got {key!r}")


# a list of pairs used to raise a bare AttributeError on .items()
@pytest.mark.parametrize("pins", [[((1, 1), 0.0)], (((1, 1), 0.0),), None,
                                  "ab"])
def test_spec_rejects_free_alpha_that_is_not_a_mapping(pins):
    with pytest.raises(TypeError) as info:
        csrkn.ConstructionSpec(csrkn.Family.SHIFTED_LEGENDRE, b_order=5,
                               cn_order=2, tau_degree=3, free_alpha=pins)
    assert str(info.value) == f"free_alpha must be a mapping, got {pins!r}"


# a string used to fail in math.isfinite with a message naming no field
@pytest.mark.parametrize("value", ["x", None, 1j, [0.5]])
def test_spec_rejects_non_real_free_alpha_values(value):
    with pytest.raises(TypeError) as info:
        csrkn.ConstructionSpec(csrkn.Family.SHIFTED_LEGENDRE, b_order=5,
                               cn_order=2, tau_degree=3,
                               free_alpha={(1, 1): value})
    assert str(info.value) == ("alpha(1, 1) must be a real number, got "
                               f"{value!r}")


def test_spec_accepts_numpy_integer_keys_and_real_values():
    def derived(key, value):
        spec = csrkn.ConstructionSpec(csrkn.Family.SHIFTED_LEGENDRE,
                                      b_order=5, cn_order=2, tau_degree=3,
                                      free_alpha={key: value})
        return csrkn.derive(spec, 3)

    expected = derived((1, 1), 0.25)
    for key, value in [((np.int64(1), np.int64(1)), 0.25),
                       ((1, 1), np.float64(0.25)), ((1, 1), Fraction(1, 4))]:
        again = derived(key, value)
        assert again.a_bar.tobytes() == expected.a_bar.tobytes()
        assert again.b_bar.tobytes() == expected.b_bar.tobytes()


def test_derived_tableau_owns_its_nodes():
    # the Gauss rule is shared and read-only; a tableau's c is its own copy
    spec = csrkn.ConstructionSpec(csrkn.Family.SHIFTED_LEGENDRE, b_order=5,
                                  cn_order=2, tau_degree=3)
    names = ("c", "a_bar", "b_bar", "b_prime")
    tableau = csrkn.derive(spec, 3)
    expected = [getattr(tableau, name).tobytes() for name in names]
    tableau.c[0] += 1e-3
    again = csrkn.derive(spec, 3)
    assert [getattr(again, name).tobytes() for name in names] == expected


# stages used to fail late: 17 named the basis memo's degree cap, 0 and -2
# the Gauss rule's "s must be in 1..8" although 12 stages derive, and 2.5 a
# bare TypeError; True derived one stage
@pytest.mark.parametrize("stages,error,message", [
    (17, csrkn.ConstructionError, "stages must be in 1..12, got 17"),
    (13, csrkn.ConstructionError, "stages must be in 1..12, got 13"),
    (0, csrkn.ConstructionError, "stages must be in 1..12, got 0"),
    (-2, csrkn.ConstructionError, "stages must be in 1..12, got -2"),
    (2.5, TypeError, "stages must be an integer, got 2.5"),
    (3.0, TypeError, "stages must be an integer, got 3.0"),
    ("3", TypeError, "stages must be an integer, got '3'"),
    (None, TypeError, "stages must be an integer, got None"),
    (True, TypeError, "stages must be an integer, got True")])
def test_derive_checks_stages_before_any_work(monkeypatch, stages, error,
                                              message):
    def no_work(*args):
        raise AssertionError("derive built a basis")

    monkeypatch.setattr(csrkn.construction, "make_basis", no_work)
    with pytest.raises(error) as info:
        csrkn.derive(csrkn.ConstructionSpec(csrkn.Family.SHIFTED_LEGENDRE),
                     stages)
    assert type(info.value) is error
    assert str(info.value) == message


def test_derive_accepts_stage_counts_up_to_the_cap():
    spec = csrkn.ConstructionSpec(csrkn.Family.SHIFTED_LEGENDRE, b_order=8,
                                  cn_order=3, tau_degree=4, symmetric=True)
    assert csrkn.derive(spec, csrkn.basis.MAX_DEGREE).s == 12
    three = csrkn.derive(spec, 3)
    numpy_three = csrkn.derive(spec, np.int64(3))
    assert (csrkn.serialize_tableau(numpy_three)
            == csrkn.serialize_tableau(three))


def _tableau_bytes(tableau) -> tuple[bytes, ...]:
    return tuple(getattr(tableau, name).tobytes()
                 for name in ("c", "a_bar", "b_bar", "b_prime"))


def _coefficient_bytes(coeffs) -> tuple:
    alpha = sorted(coeffs.alpha)
    return (coeffs.lam.tobytes(), tuple(alpha),
            np.array([coeffs.alpha[key] for key in alpha]).tobytes())


def test_coefficients_do_not_depend_on_the_stage_count(monkeypatch):
    # every spec with b_order 9..12 that derives: derive's coefficients,
    # taken before discretization, are the same bytes at all 12 stage
    # counts (36 specs used to read other lam bytes at 11 or 12 stages)
    monkeypatch.setattr(csrkn.construction, "discretize",
                        lambda coeffs, rule: coeffs)
    derived = 0
    for family, symmetric, b, cn, tau in itertools.product(
            csrkn.Family, (False, True), range(9, 13), range(1, 7),
            range(1, 7)):
        try:
            spec = csrkn.ConstructionSpec(family=family, b_order=b,
                                          cn_order=cn, tau_degree=tau,
                                          symmetric=symmetric)
            first = _coefficient_bytes(csrkn.derive(spec, 1))
        except csrkn.ConstructionError:
            continue
        derived += 1
        for stages in range(2, csrkn.basis.MAX_DEGREE + 1):
            again = _coefficient_bytes(csrkn.derive(spec, stages))
            assert again == first, (spec, stages)
    assert derived == 284


def test_pipeline_does_not_depend_on_the_basis_degree():
    # a seeded sample of CLI-space (spec, stages) inputs that derive: the
    # public pipeline on a basis of any degree that holds the spec and the
    # rule gives derive's tableau bytes (cn_order 1 specs with b_order 5 or
    # 6 used to read other lam bytes on a basis of degree 5 or 6)
    rng = np.random.default_rng(24)
    specs = list(_cli_space())
    checked = 0
    while checked < 100:
        spec = specs[rng.integers(len(specs))]
        stages = int(rng.integers(1, csrkn.basis.MAX_DEGREE + 1))
        try:
            expected = _tableau_bytes(csrkn.derive(spec, stages))
        except csrkn.ConstructionError:
            continue
        checked += 1
        for degree in range(max(spec.b_order, stages),
                            csrkn.basis.MAX_DEGREE + 1):
            basis = csrkn.make_basis(spec.family, degree)
            coeffs = csrkn.assemble(basis, csrkn.build_b(basis, spec),
                                    csrkn.solve_alpha(basis, spec), spec)
            tableau = csrkn.discretize(coeffs,
                                       csrkn.gauss_rule(basis, stages))
            assert _tableau_bytes(tableau) == expected, (spec, stages,
                                                         degree)


def test_spec_accepts_numpy_integer_orders():
    family = csrkn.Family.SHIFTED_LEGENDRE
    spec = csrkn.ConstructionSpec(family, b_order=np.int64(3),
                                  cn_order=np.int32(2),
                                  tau_degree=np.uint8(2), symmetric=True)
    assert spec == csrkn.ConstructionSpec(family, symmetric=True)
    assert csrkn.serialize_tableau(csrkn.derive(spec, 2)) == \
        csrkn.serialize_tableau(csrkn.derive(
            csrkn.ConstructionSpec(family, symmetric=True), 2))


def test_tableau_position_weights_follow_nodes(tableaux):
    for tableau in tableaux.values():
        np.testing.assert_allclose(
            tableau.b_bar, tableau.b_prime * (1.0 - tableau.c), atol=1e-14)


# sha256 of the serialized built-in tableaux; any change to a derived bit
# moves it.  hermite3 has no free coupling coefficient, so gamma leaves it
# unchanged.
BUILTIN_TABLEAU_SHA256 = {
    ("legendre4", -0.4):
        "9123e1994c6cdf262ba3b3e627104c1f6aad5db17215455b89653a438476dde9",
    ("legendre4", 0.0):
        "d0a97628b0c82ac587a5459f6b2aaebc73f4a7d910e8ae870b4f564669ed9092",
    ("legendre4", 0.3):
        "263aba37ba45f183620818c8fdd554bfcaa8f92bd2565f77c71248a1c74495b2",
    ("chebyshev4", -0.4):
        "1a9e2214c7a2e8da70ce3ddbfdca99ab223da508e4c95016af6af9bb90055d5b",
    ("chebyshev4", 0.0):
        "052190fcd5e7a25bd0622526d2f9b0da10f80b6078d03cec256c3786de0c9034",
    ("chebyshev4", 0.3):
        "33dd60f2856d4ecbcf7c4b07c630ebaec12e0e1e219dd8e7e006a03fa07934a4",
    ("hermite4", -0.4):
        "a8d0dc052b225f864be70223fde9434164777eafba7a6fdc3557a68d442b971b",
    ("hermite4", 0.0):
        "4fa8d842686144f2f902be9ac88ef6aa268c1361b28535ed1a849d7ae5dee11a",
    ("hermite4", 0.3):
        "5d97099cdcaa4162a9d5e71e9f3bf0b27133f71d9fa261fe94d18d56d98d38fa",
    ("hermite3", -0.4):
        "6f55e1908aecb15f5bed2c353cefafab8fb4aa5599f6e32523ab05653a10cac8",
    ("hermite3", 0.0):
        "6f55e1908aecb15f5bed2c353cefafab8fb4aa5599f6e32523ab05653a10cac8",
    ("hermite3", 0.3):
        "6f55e1908aecb15f5bed2c353cefafab8fb4aa5599f6e32523ab05653a10cac8",
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
                                  free_alpha={(0, 3): 0.5, (1, 2): -1.0})
    same = csrkn.ConstructionSpec(family, b_order=5, cn_order=3, tau_degree=3,
                                  free_alpha={(1, 2): -1.0, (0, 3): 0.5})
    other = csrkn.ConstructionSpec(family, b_order=5, cn_order=3, tau_degree=3,
                                   free_alpha={(0, 3): 0.5})
    assert same == spec and other != spec
    assert hash(same) == hash(spec)
    assert hash(csrkn.ConstructionSpec(family)) == \
        hash(csrkn.ConstructionSpec(family))
    assert {spec, same, other} == {spec, other}
    table = {spec: "spec"}
    assert table[same] == "spec" and other not in table


def test_spec_has_no_weight_tail_pins():
    with pytest.raises(TypeError, match="free_lambda"):
        csrkn.ConstructionSpec(csrkn.Family.SHIFTED_LEGENDRE,
                               free_lambda={4: 0.25})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spec_rejects_non_finite_pins(value):
    # a NaN pin used to pass every gate and give a tableau of nan rows
    with pytest.raises(csrkn.ConstructionError) as info:
        csrkn.ConstructionSpec(csrkn.Family.SHIFTED_LEGENDRE, symmetric=True,
                               free_alpha={(1, 1): 0.0, (1, 2): value})
    assert str(info.value) == f"alpha(1, 2) must be finite, got {value!r}"


def test_discretize_rejects_nan_weight(coefficient_sets):
    coeffs = coefficient_sets["legendre4"]
    lam = coeffs.lam.copy()
    lam[0] = math.nan
    # assemble checks alpha and the parity of lam, not its values
    bad = csrkn.assemble(coeffs.basis, lam, coeffs.alpha, spec=coeffs.spec)
    with pytest.raises(csrkn.ConstructionError,
                       match=r"identities violated \(residual nan\)"):
        csrkn.discretize(bad, csrkn.gauss_rule(coeffs.basis, 2))


@pytest.mark.parametrize("key", [(0, 1), (2, 2)])
def test_assemble_rejects_nan_alpha(coefficient_sets, key):
    # the residual was a max() that skipped a NaN after its first term, and
    # a NaN residual passed the "residual > tol" gate
    coeffs = coefficient_sets["legendre4"]
    alpha = {**coeffs.alpha, key: math.nan}
    with pytest.raises(csrkn.ConstructionError, match=r"residual nan"):
        csrkn.assemble(coeffs.basis, coeffs.lam, alpha)


def test_check_symplectic_propagates_nan(tableaux):
    tableau = tableaux["legendre4"]
    c = tableau.c.copy()
    c[0] = math.nan
    # only the position identity reads c
    assert math.isnan(csrkn.check_symplectic(replace(tableau, c=c)))
