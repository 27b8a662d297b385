"""Orthonormal polynomial families: recurrences, moments, integrals."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import chebyshev, legendre
from numpy.polynomial import hermite as np_hermite

import csrkn
from csrkn import basis as basis_module
from csrkn.basis import MAX_DEGREE, recurrence_coefficients
from csrkn.construction import interval_integrals

ALL_FAMILIES = list(csrkn.Family)
PI = math.pi


def gauss_oracle(family, n_points=24):
    """Independent quadrature for int_I f(x) w(x) dx via numpy's rules."""
    if family is csrkn.Family.SHIFTED_LEGENDRE:
        u, w = legendre.leggauss(n_points)
        return (u + 1.0) / 2.0, w / 2.0
    if family is csrkn.Family.SHIFTED_CHEBYSHEV1:
        u, w = chebyshev.chebgauss(n_points)
        return (u + 1.0) / 2.0, w / 2.0
    if family is csrkn.Family.SHIFTED_HERMITE:
        u, w = np_hermite.hermgauss(n_points)
        return (u + 1.0) / 2.0, w / 2.0
    u, w = np_hermite.hermgauss(n_points)
    return u, w


def _orthonormality_error(basis):
    size = basis.max_degree + 1
    return max(abs(csrkn.inner_product(basis, basis.poly(i), basis.poly(j))
                   - (i == j)) for i in range(size) for j in range(size))


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_orthonormality(family):
    assert _orthonormality_error(csrkn.make_basis(family, MAX_DEGREE)) < 1e-15


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_orthonormality_sees_a_perturbed_recurrence(monkeypatch, family):
    # the exact moments are derived independently of the recurrence, so a
    # 1e-9 relative error in one off_k**2 must show in the inner products
    exact = basis_module._rational_recurrence

    def perturbed(fam, k):
        diag, off2 = exact(fam, k)
        return diag, off2 * (1 + Fraction(1, 10**9)) if k == 3 else off2

    monkeypatch.setattr(basis_module, "_rational_recurrence", perturbed)
    fresh = csrkn.make_basis.__wrapped__(family, MAX_DEGREE)
    assert _orthonormality_error(fresh) > 1e-12


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_moments_match_closed_forms(family):
    moments = csrkn.make_basis(family, MAX_DEGREE).moments
    k = np.arange(2 * MAX_DEGREE + 3)
    assert len(moments) == len(k)
    if family is csrkn.Family.SHIFTED_LEGENDRE:
        expected = 1.0 / (k + 1)
    elif family is csrkn.Family.SHIFTED_CHEBYSHEV1:
        expected = [PI / 2 * math.comb(2 * n, n) / 4**n for n in k.tolist()]
    elif family is csrkn.Family.STANDARD_HERMITE:
        expected = [0.0 if n % 2 else math.gamma((n + 1) / 2)
                    for n in k.tolist()]
    else:
        nodes, weights = gauss_oracle(family)
        expected = [float(weights @ nodes**n) for n in k.tolist()]
    np.testing.assert_allclose(moments, expected, rtol=1e-14, atol=0.0)


def closed_form_moments(family, count):
    """(m_0, [m_k / m_0 for k < count]) from the textbook closed forms, the
    ratios as exact fractions."""
    def hermite(k):
        # int x^k exp(-x^2) / sqrt(pi) = (k - 1)!! / 2^(k/2) for even k
        return Fraction(0) if k % 2 else Fraction(
            math.prod(range(k - 1, 0, -2)), 2 ** (k // 2))

    if family is csrkn.Family.SHIFTED_LEGENDRE:
        return 1.0, [Fraction(1, k + 1) for k in range(count)]
    if family is csrkn.Family.SHIFTED_CHEBYSHEV1:
        return PI / 2, [Fraction(math.comb(2 * k, k), 4**k)
                        for k in range(count)]
    if family is csrkn.Family.STANDARD_HERMITE:
        return math.sqrt(PI), [hermite(k) for k in range(count)]
    # x = (1 + u) / 2 with u weighted by exp(-u^2): binomial expansion
    return math.sqrt(PI) / 2, [
        sum((math.comb(k, l) * hermite(l) for l in range(k + 1)),
            Fraction(0)) / 2**k for k in range(count)]


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_inner_product_matches_quadrature_oracle(bases, family):
    basis = bases[family]
    # exact sums over the monic polynomials and closed-form moments: the
    # oracle rounds only in its last products, so the bound can be 1e-15
    m0, ratios = closed_form_moments(family, 11)
    for i, j in [(0, 0), (1, 2), (3, 3), (2, 5), (4, 4)]:
        (si, monic_i), (sj, monic_j) = basis.monic[i], basis.monic[j]
        total = sum(a * b * ratios[m + n] for m, a in enumerate(monic_i)
                    for n, b in enumerate(monic_j))
        oracle = m0 * si * sj * float(total)
        assert abs(csrkn.inner_product(basis, basis.poly(i), basis.poly(j))
                   - oracle) < 1e-15


def test_first_polynomials(bases):
    leg = bases[csrkn.Family.SHIFTED_LEGENDRE]
    np.testing.assert_allclose(leg.poly(1), [-math.sqrt(3), 2 * math.sqrt(3)],
                               atol=1e-14)
    cheb = bases[csrkn.Family.SHIFTED_CHEBYSHEV1]
    assert abs(cheb.poly(0)[0] - math.sqrt(2.0 / PI)) < 1e-15
    herm = bases[csrkn.Family.STANDARD_HERMITE]
    assert abs(herm.poly(0)[0] - PI ** -0.25) < 1e-15
    sherm = bases[csrkn.Family.SHIFTED_HERMITE]
    assert abs(sherm.poly(0)[0] - math.sqrt(2.0) * PI ** -0.25) < 1e-15


@pytest.mark.parametrize("family", [f for f in ALL_FAMILIES
                                    if f.symmetric_weight])
def test_reflection_symmetry(bases, family):
    basis = bases[family]
    x = np.linspace(0.0, 1.0, 100)
    for n in range(9):
        left = basis.eval(n, 1.0 - x)
        right = (-1.0) ** n * basis.eval(n, x)
        assert np.max(np.abs(left - right)) < 1e-10


def test_standard_hermite_breaks_reflection(bases):
    basis = bases[csrkn.Family.STANDARD_HERMITE]
    x = np.linspace(0.0, 1.0, 100)
    residual = np.max(np.abs(basis.eval(1, 1.0 - x) + basis.eval(1, x)))
    assert residual > 0.1
    assert not csrkn.Family.STANDARD_HERMITE.symmetric_weight


def test_zeroth_moments(bases):
    expected = {
        csrkn.Family.SHIFTED_LEGENDRE: 1.0,
        csrkn.Family.SHIFTED_CHEBYSHEV1: PI / 2.0,
        csrkn.Family.SHIFTED_HERMITE: math.sqrt(PI) / 2.0,
        csrkn.Family.STANDARD_HERMITE: math.sqrt(PI),
    }
    for family, value in expected.items():
        assert abs(bases[family].moments[0] - value) < 1e-13


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_degree_and_leading_coefficient(bases, family):
    basis = bases[family]
    for n in range(9):
        poly = basis.poly(n)
        assert len(poly) == n + 1
        assert poly[-1] > 0


def test_inner_product_examples(bases):
    leg = bases[csrkn.Family.SHIFTED_LEGENDRE]
    assert abs(csrkn.inner_product(leg, leg.poly(1), leg.poly(1)) - 1.0) < 1e-14
    x = np.array([0.0, 1.0])
    assert abs(csrkn.inner_product(leg, x, leg.poly(1))
               - math.sqrt(3) / 6) < 1e-14
    cheb = bases[csrkn.Family.SHIFTED_CHEBYSHEV1]
    assert abs(csrkn.inner_product(cheb, x, cheb.poly(1))
               - math.sqrt(PI) / 4) < 1e-14


def test_inner_product_degree_overflow(bases):
    basis = bases[csrkn.Family.SHIFTED_LEGENDRE]
    big = np.ones(12)
    with pytest.raises(ValueError):
        csrkn.inner_product(basis, big, big)


def _exact_poly(basis, n):
    """P_n's monomial coefficients sigma_n pi_n as exact fractions."""
    sigma, monic = basis.monic[n]
    return [Fraction(sigma) * c for c in monic]


def _monomial_double_primitive(poly) -> np.ndarray:
    """Monomial coefficients of int_0^tau int_0^a p(x) dx da."""
    out = np.zeros(len(poly) + 2)
    for k, c in enumerate(poly):
        out[k + 2] = c / ((k + 1) * (k + 2))
    return out


def test_unit_interval_integral(bases):
    ones = interval_integrals(csrkn.Family.SHIFTED_LEGENDRE)[0]
    assert ones[1] == pytest.approx(0.0, abs=1e-15)
    ones = interval_integrals(csrkn.Family.SHIFTED_CHEBYSHEV1)[0]
    assert ones[2] == pytest.approx(-2.0 / (3.0 * math.sqrt(PI)), abs=1e-14)
    ones = interval_integrals(csrkn.Family.SHIFTED_HERMITE)[0]
    for j in (1, 3, 5, 7):
        assert ones[j] == 0.0
    for table in interval_integrals(csrkn.Family.SHIFTED_HERMITE):
        assert not table.flags.writeable


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_double_primitive_of_constant(bases, family):
    # stage target of P_0 = c0: c0 tau^2 / 2, as coefficients in the family
    basis = bases[family]
    targets = interval_integrals(family)[2]
    prim = [0.0, 0.0, basis.poly(0)[0] / 2.0]
    oracle = [csrkn.inner_product(basis, prim, basis.poly(m))
              for m in range(9)]
    np.testing.assert_allclose(targets[0, :9], oracle, atol=1e-14)


def test_double_primitive_legendre_linear(bases):
    basis = bases[csrkn.Family.SHIFTED_LEGENDRE]
    targets = interval_integrals(csrkn.Family.SHIFTED_LEGENDRE)[2]
    s3 = math.sqrt(3)
    prim = [0.0, 0.0, -s3 / 2.0, s3 / 3.0]
    oracle = [csrkn.inner_product(basis, prim, basis.poly(m))
              for m in range(9)]
    np.testing.assert_allclose(targets[1, :9], oracle, atol=1e-15)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_double_primitive_degree(bases, family):
    basis = bases[family]
    targets = interval_integrals(family)[2]
    assert len(targets) == 5  # test indices k < cn_order - 1 <= 5
    for n in range(5):
        # degree n + 2: nonzero top coefficient, exact zeros above it
        assert targets[n, n + 2] != 0.0
        assert not np.any(targets[n, n + 3:])
        prim = _monomial_double_primitive(basis.poly(n))
        oracle = [csrkn.inner_product(basis, prim, basis.poly(m))
                  for m in range(n + 3)]
        np.testing.assert_allclose(targets[n, : n + 3], oracle, atol=1e-12)


def test_make_basis_degree_bounds():
    # a repeated call raises again: an error is never cached as a result
    for table in (csrkn.make_basis, recurrence_coefficients):
        for degree in (MAX_DEGREE + 1, -1, MAX_DEGREE + 1):
            with pytest.raises(ValueError):
                table(csrkn.Family.SHIFTED_LEGENDRE, degree)


@pytest.mark.parametrize("table", [csrkn.make_basis, recurrence_coefficients])
@pytest.mark.parametrize("family", ["shifted-legendre", "x", None, 0])
def test_non_family_raises_type_error(table, family):
    for _ in range(2):
        with pytest.raises(TypeError, match="Family member"):
            table(family, 2)


@pytest.mark.parametrize("table", [csrkn.make_basis, recurrence_coefficients])
def test_non_integer_degree_raises_type_error(table):
    table(csrkn.Family.SHIFTED_LEGENDRE, 3)
    with pytest.raises(TypeError):
        table(csrkn.Family.SHIFTED_LEGENDRE, 3.0)


# the memo's degree check names its argument like every scalar check; a
# float used to raise operator.index's bare TypeError
@pytest.mark.parametrize("table", [csrkn.make_basis, recurrence_coefficients])
@pytest.mark.parametrize("degree,error,message", [
    (MAX_DEGREE + 1, ValueError, "degree must be in 0..12, got 13"),
    (-1, ValueError, "degree must be in 0..12, got -1"),
    (3.0, TypeError, "degree must be an integer, got 3.0"),
    (None, TypeError, "degree must be an integer, got None")])
def test_memo_degree_errors_name_the_degree(table, degree, error, message):
    with pytest.raises(error) as info:
        table(csrkn.Family.SHIFTED_LEGENDRE, degree)
    assert str(info.value) == message


def test_poly_names_its_degree_range():
    basis = csrkn.make_basis(csrkn.Family.SHIFTED_LEGENDRE, MAX_DEGREE)
    for n in (MAX_DEGREE + 1, -1):
        with pytest.raises(ValueError) as info:
            basis.poly(n)
        assert str(info.value) == f"degree {n} outside 0..12"


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_make_basis_is_shared(family):
    for degree in range(MAX_DEGREE + 1):
        basis = csrkn.make_basis(family, degree)
        assert csrkn.make_basis(family, degree) is basis
        assert csrkn.make_basis(family, np.int64(degree)) is basis
        assert type(basis.max_degree) is int
        assert recurrence_coefficients(family, degree) is \
            recurrence_coefficients(family, degree)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_shared_tables_are_read_only(family):
    basis = csrkn.make_basis(family, 4)
    diag, off = recurrence_coefficients(family, 4)
    for array in (basis.coeffs[2], basis.moments, diag, off):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    for n in range(5):
        assert not basis.coeffs[n].flags.writeable
    assert isinstance(basis.monic, tuple) and isinstance(basis.ratios, tuple)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_cached_tables_equal_fresh_builds(family):
    for degree in range(MAX_DEGREE + 1):
        cached = csrkn.make_basis(family, degree)
        fresh = csrkn.make_basis.__wrapped__(family, degree)
        assert fresh is not cached
        assert fresh.max_degree == cached.max_degree
        for a, b in zip(fresh.coeffs, cached.coeffs, strict=True):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(fresh.moments, cached.moments)
        assert fresh.monic == cached.monic
        assert fresh.ratios == cached.ratios
        for a, b in zip(recurrence_coefficients.__wrapped__(family, degree),
                        recurrence_coefficients(family, degree), strict=True):
            np.testing.assert_array_equal(a, b)


def test_unit_integral_helper(bases):
    # ones and gram[:9, :9] of every family, to an absolute tolerance, against
    # int_0^1 P_j and int_0^1 P_j P_k from P's exact monomial coefficients
    # and int_0^1 x^k dx = 1 / (k + 1)
    for family, basis in bases.items():
        ones, gram, _ = interval_integrals(family)
        polys = [_exact_poly(basis, j) for j in range(9)]
        for j, pj in enumerate(polys):
            exact = sum(c / (k + 1) for k, c in enumerate(pj))
            assert ones[j] == pytest.approx(float(exact), abs=1e-14)
            for k, pk in enumerate(polys):
                exact = sum(a * b / (m + n + 1) for m, a in enumerate(pj)
                            for n, b in enumerate(pk))
                assert gram[j, k] == pytest.approx(float(exact), abs=1e-13)


def _exact_tables(family):
    """ones, gram and targets of interval_integrals as exact fractions:
    the stored sigmas (and m_0) times the rational sums of the monic
    polynomials against int_0^1 x^i = 1 / (i + 1) or the moment ratios."""
    basis = csrkn.make_basis(family, MAX_DEGREE)
    sigmas = [Fraction(sigma) for sigma, _ in basis.monic]
    monic = [poly for _, poly in basis.monic]
    ones = [sigma * sum(c / (m + 1) for m, c in enumerate(poly))
            for sigma, poly in zip(sigmas, monic)]
    gram = [[sj * sk * sum(a * b / (m + n + 1) for m, a in enumerate(pj)
                           for n, b in enumerate(pk))
             for sk, pk in zip(sigmas, monic)]
            for sj, pj in zip(sigmas, monic)]
    # <D_k, P_m>_w with D_k = int_0^tau int_0^a P_k, of degree k + 2
    ratios = basis.ratios
    targets = [[Fraction(family.m0) * sigmas[k] * sm
                * sum(a / ((i + 1) * (i + 2)) * b * ratios[i + 2 + n]
                      for i, a in enumerate(monic[k])
                      for n, b in enumerate(pm))
                for sm, pm in zip(sigmas, monic)]
               for k in range(5)]
    return ones, gram, targets


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_interval_integrals_are_correctly_rounded(family):
    # float(Fraction) rounds once to nearest, so equality puts every entry
    # within 0.5 ulp of the exact value of its formula
    tables = interval_integrals(family)
    for table, exact in zip(tables, _exact_tables(family), strict=True):
        assert not table.flags.writeable
        assert table.shape == np.shape(exact)
        rounded = np.vectorize(float, otypes=[float])(np.array(exact))
        np.testing.assert_array_equal(table, rounded)
    ones, gram, targets = tables
    # exact zeros: odd P_j about the centre of a reflection-symmetric weight
    parity = np.arange(MAX_DEGREE + 1) % 2
    if family.symmetric_weight:
        assert not np.any(ones[1::2])
        assert not np.any(gram[parity[:, None] != parity])
    if family is csrkn.Family.SHIFTED_LEGENDRE:
        # w = 1 on [0, 1]: the tables are the orthonormality relations
        assert not np.any(ones[1:])
        assert not np.any(gram[~np.eye(MAX_DEGREE + 1, dtype=bool)])
    if family.centre == 0:
        # P_j(-x) = (-1)^j P_j(x) and D_k(-tau) = (-1)^k D_k(tau)
        assert not np.any(targets[parity[:5, None] != parity])
    for k in range(5):
        # D_k has degree k + 2
        assert not np.any(targets[k, k + 3:])


def test_cold_interval_integrals_build_no_gauss_rule():
    from csrkn.quadrature import _shared_rule

    interval_integrals.cache_clear()
    _shared_rule.cache_clear()
    for family in ALL_FAMILIES:
        interval_integrals(family)
    assert _shared_rule.cache_info().currsize == 0


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_values_match_monomial_view(bases, family):
    basis = bases[family]
    x = np.linspace(-0.5, 1.5, 21)
    values = basis.values(x, basis.max_degree)
    assert values.shape == (basis.max_degree + 1, x.size)
    for n in range(basis.max_degree + 1):
        poly = _exact_poly(basis, n)
        exact = [float(sum(c * Fraction(v) ** k for k, c in enumerate(poly)))
                 for v in x]
        np.testing.assert_allclose(values[n], exact, rtol=1e-13, atol=1e-14)
        np.testing.assert_array_equal(basis.eval(n, x), values[n])
    assert basis.values(0.25, 2).shape == (3,)
    with pytest.raises(ValueError):
        basis.values(x, basis.max_degree + 1)


def test_basis_equality_and_hash_do_not_raise():
    family = csrkn.Family.SHIFTED_LEGENDRE
    cached = csrkn.make_basis(family, 3)
    fresh = csrkn.make_basis.__wrapped__(family, 3)
    assert (fresh == cached) is False
    assert cached == cached
    assert hash(cached) == hash(csrkn.make_basis(family, 3))
    assert isinstance(hash(fresh), int)


def test_family_from_name():
    assert csrkn.family_from_name("shifted-legendre") is csrkn.Family.SHIFTED_LEGENDRE
    with pytest.raises(ValueError):
        csrkn.family_from_name("nope")


# sha256 over the coeffs and moments bytes of every degree 0..MAX_DEGREE
# basis of a family, in that order.
BASIS_SHA256 = {
    csrkn.Family.SHIFTED_LEGENDRE:
        "26d24816b9465791ddf6b16b9dc8f8fe38419117014fe23a971c4b598f19a9df",
    csrkn.Family.SHIFTED_CHEBYSHEV1:
        "76d6b3ae1ac9c4b5ee512bad0631ee933b21af1d6288fb3690d98c230bfbab0e",
    csrkn.Family.SHIFTED_HERMITE:
        "e1012b3e3c4a9d081e95973fff7958ec1f96fa3676e77d85aedf336e3addaa5f",
    csrkn.Family.STANDARD_HERMITE:
        "3478bc505f8e73faeb7b7c2538828ada7d61ac3d0c3d37d300a17c2b7ad24f88",
}


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_basis_tables_pinned_sha256(family):
    digest = hashlib.sha256()
    for degree in range(MAX_DEGREE + 1):
        basis = csrkn.make_basis(family, degree)
        for array in (*basis.coeffs, basis.moments):
            digest.update(array.tobytes())
    assert digest.hexdigest() == BASIS_SHA256[family]


def _exact_table_text(family) -> str:
    """The exact tables of a family as text: ratios and monic of its
    MAX_DEGREE basis, then (diag_k, off_k**2) for k <= MAX_DEGREE."""
    def fraction(f):
        return f"{f.numerator}/{f.denominator}"

    basis = csrkn.make_basis(family, MAX_DEGREE)
    lines = [" ".join(map(fraction, basis.ratios))]
    lines.extend(f"{sigma.hex()} " + " ".join(map(fraction, monic))
                 for sigma, monic in basis.monic)
    lines.extend(" ".join(map(fraction, basis_module._rational_recurrence(
        family, k))) for k in range(MAX_DEGREE + 1))
    return "\n".join(lines)


# sha256 over _exact_table_text: the exact fractions behind every table, so
# a rewrite of the recurrence or the moments must reproduce each one.
EXACT_TABLE_SHA256 = {
    csrkn.Family.SHIFTED_LEGENDRE:
        "c191a6e4fc890447b08757a007a544743382e3e30db382146459d43468bd35b6",
    csrkn.Family.SHIFTED_CHEBYSHEV1:
        "e697c610aeb248229eaeda011f09f2afee95a29bd8dc3fcfbac91d42f6a2ba20",
    csrkn.Family.SHIFTED_HERMITE:
        "4e08f4883b51fb83c8389a07c02a135bb5b986fded070fe5545163750e6912cd",
    csrkn.Family.STANDARD_HERMITE:
        "e82837ca704214afc6691c6da7ffb7fd8a80cd1772e99446c44ed8cf3811ffd9",
}


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_exact_tables_pinned_sha256(family):
    digest = hashlib.sha256(_exact_table_text(family).encode())
    assert digest.hexdigest() == EXACT_TABLE_SHA256[family]
