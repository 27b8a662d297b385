"""Weighted orthonormal polynomial families.

Four families are supported: shifted Legendre and shifted Chebyshev (first
kind) on [0, 1], and standard/shifted Hermite on the whole real line.  The
construction works in orthonormal coefficients and evaluates P_n with
``values``, the three-term recurrence (Gautschi, *Orthogonal Polynomials:
Computation and Approximation*, OUP 2004, sections 2.1-2.2).

``poly``, ``moments`` and ``inner_product`` are the monomial view.  Every
family has a rational monic recurrence and rational moment ratios m_k / m_0,
so that view is kept exact in fractions (see ``OrthonormalBasis``) and the
violent cancellation of high-degree monomial products costs nothing.

A family's tables depend only on (family, degree), so ``make_basis`` and
``recurrence_coefficients`` build each of them once per process and hand
every caller the same read-only arrays; copy an array before modifying it.
"""

from __future__ import annotations

import decimal
import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

MAX_DEGREE = 12

_HALF = Fraction(1, 2)


class Family(Enum):
    """Supported weight functions and their intervals."""

    SHIFTED_LEGENDRE = "shifted-legendre"      # w(x) = 1 on [0, 1]
    SHIFTED_CHEBYSHEV1 = "shifted-chebyshev1"  # w(x) = 1/(2 sqrt(x(1-x))) on [0, 1]
    SHIFTED_HERMITE = "shifted-hermite"        # w(x) = exp(-(2x-1)^2) on R
    STANDARD_HERMITE = "standard-hermite"      # w(x) = exp(-x^2) on R

    @property
    def symmetric_weight(self) -> bool:
        """True when w(x) == w(1 - x) everywhere."""
        return self is not Family.STANDARD_HERMITE

    @property
    def finite_interval(self) -> bool:
        return self in (Family.SHIFTED_LEGENDRE, Family.SHIFTED_CHEBYSHEV1)

    def weight(self, x):
        """Evaluate the weight function (vectorized)."""
        x = np.asarray(x, dtype=float)
        if self is Family.SHIFTED_LEGENDRE:
            return np.ones_like(x)
        if self is Family.SHIFTED_CHEBYSHEV1:
            return 1.0 / (2.0 * np.sqrt(x * (1.0 - x)))
        if self is Family.SHIFTED_HERMITE:
            return np.exp(-((2.0 * x - 1.0) ** 2))
        return np.exp(-(x * x))


def family_from_name(name: str) -> Family:
    for fam in Family:
        if fam.value == name:
            return fam
    raise ValueError(f"unknown family {name!r}; choose from "
                     f"{', '.join(f.value for f in Family)}")


def _moment_ratios(family: Family, count: int) -> list[Fraction]:
    """m_k / m_0 for k < count, exactly."""
    if family is Family.SHIFTED_LEGENDRE:
        return [Fraction(1, k + 1) for k in range(count)]
    if family is Family.SHIFTED_CHEBYSHEV1:
        return [Fraction(math.comb(2 * k, k), 4 ** k) for k in range(count)]
    # Hermite: s_k = base**k m_k / m_0 are integers, from integration by
    # parts on w' = -4(2x-1)w (shifted: base 8) or on w' = -2xw (base 2)
    shifted = family is Family.SHIFTED_HERMITE
    s = [1, 4 if shifted else 0]
    for k in range(1, count - 1):
        s.append(4 * s[k] + 8 * k * s[k - 1] if shifted else 2 * k * s[k - 1])
    return [Fraction(v, (8 if shifted else 2) ** k) for k, v in enumerate(s)]


def _rational_recurrence(family: Family, k: int) -> tuple[Fraction, Fraction]:
    """(diag_k, off_k**2) of the orthonormal recurrence, exactly.

    The shifted families are the classical ones under x -> (u+1)/2, which
    maps the Jacobi matrix J to (J + I)/2.
    """
    if family is Family.SHIFTED_LEGENDRE:
        return _HALF, Fraction((k + 1) ** 2, 4 * (2 * k + 1) * (2 * k + 3))
    if family is Family.SHIFTED_CHEBYSHEV1:
        return _HALF, Fraction(1, 8 if k == 0 else 16)
    if family is Family.SHIFTED_HERMITE:
        return _HALF, Fraction(k + 1, 8)
    return Fraction(0), Fraction(k + 1, 2)


def _times(scale: float, num: int, den: int) -> float:
    """scale * num / den, rounded once (int / int is correctly rounded)."""
    top, bottom = scale.as_integer_ratio()
    return top * num / (bottom * den)


def _shared_table(build):
    """Memoize build(family, degree), checking the key before the cache so
    only the 4 x (MAX_DEGREE + 1) valid keys are ever stored.  Callers share
    each result, so its arrays must be read-only; ``__wrapped__`` is build."""
    cached = functools.cache(build)

    @functools.wraps(build)
    def table(family, degree):
        if not isinstance(family, Family):
            raise TypeError(f"family must be a Family member, got {family!r}")
        degree = operator.index(degree)
        if not 0 <= degree <= MAX_DEGREE:
            raise ValueError(f"degree must be in 0..{MAX_DEGREE} (the cap "
                             f"bounds the memo), got {degree}")
        return cached(family, degree)

    return table


def _frozen(values) -> np.ndarray:
    """Read-only array of the values rounded to double."""
    out = np.array([float(v) for v in values])
    out.flags.writeable = False
    return out


@_shared_table
def recurrence_coefficients(family: Family, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi coefficients of the orthonormal three-term recurrence.

    Returns (diag, off) with x p_k = off[k] p_{k+1} + diag[k] p_k
    + off[k-1] p_{k-1} for k < n, correctly rounded to double from the
    exact rational diag_k and off_k**2 (shared and read-only).
    """
    pairs = [_rational_recurrence(family, k) for k in range(n)]
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        off = [(decimal.Decimal(o.numerator) / o.denominator).sqrt()
               for _, o in pairs]
    return _frozen(d for d, _ in pairs), _frozen(off)


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """Orthonormal polynomials P_0 .. P_max_degree for one weight function.

    ``values`` evaluates them by the three-term recurrence; that is what the
    construction uses.  The monomial view is exact: ``monic[n]`` is
    (sigma_n, pi_n) with P_n = sigma_n pi_n, pi_n the monic polynomial in
    fractions (ascending powers) and sigma_n a double, and ``ratios[k]`` is
    m_k / m_0 as a fraction.  ``coeffs[n]`` (length n + 1, positive leading
    coefficient) and ``moments`` are those values rounded once to double.

    ``make_basis`` shares one basis per (family, max_degree) per process,
    so its arrays are read-only: copy before modifying.
    """

    family: Family
    max_degree: int
    coeffs: tuple[np.ndarray, ...]
    moments: np.ndarray
    monic: tuple[tuple[float, tuple[Fraction, ...]], ...]
    ratios: tuple[Fraction, ...]

    def poly(self, n: int) -> np.ndarray:
        if not 0 <= n <= self.max_degree:
            raise ValueError(f"degree {n} outside 0..{self.max_degree}")
        return self.coeffs[n]

    def values(self, x, degree: int) -> np.ndarray:
        """P_0(x) .. P_degree(x) stacked on a new leading axis, shape
        (degree + 1,) + shape(x), from the three-term recurrence."""
        if not 0 <= degree <= self.max_degree:
            raise ValueError(f"degree {degree} outside 0..{self.max_degree}")
        x = np.asarray(x, dtype=float)
        diag, off = recurrence_coefficients(self.family, degree)
        out = np.empty((degree + 1,) + x.shape)
        out[0] = 1.0 / math.sqrt(self.moments[0])
        for k in range(degree):
            nxt = out[k + 1, ...]
            np.subtract(x, diag[k], out=nxt)
            nxt *= out[k]
            if k:
                nxt -= off[k - 1] * out[k - 1]
            nxt /= off[k]
        return out

    def eval(self, n: int, x):
        """Evaluate P_n at x (vectorized)."""
        return self.values(x, n)[n]

    def _exact(self, poly) -> tuple[float, tuple[Fraction, ...]]:
        """(scale, exact coefficients) of poly: (sigma_n, pi_n) when poly
        is the family's own P_n, else (1, poly's doubles as fractions)."""
        poly = np.asarray(poly, dtype=float)
        n = len(poly) - 1
        if 0 <= n <= self.max_degree and np.array_equal(poly, self.coeffs[n]):
            return self.monic[n]
        return 1.0, tuple(map(Fraction, poly.tolist()))


# m_0 of each weight, correctly rounded (math.sqrt(math.pi) is one ulp low)
_SQRT_PI = 1.772453850905516
_M0 = {Family.SHIFTED_LEGENDRE: 1.0, Family.SHIFTED_CHEBYSHEV1: math.pi / 2,
       Family.SHIFTED_HERMITE: _SQRT_PI / 2, Family.STANDARD_HERMITE: _SQRT_PI}


@_shared_table
def make_basis(family: Family, max_degree: int) -> OrthonormalBasis:
    """Build the orthonormal family from its rational monic recurrence.

    pi_{k+1} = (x - diag_k) pi_k - off_{k-1}**2 pi_{k-1} runs exactly, on
    integer numerators over a common denominator, and P_n = sigma_n pi_n
    with sigma_n = 1 / sqrt(m_0 rho_n), rho_n = prod_{k<n} off_k**2, since
    ||pi_n||**2 = m_0 rho_n.  Each (family, max_degree) is built once per
    process and every caller gets the same read-only basis; copy its arrays
    before modifying them.
    """
    m0 = _M0[family]
    ratios = _moment_ratios(family, 2 * max_degree + 3)
    monic, coeffs = [], []
    # pi_k, pi_{k-1} as integer numerators over denominators, and rho_k
    cur, den, prev, den_prev = (1,), 1, (), 1
    rho, off2_prev = Fraction(1), Fraction(0)
    for k in range(max_degree + 1):
        sigma = math.sqrt(_times(1.0 / m0, rho.denominator, rho.numerator))
        monic.append((sigma, tuple(Fraction(v, den) for v in cur)))
        coeffs.append(_frozen(_times(sigma, v, den) for v in cur))
        if k == max_degree:
            break
        diag, off2 = _rational_recurrence(family, k)
        step = (Fraction(1, den), diag / den, off2_prev / den_prev)
        common = math.lcm(*(f.denominator for f in step))
        up, mid, low = (f.numerator * (common // f.denominator) for f in step)
        nxt = [0, *(up * v for v in cur)]
        for i, v in enumerate(cur):
            nxt[i] -= mid * v
        for i, v in enumerate(prev):
            nxt[i] -= low * v
        cur, den, prev, den_prev = nxt, common, cur, den
        rho, off2_prev = rho * off2, off2
    return OrthonormalBasis(
        family=family, max_degree=max_degree, coeffs=tuple(coeffs),
        moments=_frozen(_times(m0, r.numerator, r.denominator)
                        for r in ratios),
        monic=tuple(monic), ratios=tuple(ratios))


def inner_product(basis: OrthonormalBasis, p, q) -> float:
    """Weighted inner product <p, q>_w of two monomial-coefficient vectors.

    sum_{m,n} p_m q_n m_{m+n} / m_0 is summed exactly in fractions and then
    multiplied by m_0 sigma_p sigma_q, so the violent cancellation of
    high-degree cross terms costs no accuracy and the result rounds once.
    A vector equal to the family's own ``poly(n)`` is read as its exact
    sigma_n pi_n; any other vector as its doubles (sigma = 1).
    """
    sp, p = basis._exact(p)
    sq, q = basis._exact(q)
    deg = (len(p) - 1) + (len(q) - 1)
    if deg > 2 * basis.max_degree + 2:
        raise ValueError(
            f"product degree {deg} exceeds moment table "
            f"({2 * basis.max_degree + 2})")
    ratios = basis.ratios
    total = sum((a * b * ratios[m + n] for m, a in enumerate(p) if a
                 for n, b in enumerate(q) if b), Fraction(0))
    return _times(float(basis.moments[0]) * sp * sq,
                  total.numerator, total.denominator)
