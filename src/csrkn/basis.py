"""Weighted orthonormal polynomial families.

Four families are supported: shifted Legendre and shifted Chebyshev (first
kind) on [0, 1], and standard/shifted Hermite on the whole real line.  The
construction works in orthonormal coefficients and evaluates P_n with
``values``, the three-term recurrence (Gautschi, *Orthogonal Polynomials:
Computation and Approximation*, OUP 2004, sections 2.1-2.2).

``poly``, ``moments`` and ``inner_product`` are the monomial view: P_n as
ascending coefficient vectors.  High-degree products cancel violently in
that form (terms near 1e10 summing to order one), so coefficients and
moments are kept as hi/lo double pairs and weighted dots run in compensated
double-double arithmetic, well under 1e-12 for the capped degrees.

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

import numpy as np

MAX_DEGREE = 12

_PI_50 = decimal.Decimal("3.14159265358979323846264338327950288419716939937511")
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp splitting constant


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ah = _SPLIT * a
    ah -= ah - a
    al = a - ah
    bh = _SPLIT * b
    bh -= bh - b
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


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


def _decimal_moments(family: Family, count: int) -> list[decimal.Decimal]:
    one = decimal.Decimal(1)
    if family is Family.SHIFTED_LEGENDRE:
        return [one / (k + 1) for k in range(count)]
    if family is Family.SHIFTED_CHEBYSHEV1:
        # m_k = (pi/2) * binom(2k, k) / 4^k via the ratio recurrence
        m = [_PI_50 / 2]
        for k in range(1, count):
            m.append(m[k - 1] * (2 * k - 1) / (2 * k))
        return m
    if family is Family.STANDARD_HERMITE:
        # odd moments vanish, even ones follow the Gamma-function recurrence
        m = [_PI_50.sqrt(), decimal.Decimal(0)]
        for k in range(2, count):
            m.append(m[k - 2] * (k - 1) / 2)
        return m[:count]
    # shift x -> (u+1)/2 turns these into a binomial mix of the standard
    # Hermite moments
    std = _decimal_moments(Family.STANDARD_HERMITE, count)
    out = []
    for k in range(count):
        acc = sum(math.comb(k, j) * std[j] for j in range(0, k + 1, 2))
        out.append(acc / decimal.Decimal(2) ** (k + 1))
    return out


def _decimal_recurrence(family: Family, k: int) -> tuple[decimal.Decimal,
                                                         decimal.Decimal]:
    """(diag_k, off_k) of the orthonormal recurrence, in working precision.

    The shifted families are the classical ones under x -> (u+1)/2, which
    maps the Jacobi matrix J to (J + I)/2.
    """
    two = decimal.Decimal(2)
    if family is Family.SHIFTED_LEGENDRE:
        off = (k + 1) / (decimal.Decimal((2 * k + 1) * (2 * k + 3)).sqrt() * 2)
        return 1 / two, off
    if family is Family.SHIFTED_CHEBYSHEV1:
        off = 1 / (2 * two.sqrt()) if k == 0 else decimal.Decimal("0.25")
        return 1 / two, off
    if family is Family.SHIFTED_HERMITE:
        return 1 / two, (decimal.Decimal(k + 1) / 2).sqrt() / 2
    return decimal.Decimal(0), (decimal.Decimal(k + 1) / 2).sqrt()


def _decimal_coeffs(family: Family, max_degree: int,
                    m0: decimal.Decimal) -> list[list[decimal.Decimal]]:
    zero = decimal.Decimal(0)
    polys = [[1 / m0.sqrt()]]
    prev: list[decimal.Decimal] = []
    off_prev = zero
    for k in range(max_degree):
        diag, off = _decimal_recurrence(family, k)
        cur = polys[k]
        nxt = [zero] * (k + 2)
        for i, c in enumerate(cur):
            nxt[i + 1] += c
            nxt[i] -= diag * c
        for i, c in enumerate(prev):
            nxt[i] -= off_prev * c
        polys.append([c / off for c in nxt])
        prev, off_prev = cur, off
    return polys


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
            raise ValueError(
                f"degree must be in 0..{MAX_DEGREE} (monomial conditioning), "
                f"got {degree}")
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
    + off[k-1] p_{k-1} for k < n: the working-precision coefficients that
    build the basis, correctly rounded to double (shared and read-only).
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        pairs = [_decimal_recurrence(family, k) for k in range(n)]
    return _frozen(d for d, _ in pairs), _frozen(o for _, o in pairs)


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """Orthonormal polynomials P_0 .. P_max_degree for one weight function.

    ``values`` evaluates them by the three-term recurrence; that is what the
    construction uses.  ``coeffs[n]`` holds the monomial view of P_n
    (ascending powers, length n + 1, positive leading coefficient) as
    correctly rounded doubles; their sub-ulp remainders and those of the
    moment table are kept alongside so the family's own inner products do
    not inherit the monomial cancellation loss.

    ``make_basis`` shares one basis per (family, max_degree) per process,
    so all four tables are read-only: copy before modifying.
    """

    family: Family
    max_degree: int
    coeffs: tuple[np.ndarray, ...]
    coeffs_lo: tuple[np.ndarray, ...]
    moments: np.ndarray
    moments_lo: np.ndarray

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

    def _resolve(self, poly) -> tuple[np.ndarray, np.ndarray]:
        """Attach the stored remainder when poly is one of the family."""
        poly = np.asarray(poly, dtype=float)
        n = len(poly) - 1
        if 0 <= n <= self.max_degree and np.array_equal(poly, self.coeffs[n]):
            return self.coeffs[n], self.coeffs_lo[n]
        return poly, np.zeros_like(poly)

    def _moment_dot(self, terms) -> float:
        """Compensated sum of (hi, lo, moment index) triples."""
        hi = lo = 0.0
        for chi, clo, k in terms:
            p, err = _two_prod(chi, self.moments[k])
            err += chi * self.moments_lo[k] + clo * self.moments[k]
            hi, carry = _two_sum(hi, p)
            lo += carry + err
        return hi + lo

    def weighted_integral(self, poly) -> float:
        """int_I p(x) w(x) dx for a monomial-coefficient vector p."""
        poly = np.asarray(poly, dtype=float)
        if len(poly) > len(self.moments):
            raise ValueError(
                f"degree {len(poly) - 1} exceeds stored moments "
                f"(max degree {len(self.moments) - 1})")
        return self._moment_dot(
            (c, 0.0, k) for k, c in enumerate(poly) if c != 0.0)


def _hi_lo(values: list[decimal.Decimal]) -> tuple[np.ndarray, np.ndarray]:
    """Correctly rounded doubles of values and of their remainders."""
    hi = _frozen(values)
    return hi, _frozen(v - decimal.Decimal(h) for v, h in zip(values, hi))


@_shared_table
def make_basis(family: Family, max_degree: int) -> OrthonormalBasis:
    """Build the orthonormal family from its three-term recurrence.

    The recurrence runs in 50-digit working precision and the results are
    rounded to double; everything downstream works on the rounded vectors.
    Each (family, max_degree) is built once per process and every caller
    gets the same read-only basis; copy its arrays before modifying them.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        exact_moments = _decimal_moments(family, 2 * max_degree + 3)
        moments, moments_lo = _hi_lo(exact_moments)
        coeffs = [_hi_lo(poly) for poly in
                  _decimal_coeffs(family, max_degree, exact_moments[0])]
    return OrthonormalBasis(family=family, max_degree=max_degree,
                            coeffs=tuple(hi for hi, _ in coeffs),
                            coeffs_lo=tuple(lo for _, lo in coeffs),
                            moments=moments, moments_lo=moments_lo)


def inner_product(basis: OrthonormalBasis, p, q) -> float:
    """Weighted inner product <p, q>_w of two monomial-coefficient vectors.

    Summed as sum_{m,n} p_m q_n m_{m+n} with exact term products, so the
    violent cancellation of high-degree cross terms costs no accuracy.
    Vectors recognized as the family's own polynomials are evaluated with
    their stored sub-ulp refinements.
    """
    p, p_lo = basis._resolve(p)
    q, q_lo = basis._resolve(q)
    deg = (len(p) - 1) + (len(q) - 1)
    if deg > 2 * basis.max_degree + 2:
        raise ValueError(
            f"product degree {deg} exceeds moment table "
            f"({2 * basis.max_degree + 2})")

    def terms():
        for m, cm in enumerate(p):
            if cm == 0.0 and p_lo[m] == 0.0:
                continue
            for n, dn in enumerate(q):
                if dn == 0.0 and q_lo[n] == 0.0:
                    continue
                chi, clo = _two_prod(float(cm), float(dn))
                clo += float(cm) * q_lo[n] + p_lo[m] * float(dn)
                yield chi, clo, m + n

    return basis._moment_dot(terms())
