"""Weighted orthonormal polynomial families.

Each family is one row of ``Family``: m_0 correctly rounded, the centre c
about which w is even, and one integer.  Shifted Legendre and Chebyshev
(first kind) are multiples of the Jacobi weights (x(1 - x))**a on [0, 1]
(Gautschi, *Orthogonal Polynomials: Computation and Approximation*, OUP
2004, table 1.1), given by t = 2a; the Hermite families are Gaussians on
the real line, given by base = 1 / variance (base * c must be an integer).
One Jacobi and one Gaussian formula give the exact recurrence and moments,
so a new family needs only its row.  P_n is evaluated by the three-term
recurrence in ``values`` (Gautschi, sections 2.1-2.2).

``poly``, ``moments`` and ``inner_product`` are the monomial view, kept
exact in fractions (see ``OrthonormalBasis``) since every family has a
rational monic recurrence and rational moment ratios m_k / m_0, so the
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
_SQRT_PI = 1.772453850905516  # math.sqrt(math.pi) is one ulp low


class Family(Enum):
    """One row per weight: (value, m_0, centre, t or None, base or None)."""

    # w(x) = 1 on [0, 1]
    SHIFTED_LEGENDRE = "shifted-legendre", 1.0, _HALF, 0, None
    # w(x) = 1/(2 sqrt(x(1-x))) on [0, 1]
    SHIFTED_CHEBYSHEV1 = "shifted-chebyshev1", math.pi / 2, _HALF, -1, None
    # w(x) = exp(-(2x-1)^2) on R
    SHIFTED_HERMITE = "shifted-hermite", _SQRT_PI / 2, _HALF, None, 8
    # w(x) = exp(-x^2) on R
    STANDARD_HERMITE = "standard-hermite", _SQRT_PI, Fraction(0), None, 2

    def __new__(cls, value, m0, centre, t, base):
        member = object.__new__(cls)
        member._value_ = value
        member.m0, member.centre, member.t, member.base = m0, centre, t, base
        member.symmetric_weight = centre == _HALF  # w(x) == w(1 - x)
        return member


def family_from_name(name: str) -> Family:
    for fam in Family:
        if fam.value == name:
            return fam
    raise ValueError(f"unknown family {name!r}; choose from "
                     f"{', '.join(f.value for f in Family)}")


def _moment_ratios(family: Family, count: int) -> list[Fraction]:
    """m_k / m_0 for k < count, exactly, from integer sequences."""
    t, base = family.t, family.base
    if base is None:
        # Beta integrals: m_{k+1} / m_k = (t + 2 + 2k) / (2t + 4 + 2k)
        ratios, top, bottom = [], 1, 1
        for k in range(count):
            ratios.append(Fraction(top, bottom))
            top, bottom = top * (t + 2 + 2 * k), bottom * (2 * t + 4 + 2 * k)
        return ratios
    # s_k = base**k m_k / m_0 are integers, from integration by parts on
    # w' = -base (x - c) w
    shift = int(base * family.centre)
    s = [1, shift]
    for k in range(1, count - 1):
        s.append(shift * s[k] + base * k * s[k - 1])
    return [Fraction(v, base ** k) for k, v in enumerate(s)]


def _rational_recurrence(family: Family, k: int) -> tuple[Fraction, Fraction]:
    """(diag_k, off_k**2) of the orthonormal recurrence, exactly.

    A Jacobi row is Gegenbauer's recurrence under x -> (u+1)/2, which maps
    the Jacobi matrix J to (J + I)/2; a Gaussian's off_k**2 is (k+1)/base.
    """
    t, base, n = family.t, family.base, k + 1
    if base is not None:
        off2 = Fraction(n, base)
    elif k == 0:
        off2 = Fraction(1, 4 * (t + 3))
    else:
        off2 = Fraction(n * (n + t), 4 * (2 * n + t + 1) * (2 * n + t - 1))
    return family.centre, off2


def _times(scale: float, num: int, den: int) -> float:
    """scale * num / den, rounded once (int / int is correctly rounded)."""
    top, bottom = scale.as_integer_ratio()
    return top * num / (bottom * den)


def _over(scale: float, values) -> tuple[int, int, list[int]]:
    """(top, bottom, nums) with scale * values[i] = top * nums[i] / bottom
    exactly: the rationals over their least common denominator."""
    den = math.lcm(*(v.denominator for v in values))
    top, bottom = scale.as_integer_ratio()
    return top, bottom * den, [v.numerator * (den // v.denominator)
                               for v in values]


def _integer(name: str, value, low=None, high=None, error=ValueError) -> int:
    """operator.index(value), checked against low (and high if given); the
    errors name it: TypeError for a non-integer or a bool, else error."""
    try:
        if isinstance(value, bool):
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if high is not None and not low <= number <= high:
        raise error(f"{name} must be in {low}..{high}, got {number}")
    if low is not None and number < low:
        raise error(f"{name} must be >= {low}")
    return number


def _reals(name: str, value) -> np.ndarray:
    """value as a float array, the one conversion of an array argument.
    The errors name it: TypeError for None anywhere and complex values,
    which numpy reads as NaN or its real part, or where float() raises
    one, else ValueError (strings, ragged nesting, huge ints)."""
    try:
        array = np.asarray(value)
        kind = array.dtype.kind
        if kind in "cmMSU" or (kind == "O"
                               and any(x is None for x in array.flat)):
            raise ValueError if kind in "SU" else TypeError
        return array.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as err:
        error = TypeError if isinstance(err, TypeError) else ValueError
        raise error(f"{name} must hold real numbers, got {value!r}") from None


def _real(name: str, value, error=ValueError, *, nonzero=False) -> None:
    """Check that value is a finite real number, nonzero if asked; the errors
    name the argument: TypeError for a non-real value, else error."""
    try:
        finite = math.isfinite(value)
    except TypeError:
        raise TypeError(f"{name} must be a real number, got "
                        f"{value!r}") from None
    except OverflowError:  # an int too large for a double
        finite = False
    if not finite or (nonzero and value == 0):
        need = "finite and nonzero" if nonzero else "finite"
        raise error(f"{name} must be {need}, got {value!r}")


def _shared_table(build):
    """Memoize build(family, degree), checking the key first so only valid
    keys are stored; results are shared, so their arrays must be read-only.
    ``__wrapped__`` is build, ``cache_clear``/``cache_info`` the memo's."""
    cached = functools.cache(build)

    @functools.wraps(build)
    def table(family, degree):
        if not isinstance(family, Family):
            raise TypeError(f"family must be a Family member, got {family!r}")
        return cached(family, _integer("degree", degree, 0, MAX_DEGREE))

    table.cache_clear, table.cache_info = cached.cache_clear, cached.cache_info
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
        x = _reals("x", x)
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
        n = len(poly) - 1
        if 0 <= n <= self.max_degree and np.array_equal(poly, self.coeffs[n]):
            return self.monic[n]
        return 1.0, tuple(map(Fraction, poly.tolist()))


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
    m0 = family.m0
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
        _, common, (up, mid, low) = _over(
            1.0, (Fraction(1, den), diag / den, off2_prev / den_prev))
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


def _integrals(rows, cols, moments, scale: float = 1.0, *,
               exact: bool = False) -> np.ndarray:
    """The one exact integration path: a read-only array of scale s_r s_c
    sum_{m,n} r[m] c[n] moments[m + n] over the rows (s_r, r) and columns
    (s_c, c), for rationals r, c and moments (long enough for every
    product) and double scales, summed on integer numerators: each entry
    is its exact value, a Fraction if exact, else rounded once (0 stays 0)."""
    top, den, mu = _over(scale, moments)
    width = max(len(r) for _, r in rows)
    # per column: sum_n c[n] moments[m + n] for m < width
    cols = [(t * top, b * den, [sum(map(operator.mul, c, mu[m:]))
                                for m in range(width)])
            for t, b, c in (_over(*col) for col in cols)]
    divide = Fraction if exact else operator.truediv
    out = np.array([[divide(t * tc * sum(map(operator.mul, r, sums)), b * bc)
                     for tc, bc, sums in cols]
                    for t, b, r in (_over(*row) for row in rows)],
                   dtype=object if exact else float)
    out.flags.writeable = False
    return out


def inner_product(basis: OrthonormalBasis, p, q) -> float:
    """Weighted inner product <p, q>_w of two monomial-coefficient vectors,
    summed exactly and rounded once (``_integrals``), so the violent
    cancellation of high-degree cross terms costs no accuracy.  A vector
    equal to the family's own ``poly(n)`` is read as its exact sigma_n
    pi_n; any other vector as its doubles (sigma = 1)."""
    sp, p = basis._exact(_reals("p", p))
    sq, q = basis._exact(_reals("q", q))
    deg = (len(p) - 1) + (len(q) - 1)
    if deg > 2 * basis.max_degree + 2:
        raise ValueError(
            f"product degree {deg} exceeds moment table "
            f"({2 * basis.max_degree + 2})")
    return float(_integrals([(sp, p)], [(sq, q)], basis.ratios,
                            basis.family.m0)[0, 0])
