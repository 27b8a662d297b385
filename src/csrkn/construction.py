"""Construction of symplectic Runge-Kutta-Nystrom methods.

A construction is stored as coefficients in one weighted orthonormal family:
the velocity weight B = sum_j lam[j] P_j and the coupling coefficients
``alpha[(i, j)]``.  The pipeline has three steps.  First lam is pinned to
int_0^1 P_j up to b_order, which enforces the weight moment conditions.
Second, alpha is constrained so the method is symplectic (and optionally
time-reversible), and the remaining coefficients are solved from the stage
moment conditions, compared coefficient by coefficient in the family.
Third, ``discretize`` builds B and the kernel from the ``values`` sample of
a same-family Gauss rule and checks both symplecticity identities on it.

The expansion convention for the coupling kernel is

    A(tau, sigma) / B(sigma) = alpha[0,0] + alpha[0,1] P_1(sigma)
        + alpha[1,0] P_1(tau) + sum_{i+j>1} alpha[i,j] P_i(tau) P_j(sigma),

i.e. the three lowest terms carry no P_0 factors while the general terms do.
The symplectic constraints are alpha[0,1] - alpha[1,0] = -<x, P_1>_w and
alpha[i,j] = alpha[j,i] for i + j > 1; time reversibility additionally needs
a reflection-symmetric weight, alpha[0,1] = -alpha[1,0], and vanishing
odd-sum alpha and odd-index lam, since P_j(1 - x) = (-1)^j P_j(x) then.
Both are checked exactly on the coefficients.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import index
from typing import Mapping

import numpy as np

from .basis import (MAX_DEGREE, Family, OrthonormalBasis, _integer,
                    _integrals, _real, _reals, make_basis,
                    recurrence_coefficients)
from .quadrature import QuadratureRule, gauss_rule

TABLEAU_TOL = 1e-12

_log = logging.getLogger("csrkn")

# name -> (family, Gauss points, factor of gamma in alpha[1,1]); hermite3
# has no free parameter
_BUILTINS = {
    "legendre4": (Family.SHIFTED_LEGENDRE, 2, 2.0),
    "chebyshev4": (Family.SHIFTED_CHEBYSHEV1, 3, 1.5 * math.pi),
    "hermite4": (Family.SHIFTED_HERMITE, 3, 1.5 * math.sqrt(math.pi)),
    "hermite3": (Family.STANDARD_HERMITE, 3, None),
}
BUILTIN_METHODS = tuple(_BUILTINS)


class ConstructionError(ValueError):
    """The requested coefficient set does not exist or is inconsistent."""


@dataclass(frozen=True)
class ConstructionSpec:
    """Parameters of the symplectic construction.

    b_order / cn_order are the targeted orders of the weight and stage
    moment conditions; tau_degree caps the tau-degree of the coupling
    ansatz.  free_alpha pins expansion coefficients that the constraints
    leave open (missing entries default to zero), keyed by integer pairs
    (i, j); each pin must be a finite real number.
    """

    family: Family
    b_order: int = 3
    cn_order: int = 2
    tau_degree: int = 2
    free_alpha: Mapping[tuple[int, int], float] = field(default_factory=dict)
    symmetric: bool = False

    def __post_init__(self):
        if not isinstance(self.family, Family):
            raise TypeError(f"family must be a Family member, got "
                            f"{self.family!r}")
        for name in ("b_order", "cn_order", "tau_degree"):
            _integer(name, getattr(self, name))
        if not isinstance(self.symmetric, bool):
            raise TypeError(f"symmetric must be a bool, got "
                            f"{self.symmetric!r}")
        _integer("b_order", self.b_order, 1, MAX_DEGREE, ConstructionError)
        _integer("cn_order", self.cn_order, 1, error=ConstructionError)
        if self.b_order < 2 * self.cn_order - 1:
            raise ConstructionError(
                f"ansatz needs b_order >= 2*cn_order - 1 "
                f"(got {self.b_order} < {2 * self.cn_order - 1})")
        if self.tau_degree < self.cn_order:
            raise ConstructionError(
                f"ansatz needs tau_degree >= cn_order "
                f"(got {self.tau_degree} < {self.cn_order})")
        if self.symmetric and not self.family.symmetric_weight:
            raise ConstructionError(
                f"{self.family.value} weight is not reflection-symmetric; "
                f"a symmetric method cannot be requested")
        if not isinstance(self.free_alpha, Mapping):
            raise TypeError(f"free_alpha must be a mapping, got "
                            f"{self.free_alpha!r}")
        for key, value in self.free_alpha.items():
            try:
                i, j = key
                index(i), index(j)
            except (TypeError, ValueError):
                raise TypeError(f"free_alpha keys must be pairs of integers, "
                                f"got {key!r}") from None
            _real(f"alpha{key}", value, ConstructionError)

    def __hash__(self):
        # the generated __eq__ compares the mappings by items
        return hash((self.family, self.b_order, self.cn_order,
                     self.tau_degree, frozenset(self.free_alpha.items()),
                     self.symmetric))

    @property
    def alpha_range(self) -> int:
        """Largest index r carried by the ansatz; alpha[i,j] = 0 beyond it."""
        return min(self.tau_degree, self.b_order - self.cn_order + 1)


@functools.cache
def interval_integrals(family: Family) -> tuple[np.ndarray, ...]:
    """Integrals over [0, 1] of the family's P_0 .. P_MAX_DEGREE.

    Returns (ones, gram, targets): ones[j] = int_0^1 P_j, gram[j, k] =
    int_0^1 P_j P_k, and targets[k, m] = <D_k, P_m>_w, the coefficients of
    the stage-condition right side D_k(tau) = int_0^tau int_0^a P_k dx da
    for every test index k a spec can have (k < cn_order - 1 <=
    (b_order - 1) / 2, so k <= 4).  Each entry is the exact value from
    ``basis.monic`` and int_0^1 x^i = 1 / (i + 1) or the moment ratios,
    rounded once (``basis._integrals``): zeros by parity or degree are exact.
    One read-only table set per family serves every basis and stage count.
    """
    basis = make_basis(family, MAX_DEGREE)
    polys = basis.monic
    unit = [Fraction(1, i + 1) for i in range(2 * MAX_DEGREE + 1)]
    ones = _integrals([(1.0, [1])], polys, unit)[0]
    gram = _integrals(polys, polys, unit)
    # D_k = sigma_k sum_i pi_k[i] tau^(i + 2) / ((i + 1) (i + 2))
    primitives = [(sigma, [0, 0, *(c / ((i + 1) * (i + 2))
                                   for i, c in enumerate(monic))])
                  for sigma, monic in polys[: (MAX_DEGREE + 1) // 2 - 1]]
    return ones, gram, _integrals(primitives, polys, basis.ratios, family.m0)


def _check_family(basis: OrthonormalBasis, spec: ConstructionSpec | None):
    if spec is not None and spec.family is not basis.family:
        raise ConstructionError(
            f"spec family {spec.family.value} does not match "
            f"basis family {basis.family.value}")


def build_b(basis: OrthonormalBasis, spec: ConstructionSpec) -> np.ndarray:
    """Series coefficients lam of the velocity-weight function B: the
    b_order integrals int_0^1 P_j dx (the stage interval of every family),
    so the weight moment conditions hold by construction and, for a
    reflection-symmetric weight, the odd terms are exactly 0."""
    _check_family(basis, spec)
    if spec.b_order > basis.max_degree:
        raise ConstructionError(f"b_order {spec.b_order} exceeds basis "
                                f"degree {basis.max_degree}")
    return interval_integrals(basis.family)[0][: spec.b_order].copy()


def _max_magnitude(values) -> float:
    """max |v| over Python floats, as float(np.abs(a).max()) gives it.  The
    sum of the magnitudes is NaN exactly when one of them is, and max()
    would skip a NaN that is not first, so NaN anywhere gives NaN here as in
    numpy."""
    magnitudes = list(map(abs, values))
    total = sum(magnitudes)
    return max(magnitudes) if total == total else total


def _gap(family: Family) -> float:
    """<x, P_1>_w = off[0] sqrt(m0), the offset alpha[1,0] - alpha[0,1] of a
    symplectic kernel."""
    off = recurrence_coefficients(family, 1)[1]
    return float(off[0]) * math.sqrt(family.m0)


def _expand(upper: Mapping[tuple[int, int], float],
            gap: float) -> dict[tuple[int, int], float]:
    """Every alpha from the upper triangle: alpha[j,i] = alpha[i,j] for
    i + j > 1 and alpha[1,0] = alpha[0,1] + gap."""
    full = dict(upper)
    for (i, j), value in upper.items():
        if i + j > 1:
            full[(j, i)] = value
    full[(1, 0)] = full.get((0, 1), 0.0) + gap
    return full


def kernel_matrix(basis: OrthonormalBasis,
                  alpha: Mapping[tuple[int, int], float],
                  size: int) -> np.ndarray:
    """K (size x size, size >= 2) with A(tau, sigma) = B(sigma)
    sum_ij K[i, j] P_i(tau) P_j(sigma); alpha must be 0 beyond size."""
    kernel = np.zeros((size, size))
    for key, value in alpha.items():
        if value != 0.0:
            kernel[key] = value
    # the three lowest terms of the convention carry no P_0 factors
    p0 = 1.0 / math.sqrt(basis.moments[0])
    kernel[0, 0] /= p0 * p0
    kernel[0, 1] /= p0
    kernel[1, 0] /= p0
    return kernel


def _left_sides(basis: OrthonormalBasis,
                alpha: Mapping[tuple[int, int], float], r: int,
                n_cond: int) -> np.ndarray:
    """The stage conditions' left sides int_0^1 A(tau, s) / B(s) P_k(s) ds
    on P_0(tau) .. P_r(tau), k = 0 .. n_cond - 1 outermost."""
    gram = interval_integrals(basis.family)[1]
    return (kernel_matrix(basis, alpha, r + 1)
            @ gram[: r + 1, :n_cond]).T.ravel()


@functools.lru_cache(maxsize=256)
def _solve_plan(family: Family, n_cond: int, r: int,
                unknowns: tuple[tuple[int, int], ...]):
    """solve_alpha's system as far as its structure fixes it, built once per
    key and shared: (the condition matrix without its idle columns, read
    only, each column the left sides of one unit coefficient taken through
    kernel_matrix; the idle unknowns; the active ones; the rank-deficiency
    message or None)."""
    basis = make_basis(family, MAX_DEGREE)
    matrix = np.array([_left_sides(basis, _expand({pair: 1.0}, 0.0), r, n_cond)
                       for pair in unknowns]).reshape(-1, (r + 1) * n_cond).T
    # coefficients the conditions never touch take their default value 0
    idle = ~matrix.any(axis=0)
    matrix = matrix[:, ~idle]
    matrix.flags.writeable = False
    flags = list(zip(unknowns, idle.tolist()))
    active = tuple(pair for pair, off in flags if not off)
    error = None
    if active:
        sing = np.linalg.svd(matrix, compute_uv=False)
        if (sing > 1e-10 * sing[0]).sum() < len(active):
            error = (f"rank deficiency couples the alpha coefficients "
                     f"{', '.join(map(str, active))}; pin some of them via "
                     f"free_alpha")
    return matrix, tuple(pair for pair, off in flags if off), active, error


def solve_alpha(basis: OrthonormalBasis,
                spec: ConstructionSpec) -> dict[tuple[int, int], float]:
    """Solve the stage moment conditions for the coupling coefficients.

    For each test polynomial P_k, k = 0 .. cn_order - 2, the condition is a
    polynomial identity in tau of degree at most alpha_range; matching its
    coefficients on P_0(tau) .. P_alpha_range(tau) yields a linear system in
    the upper-triangle unknowns alpha[i <= j].  Symmetric and user pins are
    substituted first; unknowns the system never touches fall back to zero;
    any remaining coupled rank deficiency or inconsistent equation is
    reported rather than resolved silently.
    """
    _check_family(basis, spec)
    r = spec.alpha_range
    if r > basis.max_degree:
        raise ConstructionError(f"alpha_range {r} exceeds basis degree "
                                f"{basis.max_degree}")
    gap = _gap(basis.family)
    pairs = [(i, j) for i in range(r + 1) for j in range(i, r + 1)]

    pinned: dict[tuple[int, int], float] = {}
    if spec.symmetric:
        pinned[(0, 1)] = -0.5 * gap
        for (i, j) in pairs:
            if i + j > 1 and (i + j) % 2 == 1:
                pinned[(i, j)] = 0.0
    for key, value in spec.free_alpha.items():
        i, j = min(key), max(key)
        if (i, j) not in pairs:
            raise ConstructionError(f"alpha index {key} outside range 0..{r}")
        if (i, j) in pinned and not math.isclose(pinned[(i, j)], value,
                                                 rel_tol=0.0, abs_tol=1e-13):
            raise ConstructionError(
                f"alpha{key} = {value} conflicts with the symmetry "
                f"constraint value {pinned[(i, j)]}")
        pinned[(i, j)] = float(value)

    solution = dict(pinned)
    n_cond = spec.cn_order - 1
    if n_cond:
        matrix, idle, active, error = _solve_plan(
            basis.family, n_cond, r,
            tuple(pair for pair in pairs if pair not in pinned))
        if error:
            raise ConstructionError(error)
        targets = interval_integrals(basis.family)[2]
        vector = (targets[:n_cond, : r + 1].ravel()
                  - _left_sides(basis, _expand(pinned, gap), r, n_cond))
        solution.update(dict.fromkeys(idle, 0.0))
        values = (np.linalg.lstsq(matrix, vector, rcond=None)[0] if active
                  else np.zeros(0))
        residual = np.abs(matrix @ values - vector)
        worst = int(residual.argmax())
        if not residual[worst] <= 1e-10 * max(1.0, np.abs(vector).max()):
            k, m = divmod(worst, r + 1)
            raise ConstructionError(
                f"stage moment conditions are inconsistent: test index "
                f"{k}, P_{m}(tau) residual {residual[worst]:.3e}")
        solution.update(zip(active, values.tolist()))
    for pair in pairs:
        solution.setdefault(pair, 0.0)
    return _expand(solution, gap)


@dataclass(frozen=True, eq=False)
class ContinuousCoefficients:
    """The assembled continuous-stage coefficient functions.

    Stored as coefficients in the orthonormal family: the velocity weight is
    B = sum_j lam[j] P_j and the coupling kernel A(tau, sigma) is B(sigma)
    times the ``alpha`` expansion of the module docstring.  The position
    weight is B(tau) (1 - tau) and the abscissa function is the identity.
    """

    basis: OrthonormalBasis
    lam: np.ndarray
    alpha: dict[tuple[int, int], float]
    spec: ConstructionSpec | None = None

    @property
    def family(self) -> Family:
        return self.basis.family

    @property
    def degrees(self) -> tuple[int, int, int]:
        """(deg B, tau-degree of A, sigma-degree of A), read from the
        support of lam and alpha."""
        deg_b = int(max(np.flatnonzero(self.lam), default=0))
        keys = [key for key, value in self.alpha.items() if value != 0.0]
        return (deg_b, max((i for i, _ in keys), default=0),
                max((j for _, j in keys), default=0) + deg_b)

    @property
    def _sample_degrees(self) -> tuple[int, int]:
        """(deg B, top): B needs P_0 .. P_deg_B and the kernel P_0 .. P_top,
        top = max(tau-degree, sigma-degree - deg B, 1)."""
        deg_b, deg_tau, deg_sigma = self.degrees
        return deg_b, max(deg_tau, deg_sigma - deg_b, 1)

    def b(self, tau):
        """Velocity weight B(tau)."""
        deg = self.degrees[0]
        values = self.basis.values(_reals("tau", tau), deg)
        flat = self.lam[: deg + 1] @ values.reshape(deg + 1, -1)
        return flat.reshape(values.shape[1:])[()]

    def a_bar(self, tau, sigma):
        """Coupling kernel at (tau, sigma)."""
        tau, sigma = np.broadcast_arrays(_reals("tau", tau),
                                         _reals("sigma", sigma))
        n = self._sample_degrees[1] + 1
        kernel = kernel_matrix(self.basis, self.alpha, n)
        p_tau = self.basis.values(tau, n - 1).reshape(n, -1)
        p_sigma = self.basis.values(sigma, n - 1).reshape(n, -1)
        flat = np.sum(p_tau * (kernel @ p_sigma), axis=0)
        return flat.reshape(tau.shape)[()] * self.b(sigma)

    @property
    def symplectic_residual(self) -> float:
        """Largest violation of alpha[0,1] - alpha[1,0] = -<x, P_1>_w and
        alpha[i,j] = alpha[j,i] (i + j > 1); NaN if any term is NaN."""
        a = self.alpha
        return _max_magnitude([a.get((0, 1), 0.0) - a.get((1, 0), 0.0)
                               + _gap(self.family)]
                              + [v - a.get((j, i), 0.0)
                                 for (i, j), v in a.items() if i + j > 1])

    @property
    def symmetry_residual(self) -> float:
        """Largest violation of the time-reversal conditions for a
        reflection-symmetric weight: alpha[0,1] = -alpha[1,0] and vanishing
        odd-sum alpha and odd-index lam; NaN if any term is NaN."""
        a = self.alpha
        return _max_magnitude([a.get((0, 1), 0.0) + a.get((1, 0), 0.0)]
                              + [v for (i, j), v in a.items()
                                 if (i + j) % 2 == 1 and i + j > 1]
                              + self.lam[1::2].tolist())


def assemble(basis: OrthonormalBasis, lam: np.ndarray,
             alpha: Mapping[tuple[int, int], float],
             spec: ConstructionSpec | None = None) -> ContinuousCoefficients:
    """Combine the weight series and coupling coefficients after checking
    that basis and spec share a family, that every alpha index is in the
    basis, symplecticity on alpha and, for a symmetric spec, the parity of
    lam exactly and time reversibility on alpha."""
    _check_family(basis, spec)
    top = basis.max_degree
    for i, j in alpha:
        if not (0 <= i <= top and 0 <= j <= top):
            raise ConstructionError(f"alpha index {i, j} outside range 0..{top}")
    coeffs = ContinuousCoefficients(
        basis=basis, lam=_reals("lam", lam),
        alpha={key: float(v) for key, v in alpha.items()}, spec=spec)
    residual = coeffs.symplectic_residual
    if not residual <= TABLEAU_TOL:
        raise ConstructionError(
            f"alpha violates alpha[0,1] - alpha[1,0] = -<x, P_1>_w or "
            f"alpha[i,j] = alpha[j,i] (residual {residual:.3e})")
    if spec is not None and spec.symmetric:
        if np.any(coeffs.lam[1::2]):
            raise ConstructionError(
                "velocity weight is not reflection-symmetric "
                "(odd-index lam must vanish)")
        # odd-index lam is exactly 0 here, so this is the alpha part
        residual = coeffs.symmetry_residual
        if not residual <= TABLEAU_TOL:
            raise ConstructionError(
                f"alpha violates alpha[0,1] = -alpha[1,0] or vanishing "
                f"odd-sum alpha (residual {residual:.3e})")
    return coeffs


@dataclass(frozen=True, eq=False)
class RKNTableau:
    """Discrete method: nodes c, coupling matrix a_bar, position weights
    b_bar, velocity weights b_prime (quadrature weights already folded in)."""

    c: np.ndarray
    a_bar: np.ndarray
    b_bar: np.ndarray
    b_prime: np.ndarray
    family: Family | None = None
    method: str | None = None
    gamma: float | None = None

    @property
    def s(self) -> int:
        return len(self.c)


def check_symplectic(tableau: RKNTableau) -> float:
    """Max residual of the two discrete symplecticity identities:
    b_bar = b_prime (1 - c) and b'_i (b_bar_j - a_ij) = b'_j (b_bar_i - a_ji)."""
    bp = tableau.b_prime
    m = bp[:, None] * (tableau.b_bar[None, :] - tableau.a_bar)
    position = tableau.b_bar - bp * (1.0 - tableau.c)
    return _max_magnitude((m - m.T).ravel().tolist() + position.tolist())


def discretize(coeffs: ContinuousCoefficients,
               rule: QuadratureRule) -> RKNTableau:
    """Sample the continuous coefficients at a Gauss rule of the same family:
    B and the kernel are built from the rule's own sample of P_0 .. P_n at
    its nodes, so no recurrence runs here."""
    if rule.family is not coeffs.family:
        raise ConstructionError(
            f"rule family {rule.family.value} does not match "
            f"coefficients family {coeffs.family.value}")
    c, w = rule.nodes.copy(), rule.weights
    deg_b, top = coeffs._sample_degrees
    b_values = coeffs.lam[: deg_b + 1] @ rule.values[: deg_b + 1]
    kernel = kernel_matrix(coeffs.basis, coeffs.alpha, top + 1)
    p = rule.values[: top + 1]
    grid = np.sum(p[:, :, None] * (kernel @ p)[:, None, :], axis=0)
    tableau = RKNTableau(c=c, a_bar=w * (grid * b_values),
                         b_bar=w * (b_values * (1.0 - c)),
                         b_prime=w * b_values, family=coeffs.family)
    residual = check_symplectic(tableau)
    if not residual <= TABLEAU_TOL:
        raise ConstructionError(f"discrete symplecticity identities "
                                f"violated (residual {residual:.3e})")
    return tableau


def method_spec(name: str, gamma: float = 0.0) -> ConstructionSpec:
    """Construction parameters of the built-in methods; gamma must be
    finite, for hermite3 too."""
    if name not in _BUILTINS:
        raise ConstructionError(f"unknown method {name!r}; choose from "
                                f"{', '.join(BUILTIN_METHODS)}")
    _real("gamma", gamma, ConstructionError)
    family, _, factor = _BUILTINS[name]
    if factor is None:
        # the non-symmetric construction: split the first-order constraint
        # evenly by hand, zero the remaining upper coefficients
        return ConstructionSpec(
            family=family, symmetric=False,
            free_alpha={(0, 1): -_gap(family) / 2, (1, 2): 0.0, (2, 2): 0.0})
    return ConstructionSpec(
        family=family, symmetric=True,
        free_alpha={(1, 1): factor * gamma, (1, 2): 0.0, (2, 2): 0.0})


def _coefficients(spec: ConstructionSpec) -> ContinuousCoefficients:
    """Continuous coefficients on the family's MAX_DEGREE basis."""
    basis = make_basis(spec.family, MAX_DEGREE)
    return assemble(basis, build_b(basis, spec), solve_alpha(basis, spec),
                    spec=spec)


def derive(spec: ConstructionSpec, stages: int) -> RKNTableau:
    """The stages-point tableau of a construction: its continuous
    coefficients sampled at the family's Gauss rule; stages is an integer
    in 1..MAX_DEGREE."""
    stages = _integer("stages", stages, 1, MAX_DEGREE, ConstructionError)
    coeffs = _coefficients(spec)
    return discretize(coeffs, gauss_rule(coeffs.basis, stages))


def builtin_coefficients(name: str, gamma: float = 0.0) -> ContinuousCoefficients:
    return _coefficients(method_spec(name, gamma))


def builtin_tableau(name: str, gamma: float = 0.0) -> RKNTableau:
    """One of the four shipped methods.  hermite3 has no free parameter: its
    gamma is None, and a nonzero gamma is ignored with a warning."""
    tableau = derive(method_spec(name, gamma), _BUILTINS[name][1])
    if _BUILTINS[name][2] is None:
        if gamma != 0.0:
            _log.warning("hermite3 has no free parameter; gamma = %r is "
                         "ignored", gamma)
        gamma = None
    return replace(tableau, method=name, gamma=gamma)


def serialize_tableau(tableau: RKNTableau) -> str:
    """Plain-text form: s, nodes, coupling rows, then both weight rows."""
    row = " ".join(["%.17g"] * tableau.s)
    rows = [tableau.c, *tableau.a_bar, tableau.b_bar, tableau.b_prime]
    return "\n".join([str(tableau.s)] + [row % tuple(values.tolist())
                                         for values in rows]) + "\n"


def parse_tableau(text: str) -> RKNTableau:
    tokens = text.split()
    if not tokens:
        raise ValueError("empty tableau text")
    try:
        s = int(tokens[0])
    except ValueError:
        raise ValueError(f"tableau stage count must be an integer, got "
                         f"{tokens[0]!r}") from None
    if s < 1:
        raise ValueError(f"tableau needs >= 1 stage, got {s}")
    expected = 1 + s + s * s + s + s
    if len(tokens) != expected:
        raise ValueError(
            f"tableau text has {len(tokens)} numbers, expected {expected}")
    values = []
    for token in tokens[1:]:
        try:
            values.append(float(token))
        except ValueError:
            raise ValueError(f"tableau entries must be numbers, got "
                             f"{token!r}") from None
    data = np.array(values)
    if not np.isfinite(data).all():
        raise ValueError("tableau entries must be finite")
    c = data[:s]
    a_bar = data[s: s + s * s].reshape(s, s)
    b_bar = data[s + s * s: 2 * s + s * s]
    b_prime = data[2 * s + s * s:]
    return RKNTableau(c=c, a_bar=a_bar, b_bar=b_bar, b_prime=b_prime)
