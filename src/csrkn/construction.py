"""Construction of symplectic Runge-Kutta-Nystrom methods.

A construction is stored as coefficients in one weighted orthonormal family:
the velocity weight B = sum_j lam[j] P_j and the coupling coefficients
``alpha[(i, j)]``.  The pipeline has three steps.  First lam is pinned to
int_0^1 P_j up to b_order, which enforces the weight moment conditions.
Second, alpha is constrained so the method is symplectic (and optionally
time-reversible), and the remaining coefficients are solved from the stage
moment conditions, compared coefficient by coefficient in the family.
Third, B and the kernel are evaluated by the three-term recurrence at a
Gauss rule of the same family, which preserves symplecticity exactly.

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
import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np
from numpy.polynomial import legendre

from .basis import (MAX_DEGREE, Family, OrthonormalBasis,
                    make_basis, recurrence_coefficients)
from .quadrature import QuadratureRule, gauss_rule

TABLEAU_TOL = 1e-12

BUILTIN_METHODS = ("legendre4", "chebyshev4", "hermite4", "hermite3")


class ConstructionError(ValueError):
    """The requested coefficient set does not exist or is inconsistent."""


@dataclass(frozen=True)
class ConstructionSpec:
    """Parameters of the symplectic construction.

    b_order / cn_order are the targeted orders of the weight and stage
    moment conditions; tau_degree caps the tau-degree of the coupling
    ansatz.  free_alpha pins expansion coefficients that the constraints
    leave open (missing entries default to zero); free_lambda does the same
    for trailing terms of the weight-function series.
    """

    family: Family
    b_order: int = 3
    cn_order: int = 2
    tau_degree: int = 2
    free_alpha: Mapping[tuple[int, int], float] = field(default_factory=dict)
    free_lambda: Mapping[int, float] = field(default_factory=dict)
    symmetric: bool = False

    def __post_init__(self):
        if self.b_order < 1 or self.cn_order < 1:
            raise ConstructionError("b_order and cn_order must be >= 1")
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

    def __hash__(self):
        # the generated __eq__ compares the mappings by items
        return hash((self.family, self.b_order, self.cn_order,
                     self.tau_degree, frozenset(self.free_alpha.items()),
                     frozenset(self.free_lambda.items()), self.symmetric))

    @property
    def alpha_range(self) -> int:
        """Largest index r carried by the ansatz; alpha[i,j] = 0 beyond it."""
        return min(self.tau_degree, self.b_order - self.cn_order + 1)


@functools.cache
def _unit_rule() -> tuple[np.ndarray, np.ndarray]:
    """The MAX_DEGREE-point Gauss-Legendre rule on [0, 1], exact to degree
    2 MAX_DEGREE - 1: (nodes, weights), built once per process."""
    nodes, weights = legendre.leggauss(MAX_DEGREE)
    return (nodes + 1.0) / 2.0, weights / 2.0


@functools.cache
def interval_integrals(family: Family,
                       degree: int) -> tuple[np.ndarray, ...]:
    """Integrals over [0, 1] of the family's P_0 .. P_degree.

    Returns (ones, gram, targets): ones[j] = int_0^1 P_j, gram[j, k] =
    int_0^1 P_j P_k, and targets[k, m] = <D_k, P_m>_w, the coefficients of
    the stage-condition right side D_k(tau) = int_0^tau int_0^a P_k dx da =
    tau^2 int_0^1 (1 - u) P_k(tau u) du, for every test index k a spec on
    this basis can have (cn_order <= (b_order + 1) / 2 <= (degree + 1) / 2).
    The [0, 1] rule is exact for all of them but gram[MAX_DEGREE,
    MAX_DEGREE], which is never read; D_k has degree k + 2, so the
    (k + 3)-point Gauss rule of the family projects it exactly.  Entries
    that vanish by parity are set to exactly 0.  Built once per (family,
    degree); shared and read-only.
    """
    basis = make_basis(family, degree)
    t, w = _unit_rule()
    vals = basis.values(t, degree)
    ones = vals @ w
    gram = (vals * w) @ vals.T
    if family.symmetric_weight:
        # P_j(1 - x) = (-1)^j P_j(x)
        odd = np.arange(degree + 1) % 2
        ones[odd == 1] = 0.0
        gram[(odd[:, None] + odd[None, :]) == 1] = 0.0
    targets = np.zeros((max((degree + 1) // 2 - 1, 0), degree + 1))
    for k in range(len(targets)):
        own = gauss_rule(basis, k + 3)
        x = own.nodes
        inner = basis.values(np.multiply.outer(x, t), k)[k] @ (w * (1.0 - t))
        targets[k, : k + 3] = ((inner * x * x * own.weights)
                               @ basis.values(x, k + 2).T)
    if family is Family.STANDARD_HERMITE:
        # P_j(-x) = (-1)^j P_j(x) and D_k(-tau) = (-1)^k D_k(tau)
        odd = np.add.outer(np.arange(len(targets)), np.arange(degree + 1))
        targets[odd % 2 == 1] = 0.0
    for table in (ones, gram, targets):
        table.flags.writeable = False
    return ones, gram, targets


def build_b(basis: OrthonormalBasis, spec: ConstructionSpec) -> np.ndarray:
    """Series coefficients lam of the velocity-weight function B.

    The first b_order coefficients are pinned to int_0^1 P_j dx (the stage
    interval is [0, 1] for every family), which makes the weight moment
    conditions hold by construction; later ones come from free_lambda
    (default 0).  For a reflection-symmetric weight the odd pinned terms
    are exactly 0.
    """
    if spec.b_order > basis.max_degree:
        raise ConstructionError("b_order exceeds basis degree")
    tail = {j: float(v) for j, v in spec.free_lambda.items()}
    for j in tail:
        if j < spec.b_order:
            raise ConstructionError(
                f"free_lambda index {j} collides with the pinned range "
                f"0..{spec.b_order - 1}")
        if j > basis.max_degree:
            raise ConstructionError(f"free_lambda index {j} exceeds basis degree")
        if spec.symmetric and j % 2 == 1 and tail[j] != 0.0:
            raise ConstructionError(
                "symmetric methods need vanishing odd-index weight terms")
    size = max([spec.b_order] + [j + 1 for j in tail])
    lam = np.zeros(size)
    ones = interval_integrals(basis.family, basis.max_degree)[0]
    lam[: spec.b_order] = ones[: spec.b_order]
    for j, v in tail.items():
        lam[j] = v
    # snap rounding noise so the support matches the true degree
    lam[np.abs(lam) < 1e-13 * max(1.0, float(np.max(np.abs(lam))))] = 0.0
    return lam


def _gap(basis: OrthonormalBasis) -> float:
    """<x, P_1>_w = off[0] sqrt(m0), the offset alpha[1,0] - alpha[0,1] of a
    symplectic kernel."""
    off = recurrence_coefficients(basis.family, 1)[1]
    return float(off[0]) * math.sqrt(basis.moments[0])


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
    r = spec.alpha_range
    if r > basis.max_degree:
        raise ConstructionError("alpha_range exceeds basis degree")
    gap = _gap(basis)
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
        # a condition needs b_order >= 3, so r <= b_order - 1 < MAX_DEGREE
        # and every integral read here is exact
        _, gram, targets = interval_integrals(basis.family, basis.max_degree)
        weights = gram[: r + 1, :n_cond]

        def left_sides(alpha) -> np.ndarray:
            """Coefficients on P_0(tau) .. P_r(tau) of the conditions' left
            sides int_0^1 A(tau, s) / B(s) P_k(s) ds, k outermost."""
            return (kernel_matrix(basis, alpha, r + 1) @ weights).T.ravel()

        unknowns = [p for p in pairs if p not in pinned]
        vector = targets[:n_cond, : r + 1].ravel() - left_sides(
            _expand(pinned, gap))
        matrix = np.zeros((len(vector), len(unknowns)))
        for col, pair in enumerate(unknowns):
            matrix[:, col] = left_sides(_expand({pair: 1.0}, 0.0))
        scale = max(1.0, float(np.max(np.abs(matrix))) if matrix.size else 1.0)
        # coefficients the conditions never touch take their default value 0
        active: list[tuple[int, int]] = []
        kept: list[int] = []
        for idx, pair in enumerate(unknowns):
            if np.max(np.abs(matrix[:, idx])) <= 1e-13 * scale:
                solution[pair] = 0.0
            else:
                active.append(pair)
                kept.append(idx)
        matrix = matrix[:, kept]
        if active:
            values, _, _, sing = np.linalg.lstsq(matrix, vector, rcond=None)
            if np.sum(sing > 1e-10 * sing[0]) < len(active):
                raise ConstructionError(
                    f"rank deficiency couples the alpha coefficients "
                    f"{', '.join(map(str, active))}; pin some of them via "
                    f"free_alpha")
        else:
            values = np.zeros(0)
        residual = np.abs(matrix @ values - vector)
        worst = int(np.argmax(residual))
        if residual[worst] > 1e-10 * max(1.0, float(np.max(np.abs(vector)))):
            k, m = divmod(worst, r + 1)
            raise ConstructionError(
                f"stage moment conditions are inconsistent: test index "
                f"{k}, P_{m}(tau) residual {residual[worst]:.3e}")
        for pair, value in zip(active, values):
            solution[pair] = float(value)
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

    def b(self, tau):
        """Velocity weight B(tau)."""
        deg = self.degrees[0]
        values = self.basis.values(tau, deg)
        flat = self.lam[: deg + 1] @ values.reshape(deg + 1, -1)
        return flat.reshape(values.shape[1:])[()]

    def b_bar(self, tau):
        """Position weight B(tau) (1 - tau)."""
        tau = np.asarray(tau, dtype=float)
        return self.b(tau) * (1.0 - tau)

    def a_bar(self, tau, sigma):
        """Coupling kernel at (tau, sigma)."""
        tau, sigma = np.broadcast_arrays(np.asarray(tau, dtype=float),
                                         np.asarray(sigma, dtype=float))
        deg_b, deg_tau, deg_sigma = self.degrees
        n = max(deg_tau, deg_sigma - deg_b, 1) + 1
        kernel = kernel_matrix(self.basis, self.alpha, n)
        p_tau = self.basis.values(tau, n - 1).reshape(n, -1)
        p_sigma = self.basis.values(sigma, n - 1).reshape(n, -1)
        flat = np.sum(p_tau * (kernel @ p_sigma), axis=0)
        return flat.reshape(tau.shape)[()] * self.b(sigma)

    @property
    def symplectic_residual(self) -> float:
        """Largest violation of alpha[0,1] - alpha[1,0] = -<x, P_1>_w and
        alpha[i,j] = alpha[j,i] (i + j > 1)."""
        a = self.alpha
        return max([abs(a.get((0, 1), 0.0) - a.get((1, 0), 0.0)
                        + _gap(self.basis))]
                   + [abs(v - a.get((j, i), 0.0))
                      for (i, j), v in a.items() if i + j > 1])

    @property
    def symmetry_residual(self) -> float:
        """Largest violation of the time-reversal conditions for a
        reflection-symmetric weight: alpha[0,1] = -alpha[1,0] and vanishing
        odd-sum alpha and odd-index lam."""
        a = self.alpha
        return max([abs(a.get((0, 1), 0.0) + a.get((1, 0), 0.0))]
                   + [abs(v) for (i, j), v in a.items() if (i + j) % 2 == 1
                      and i + j > 1]
                   + [float(abs(v)) for v in self.lam[1::2]])


def assemble(basis: OrthonormalBasis, lam: np.ndarray,
             alpha: Mapping[tuple[int, int], float],
             spec: ConstructionSpec | None = None) -> ContinuousCoefficients:
    """Combine the weight series and coupling coefficients after checking
    symplecticity on alpha and, for a symmetric spec, the parity of lam."""
    coeffs = ContinuousCoefficients(
        basis=basis, lam=np.asarray(lam, dtype=float),
        alpha={key: float(v) for key, v in alpha.items()}, spec=spec)
    residual = coeffs.symplectic_residual
    if residual > TABLEAU_TOL:
        raise ConstructionError(
            f"alpha violates alpha[0,1] - alpha[1,0] = -<x, P_1>_w or "
            f"alpha[i,j] = alpha[j,i] (residual {residual:.3e})")
    if spec is not None and spec.symmetric and np.any(coeffs.lam[1::2]):
        raise ConstructionError(
            "velocity weight is not reflection-symmetric "
            "(odd-index lam must vanish)")
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
    spec: ConstructionSpec | None = None

    @property
    def s(self) -> int:
        return len(self.c)


def discretize(coeffs: ContinuousCoefficients,
               rule: QuadratureRule) -> RKNTableau:
    """Sample the continuous coefficients at a Gauss rule of the same family."""
    if rule.family is not coeffs.family:
        raise ConstructionError(
            f"rule family {rule.family.value} does not match "
            f"coefficients family {coeffs.family.value}")
    c = rule.nodes
    b_values = coeffs.b(c)
    a_bar = rule.weights[None, :] * coeffs.a_bar(c[:, None], c[None, :])
    b_bar = rule.weights * (b_values * (1.0 - c))
    b_prime = rule.weights * b_values
    tableau = RKNTableau(c=c, a_bar=a_bar, b_bar=b_bar, b_prime=b_prime,
                         family=coeffs.family, spec=coeffs.spec)
    position_gap = np.max(np.abs(b_bar - b_prime * (1.0 - c)))
    if position_gap > TABLEAU_TOL:
        raise ConstructionError(
            f"position weights violate b_bar = b_prime (1 - c) "
            f"(residual {position_gap:.3e})")
    pair = discrete_symplectic_residual(tableau)
    if pair > TABLEAU_TOL:
        raise ConstructionError(
            f"discrete symplecticity identity violated (residual {pair:.3e})")
    return tableau


def discrete_symplectic_residual(tableau: RKNTableau) -> float:
    """Max pairwise residual of the discrete symplecticity identity."""
    bp = tableau.b_prime
    m = bp[:, None] * (tableau.b_bar[None, :] - tableau.a_bar)
    return float(np.max(np.abs(m - m.T)))


def method_spec(name: str, gamma: float = 0.0) -> ConstructionSpec:
    """Construction parameters of the built-in methods."""
    if name == "legendre4":
        return ConstructionSpec(
            family=Family.SHIFTED_LEGENDRE, symmetric=True,
            free_alpha={(1, 1): 2.0 * gamma, (1, 2): 0.0, (2, 2): 0.0})
    if name == "chebyshev4":
        return ConstructionSpec(
            family=Family.SHIFTED_CHEBYSHEV1, symmetric=True,
            free_alpha={(1, 1): 1.5 * math.pi * gamma, (1, 2): 0.0, (2, 2): 0.0})
    if name == "hermite4":
        return ConstructionSpec(
            family=Family.SHIFTED_HERMITE, symmetric=True,
            free_alpha={(1, 1): 1.5 * math.sqrt(math.pi) * gamma,
                        (1, 2): 0.0, (2, 2): 0.0})
    if name == "hermite3":
        # the non-symmetric construction: split the first-order constraint
        # evenly by hand, zero the remaining upper coefficients
        gap = _gap(make_basis(Family.STANDARD_HERMITE, 2))
        return ConstructionSpec(
            family=Family.STANDARD_HERMITE, symmetric=False,
            free_alpha={(0, 1): -0.5 * gap, (1, 2): 0.0, (2, 2): 0.0})
    raise ConstructionError(
        f"unknown method {name!r}; choose from {', '.join(BUILTIN_METHODS)}")


def _coefficients(spec: ConstructionSpec,
                  min_degree: int) -> ContinuousCoefficients:
    """Continuous coefficients on a basis of degree max(8, b_order, min_degree)."""
    basis = make_basis(spec.family, max(8, spec.b_order, min_degree))
    return assemble(basis, build_b(basis, spec), solve_alpha(basis, spec),
                    spec=spec)


def derive(spec: ConstructionSpec, stages: int) -> RKNTableau:
    """The stages-point tableau of a construction: its continuous
    coefficients sampled at the family's Gauss rule."""
    coeffs = _coefficients(spec, stages)
    return discretize(coeffs, gauss_rule(coeffs.basis, stages))


def builtin_coefficients(name: str, gamma: float = 0.0) -> ContinuousCoefficients:
    return _coefficients(method_spec(name, gamma), min_degree=0)


def builtin_tableau(name: str, gamma: float = 0.0) -> RKNTableau:
    """One of the four shipped methods (hermite3 has no free parameter)."""
    stages = 2 if name == "legendre4" else 3
    return replace(derive(method_spec(name, gamma), stages),
                   method=name, gamma=gamma)


def serialize_tableau(tableau: RKNTableau) -> str:
    """Plain-text form: s, nodes, coupling rows, then both weight rows."""

    def line(values) -> str:
        return " ".join(f"{v:.17g}" for v in values)

    parts = [str(tableau.s), line(tableau.c)]
    parts.extend(line(row) for row in tableau.a_bar)
    parts.append(line(tableau.b_bar))
    parts.append(line(tableau.b_prime))
    return "\n".join(parts) + "\n"


def parse_tableau(text: str) -> RKNTableau:
    tokens = text.split()
    if not tokens:
        raise ValueError("empty tableau text")
    s = int(tokens[0])
    expected = 1 + s + s * s + s + s
    if len(tokens) != expected:
        raise ValueError(
            f"tableau text has {len(tokens)} numbers, expected {expected}")
    data = np.array([float(t) for t in tokens[1:]])
    c = data[:s]
    a_bar = data[s: s + s * s].reshape(s, s)
    b_bar = data[s + s * s: 2 * s + s * s]
    b_prime = data[2 * s + s * s:]
    return RKNTableau(c=c, a_bar=a_bar, b_bar=b_bar, b_prime=b_prime)
