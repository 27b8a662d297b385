"""Construction of symplectic Runge-Kutta-Nystrom methods.

The pipeline has three steps.  First the velocity-weight function B is fixed
by its series in the orthonormal family, which enforces the quadrature-weight
moment conditions up to the requested order.  Second, the coupling kernel is
written as B(sigma) times a truncated double expansion with coefficients
``alpha[(i, j)]`` constrained so the method is symplectic (and optionally
time-reversible), and the remaining coefficients are solved from the stage
moment conditions by matching polynomial coefficients in tau.  Third, the
continuous coefficients are sampled at a Gauss rule, which preserves
symplecticity exactly.

The expansion convention for the coupling kernel is

    A(tau, sigma) / B(sigma) = alpha[0,0] + alpha[0,1] P_1(sigma)
        + alpha[1,0] P_1(tau) + sum_{i+j>1} alpha[i,j] P_i(tau) P_j(sigma),

i.e. the three lowest terms carry no P_0 factors while the general terms do.
The symplectic constraints are alpha[0,1] - alpha[1,0] = -<x, P_1>_w and
alpha[i,j] = alpha[j,i] for i + j > 1; time reversibility additionally needs
a reflection-symmetric weight, alpha[0,1] = -alpha[1,0], and vanishing
odd-sum coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np
from numpy.polynomial import polynomial as npoly

from .basis import (Family, OrthonormalBasis, double_primitive, inner_product,
                    make_basis, unit_integral)
from .quadrature import QuadratureRule, gauss_rule

TABLEAU_TOL = 1e-12
_GRID = 20

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

    @property
    def alpha_range(self) -> int:
        """Largest index r carried by the ansatz; alpha[i,j] = 0 beyond it."""
        return min(self.tau_degree, self.b_order - self.cn_order + 1)


def _trim(poly: np.ndarray) -> np.ndarray:
    """Drop exactly-zero trailing coefficients (degree bookkeeping)."""
    end = len(poly)
    while end > 1 and poly[end - 1] == 0.0:
        end -= 1
    return poly[:end]


def build_b(basis: OrthonormalBasis, spec: ConstructionSpec) -> np.ndarray:
    """Series coefficients of the velocity-weight function B.

    The first b_order coefficients are pinned to int_0^1 P_j dx (the stage
    interval is [0, 1] for every family), which makes the weight moment
    conditions hold by construction; later ones come from free_lambda
    (default 0).
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
    for j in range(spec.b_order):
        lam[j] = unit_integral(basis.poly(j))
    for j, v in tail.items():
        lam[j] = v
    # snap rounding noise so the stored degree matches the true one
    lam[np.abs(lam) < 1e-13 * max(1.0, float(np.max(np.abs(lam))))] = 0.0
    return lam


def _gap(basis: OrthonormalBasis) -> float:
    """<x, P_1>_w, the offset alpha[1,0] - alpha[0,1] of a symplectic kernel."""
    return inner_product(basis, np.array([0.0, 1.0]), basis.poly(1))


def _plain_products(basis: OrthonormalBasis, j: int, k: int) -> float:
    """int_0^1 P_j(x) P_k(x) dx (no weight)."""
    return unit_integral(np.convolve(basis.poly(j), basis.poly(k)))


def solve_alpha(basis: OrthonormalBasis,
                spec: ConstructionSpec) -> dict[tuple[int, int], float]:
    """Solve the stage moment conditions for the coupling coefficients.

    For each test polynomial P_k, k = 0 .. cn_order - 2, the condition is a
    polynomial identity in tau; matching monomial coefficients yields a
    linear system in the upper-triangle unknowns alpha[i <= j].  Symmetric
    and user pins are substituted first; unknowns the system never touches
    fall back to zero; any remaining coupled rank deficiency or inconsistent
    equation is reported rather than resolved silently.
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

    n_powers = max(r, spec.cn_order) + 1

    def column(pair: tuple[int, int], k: int) -> np.ndarray:
        """tau-polynomial multiplying alpha[pair] in the k-th condition."""
        out = np.zeros(n_powers)
        i, j = pair
        u_k = unit_integral(basis.poly(k))
        if pair == (0, 0):
            out[0] = u_k
            return out
        if pair == (0, 1):
            # alpha[0,1] appears directly and through alpha[1,0] = alpha[0,1] + gap
            out[:2] = u_k * basis.poly(1)
            out[0] += _plain_products(basis, 1, k)
            return out
        pi = basis.poly(i)
        out[: len(pi)] += _plain_products(basis, j, k) * pi
        if i != j:
            pj = basis.poly(j)
            out[: len(pj)] += _plain_products(basis, i, k) * pj
        return out

    unknowns = [p for p in pairs if p not in pinned]
    rows: list[np.ndarray] = []
    rhs: list[np.ndarray] = []
    labels: list[tuple[int, int]] = []
    for k in range(spec.cn_order - 1):
        target = np.zeros(n_powers)
        dp = double_primitive(basis, k)
        target[: len(dp)] = dp
        # alpha[1,0] = alpha[0,1] + gap contributes a known P_1(tau) term
        shift = gap * unit_integral(basis.poly(k)) * basis.poly(1)
        target[: len(shift)] -= shift
        for pair, value in pinned.items():
            target -= value * column(pair, k)
        block = np.zeros((n_powers, len(unknowns)))
        for col, pair in enumerate(unknowns):
            block[:, col] = column(pair, k)
        rows.append(block)
        rhs.append(target)
        labels.extend((k, power) for power in range(n_powers))

    solution = dict(pinned)
    if rows:
        matrix = np.vstack(rows) if unknowns else np.zeros((len(labels), 0))
        vector = np.concatenate(rhs)
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
            sing = np.linalg.svd(matrix, compute_uv=False)
            rank = int(np.sum(sing > 1e-10 * sing[0]))
            if rank < len(active):
                raise ConstructionError(
                    f"rank deficiency couples the alpha coefficients "
                    f"{', '.join(map(str, active))}; pin some of them via "
                    f"free_alpha")
            values, *_ = np.linalg.lstsq(matrix, vector, rcond=None)
        else:
            values = np.zeros(0)
        residual = np.abs(matrix @ values - vector) if matrix.size else np.abs(vector)
        if residual.size:
            worst = int(np.argmax(residual))
            if residual[worst] > 1e-10 * max(1.0, float(np.max(np.abs(vector)))):
                k, power = labels[worst]
                raise ConstructionError(
                    f"stage moment conditions are inconsistent: test index "
                    f"{k}, tau^{power} residual {residual[worst]:.3e}")
        for pair, value in zip(active, values):
            solution[pair] = float(value)
    for pair in pairs:
        solution.setdefault(pair, 0.0)

    full = dict(solution)
    for (i, j), value in solution.items():
        if i + j > 1:
            full[(j, i)] = value
    full[(1, 0)] = full[(0, 1)] + gap
    return full


@dataclass(frozen=True)
class ContinuousCoefficients:
    """The assembled continuous-stage coefficient functions.

    ``b_poly`` holds the monomial coefficients of the velocity weight B;
    ``a_poly[m, n]`` is the tau^m sigma^n coefficient of the coupling kernel
    (already multiplied by B(sigma)).  The position weight is
    B(tau) (1 - tau) and the abscissa function is the identity.
    """

    basis: OrthonormalBasis
    lam: np.ndarray
    alpha: dict[tuple[int, int], float]
    b_poly: np.ndarray
    a_poly: np.ndarray
    spec: ConstructionSpec | None = None

    @property
    def family(self) -> Family:
        return self.basis.family

    def b(self, tau):
        """Velocity weight B(tau)."""
        return npoly.polyval(np.asarray(tau, dtype=float), self.b_poly)

    def b_bar(self, tau):
        """Position weight B(tau) (1 - tau)."""
        tau = np.asarray(tau, dtype=float)
        return self.b(tau) * (1.0 - tau)

    def a_bar(self, tau, sigma):
        """Coupling kernel at (tau, sigma)."""
        tau, sigma = np.broadcast_arrays(np.asarray(tau, dtype=float),
                                         np.asarray(sigma, dtype=float))
        return npoly.polyval2d(tau, sigma, self.a_poly)

    @property
    def degrees(self) -> tuple[int, int, int]:
        """(deg B, tau-degree of A, sigma-degree of A), ignoring coefficients
        at rounding level."""

        def top(mask) -> int:
            hits = np.flatnonzero(mask)
            return int(hits.max()) if hits.size else 0

        cut_b = 1e-12 * max(1.0, float(np.max(np.abs(self.b_poly))))
        cut_a = 1e-12 * max(1.0, float(np.max(np.abs(self.a_poly))))
        big = np.abs(self.a_poly) > cut_a
        return (top(np.abs(self.b_poly) > cut_b),
                top(big.any(axis=1)), top(big.any(axis=0)))


def _series_to_poly(basis: OrthonormalBasis, lam: np.ndarray) -> np.ndarray:
    poly = np.zeros(len(lam))
    for j, coeff in enumerate(lam):
        if coeff != 0.0:
            pj = basis.poly(j)
            poly[: len(pj)] += coeff * pj
    return _trim(poly)


def assemble(basis: OrthonormalBasis, lam: np.ndarray,
             alpha: Mapping[tuple[int, int], float],
             spec: ConstructionSpec | None = None) -> ContinuousCoefficients:
    """Combine the weight series and coupling coefficients; verify invariants."""
    lam = np.asarray(lam, dtype=float)
    gap = _gap(basis)
    alpha = {key: float(v) for key, v in alpha.items()}
    if abs(alpha.get((0, 1), 0.0) - alpha.get((1, 0), 0.0) + gap) > TABLEAU_TOL:
        raise ConstructionError(
            "alpha[0,1] - alpha[1,0] must equal -<x, P_1>_w")
    top = max((max(i, j) for (i, j) in alpha), default=0)
    for i in range(top + 1):
        for j in range(i + 1, top + 1):
            if i + j > 1:
                left = alpha.get((i, j), 0.0)
                right = alpha.get((j, i), 0.0)
                if abs(left - right) > TABLEAU_TOL:
                    raise ConstructionError(
                        f"alpha[{i},{j}] and alpha[{j},{i}] must match")

    b_poly = _series_to_poly(basis, lam)
    p0 = basis.poly(0)[0]
    kernel = np.zeros((top + 1, top + 1))
    for (i, j), value in alpha.items():
        if value == 0.0:
            continue
        if (i, j) == (0, 0):
            value = value / (p0 * p0)
        elif (i, j) in ((0, 1), (1, 0)):
            value = value / p0
        pi, pj = basis.poly(i), basis.poly(j)
        kernel[: i + 1, : j + 1] += value * np.outer(pi, pj)
    a_poly = np.zeros((top + 1, top + len(b_poly)))
    for row in range(top + 1):
        a_poly[row, :] = np.convolve(kernel[row, :], b_poly)

    coeffs = ContinuousCoefficients(basis=basis, lam=lam, alpha=alpha,
                                    b_poly=b_poly, a_poly=a_poly, spec=spec)
    grid = np.linspace(0.0, 1.0, _GRID)
    residual = symplectic_identity_residual(coeffs, grid)
    if residual > TABLEAU_TOL:
        raise ConstructionError(
            f"continuous symplecticity identity violated "
            f"(grid residual {residual:.3e})")
    if spec is not None and spec.symmetric:
        reflect = np.max(np.abs(coeffs.b(grid) - coeffs.b(1.0 - grid)))
        if reflect > TABLEAU_TOL:
            raise ConstructionError(
                f"velocity weight is not reflection-symmetric "
                f"(residual {reflect:.3e})")
    return coeffs


def symplectic_identity_residual(coeffs: ContinuousCoefficients,
                                 grid: np.ndarray) -> float:
    """Max residual of B_t A(t,s) - B_s A(s,t) - B_t B_s (t - s) on grid^2."""
    tt, ss = np.meshgrid(grid, grid, indexing="ij")
    bt = coeffs.b(tt)
    bs = coeffs.b(ss)
    lhs = bt * coeffs.a_bar(tt, ss) - bs * coeffs.a_bar(ss, tt)
    return float(np.max(np.abs(lhs - bt * bs * (tt - ss))))


@dataclass(frozen=True)
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
    b_bar = rule.weights * coeffs.b_bar(c)
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
