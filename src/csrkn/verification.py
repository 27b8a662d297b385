"""Condition checks for continuous coefficients and discrete tableaux.

The continuous checks work on the stored orthonormal coefficients: every
weighted integral comes from a Gauss rule of the family with enough points
to be exact, each polynomial identity is compared coefficient by coefficient
in the orthonormal family, and the symplecticity and time-reversal residuals
are the coefficient conditions that ``assemble`` enforces.  The discrete
checks are the same B, CN and DN conditions on the tableau; both reports
share one table of right sides and one order reading.  The order bound
used throughout is min(b_order, 2*cn_order + 2, cn_order + dn_order) on
whatever condition orders actually hold, which reproduces the classical
simplifying-assumption bound for RKN methods.  ``check_symplectic`` is
defined next to ``RKNTableau`` and re-exported here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .basis import MAX_DEGREE, _integer, _real, make_basis
from .construction import (ContinuousCoefficients, RKNTableau,
                           _max_magnitude, check_symplectic, kernel_matrix)
from .integrator import SolverConfig, integrate
from .problems import SecondOrderProblem
from .quadrature import gauss_rule

TOL_CHAINED = 1e-10
# condition orders scanned by check_continuous, past every construction order
_KAPPA_MAX = 6


@dataclass(frozen=True)
class ConditionReport:
    """Residuals of the weight (B), stage (CN) and transpose (DN) moment
    conditions, indexed from condition order 1, plus the structural
    residuals and the order they imply."""

    kind: str
    b_residuals: tuple[float, ...]
    cn_residuals: tuple[float, ...]
    dn_residuals: tuple[float, ...]
    b_order: int
    cn_order: int
    dn_order: int
    symplectic_residual: float
    symmetry_residual: float | None
    predicted_order: int


def order_bound(b_order: int, cn_order: int, dn_order: int) -> int:
    """Order guaranteed by conditions B(b), CN(cn), DN(dn)."""
    return min(b_order, 2 * cn_order + 2, cn_order + dn_order)


def order_bound_with_quadrature(b_order: int, cn_order: int, dn_order: int,
                                quad_order: int, deg_b: int, deg_a_tau: int,
                                deg_a_sigma: int) -> int:
    """Order kept after sampling with a quadrature rule of the given order.

    Each condition survives discretization only while the quadrature stays
    exact on the integrand, which caps the usable condition orders by the
    rule order minus the coefficient degrees involved.
    """
    rho = min(b_order, quad_order - deg_b)
    alpha = min(cn_order, quad_order - deg_a_sigma + 1)
    beta = min(dn_order, quad_order - deg_a_tau - deg_b + 1)
    return order_bound(rho, alpha, beta)


@functools.cache
def _kappa_tables(kappa_max: int) -> tuple[np.ndarray, ...]:
    """The kappa-only arrays of ``_condition_sides``, shared read-only."""
    k = np.arange(kappa_max + 1)[:, None]
    tables = (k, 1.0 / k[1:, 0], k[1:-1] * k[2:], k[1:-1], 1.0 / k[2:])
    for table in tables:
        table.flags.writeable = False
    return tables


def _condition_sides(x: np.ndarray, kappa_max: int):
    """x^(kappa-1) and 1/kappa for kappa = 1 .. kappa_max, and the stage and
    transpose right sides x^(kappa+1) / (kappa (kappa+1)) and that minus x /
    kappa plus 1 / (kappa+1) for kappa = 1 .. kappa_max - 1; one row each."""
    exponents, weight, product, kappa, inverse = _kappa_tables(kappa_max)
    powers = x ** exponents
    stage = powers[2:] / product
    return powers[:-1], weight, stage, stage - x / kappa + inverse


def _report(kind: str, b_res, cn_res, dn_res, symplectic: float,
            symmetry: float | None) -> ConditionReport:
    """The report of three residual rows; each condition order is the start
    order plus the number of leading residuals within TOL_CHAINED (not NaN)."""
    rows = [tuple(res.tolist()) for res in (b_res, cn_res, dn_res)]
    orders = [start + next((k for k, r in enumerate(row)
                            if not r <= TOL_CHAINED), len(row))
              for start, row in zip((0, 1, 1), rows)]
    return ConditionReport(kind, *rows, *orders, symplectic, symmetry,
                           order_bound(*orders))


def check_continuous(coeffs: ContinuousCoefficients) -> ConditionReport:
    """Measure the moment conditions of a continuous coefficient set.

    The weight condition of order kappa asks the weighted moment of
    B(tau) tau^(kappa-1) to equal 1/kappa.  The stage and transpose
    conditions are polynomial identities in one variable (the transpose one
    after dividing out B(sigma)); the residual is the largest coefficient
    of left minus right in the orthonormal family.  The scan runs to
    condition order _KAPPA_MAX = 6, past the construction orders, so the
    report shows where each condition chain breaks.  Raises ValueError if
    exact integrals would need a Gauss rule of more than MAX_DEGREE points.
    """
    deg_b, top = coeffs._sample_degrees
    n_coef = max(top, _KAPPA_MAX) + 1
    need = max(deg_b + top + _KAPPA_MAX - 2, n_coef - 1 + _KAPPA_MAX)
    points = need // 2 + 1
    if points > MAX_DEGREE:
        raise ValueError(
            f"exact condition integrals need a {points}-point Gauss rule; "
            f"at most {MAX_DEGREE} are available")
    rule = gauss_rule(make_basis(coeffs.family, MAX_DEGREE), points)
    x, w = rule.nodes, rule.weights
    powers, weight, stage, transpose = _condition_sides(x, _KAPPA_MAX)
    b_values = coeffs.lam[: deg_b + 1] @ rule.values[: deg_b + 1]
    # coefficients of a function on P_0 .. P_{n_coef - 1}, from its values
    project = (rule.values[:n_coef] * w).T
    kernel = kernel_matrix(coeffs.basis, coeffs.alpha, n_coef)
    # moments[kappa - 1, j] = int B(x) x^(kappa - 1) P_j(x) w(x) dx
    moments = (b_values * powers[:-1]) @ project
    return _report(
        "continuous", np.abs(powers @ (w * b_values) - weight),
        np.abs(moments @ kernel.T - stage @ project).max(axis=1),
        np.abs(moments @ kernel - transpose @ project).max(axis=1),
        coeffs.symplectic_residual,
        coeffs.symmetry_residual if coeffs.family.symmetric_weight else None)


def check_discrete(tableau: RKNTableau) -> ConditionReport:
    """Measure the classical simplifying assumptions of a tableau up to
    condition order 2s + 2; the predicted order is their bound, which can
    understate a tableau not built on them (an order-6 composition reads 4)."""
    bp, a = tableau.b_prime, tableau.a_bar
    powers, weight, stage, transpose = _condition_sides(tableau.c,
                                                        2 * tableau.s + 2)
    return _report(
        "discrete", np.abs(powers @ bp - weight),
        np.abs(powers[:-1] @ a.T - stage).max(axis=1),
        np.abs((bp * powers[:-1]) @ a - bp * transpose).max(axis=1),
        check_symplectic(tableau), check_symmetric(tableau))


def _flipped(tableau: RKNTableau):
    """(c, a_bar, b_bar, b_prime) of the adjoint method, stage order
    flipped."""
    rev = slice(None, None, -1)
    c = 1.0 - tableau.c[rev]
    bp = tableau.b_prime[rev]
    bb = bp - tableau.b_bar[rev]
    a = (bp[None, :] * (1.0 - tableau.c[rev])[:, None]
         - tableau.b_bar[rev][None, :] + tableau.a_bar[rev, rev])
    return c, a, bb, bp


def adjoint_tableau(tableau: RKNTableau) -> RKNTableau:
    """Tableau of the adjoint (time-reversed) method.

    Stage order is flipped so that the adjoint of a reflection-symmetric
    rule keeps increasing nodes; the transformation is an involution for
    any tableau.
    """
    c, a, bb, bp = _flipped(tableau)
    return RKNTableau(c=c, a_bar=a, b_bar=bb, b_prime=bp,
                      family=tableau.family, method=tableau.method,
                      gamma=tableau.gamma)


def check_symmetric(tableau: RKNTableau) -> float | None:
    """Entry-wise distance to the adjoint tableau.

    Only meaningful when the weight is reflection-symmetric (the adjoint of
    the underlying scheme then has the same weight); otherwise None is
    returned and the method's asymmetry shows up in the integrator
    round-trip instead.
    """
    if tableau.family is None or not tableau.family.symmetric_weight:
        return None
    own = (tableau.c, tableau.a_bar, tableau.b_bar, tableau.b_prime)
    return _max_magnitude([gap for a, e in zip(_flipped(tableau), own)
                           for gap in (a - e).ravel().tolist()])


@dataclass(frozen=True)
class OrderEstimate:
    """Step-halving study: endpoint errors and the slopes between levels."""

    step_sizes: tuple[float, ...]
    errors: tuple[float, ...]
    slopes: tuple[float, ...]

    @property
    def mean_slope(self) -> float:
        finite = [s for s in self.slopes if math.isfinite(s)]
        return sum(finite) / len(finite) if finite else math.nan


def empirical_order(tableau: RKNTableau, problem: SecondOrderProblem,
                    h0: float, levels: int,
                    t_end: float = 1.0) -> OrderEstimate:
    """Measure the convergence order by repeated step halving.

    Integrates to t_end with h0, h0/2, ... and reports the max-norm endpoint
    errors against the exact solution together with the dyadic slopes
    log2(e_k / e_{k+1}).  Only each level's endpoints are recorded.
    """
    if problem.exact is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution")
    levels = _integer("levels", levels, 1)
    _real("h0", h0, nonzero=True)
    _real("t_end", t_end)
    quotient = t_end / h0
    # round() of an overflowed quotient raises OverflowError, not ValueError
    steps0 = round(quotient) if math.isfinite(quotient) else 0
    if steps0 < 1:
        raise ValueError(f"t_end / h0 must round to a finite step count "
                         f">= 1, got h0 = {h0!r} and t_end = {t_end!r}")
    hs, errors = [], []
    for level in range(levels):
        h = h0 / 2 ** level
        n_steps = steps0 * 2 ** level
        traj = integrate(tableau, problem, 0.0, problem.q0, problem.qp0,
                         h, n_steps, SolverConfig(record_every=n_steps))
        q_ref, qp_ref = problem.exact(traj.times[-1])
        hs.append(h)
        errors.append(max(float(np.max(np.abs(traj.q[-1] - q_ref))),
                          float(np.max(np.abs(traj.qp[-1] - qp_ref)))))
    slopes = [math.log2(a / b) if a > 0 and b > 0 else math.nan
              for a, b in zip(errors, errors[1:])]
    return OrderEstimate(step_sizes=tuple(hs), errors=tuple(errors),
                         slopes=tuple(slopes))


def report_lines(report: ConditionReport) -> list[str]:
    """Human-readable rendering of a condition report."""
    lines = [f"{report.kind} condition report"]
    for label, residuals in (("B", report.b_residuals),
                             ("CN", report.cn_residuals),
                             ("DN", report.dn_residuals)):
        for offset, res in enumerate(residuals):
            lines.append(f"  {label} kappa={offset + 1}: {res:.3e}")
    lines.append(f"largest satisfied: B({report.b_order}), "
                 f"CN({report.cn_order}), DN({report.dn_order})")
    lines.append(f"predicted order: {report.predicted_order}")
    lines.append(f"symplectic residual: {report.symplectic_residual:.3e}")
    if report.symmetry_residual is None:
        lines.append("symmetry: not applicable")
    else:
        lines.append(f"symmetry residual: {report.symmetry_residual:.3e}")
    return lines


def report_csv(report: ConditionReport) -> str:
    """CSV rendering: condition,kappa,residual (structural rows use kappa 0)."""
    rows = ["condition,kappa,residual"]
    for label, residuals in (("B", report.b_residuals),
                             ("CN", report.cn_residuals),
                             ("DN", report.dn_residuals)):
        for offset, res in enumerate(residuals):
            rows.append(f"{label},{offset + 1},{res:.17g}")
    rows.append(f"symplectic,0,{report.symplectic_residual:.17g}")
    if report.symmetry_residual is not None:
        rows.append(f"symmetry,0,{report.symmetry_residual:.17g}")
    rows.append(f"predicted_order,0,{report.predicted_order}")
    return "\n".join(rows) + "\n"
