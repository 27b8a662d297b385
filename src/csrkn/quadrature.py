"""Gauss rules for the supported weight functions.

Nodes and weights come from the Golub-Welsch eigenproblem on the symmetric
tridiagonal Jacobi matrix of the family recurrence, solved by
``numpy.linalg.eigh``.  A failed solve must surface as an error, never as a
silently degraded rule, so every rule is cross-checked on construction
against the Christoffel identity 1/w_i = sum_{k<s} P_k(x_i)^2, with the
orthonormal P_k evaluated by the same three-term recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import Family, OrthonormalBasis, recurrence_coefficients

_INTERP_RTOL = 1e-11


class EigenConvergenceError(RuntimeError):
    """The Golub-Welsch eigenproblem did not converge, or its weights fail
    the Christoffel cross-check."""


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """s-point Gauss rule: nodes are the zeros of P_s, weights are positive."""

    family: Family
    s: int
    nodes: np.ndarray
    weights: np.ndarray


def _lagrange_coeffs(nodes: np.ndarray, i: int) -> np.ndarray:
    """Monomial coefficients of the i-th Lagrange cardinal polynomial."""
    poly = np.array([1.0])
    for j, cj in enumerate(nodes):
        if j == i:
            continue
        poly = np.convolve(poly, np.array([-cj, 1.0])) / (nodes[i] - cj)
    return poly


def interpolatory_weights(basis: OrthonormalBasis, nodes: np.ndarray) -> np.ndarray:
    """Weights from the literal definition b_i = int_I l_i(x) w(x) dx."""
    return np.array([basis.weighted_integral(_lagrange_coeffs(nodes, i))
                     for i in range(len(nodes))])


def gauss_rule(basis: OrthonormalBasis, s: int) -> QuadratureRule:
    """s-point Gauss rule for the basis family (exact to degree 2s - 1)."""
    if not 1 <= s <= basis.max_degree:
        raise ValueError(f"s must be in 1..{basis.max_degree}, got {s}")
    diag, off = recurrence_coefficients(basis.family, s)
    jacobi = np.diag(diag) + np.diag(off[: s - 1], 1) + np.diag(off[: s - 1], -1)
    try:
        nodes, vectors = np.linalg.eigh(jacobi)
    except np.linalg.LinAlgError as err:
        raise EigenConvergenceError(
            f"Golub-Welsch eigenproblem did not converge: {err}") from err
    weights = float(basis.moments[0]) * vectors[0, :] ** 2
    total = np.sum(basis.values(nodes, s - 1) ** 2, axis=0)
    drift = np.max(np.abs(weights * total - 1.0))
    if drift > _INTERP_RTOL:
        raise EigenConvergenceError(
            f"Golub-Welsch weights disagree with the Christoffel identity "
            f"(relative drift {drift:.3e})")
    return QuadratureRule(family=basis.family, s=s, nodes=nodes, weights=weights)


def exactness_degree(rule: QuadratureRule, basis: OrthonormalBasis,
                     rtol: float = 1e-10) -> int:
    """Largest d with sum b_i c_i^k == m_k for every k <= d, to rtol times
    sum |b_i c_i^k| (the odd moments of a symmetric weight vanish)."""
    if rule.family is not basis.family:
        raise ValueError("rule and basis families differ")
    degree = -1
    powers = np.ones_like(rule.nodes)
    for k in range(len(basis.moments)):
        terms = rule.weights * powers
        scale = max(1.0, float(np.sum(np.abs(terms))))
        if abs(float(np.sum(terms)) - basis.moments[k]) >= rtol * scale:
            break
        degree = k
        powers = powers * rule.nodes
    return degree
