"""Gauss rules for the supported weight functions.

Nodes and weights come from the Golub-Welsch eigenproblem on the symmetric
tridiagonal Jacobi matrix of the family recurrence, solved by
``numpy.linalg.eigh``.  A failed solve must surface as an error, never as a
silently degraded rule, so every rule is cross-checked on construction
against the Christoffel identity 1/w_i = sum_{k<s} P_k(x_i)^2, with the
orthonormal P_k evaluated by the same three-term recurrence.

A rule depends only on (family, s): it is built once per process and
shared, with read-only arrays; a failed build raises and is not kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

import numpy as np

from .basis import (MAX_DEGREE, Family, OrthonormalBasis, _shared_table,
                    make_basis, recurrence_coefficients)

_CHRISTOFFEL_RTOL = 1e-11
_EXACT_TOL = 1e-10


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


def gauss_rule(basis: OrthonormalBasis, s: int) -> QuadratureRule:
    """Shared s-point Gauss rule of the basis family (exact to 2s - 1)."""
    try:
        s = index(s)
    except TypeError:
        raise TypeError(f"s must be an integer, got {s!r}") from None
    if not 1 <= s <= basis.max_degree:
        raise ValueError(f"s must be in 1..{basis.max_degree}, got {s}")
    return _shared_rule(basis.family, s)


@_shared_table
def _shared_rule(family: Family, s: int) -> QuadratureRule:
    """The rule from the family's tables alone, whatever the basis degree."""
    diag, off = recurrence_coefficients(family, s)
    # eigh reads only the lower triangle (UPLO='L')
    jacobi = np.diag(diag)
    np.fill_diagonal(jacobi[1:], off[: s - 1])
    try:
        nodes, vectors = np.linalg.eigh(jacobi)
    except np.linalg.LinAlgError as err:
        raise EigenConvergenceError(
            f"Golub-Welsch eigenproblem did not converge: {err}") from err
    weights = family.m0 * vectors[0, :] ** 2
    values = make_basis(family, MAX_DEGREE).values(nodes, s - 1)
    drift = np.abs(weights * (values ** 2).sum(axis=0) - 1.0).max()
    if drift > _CHRISTOFFEL_RTOL:
        raise EigenConvergenceError(
            f"Golub-Welsch weights disagree with the Christoffel identity "
            f"(relative drift {drift:.3e})")
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(family=family, s=s, nodes=nodes, weights=weights)


def exactness_degree(rule: QuadratureRule, basis: OrthonormalBasis) -> int:
    """Largest d such that the rule integrates every polynomial of degree
    <= d exactly, read from the Gram matrix G = (P w) P^T of the orthonormal
    P_0 .. P_s at the nodes: d + 1 is the smallest j + m with
    |G_jm - delta_jm| > _EXACT_TOL (2s when no entry misses).  The entries
    are scale-free, so no tolerance depends on the size of the moments."""
    if rule.family is not basis.family:
        raise ValueError("rule and basis families differ")
    p = basis.values(rule.nodes, rule.s)
    gram = (p * rule.weights) @ p.T
    j, m = np.nonzero(np.abs(gram - np.eye(rule.s + 1)) > _EXACT_TOL)
    return int((j + m).min()) - 1 if len(j) else 2 * rule.s
