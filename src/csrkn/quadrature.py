"""Gauss rules for the supported weight functions.

Nodes and weights come from the Golub-Welsch eigenproblem on the symmetric
tridiagonal Jacobi matrix of the family recurrence, solved by
``numpy.linalg.eigh``.  A failed solve must surface as an error, never as a
silently degraded rule, so every rule is cross-checked on construction
against the Christoffel identity 1/w_i = sum_{k<s} P_k(x_i)^2 on its
``values``, the P_0 .. P_MAX_DEGREE at the nodes that all its users slice.

A rule depends only on (family, s): it is built once per process and
shared, with read-only arrays; a failed build raises and is not kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import (MAX_DEGREE, Family, OrthonormalBasis, _integer, _reals,
                    _shared_table, make_basis, recurrence_coefficients)

_CHRISTOFFEL_RTOL = 1e-11
_EXACT_TOL = 1e-10


class EigenConvergenceError(RuntimeError):
    """The Golub-Welsch eigenproblem did not converge, or its weights fail
    the Christoffel cross-check."""


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """s-point Gauss rule with values[k] = P_k(nodes), k <= MAX_DEGREE."""

    family: Family
    s: int
    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        nodes, weights = (np.array(_reals(name, getattr(self, name)))
                          for name in ("nodes", "weights"))
        values = make_basis(self.family, MAX_DEGREE).values(nodes, MAX_DEGREE)
        for name, array in (("nodes", nodes), ("values", values),
                            ("weights", weights)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)


def gauss_rule(basis: OrthonormalBasis, s: int) -> QuadratureRule:
    """Shared s-point Gauss rule of the basis family (exact to 2s - 1)."""
    return _shared_rule(basis.family, _integer("s", s, 1, basis.max_degree))


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
    rule = QuadratureRule(family, s, nodes, family.m0 * vectors[0, :] ** 2)
    drift = np.abs(rule.weights * (rule.values[:s] ** 2).sum(axis=0) - 1).max()
    if not drift <= _CHRISTOFFEL_RTOL:
        raise EigenConvergenceError(
            f"Golub-Welsch weights disagree with the Christoffel identity "
            f"(relative drift {drift:.3e})")
    return rule


def exactness_degree(rule: QuadratureRule, basis: OrthonormalBasis) -> int:
    """Largest d such that the rule integrates every polynomial of degree <= d
    exactly: one less than the least j + m where G = (P w) P^T of P_0 .. P_s
    at the nodes fails |G_jm - delta_jm| <= _EXACT_TOL, or 2s if none does."""
    if rule.family is not basis.family:
        raise ValueError("rule and basis families differ")
    p = rule.values[: rule.s + 1]
    gram = (p * rule.weights) @ p.T
    j, m = np.nonzero(~(np.abs(gram - np.eye(rule.s + 1)) <= _EXACT_TOL))
    return int((j + m).min()) - 1 if len(j) else 2 * rule.s
