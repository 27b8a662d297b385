"""Gauss rules: nodes, weights, exactness, and the eigensolver checks."""

import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev, legendre
from numpy.polynomial import hermite as np_hermite

import csrkn
from csrkn.basis import MAX_DEGREE, recurrence_coefficients
from csrkn.quadrature import EigenConvergenceError, QuadratureRule

ALL_FAMILIES = list(csrkn.Family)
PI = math.pi


@pytest.fixture(scope="module")
def wide_bases():
    return {family: csrkn.make_basis(family, MAX_DEGREE)
            for family in ALL_FAMILIES}


@pytest.mark.parametrize("size", range(1, MAX_DEGREE + 1))
def test_eigensolver_against_dense_oracle(wide_bases, size):
    # nodes and weights of each rule form the eigen-decomposition of the
    # dense Jacobi matrix J: x_i are its eigenvalues, and the columns
    # sqrt(w_i) (P_0(x_i), ..., P_{s-1}(x_i)) are orthonormal eigenvectors
    for family in ALL_FAMILIES:
        basis = wide_bases[family]
        rule = csrkn.gauss_rule(basis, size)
        diag, off = recurrence_coefficients(family, size)
        dense = (np.diag(diag) + np.diag(off[: size - 1], 1)
                 + np.diag(off[: size - 1], -1))
        np.testing.assert_allclose(rule.nodes, np.linalg.eigvalsh(dense),
                                   rtol=0, atol=1e-12)
        values = [np.full(size, 1.0 / math.sqrt(basis.moments[0]))]
        for k in range(size - 1):
            back = off[k - 1] * values[k - 1] if k else 0.0
            values.append(((rule.nodes - diag[k]) * values[k] - back) / off[k])
        vectors = np.array(values) * np.sqrt(rule.weights)[None, :]
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(size),
                                   rtol=0, atol=1e-12)
        residual = dense @ vectors - vectors * rule.nodes[None, :]
        assert np.max(np.abs(residual)) < 1e-12


def test_eigensolver_failure_is_typed(bases, monkeypatch):
    def no_convergence(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(EigenConvergenceError, match="did not converge"):
        csrkn.gauss_rule(bases[csrkn.Family.SHIFTED_LEGENDRE], 3)


def test_gauss_rule_is_not_cached(bases, monkeypatch):
    # the basis is shared, but every rule still runs its own eigh solve
    basis = bases[csrkn.Family.SHIFTED_CHEBYSHEV1]
    csrkn.gauss_rule(basis, 3)

    def no_convergence(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(EigenConvergenceError, match="did not converge"):
        csrkn.gauss_rule(basis, 3)


def test_christoffel_check_rejects_drifted_weights(bases, monkeypatch):
    eigh = np.linalg.eigh

    def drifted(matrix):
        values, vectors = eigh(matrix)
        return values, vectors * (1.0 + 1e-9)

    monkeypatch.setattr(np.linalg, "eigh", drifted)
    with pytest.raises(EigenConvergenceError, match="Christoffel"):
        csrkn.gauss_rule(bases[csrkn.Family.SHIFTED_LEGENDRE], 3)


def test_known_rules(bases):
    s3, s6 = math.sqrt(3), math.sqrt(6)
    rule = csrkn.gauss_rule(bases[csrkn.Family.SHIFTED_LEGENDRE], 2)
    np.testing.assert_allclose(rule.nodes, [(3 - s3) / 6, (3 + s3) / 6],
                               atol=1e-14)
    np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-14)

    rule = csrkn.gauss_rule(bases[csrkn.Family.SHIFTED_CHEBYSHEV1], 3)
    np.testing.assert_allclose(rule.nodes, [(2 - s3) / 4, 0.5, (2 + s3) / 4],
                               atol=1e-14)
    np.testing.assert_allclose(rule.weights, [PI / 6] * 3, atol=1e-14)

    rule = csrkn.gauss_rule(bases[csrkn.Family.STANDARD_HERMITE], 3)
    np.testing.assert_allclose(rule.nodes, [-s6 / 2, 0.0, s6 / 2], atol=1e-14)
    np.testing.assert_allclose(
        rule.weights,
        [math.sqrt(PI) / 6, 2 * math.sqrt(PI) / 3, math.sqrt(PI) / 6],
        atol=1e-14)

    rule = csrkn.gauss_rule(bases[csrkn.Family.SHIFTED_HERMITE], 3)
    np.testing.assert_allclose(rule.nodes, [(2 - s6) / 4, 0.5, (2 + s6) / 4],
                               atol=1e-14)
    np.testing.assert_allclose(
        rule.weights,
        [math.sqrt(PI) / 12, math.sqrt(PI) / 3, math.sqrt(PI) / 12],
        atol=1e-14)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
def test_nodes_are_roots_of_basis_polynomial(bases, family, s):
    basis = bases[family]
    rule = csrkn.gauss_rule(basis, s)
    roots = np.sort(np.roots(basis.poly(s)[::-1]).real)
    np.testing.assert_allclose(rule.nodes, roots, atol=1e-9)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("s", range(1, MAX_DEGREE + 1))
def test_rules_match_numpy_gauss(wide_bases, family, s):
    rule = csrkn.gauss_rule(wide_bases[family], s)
    if family is csrkn.Family.SHIFTED_LEGENDRE:
        u, w = legendre.leggauss(s)
        nodes, weights = (u + 1) / 2, w / 2
    elif family is csrkn.Family.SHIFTED_CHEBYSHEV1:
        u, w = chebyshev.chebgauss(s)
        nodes, weights = (u + 1) / 2, w / 2
    elif family is csrkn.Family.SHIFTED_HERMITE:
        u, w = np_hermite.hermgauss(s)
        nodes, weights = (u + 1) / 2, w / 2
    else:
        nodes, weights = np_hermite.hermgauss(s)
    order = np.argsort(nodes)
    np.testing.assert_allclose(rule.nodes, nodes[order], atol=1e-12)
    np.testing.assert_allclose(rule.weights, weights[order], atol=1e-12)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
def test_rule_structure(bases, family, s):
    basis = bases[family]
    rule = csrkn.gauss_rule(basis, s)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - basis.moments[0]) < 1e-13
    if family.finite_interval:
        assert np.all((rule.nodes > 0) & (rule.nodes < 1))


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("s", range(1, MAX_DEGREE + 1))
def test_gauss_exactness(wide_bases, family, s):
    basis = wide_bases[family]
    rule = csrkn.gauss_rule(basis, s)
    degree = csrkn.exactness_degree(rule, basis)
    # from s = 9 on, the Legendre and Chebyshev rules' error on the next one
    # to five moments is itself below the 1e-10 tolerance
    if s <= 6:
        assert degree == 2 * s - 1
    else:
        assert degree >= 2 * s - 1


@pytest.mark.parametrize("family", [f for f in ALL_FAMILIES
                                    if f.symmetric_weight])
@pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
def test_rule_reflection_symmetry(bases, family, s):
    rule = csrkn.gauss_rule(bases[family], s)
    assert np.max(np.abs(rule.nodes + rule.nodes[::-1] - 1.0)) < 1e-13
    assert np.max(np.abs(rule.weights - rule.weights[::-1])) < 1e-13


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_perturbed_rule_loses_exactness(bases, family):
    basis = bases[family]
    rule = csrkn.gauss_rule(basis, 3)
    nodes = rule.nodes.copy()
    nodes[0] += 1e-3
    broken = QuadratureRule(family=rule.family, s=3, nodes=nodes,
                            weights=rule.weights)
    assert csrkn.exactness_degree(broken, basis) < 2 * 3 - 1


def test_stage_count_bounds(bases):
    basis = bases[csrkn.Family.SHIFTED_LEGENDRE]
    with pytest.raises(ValueError):
        csrkn.gauss_rule(basis, 0)
    with pytest.raises(ValueError):
        csrkn.gauss_rule(basis, basis.max_degree + 1)


def test_exactness_family_mismatch(bases):
    rule = csrkn.gauss_rule(bases[csrkn.Family.SHIFTED_LEGENDRE], 2)
    with pytest.raises(ValueError):
        csrkn.exactness_degree(rule, bases[csrkn.Family.STANDARD_HERMITE])


def test_rule_equality_and_hash_do_not_raise(bases):
    basis = bases[csrkn.Family.SHIFTED_CHEBYSHEV1]
    rule = csrkn.gauss_rule(basis, 3)
    again = csrkn.gauss_rule(basis, 3)
    assert (again == rule) is False
    assert rule == rule
    assert isinstance(hash(rule), int) and isinstance(hash(again), int)
