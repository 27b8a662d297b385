"""Gauss rules: nodes, weights, exactness, and the eigensolver checks."""

import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev, legendre
from numpy.polynomial import hermite as np_hermite

import csrkn
from csrkn.basis import MAX_DEGREE, recurrence_coefficients
from csrkn.quadrature import EigenConvergenceError, QuadratureRule
from csrkn.quadrature import _shared_rule as shared_rule

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


@pytest.fixture
def cold_memo():
    # each rule is built once per process; these tests need its first build
    shared_rule.cache_clear()
    yield
    shared_rule.cache_clear()


def assert_valid_rule(rule, basis, s):
    assert rule.s == s and rule.family is basis.family
    assert csrkn.exactness_degree(rule, basis) == 2 * s - 1


def test_eigensolver_failure_is_typed(bases, cold_memo, monkeypatch):
    def no_convergence(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    basis = bases[csrkn.Family.SHIFTED_LEGENDRE]
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(EigenConvergenceError, match="did not converge"):
            csrkn.gauss_rule(basis, 3)
    # the failure was not stored: the next call solves again and succeeds
    assert_valid_rule(csrkn.gauss_rule(basis, 3), basis, 3)


def test_gauss_rule_is_shared_across_basis_degrees(cold_memo):
    # the rule depends only on (family, s), not on the basis it comes from
    for family in ALL_FAMILIES:
        for s in range(1, MAX_DEGREE + 1):
            rule = csrkn.gauss_rule(csrkn.make_basis(family, s), s)
            for degree in range(s + 1, MAX_DEGREE + 1):
                basis = csrkn.make_basis(family, degree)
                assert csrkn.gauss_rule(basis, s) is rule


def test_christoffel_check_rejects_drifted_weights(bases, cold_memo,
                                                   monkeypatch):
    eigh = np.linalg.eigh

    def drifted(matrix):
        values, vectors = eigh(matrix)
        return values, vectors * (1.0 + 1e-9)

    basis = bases[csrkn.Family.SHIFTED_LEGENDRE]
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", drifted)
        with pytest.raises(EigenConvergenceError, match="Christoffel"):
            csrkn.gauss_rule(basis, 3)
    assert_valid_rule(csrkn.gauss_rule(basis, 3), basis, 3)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_cached_rules_equal_fresh_builds(family):
    for s in range(1, MAX_DEGREE + 1):
        cached = csrkn.gauss_rule(csrkn.make_basis(family, MAX_DEGREE), s)
        fresh = shared_rule.__wrapped__(family, s)
        assert fresh is not cached
        assert (fresh.family, fresh.s) == (cached.family, cached.s)
        assert fresh.nodes.tobytes() == cached.nodes.tobytes()
        assert fresh.weights.tobytes() == cached.weights.tobytes()


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_cached_rules_equal_per_basis_solves(family):
    # the rule as computed from each basis before rules were shared: the
    # Jacobi matrix's eigh, weights scaled by that basis's m_0
    for s in range(1, MAX_DEGREE + 1):
        diag, off = recurrence_coefficients(family, s)
        nodes, vectors = np.linalg.eigh(
            np.diag(diag) + np.diag(off[: s - 1], -1))
        for degree in range(s, MAX_DEGREE + 1):
            basis = csrkn.make_basis(family, degree)
            rule = csrkn.gauss_rule(basis, s)
            weights = float(basis.moments[0]) * vectors[0, :] ** 2
            assert rule.nodes.tobytes() == nodes.tobytes()
            assert rule.weights.tobytes() == weights.tobytes()


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_shared_rules_are_read_only(family):
    for s in range(1, MAX_DEGREE + 1):
        rule = csrkn.gauss_rule(csrkn.make_basis(family, MAX_DEGREE), s)
        for array in (rule.nodes, rule.weights, rule.values[0]):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0


def test_rule_values_equal_every_basis_sample(cold_memo):
    # each rule's P_0 .. P_MAX_DEGREE at its nodes, sampled once, is bit for
    # bit the recurrence run by any basis of the family to any degree k
    for family in ALL_FAMILIES:
        for s in range(1, MAX_DEGREE + 1):
            rule = csrkn.gauss_rule(csrkn.make_basis(family, s), s)
            assert rule.values.shape == (MAX_DEGREE + 1, s)
            for k in range(MAX_DEGREE + 1):
                for degree in range(max(k, 1), MAX_DEGREE + 1):
                    basis = csrkn.make_basis(family, degree)
                    expected = basis.values(rule.nodes, k)
                    assert rule.values[: k + 1].tobytes() == expected.tobytes()


def test_hand_built_rule_samples_read_only_copies(bases):
    # a rule built by hand samples values from its own copy of the nodes,
    # so changing the caller's array afterwards cannot leave values stale
    basis = bases[csrkn.Family.SHIFTED_LEGENDRE]
    shared = csrkn.gauss_rule(basis, 3)
    nodes, weights = shared.nodes.copy(), shared.weights.copy()
    rule = QuadratureRule(family=shared.family, s=3, nodes=nodes,
                          weights=weights)
    nodes[0] = weights[0] = math.nan
    assert rule.nodes.tobytes() == shared.nodes.tobytes()
    assert rule.weights.tobytes() == shared.weights.tobytes()
    assert rule.values.tobytes() == shared.values.tobytes()
    for array in (rule.nodes, rule.weights, rule.values[0]):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    assert_valid_rule(rule, basis, 3)


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
    if family in (csrkn.Family.SHIFTED_LEGENDRE,
                  csrkn.Family.SHIFTED_CHEBYSHEV1):  # w lives on [0, 1]
        assert np.all((rule.nodes > 0) & (rule.nodes < 1))


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("s", range(1, MAX_DEGREE + 1))
def test_gauss_exactness(wide_bases, family, s):
    basis = wide_bases[family]
    rule = csrkn.gauss_rule(basis, s)
    assert csrkn.exactness_degree(rule, basis) == 2 * s - 1


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


# numpy read None as NaN, cut a complex value to its real part and read
# a string of digits as its number
@pytest.mark.parametrize("value,error", [([None, 0.5, 1.0], TypeError),
                                         ([[0.5], [None]], TypeError),
                                         ([0.25, 0.5j, 0.75], TypeError),
                                         (["0.25", "0.5", "0.75"], ValueError),
                                         ([[0.25], [0.5, 0.75]], ValueError)])
@pytest.mark.parametrize("field", ["nodes", "weights"])
def test_hand_built_rule_holds_real_numbers(bases, field, value, error):
    rule = csrkn.gauss_rule(bases[csrkn.Family.SHIFTED_LEGENDRE], 3)
    arrays = {"nodes": rule.nodes, "weights": rule.weights, field: value}
    with pytest.raises(error) as info:
        QuadratureRule(family=rule.family, s=3, **arrays)
    assert str(info.value) == (f"{field} must hold real numbers, got "
                               f"{value!r}")


# a weight list of another length used to broadcast (b' = (1, 1, 1) from
# weights=[1.0]), and an s other than the node count changed
# exactness_degree's reading
@pytest.mark.parametrize("s,nodes,weights", [
    (3, [0.1, 0.5, 0.9], [1.0]),
    (7, [0.1, 0.5, 0.9], [0.3, 0.4, 0.3]),
    (3, [[0.1, 0.5, 0.9]], [0.3, 0.4, 0.3]),
    (1, [[0.5]], [1.0]),
    (1, 0.5, 1.0)])
def test_hand_built_rule_has_s_nodes_and_weights(s, nodes, weights):
    with pytest.raises(ValueError) as info:
        QuadratureRule(family=csrkn.Family.SHIFTED_LEGENDRE, s=s,
                       nodes=nodes, weights=weights)
    assert str(info.value) == (
        f"nodes and weights must have shape ({s},), got "
        f"{np.shape(nodes)} and {np.shape(weights)}")


@pytest.mark.parametrize("s,error,message", [
    (0, ValueError, f"s must be in 1..{MAX_DEGREE}, got 0"),
    (MAX_DEGREE + 1, ValueError,
     f"s must be in 1..{MAX_DEGREE}, got {MAX_DEGREE + 1}"),
    (3.0, TypeError, "s must be an integer, got 3.0"),
    (True, TypeError, "s must be an integer, got True")])
def test_hand_built_rule_checks_s(bases, s, error, message):
    rule = csrkn.gauss_rule(bases[csrkn.Family.SHIFTED_LEGENDRE], 3)
    with pytest.raises(error) as info:
        QuadratureRule(family=rule.family, s=s, nodes=rule.nodes,
                       weights=rule.weights)
    assert str(info.value) == message


# |G - I| > tol is False for NaN, so a NaN node or weight read as exact (6);
# P_0 is constant, so a NaN node still integrates constants (degree 0)
@pytest.mark.parametrize("field,degree", [("nodes", 0), ("weights", -1)])
def test_nan_rule_is_not_exact(bases, field, degree):
    basis = bases[csrkn.Family.SHIFTED_LEGENDRE]
    rule = csrkn.gauss_rule(basis, 3)
    arrays = {"nodes": rule.nodes.copy(), "weights": rule.weights.copy()}
    arrays[field][1] = math.nan
    broken = QuadratureRule(family=rule.family, s=3, **arrays)
    assert csrkn.exactness_degree(broken, basis) == degree


def test_christoffel_check_rejects_nan_weights(bases, cold_memo,
                                               monkeypatch):
    eigh = np.linalg.eigh

    def nan_vectors(matrix):
        values, vectors = eigh(matrix)
        return values, vectors * math.nan

    basis = bases[csrkn.Family.SHIFTED_LEGENDRE]
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", nan_vectors)
        with pytest.raises(EigenConvergenceError, match="Christoffel"):
            csrkn.gauss_rule(basis, 3)
    assert_valid_rule(csrkn.gauss_rule(basis, 3), basis, 3)


def test_stage_count_bounds(bases):
    basis = bases[csrkn.Family.SHIFTED_LEGENDRE]
    with pytest.raises(ValueError):
        csrkn.gauss_rule(basis, 0)
    with pytest.raises(ValueError):
        csrkn.gauss_rule(basis, basis.max_degree + 1)


# a non-integer s used to fail inside recurrence_coefficients
@pytest.mark.parametrize("s", [2.5, 3.0, "3", None])
def test_stage_count_must_be_an_integer(bases, s):
    with pytest.raises(TypeError) as info:
        csrkn.gauss_rule(bases[csrkn.Family.SHIFTED_LEGENDRE], s)
    assert str(info.value) == f"s must be an integer, got {s!r}"


def test_exactness_family_mismatch(bases):
    rule = csrkn.gauss_rule(bases[csrkn.Family.SHIFTED_LEGENDRE], 2)
    with pytest.raises(ValueError):
        csrkn.exactness_degree(rule, bases[csrkn.Family.STANDARD_HERMITE])


def test_rule_equality_and_hash_do_not_raise(bases):
    basis = bases[csrkn.Family.SHIFTED_CHEBYSHEV1]
    rule = csrkn.gauss_rule(basis, 3)
    fresh = shared_rule.__wrapped__(basis.family, 3)
    assert (fresh == rule) is False
    assert rule == rule
    assert hash(rule) == hash(csrkn.gauss_rule(basis, 3))
    assert isinstance(hash(fresh), int)
