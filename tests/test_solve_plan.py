"""The memoized solve plan of ``solve_alpha``: one condition matrix, one
idle/active split and one rank verdict per structure (family, number of
conditions, alpha_range, unknowns), shared read-only and bounded.

CI also runs this file alone in a fresh process, so the cold-memo tests
cannot pass only because another file built the plans first.
"""

import hashlib
import itertools

import numpy as np
import pytest

import csrkn
from csrkn import construction
from csrkn.construction import _solve_plan

# the coupled rank deficiency that CI's derive example reports
DEFICIENT = csrkn.ConstructionSpec(csrkn.Family.SHIFTED_CHEBYSHEV1,
                                   b_order=3, cn_order=2, tau_degree=2)
DEFICIENT_MESSAGE = ("rank deficiency couples the alpha coefficients (0, 0), "
                     "(0, 1), (0, 2), (1, 2), (2, 2); pin some of them via "
                     "free_alpha")

# every plan of _structure_specs(12, 7, 6), pinned bit for bit so that a
# rewrite of the plan build must reproduce it
PLAN_COUNT = 109
PLAN_SHA256 = ("837a90ef475401b9d3017f49126c7c6f"
               "964ffe13ddb2dc85d41a4f3c57018dc6")


def _structure_specs(b_max=8, cn_max=4, tau_max=4):
    """The four built-ins, then every spec the CLI's custom flags reach with
    b_order <= b_max, cn_order <= cn_max and tau_degree <= tau_max, every
    family, symmetric or not."""
    specs = [construction.method_spec(name, 0.3)
             for name in csrkn.BUILTIN_METHODS]
    for family, symmetric, b, cn, tau in itertools.product(
            csrkn.Family, (False, True), range(1, b_max + 1),
            range(1, cn_max + 1), range(1, tau_max + 1)):
        try:
            specs.append(csrkn.ConstructionSpec(
                family=family, b_order=b, cn_order=cn, tau_degree=tau,
                symmetric=symmetric))
        except csrkn.ConstructionError:
            continue
    return specs


def _plan_keys(monkeypatch, specs=None):
    """Every key solve_alpha asks the plan memo for over specs (by default
    _structure_specs()), in first-use order."""
    keys = {}

    def recorded(*key):
        keys.setdefault(key, None)
        return _solve_plan(*key)

    with monkeypatch.context() as patch:
        patch.setattr(construction, "_solve_plan", recorded)
        for spec in specs or _structure_specs():
            basis = csrkn.make_basis(spec.family, csrkn.basis.MAX_DEGREE)
            try:
                construction.solve_alpha(basis, spec)
            except csrkn.ConstructionError as err:
                assert str(err).startswith("rank deficiency"), (spec, err)
    return list(keys)


def _lstsq_deficient(matrix, active) -> bool:
    """The rank verdict as solve_alpha read it from lstsq's own singular
    values before the plan existed."""
    sing = np.linalg.lstsq(matrix, np.zeros(len(matrix)), rcond=None)[3]
    return bool((sing > 1e-10 * sing[0]).sum() < len(active))


def test_every_plan_equals_a_fresh_build(monkeypatch):
    keys = _plan_keys(monkeypatch)
    # 42 CLI-space structures, and one per built-in: their pins leave
    # other unknowns than any CLI spec does
    assert len(keys) == 46
    deficient = 0
    for key in keys:
        matrix, idle, active, error = _solve_plan(*key)
        fresh = _solve_plan.__wrapped__(*key)
        assert np.array_equal(matrix, fresh[0]), key
        assert matrix.tobytes() == fresh[0].tobytes(), key
        assert (idle, active, error) == fresh[1:], key
        assert sorted(idle + active) == sorted(key[3]), key
        if not active:
            assert error is None and matrix.shape[1] == 0, key
            continue
        assert (error is not None) == _lstsq_deficient(matrix, active), key
        if error is not None:
            deficient += 1
            assert error == (f"rank deficiency couples the alpha "
                             f"coefficients {', '.join(map(str, active))}; "
                             f"pin some of them via free_alpha")
    # the structures behind the 840 inputs that fail in the condition table
    assert deficient == 30


def test_plans_are_shared_and_read_only():
    basis = csrkn.make_basis(csrkn.Family.SHIFTED_LEGENDRE, 8)
    spec = construction.method_spec("legendre4", 0.3)
    construction.solve_alpha(basis, spec)
    hits = _solve_plan.cache_info().hits
    # gamma, the pinned values and the basis degree are not part of the key
    for gamma, degree in ((-0.4, 8), (0.0, 12), (0.3, 5)):
        construction.solve_alpha(csrkn.make_basis(spec.family, degree),
                                 construction.method_spec("legendre4", gamma))
    assert _solve_plan.cache_info().hits == hits + 3
    key = (spec.family, 1, 2, ((0, 0), (0, 2)))
    plan = _solve_plan(*key)
    assert _solve_plan(*key) is plan
    matrix = plan[0]
    assert not matrix.flags.writeable
    with pytest.raises(ValueError):
        matrix[0, 0] = 1.0


def test_memo_stays_within_its_bound():
    maxsize = _solve_plan.cache_info().maxsize
    assert maxsize == 256
    family = csrkn.Family.SHIFTED_LEGENDRE
    pairs = [(i, j) for i in range(5) for j in range(i, 5)]
    # one structure per subset of 9 of the 15 pairs of alpha_range 4
    subsets = itertools.islice(itertools.combinations(pairs, 9),
                               maxsize + 50)
    for unknowns in subsets:
        _solve_plan(family, 2, 4, unknowns)
        assert _solve_plan.cache_info().currsize <= maxsize
    assert _solve_plan.cache_info().currsize == maxsize


def test_rank_error_on_a_cold_memo():
    _solve_plan.cache_clear()
    basis = csrkn.make_basis(DEFICIENT.family, 8)
    with pytest.raises(csrkn.ConstructionError) as info:
        construction.solve_alpha(basis, DEFICIENT)
    assert str(info.value) == DEFICIENT_MESSAGE
    assert _solve_plan.cache_info().currsize == 1


def test_rank_error_on_a_warm_memo_needs_no_lstsq(monkeypatch):
    basis = csrkn.make_basis(DEFICIENT.family, 8)
    with pytest.raises(csrkn.ConstructionError):
        construction.solve_alpha(basis, DEFICIENT)

    def fail(*args, **kwargs):
        raise AssertionError("lstsq called for a rank-deficient structure")

    monkeypatch.setattr(np.linalg, "lstsq", fail)
    with pytest.raises(csrkn.ConstructionError) as info:
        construction.solve_alpha(basis, DEFICIENT)
    assert str(info.value) == DEFICIENT_MESSAGE
    # the pins still go first: a conflicting pin is reported before the rank
    conflicting = csrkn.ConstructionSpec(
        csrkn.Family.SHIFTED_CHEBYSHEV1, b_order=3, cn_order=2, tau_degree=2,
        symmetric=True, free_alpha={(1, 2): 0.5})
    with pytest.raises(csrkn.ConstructionError, match="conflicts with"):
        construction.solve_alpha(basis, conflicting)


def test_full_rank_structure_solves_with_one_lstsq_per_call(monkeypatch):
    basis = csrkn.make_basis(csrkn.Family.SHIFTED_HERMITE, 8)
    spec = construction.method_spec("hermite4", 0.3)
    expected = construction.solve_alpha(basis, spec)
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(args[0])
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    assert construction.solve_alpha(basis, spec) == expected
    assert len(calls) == 1
    assert calls[0] is _solve_plan(spec.family, 1, 2, ((0, 0), (0, 2)))[0]


def _plan_digest(keys) -> str:
    """sha256 over the fresh plan of each key: the matrix's C-order bytes
    (signs of zero included) and shape, the idle and active unknowns and
    the rank-deficiency message."""
    digest = hashlib.sha256()
    for key in keys:
        matrix, idle, active, error = _solve_plan.__wrapped__(*key)
        digest.update(repr((key, matrix.shape, idle, active, error)).encode())
        digest.update(np.ascontiguousarray(matrix).tobytes())
    return digest.hexdigest()


def test_plans_of_the_wide_spec_space_are_pinned(monkeypatch):
    # b_order <= 12 (every basis degree), cn_order <= 7 and tau_degree <= 6:
    # wider than the tableau digests, which stop at b_order 8, tau_degree 4
    keys = _plan_keys(monkeypatch, _structure_specs(12, 7, 6))
    assert len(keys) == PLAN_COUNT
    assert _plan_digest(keys) == PLAN_SHA256
