"""Condition reports, symmetry/symplecticity checks, order measurement."""

import dataclasses
import functools
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import csrkn
from csrkn.verification import _flipped

from conftest import CAPTION_ORDERS, SYMMETRIC_METHODS


def test_continuous_report_legendre(coefficient_sets):
    report = csrkn.check_continuous(coefficient_sets["legendre4"])
    # constant weight function satisfies every weight moment condition
    assert all(res < 1e-13 for res in report.b_residuals)
    assert report.cn_residuals[0] < 1e-13
    assert report.dn_residuals[0] < 1e-13
    assert report.cn_order == 2 and report.dn_order == 2
    assert report.predicted_order == 4
    assert report.symplectic_residual < 1e-12
    assert report.symmetry_residual is not None
    assert report.symmetry_residual < 1e-12


@pytest.mark.parametrize("name,order", list(CAPTION_ORDERS.items()))
def test_continuous_predicted_orders(coefficient_sets, name, order):
    report = csrkn.check_continuous(coefficient_sets[name])
    assert report.predicted_order == order


def test_continuous_hermite3_bushy_residual(coefficient_sets):
    report = csrkn.check_continuous(coefficient_sets["hermite3"])
    assert report.b_residuals[2] < 1e-13
    assert report.b_residuals[3] == pytest.approx(0.5, abs=1e-12)
    assert report.b_order == 3
    assert report.symmetry_residual is None


def test_continuous_report_reads_nan_as_failed(coefficient_sets):
    # with lam[0] = nan every residual is NaN; the order used to read 6
    coeffs = coefficient_sets["legendre4"]
    lam = coeffs.lam.copy()
    lam[0] = math.nan
    report = csrkn.check_continuous(
        csrkn.assemble(coeffs.basis, lam, coeffs.alpha, spec=coeffs.spec))
    assert all(map(math.isnan, report.b_residuals))
    assert (report.b_order, report.predicted_order) == (0, 0)


def test_discrete_report_reads_nan_as_failed(tableaux):
    tableau = tableaux["hermite4"]
    b_prime = tableau.b_prime.copy()
    b_prime[1] = math.nan
    report = csrkn.check_discrete(dataclasses.replace(tableau,
                                                      b_prime=b_prime))
    assert (report.b_order, report.predicted_order) == (0, 0)


# max() over the four per-array distances skipped a NaN that was not first:
# a NaN in the last entry of a_bar, b_bar or b_prime read 5.6e-17, 0 and 0
@pytest.mark.parametrize("name", ["c", "a_bar", "b_bar", "b_prime"])
def test_symmetry_residual_reads_nan_in_any_array(name):
    tableau = csrkn.builtin_tableau("legendre4", 0.1)
    entries = getattr(tableau, name).copy()
    entries.flat[-1] = math.nan
    broken = dataclasses.replace(tableau, **{name: entries})
    assert math.isnan(csrkn.check_symmetric(broken))
    assert math.isnan(csrkn.check_discrete(broken).symmetry_residual)


def _numpy_structural_residuals(tableau):
    """(check_symplectic, check_symmetric) by per-array numpy reductions,
    as computed before each became one reduction over one list."""
    bp = tableau.b_prime
    m = bp[:, None] * (tableau.b_bar[None, :] - tableau.a_bar)
    position = tableau.b_bar - bp * (1.0 - tableau.c)
    symplectic = float(np.maximum(np.abs(m - m.T).max(),
                                  np.abs(position).max()))
    own = (tableau.c, tableau.a_bar, tableau.b_bar, tableau.b_prime)
    distances = [float(np.abs(a - e).max())
                 for a, e in zip(_flipped(tableau), own)]
    total = sum(distances)
    return symplectic, max(distances) if total == total else total


@settings(deadline=None, derandomize=True, max_examples=300)
@given(st.data())
def test_structural_residuals_match_numpy_reductions(data):
    # any entries, NaN and +-inf included, anywhere in any array
    s = data.draw(st.integers(1, 6))
    values = data.draw(arrays(np.float64, s * (s + 3), elements=st.floats(
        width=64) | st.sampled_from([math.nan, math.inf, -math.inf, 0.5])))
    tableau = csrkn.RKNTableau(
        c=values[:s], a_bar=values[s: s + s * s].reshape(s, s),
        b_bar=values[s + s * s: 2 * s + s * s],
        b_prime=values[2 * s + s * s:], family=csrkn.Family.SHIFTED_LEGENDRE)
    with np.errstate(all="ignore"):
        expected = _numpy_structural_residuals(tableau)
        got = (csrkn.check_symplectic(tableau), csrkn.check_symmetric(tableau))
    for value, reference in zip(got, expected):
        assert type(value) is float
        assert (value == reference
                or (math.isnan(value) and math.isnan(reference)))


def _fresh_condition_sides(x, kappa_max):
    # the right sides as computed on every call before the kappa memo
    powers = x ** np.arange(kappa_max + 1)[:, None]
    kappa = np.arange(1, kappa_max)[:, None]
    stage = powers[2:] / (kappa * (kappa + 1))
    return (powers[:-1], 1.0 / np.arange(1, kappa_max + 1), stage,
            stage - x / kappa + 1.0 / (kappa + 1))


def test_condition_sides_from_the_memo_equal_fresh_ones(tableaux):
    for tableau in tableaux.values():
        for kappa_max in range(1, 27):
            got = csrkn.verification._condition_sides(tableau.c, kappa_max)
            want = _fresh_condition_sides(tableau.c, kappa_max)
            assert [a.shape for a in got] == [a.shape for a in want]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_condition_memo_is_shared_and_read_only():
    tables = csrkn.verification._kappa_tables(8)
    assert csrkn.verification._kappa_tables(8) is tables
    assert len(tables) == 5
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 1


def test_discrete_hermite3_bushy_residual(tableaux):
    report = csrkn.check_discrete(tableaux["hermite3"])
    assert report.b_residuals[3] == pytest.approx(0.5, abs=1e-12)
    assert report.predicted_order == 3


@pytest.mark.parametrize("name,order", list(CAPTION_ORDERS.items()))
def test_discrete_orders_match_captions(tableaux, name, order):
    report = csrkn.check_discrete(tableaux[name])
    assert report.predicted_order == order


def test_discrete_legendre_weight_chain_breaks_at_five(tableaux):
    report = csrkn.check_discrete(tableaux["legendre4"])
    assert report.b_order == 4
    assert all(res < 1e-14 for res in report.b_residuals[:4])
    # two-point Gauss misses the degree-4 monomial by 1/5 - 7/36 = 1/180
    assert report.b_residuals[4] == pytest.approx(1 / 180, abs=1e-14)
    assert report.cn_order == 2 and report.dn_order == 2


def test_transpose_condition_follows_from_the_other_two(coefficient_sets):
    # symplectic set + weight/stage conditions imply the transpose chain
    for name, coeffs in coefficient_sets.items():
        report = csrkn.check_continuous(coeffs)
        assert report.dn_order >= min(report.b_order, report.cn_order), name
        assert report.dn_residuals[0] < 1e-10


@pytest.mark.parametrize("name", list(CAPTION_ORDERS))
def test_check_symplectic_builtins(tableaux, name):
    assert csrkn.check_symplectic(tableaux[name]) < 1e-12


def test_check_symplectic_detects_perturbation(tableaux):
    tableau = tableaux["legendre4"]
    a_bar = tableau.a_bar.copy()
    a_bar[0, 1] += 1e-6
    broken = csrkn.RKNTableau(c=tableau.c, a_bar=a_bar, b_bar=tableau.b_bar,
                              b_prime=tableau.b_prime, family=tableau.family)
    residual = csrkn.check_symplectic(broken)
    assert residual == pytest.approx(tableau.b_prime[0] * 1e-6, rel=1e-6)


def test_one_stage_tableau_is_trivially_symplectic():
    tableau = csrkn.RKNTableau(c=np.array([0.5]),
                               a_bar=np.array([[0.125]]),
                               b_bar=np.array([0.5]),
                               b_prime=np.array([1.0]))
    assert csrkn.check_symplectic(tableau) == 0.0


def test_check_symmetric_builds_no_adjoint_tableau(monkeypatch):
    # the distance the adjoint dataclass gave, bit for bit, from the flipped
    # arrays alone; perturbed tableaux give distances well above round-off
    rng = np.random.default_rng(3)
    tableaux = [csrkn.builtin_tableau(name, gamma)
                for name in SYMMETRIC_METHODS for gamma in (-0.4, 0.0, 0.3)]
    tableaux += [dataclasses.replace(
        tableau, a_bar=tableau.a_bar + rng.normal(0.0, 1e-3,
                                                  tableau.a_bar.shape))
        for tableau in tableaux]
    expected = []
    for tableau in tableaux:
        adj = csrkn.adjoint_tableau(tableau)
        expected.append(float(max(
            np.abs(adj.c - tableau.c).max(),
            np.abs(adj.a_bar - tableau.a_bar).max(),
            np.abs(adj.b_bar - tableau.b_bar).max(),
            np.abs(adj.b_prime - tableau.b_prime).max())))

    def no_tableau(*args, **kwargs):
        raise AssertionError("check_symmetric built an RKNTableau")

    monkeypatch.setattr(csrkn.verification, "RKNTableau", no_tableau)
    assert [csrkn.check_symmetric(t) for t in tableaux] == expected


@pytest.mark.parametrize("name", list(CAPTION_ORDERS))
def test_adjoint_is_an_involution(tableaux, name):
    tableau = tableaux[name]
    twice = csrkn.adjoint_tableau(csrkn.adjoint_tableau(tableau))
    assert np.max(np.abs(twice.c - tableau.c)) < 1e-15
    assert np.max(np.abs(twice.a_bar - tableau.a_bar)) < 1e-15
    assert np.max(np.abs(twice.b_bar - tableau.b_bar)) < 1e-15
    assert np.max(np.abs(twice.b_prime - tableau.b_prime)) < 1e-15


def test_check_symmetric(tableaux):
    for name in SYMMETRIC_METHODS:
        assert csrkn.check_symmetric(tableaux[name]) < 1e-12
    assert csrkn.check_symmetric(tableaux["hermite3"]) is None
    anonymous = csrkn.RKNTableau(c=np.array([0.5]),
                                 a_bar=np.array([[0.125]]),
                                 b_bar=np.array([0.5]),
                                 b_prime=np.array([1.0]))
    assert csrkn.check_symmetric(anonymous) is None


@pytest.mark.parametrize("name", list(CAPTION_ORDERS))
def test_free_parameter_never_enters_satisfied_conditions(name):
    tol = 1e-12
    reports = [csrkn.check_discrete(csrkn.builtin_tableau(name, gamma))
               for gamma in (-1.0, 0.0, 1.0)]
    reference = reports[1]
    for report in reports:
        assert report.b_order == reference.b_order
        assert report.cn_order == reference.cn_order
        assert report.dn_order == reference.dn_order
        assert report.predicted_order == reference.predicted_order
        assert report.symplectic_residual < tol
        assert all(res < tol for res in report.b_residuals[:report.b_order])
        assert all(res < tol
                   for res in report.cn_residuals[:report.cn_order - 1])
        assert all(res < tol
                   for res in report.dn_residuals[:report.dn_order - 1])


def test_order_bound_with_quadrature_matches_captions():
    # (weight order, stage order, transpose order) measured continuously,
    # quadrature order 2s, stored coefficient degrees
    assert csrkn.order_bound_with_quadrature(4, 2, 2, 4, 0, 2, 2) == 4
    assert csrkn.order_bound_with_quadrature(4, 2, 2, 6, 2, 2, 4) == 4
    assert csrkn.order_bound_with_quadrature(3, 2, 2, 6, 2, 2, 4) == 3


def test_order_bound_with_quadrature_from_measured_data(coefficient_sets,
                                                        tableaux):
    for name, coeffs in coefficient_sets.items():
        continuous = csrkn.check_continuous(coeffs)
        deg_b, deg_a_tau, deg_a_sigma = coeffs.degrees
        bound = csrkn.order_bound_with_quadrature(
            continuous.b_order, continuous.cn_order, continuous.dn_order,
            2 * tableaux[name].s, deg_b, deg_a_tau, deg_a_sigma)
        assert bound == CAPTION_ORDERS[name], name


@pytest.mark.parametrize("stages", range(7, 13))
def test_check_of_more_than_six_stages(stages):
    # the CLI's custom spec past 6 stages: order 6, the bound of its
    # coefficients' degrees at quadrature order 2s, symplectic and
    # symmetric to rounding, and a text round trip that keeps every bit
    spec = csrkn.ConstructionSpec(
        family=csrkn.Family.SHIFTED_LEGENDRE, b_order=8, cn_order=3,
        tau_degree=4, symmetric=True)
    tableau = csrkn.derive(spec, stages)
    report = csrkn.check_discrete(tableau)
    degrees = csrkn.construction._coefficients(spec).degrees
    assert report.predicted_order == 6 == csrkn.order_bound_with_quadrature(
        8, 3, 3, 2 * stages, *degrees)
    assert report.symplectic_residual <= 1e-12
    assert report.symmetry_residual <= 1e-12
    back = csrkn.parse_tableau(csrkn.serialize_tableau(tableau))
    for name in ("c", "a_bar", "b_bar", "b_prime"):
        assert (getattr(back, name).tobytes()
                == getattr(tableau, name).tobytes()), name


def test_empirical_order_harmonic():
    tableau = csrkn.builtin_tableau("legendre4")
    estimate = csrkn.empirical_order(tableau, csrkn.harmonic(), 0.1, 4)
    assert estimate.mean_slope == pytest.approx(4.0, abs=0.2)
    assert estimate.errors[0] > estimate.errors[-1]


@pytest.mark.parametrize("problem", [csrkn.kepler(), csrkn.harmonic()])
def test_empirical_order_reads_only_endpoints(monkeypatch, problem):
    # each level records its first and last state only; the estimate equals
    # the one from runs that record every state
    tableau = csrkn.builtin_tableau("legendre4")
    integrate, recorded = csrkn.verification.integrate, []

    def record(*args, every_state=False):
        trajectory = integrate(*args[:7] if every_state else args)
        recorded.append(len(trajectory.times))
        return trajectory

    monkeypatch.setattr(csrkn.verification, "integrate", record)
    estimate = csrkn.empirical_order(tableau, problem, 0.1, 4)
    assert recorded == [2] * 4
    monkeypatch.setattr(csrkn.verification, "integrate",
                        functools.partial(record, every_state=True))
    assert csrkn.empirical_order(tableau, problem, 0.1, 4) == estimate
    assert recorded[4:] == [11, 21, 41, 81]


def test_empirical_order_free_motion_is_exact():
    free = csrkn.SecondOrderProblem(
        name="free",
        f=lambda t, q: np.zeros_like(np.asarray(q, dtype=float)),
        q0=np.array([0.3]), qp0=np.array([0.7]),
        exact=lambda t: (np.array([0.3 + 0.7 * t]), np.array([0.7])))
    estimate = csrkn.empirical_order(csrkn.builtin_tableau("hermite4"),
                                     free, 0.1, 3)
    assert all(err < 1e-13 for err in estimate.errors)


def test_empirical_order_requires_exact_solution():
    with pytest.raises(ValueError):
        csrkn.empirical_order(csrkn.builtin_tableau("legendre4"),
                              csrkn.henon_heiles(), 0.1, 3)


@pytest.mark.parametrize("h0,t_end,message", [
    (0.0, 1.0, "h0 must be finite and nonzero, got 0.0"),
    (math.nan, 1.0, "h0 must be finite and nonzero, got nan"),
    (math.inf, 1.0, "h0 must be finite and nonzero, got inf"),
    (0.1, math.nan, "t_end must be finite, got nan"),
    (0.1, -math.inf, "t_end must be finite, got -inf")])
def test_empirical_order_rejects_bad_step_or_end(h0, t_end, message):
    with pytest.raises(ValueError) as info:
        csrkn.empirical_order(csrkn.builtin_tableau("legendre4"),
                              csrkn.harmonic(), h0, 2, t_end=t_end)
    assert str(info.value) == message


@pytest.mark.parametrize("levels", [2.5, 2.0, "2", None, np.float64(2.0)])
def test_empirical_order_rejects_non_integer_levels(levels):
    # levels = 2.5 used to fail inside range() with a bare TypeError
    with pytest.raises(TypeError, match="^levels must be an integer"):
        csrkn.empirical_order(csrkn.builtin_tableau("legendre4"),
                              csrkn.harmonic(), 0.1, levels)


# a str or None used to reach math.isfinite, whose TypeError named nothing
@pytest.mark.parametrize("value", ["0.1", None])
@pytest.mark.parametrize("argument", ["h0", "t_end"])
def test_non_real_step_or_end_error_names_it(argument, value):
    given = {"h0": 0.1, "t_end": 1.0, argument: value}
    with pytest.raises(TypeError) as info:
        csrkn.empirical_order(csrkn.builtin_tableau("legendre4"),
                              csrkn.harmonic(), given["h0"], 2,
                              t_end=given["t_end"])
    assert str(info.value) == (f"{argument} must be a real number, got "
                               f"{value!r}")


@pytest.mark.parametrize("argument,message", [
    ("h0", "h0 must be finite and nonzero"), ("t_end", "t_end must be finite")])
def test_huge_integer_step_or_end_error_names_it(argument, message):
    given = {"h0": 0.1, "t_end": 1.0, argument: 10**400}
    with pytest.raises(ValueError) as info:
        csrkn.empirical_order(csrkn.builtin_tableau("legendre4"),
                              csrkn.harmonic(), given["h0"], 2,
                              t_end=given["t_end"])
    assert str(info.value) == f"{message}, got {10**400!r}"


def test_empirical_order_accepts_numpy_integer_levels():
    tableau, problem = csrkn.builtin_tableau("legendre4"), csrkn.harmonic()
    expected = csrkn.empirical_order(tableau, problem, 0.1, 2)
    for kind in (np.int64, np.int32):
        assert csrkn.empirical_order(tableau, problem, 0.1,
                                     kind(2)) == expected
    with pytest.raises(ValueError, match="^levels must be >= 1$"):
        csrkn.empirical_order(tableau, problem, 0.1, np.int64(0))


@pytest.mark.parametrize("h0,t_end", [
    (-0.1, 1.0), (3.0, 1.0), (0.1, 0.0), (1e-320, 1.0)])
def test_empirical_order_rejects_no_whole_step(h0, t_end):
    # a step count below 1, or t_end / h0 overflowing to inf
    with pytest.raises(ValueError) as info:
        csrkn.empirical_order(csrkn.builtin_tableau("legendre4"),
                              csrkn.harmonic(), h0, 2, t_end=t_end)
    assert str(info.value) == (
        f"t_end / h0 must round to a finite step count >= 1, "
        f"got h0 = {h0!r} and t_end = {t_end!r}")


def test_report_rendering(tableaux):
    report = csrkn.check_discrete(tableaux["hermite3"])
    lines = csrkn.report_lines(report)
    text = "\n".join(lines)
    assert "B kappa=4: 5.000e-01" in text
    assert "not applicable" in text
    assert "predicted order: 3" in text
    csv = csrkn.report_csv(report)
    assert csv.startswith("condition,kappa,residual\n")
    rows = {tuple(line.split(",")[:2]): line.split(",")[2]
            for line in csv.strip().splitlines()[1:]}
    assert float(rows[("B", "4")]) == pytest.approx(0.5, abs=1e-12)
    symmetric_csv = csrkn.report_csv(csrkn.check_discrete(tableaux["legendre4"]))
    assert "\nsymmetry,0," in symmetric_csv


def test_continuous_check_needs_exact_rules():
    # deg B = 12 and a degree-12 kernel would need a 15-point rule
    basis = csrkn.make_basis(csrkn.Family.SHIFTED_LEGENDRE, 12)
    alpha = dict(csrkn.builtin_coefficients("legendre4").alpha)
    alpha[(12, 12)] = 0.1
    lam = np.zeros(13)
    lam[[0, 12]] = 1.0, 0.1
    coeffs = csrkn.assemble(basis, lam, alpha)
    assert coeffs.degrees == (12, 12, 24)
    with pytest.raises(ValueError, match="15-point Gauss rule"):
        csrkn.check_continuous(coeffs)



@functools.cache
def _condition_table_inputs():
    """(label, tableau or the ValueError its derivation raised) per input:
    the built-ins at five gammas, then every (spec, stages) the CLI's custom
    flags reach with b_order <= 8, tau_degree <= 4 and stages <= 6 (2,520
    inputs, of which 840 fail to derive).  Derived once per test process."""
    inputs = [(f"{name} {gamma}", lambda name=name, gamma=gamma:
               csrkn.builtin_tableau(name, gamma))
              for name in csrkn.BUILTIN_METHODS
              for gamma in (-0.5, -0.25, 0.0, 0.25, 0.5)]
    for family, symmetric, b, cn, tau in itertools.product(
            csrkn.Family, (False, True), range(1, 9), range(1, 5),
            range(1, 5)):
        try:
            spec = csrkn.ConstructionSpec(family=family, b_order=b,
                                          cn_order=cn, tau_degree=tau,
                                          symmetric=symmetric)
        except csrkn.ConstructionError:
            continue
        inputs.extend((f"{family.value} {symmetric} {b} {cn} {tau} {s}",
                       lambda spec=spec, s=s: csrkn.derive(spec, s))
                      for s in range(1, 7))
    derived = []
    for label, build in inputs:
        try:
            derived.append((label, build()))
        except ValueError as err:
            derived.append((label, err))
    return tuple(derived)


def _condition_table_rows():
    """One line per input of _condition_table_inputs: its condition orders
    and structural flags, or the type of the error it raised."""
    for label, tableau in _condition_table_inputs():
        if isinstance(tableau, ValueError):
            yield f"{label}: {type(tableau).__name__}"
            continue
        report = csrkn.check_discrete(tableau)
        flags = [None if res is None else res <= 1e-12
                 for res in (report.symplectic_residual,
                             report.symmetry_residual)]
        yield (f"{label}: {report.b_order} {report.cn_order} "
               f"{report.dn_order} {report.predicted_order} {flags}")


# sha256 over _condition_table_rows: any change in a condition order, a
# structural flag or the set of inputs that derive moves it
CONDITION_TABLE_SHA256 = (
    "e7db27ed3d1228c66bef9c8ced9e23a07290f58d993903085ac4061f820b385f")


def test_condition_table_over_every_input_is_pinned():
    rows = list(_condition_table_rows())
    assert len(rows) == 20 + 2520
    assert sum(row.endswith("ConstructionError") for row in rows) == 840
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == CONDITION_TABLE_SHA256


# sha256 over the raw bytes of c, a_bar, b_bar and b_prime of every input
# of _condition_table_inputs (or its full error message), then the node and
# weight bytes of every family's s-point Gauss rule, s = 1 .. 12 (or the
# error type): any change of one bit in a derived tableau or rule moves it
DERIVED_BYTES_SHA256 = (
    "d8aeddd7f79f1afdacfb08dc45c6d28744523afbd82bcb1ee3e24a32b9f822a5")


def test_derived_tableau_and_rule_bytes_are_pinned():
    digest = hashlib.sha256()
    failures = 0
    for label, tableau in _condition_table_inputs():
        digest.update(label.encode())
        if isinstance(tableau, ValueError):
            failures += 1
            digest.update(f"{type(tableau).__name__}: {tableau}".encode())
            continue
        for array in (tableau.c, tableau.a_bar, tableau.b_bar,
                      tableau.b_prime):
            digest.update(np.ascontiguousarray(array).tobytes())
    assert failures == 840
    for family, s in itertools.product(csrkn.Family, range(1, 13)):
        digest.update(f"{family.value} {s}".encode())
        try:
            rule = csrkn.gauss_rule(csrkn.make_basis(family, max(8, s)), s)
        except (ValueError, RuntimeError) as err:
            digest.update(type(err).__name__.encode())
            continue
        digest.update(rule.nodes.tobytes() + rule.weights.tobytes())
    assert digest.hexdigest() == DERIVED_BYTES_SHA256
