"""Stage iteration, stepping, determinism, and failure modes."""

import ast
import dataclasses
import hashlib
import io
import logging
import math
import re

import numpy as np
import pytest

import csrkn
import csrkn.integrator
from csrkn import problems
from csrkn.construction import _max_magnitude
from csrkn.integrator import _ERROR_WEIGHTS, _HISTORY, _extrapolation

from conftest import SYMMETRIC_METHODS


def free_problem():
    return csrkn.SecondOrderProblem(
        name="free",
        f=lambda t, q: np.zeros_like(np.asarray(q, dtype=float)),
        q0=np.array([0.25, -1.5]), qp0=np.array([2.0, 0.5]))


def test_free_motion_single_step(tableaux):
    problem = free_problem()
    for tableau in tableaux.values():
        q1, qp1 = csrkn.rkn_step(tableau, problem, 0.0, problem.q0,
                                 problem.qp0, 0.1)
        np.testing.assert_array_equal(q1, problem.q0 + 0.1 * problem.qp0)
        np.testing.assert_array_equal(qp1, problem.qp0)


def test_free_motion_linear_in_h(tableaux):
    problem = free_problem()
    trajectory = csrkn.integrate(tableaux["legendre4"], problem, 0.0,
                                 problem.q0, problem.qp0, 0.05, 200)
    expected = problem.q0 + (200 * 0.05) * problem.qp0
    assert np.max(np.abs(trajectory.q[-1] - expected)) < 1e-13
    np.testing.assert_array_equal(trajectory.qp[-1], problem.qp0)


def test_harmonic_one_step_local_error():
    tableau = csrkn.builtin_tableau("legendre4")
    q1, qp1 = csrkn.rkn_step(tableau, csrkn.harmonic(), 0.0,
                             np.array([1.0]), np.array([0.0]), 0.1)
    assert abs(q1[0] - math.cos(0.1)) < 1e-8
    assert abs(qp1[0] + math.sin(0.1)) < 3e-8


@pytest.mark.parametrize("name", SYMMETRIC_METHODS)
def test_symmetric_round_trip(tableaux, name):
    kepler = csrkn.kepler()
    tableau = tableaux[name]
    q1, qp1 = csrkn.rkn_step(tableau, kepler, 0.0, kepler.q0, kepler.qp0, 0.1)
    q0, qp0 = csrkn.rkn_step(tableau, kepler, 0.1, q1, qp1, -0.1)
    residual = max(np.max(np.abs(q0 - kepler.q0)),
                   np.max(np.abs(qp0 - kepler.qp0)))
    assert residual < 1e-13


def test_hermite3_round_trip_defect(tableaux):
    # the non-symmetric method leaves an O(h^4) defect; measured 5.1e-5
    # on this orbit at h = 0.1
    kepler = csrkn.kepler()
    tableau = tableaux["hermite3"]
    q1, qp1 = csrkn.rkn_step(tableau, kepler, 0.0, kepler.q0, kepler.qp0, 0.1)
    q0, qp0 = csrkn.rkn_step(tableau, kepler, 0.1, q1, qp1, -0.1)
    residual = max(np.max(np.abs(q0 - kepler.q0)),
                   np.max(np.abs(qp0 - kepler.qp0)))
    assert 1e-7 < residual < 1e-3


def test_integrate_matches_single_step(tableaux):
    kepler = csrkn.kepler()
    tableau = tableaux["chebyshev4"]
    q1, qp1 = csrkn.rkn_step(tableau, kepler, 0.0, kepler.q0, kepler.qp0, 0.1)
    trajectory = csrkn.integrate(tableau, kepler, 0.0, kepler.q0,
                                 kepler.qp0, 0.1, 1)
    np.testing.assert_array_equal(trajectory.q[-1], q1)
    np.testing.assert_array_equal(trajectory.qp[-1], qp1)


@pytest.mark.parametrize("problem_name", ["kepler", "harmonic", "spatial"])
@pytest.mark.parametrize("kind", [int, list, float])
def test_trajectory_arrays_are_fresh(tableaux, problem_name, kind):
    # integrate steps on Python lists; it returns new arrays of the old
    # dtypes and shapes, and neither keeps nor changes the caller's start
    # state (kepler takes the planar kernel, the other two the f path)
    if problem_name == "spatial":
        q0, qp0 = np.array([1, -1, 2]), np.array([0, 1, -1])
        problem = csrkn.SecondOrderProblem(name="spatial", f=spatial_force,
                                           q0=q0, qp0=qp0)
    else:
        problem = csrkn.problem_from_name(problem_name)
        q0, qp0 = problem.q0.astype(int), problem.qp0.astype(int)
    q0, qp0 = ((q0.tolist(), qp0.tolist()) if kind is list
               else (q0.astype(kind), qp0.astype(kind)))
    copies = [np.array(q0), np.array(qp0)]
    trajectory = csrkn.integrate(tableaux["chebyshev4"], problem, 0, q0,
                                 qp0, 0.1, 6,
                                 csrkn.SolverConfig(record_every=4))
    dim = len(copies[0])
    expected = {"times": ((3,), np.float64), "q": ((3, dim), np.float64),
                "qp": ((3, dim), np.float64),
                "iterations": ((6,), np.dtype(int))}
    arrays = {name: getattr(trajectory, name) for name in expected}
    for name, array in arrays.items():
        assert type(array) is np.ndarray
        assert (array.shape, array.dtype) == expected[name], name
        assert array.flags.c_contiguous and array.flags.owndata, name
        for other in [*arrays.values(), q0, qp0]:
            if other is not array and isinstance(other, np.ndarray):
                assert not np.shares_memory(array, other), name
    for state, copy, row in zip((q0, qp0), copies,
                                (trajectory.q[0], trajectory.qp[0])):
        np.testing.assert_array_equal(state, copy, strict=True)
        assert row.tobytes() == copy.astype(float).tobytes()


@pytest.mark.parametrize("problem_name", ["kepler", "harmonic"])
def test_rkn_step_returns_float_vectors(tableaux, problem_name):
    problem = csrkn.problem_from_name(problem_name)
    for q0, qp0 in [(problem.q0, problem.qp0),
                    (problem.q0.astype(int).tolist(),
                     problem.qp0.astype(int).tolist())]:
        q1, qp1 = csrkn.rkn_step(tableaux["hermite4"], problem, 0.0, q0,
                                 qp0, 0.1)
        for vector in (q1, qp1):
            assert type(vector) is np.ndarray
            assert (vector.shape, vector.dtype) == (problem.q0.shape,
                                                    np.float64)


def test_integrate_is_deterministic(tableaux):
    kepler = csrkn.kepler()
    runs = [csrkn.integrate(tableaux["hermite4"], kepler, 0.0, kepler.q0,
                            kepler.qp0, 0.1, 250) for _ in range(2)]
    np.testing.assert_array_equal(runs[0].q, runs[1].q)
    np.testing.assert_array_equal(runs[0].qp, runs[1].qp)
    np.testing.assert_array_equal(runs[0].iterations, runs[1].iterations)


def test_record_every(tableaux):
    kepler = csrkn.kepler()
    config = csrkn.SolverConfig(record_every=10)
    trajectory = csrkn.integrate(tableaux["legendre4"], kepler, 0.0,
                                 kepler.q0, kepler.qp0, 0.1, 95, config)
    # initial state, every tenth step, plus the final step
    assert len(trajectory.times) == 1 + 9 + 1
    assert trajectory.times[0] == 0.0
    assert trajectory.times[-1] == pytest.approx(9.5)
    assert trajectory.iterations.shape == (95,)


def test_iteration_counts_stay_small(tableaux):
    kepler = csrkn.kepler()
    for tableau in tableaux.values():
        trajectory = csrkn.integrate(tableau, kepler, 0.0, kepler.q0,
                                     kepler.qp0, 0.1, 200)
        assert trajectory.iterations.max() <= 20


def test_nonconvergence_raises_with_diagnostics(tableaux):
    kepler = csrkn.kepler()
    config = csrkn.SolverConfig(max_iters=1)
    with pytest.raises(csrkn.StageConvergenceError) as info:
        csrkn.integrate(tableaux["legendre4"], kepler, 0.0, kepler.q0,
                        kepler.qp0, 0.1, 5, config)
    err = info.value
    assert str(err) == ("step 0 (t = 0) failed: stage iteration did not "
                        "reach tolerance within 1 sweeps (last increment "
                        "3.101e-03)")
    assert (err.step_index, err.time, err.iterations) == (0, 0.0, 1)
    assert err.last_delta == float.fromhex("0x1.966daee9f6200p-9")


def test_blowup_raises_numerical_error(tableaux):
    kepler = csrkn.kepler()
    with pytest.raises(csrkn.StageConvergenceError):
        csrkn.integrate(tableaux["hermite3"], kepler, 0.0, kepler.q0,
                        kepler.qp0, 50.0, 20)


def test_non_finite_force_raises():
    # +-inf makes the sweeps compute inf - inf; the typed error must come
    # before any numpy warning, which the suite turns into an error
    for value in (np.nan, np.inf, -np.inf):
        bad = csrkn.SecondOrderProblem(
            name="bad",
            f=lambda t, q: np.full_like(np.asarray(q, dtype=float), value),
            q0=np.array([1.0]), qp0=np.array([0.0]))
        with pytest.raises(csrkn.StageConvergenceError, match="non-finite"):
            csrkn.rkn_step(csrkn.builtin_tableau("legendre4"), bad, 0.0,
                           bad.q0, bad.qp0, 0.1)

    # NaN in one component of the middle stage only, never the first entry
    # the increment's max-norm looks at
    kepler = csrkn.kepler()

    def f(t, q):
        forces = kepler.f(t, q)
        forces[1, 1] = np.nan
        return forces

    bad = csrkn.SecondOrderProblem(name="one-nan", f=f,
                                   q0=kepler.q0, qp0=kepler.qp0)
    with pytest.raises(csrkn.StageConvergenceError) as info:
        csrkn.rkn_step(csrkn.builtin_tableau("chebyshev4"), bad, 0.0,
                       bad.q0, bad.qp0, 0.1)
    assert info.value.iterations == 1


def test_underflowing_kepler_radius_raises():
    # r^2 sqrt(r^2) underflows to 0 for 0 < |q| below about 1e-108, so the
    # Kepler force divides by zero: the typed error, not numpy's warning
    with pytest.raises(csrkn.StageConvergenceError) as info:
        csrkn.integrate(csrkn.builtin_tableau("legendre4"), csrkn.kepler(),
                        0.0, [1e-110, 0.0], [0.0, 0.0], 0.1, 3)
    err = info.value
    assert str(err) == ("step 0 (t = 0) failed: force evaluation returned "
                        "a non-finite value")
    assert (err.iterations, err.last_delta) == (1, None)


def test_kepler_state_off_the_plane_raises_typed_error(tableaux):
    # a 3-component state is not planar: integrate calls f, not the kernel,
    # and f's ValueError becomes the typed force error of the first sweep
    tableau = tableaux["legendre4"]
    with pytest.raises(csrkn.StageConvergenceError) as info:
        csrkn.integrate(tableau, csrkn.kepler(), 0.0, [1.0, 0.0, 0.0],
                        [0.0, 1.0, 0.0], 0.1, 3)
    err = info.value
    assert str(err) == (
        "step 0 (t = 0) failed: force evaluation failed: expected points of "
        f"the plane (last axis of length 2), got shape ({tableau.s}, 3)")
    assert (err.step_index, err.iterations, err.last_delta) == (0, 1, None)
    assert isinstance(err.__cause__, ValueError)


@pytest.mark.parametrize("result", [
    lambda q: q[:, :1], lambda q: q.sum(axis=1), lambda q: q.sum(),
    lambda q: q.ravel(), lambda q: q[None]],
    ids=["(s, 1)", "(s,)", "scalar", "(s*d,)", "(1, s, d)"])
def test_force_of_the_wrong_shape_is_a_force_error(tableaux, result):
    # a shape that broadcasts would integrate another equation silently,
    # and any other would escape as a bare numpy error
    tableau = tableaux["legendre4"]
    kepler = csrkn.kepler()
    problem = csrkn.SecondOrderProblem(
        name="wrong shape", f=lambda t, q: -result(np.asarray(q)),
        q0=kepler.q0, qp0=kepler.qp0)
    with pytest.raises(csrkn.StageConvergenceError) as info:
        csrkn.integrate(tableau, problem, 0.0, problem.q0, problem.qp0, 0.1,
                        5)
    err = info.value
    shape = np.shape(result(np.zeros((tableau.s, 2))))
    assert str(err) == (
        f"step 0 (t = 0) failed: force evaluation failed: f returned shape "
        f"{shape} for stages of shape ({tableau.s}, 2)")
    assert (err.step_index, err.iterations, err.last_delta) == (0, 1, None)
    assert isinstance(err.__cause__, ValueError)


@pytest.mark.parametrize("imaginary", [1j, 0j])
def test_complex_force_is_a_force_error(tableaux, imaginary):
    # numpy would keep the real part with only a ComplexWarning, as it would
    # for a complex q0, which integrate rejects; even a zero imaginary part
    # is refused, as it is for q0
    kepler = csrkn.kepler()
    problem = csrkn.SecondOrderProblem(
        name="complex", f=lambda t, q: kepler.f(t, q) + imaginary,
        q0=kepler.q0, qp0=kepler.qp0)
    with pytest.raises(csrkn.StageConvergenceError) as info:
        csrkn.integrate(tableaux["legendre4"], problem, 0.0, problem.q0,
                        problem.qp0, 0.1, 5)
    err = info.value
    assert str(err) == ("step 0 (t = 0) failed: force evaluation failed: f "
                        "returned complex values")
    assert (err.step_index, err.iterations, err.last_delta) == (0, 1, None)
    assert isinstance(err.__cause__, ValueError)


def failing_kepler(kind, call):
    """Kepler whose force evaluation number `call` (counted from 1 over the
    whole run) raises, returns NaN everywhere, or returns its forces as
    complex values."""
    kepler = csrkn.kepler()
    calls = [0]

    def f(t, q):
        calls[0] += 1
        if calls[0] == call:
            if kind == "raise":
                raise ArithmeticError("overflow in force")
            if kind == "complex":
                return kepler.f(t, q) + 0j
            return np.full_like(q, np.nan)
        return kepler.f(t, q)

    return csrkn.SecondOrderProblem(name=kind, f=f, q0=kepler.q0,
                                    qp0=kepler.qp0)


# legendre4 at h = 0.1 takes 7 and 6 sweeps on the first two Kepler steps,
# so call 15 is the second sweep of step 2; last_delta is its first sweep's
# increment.
@pytest.mark.parametrize("kind,message", [
    ("raise", "step 2 (t = 0.2) failed: force evaluation failed: "
              "overflow in force"),
    ("nan", "step 2 (t = 0.2) failed: force evaluation returned a "
            "non-finite value"),
    ("complex", "step 2 (t = 0.2) failed: force evaluation failed: f "
                "returned complex values"),
])
def test_force_failure_pinned(tableaux, kind, message):
    problem = failing_kepler(kind, 15)
    with pytest.raises(csrkn.StageConvergenceError) as info:
        csrkn.integrate(tableaux["legendre4"], problem, 0.0, problem.q0,
                        problem.qp0, 0.1, 5)
    err = info.value
    assert str(err) == message
    assert (err.step_index, err.time, err.iterations) == (2, 0.2, 2)
    assert err.last_delta == float.fromhex("0x1.79095302c0000p-17")


@pytest.mark.parametrize("kind", ["raise", "nan", "complex", "max_iters"])
def test_rkn_step_failure_matches_first_step(tableaux, kind):
    tableau = tableaux["legendre4"]
    config = csrkn.SolverConfig(max_iters=1 if kind == "max_iters" else 50)

    def problem():
        return (csrkn.kepler() if kind == "max_iters"
                else failing_kepler(kind, 3))

    kepler = csrkn.kepler()
    with pytest.raises(csrkn.StageConvergenceError) as step:
        csrkn.rkn_step(tableau, problem(), 0.5, kepler.q0, kepler.qp0, 0.1,
                       config)
    with pytest.raises(csrkn.StageConvergenceError) as first:
        csrkn.integrate(tableau, problem(), 0.5, kepler.q0, kepler.qp0, 0.1,
                        1, config)
    step, first = step.value, first.value
    assert step.step_index == 0
    assert str(step) == str(first)
    assert str(step).startswith("step 0 (t = 0.5) failed: ")
    assert ((step.time, step.iterations, step.last_delta)
            == (first.time, first.iterations, first.last_delta))


@pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf, -0.0])
@pytest.mark.parametrize("position", [0, 3, 5])
def test_max_abs_matches_numpy(special, position):
    for base in (np.array([0.5, -2.0, 1e-300, -0.0, 7.0, -3.5]),
                 np.zeros(6), np.full(6, -0.0)):
        a = base.copy()
        a[position] = special
        for shaped in (a, a.reshape(3, 2)):
            expected = float(np.abs(shaped).max())
            value = _max_magnitude(shaped.ravel().tolist())
            assert type(value) is float
            if math.isnan(expected):
                assert math.isnan(value)
            else:
                assert value == expected
                assert math.copysign(1.0, value) == math.copysign(1.0,
                                                                  expected)


def test_zero_step_rejected(tableaux):
    problem = free_problem()
    with pytest.raises(ValueError):
        csrkn.rkn_step(tableaux["legendre4"], problem, 0.0, problem.q0,
                       problem.qp0, 0.0)
    with pytest.raises(ValueError):
        csrkn.integrate(tableaux["legendre4"], problem, 0.0, problem.q0,
                        problem.qp0, 0.1, 0)


def test_non_finite_step_or_start_rejected_before_any_force(tableaux):
    calls = []

    def f(t, q):
        calls.append(t)
        return -q

    problem = csrkn.SecondOrderProblem(name="counted", f=f,
                                       q0=np.array([1.0]),
                                       qp0=np.array([0.0]))
    legendre4 = tableaux["legendre4"]
    for h in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="step size must be finite"):
            csrkn.integrate(legendre4, problem, 0.0, problem.q0,
                            problem.qp0, h, 3)
        with pytest.raises(ValueError, match="step size must be finite"):
            csrkn.rkn_step(legendre4, problem, 0.0, problem.q0,
                           problem.qp0, h)
    for t0 in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="start time must be finite"):
            csrkn.integrate(legendre4, problem, t0, problem.q0,
                            problem.qp0, 0.1, 3)
        with pytest.raises(ValueError, match="start time must be finite"):
            csrkn.rkn_step(legendre4, problem, t0, problem.q0,
                           problem.qp0, 0.1)
    assert calls == []


@pytest.mark.parametrize("q0,qp0", [(1.0, 0.0), ([[1.0, 0.0]], [[0.0, 1.0]]),
                                    ([1.0, 0.0], [0.0, 1.0, 0.5]), ([], [])])
def test_non_vector_state_rejected_before_any_force(tableaux, q0, qp0):
    calls = []
    kepler = csrkn.kepler()

    def f(t, q):
        calls.append(t)
        return kepler.f(t, q)

    problem = csrkn.SecondOrderProblem(name="counted", f=f,
                                       q0=kepler.q0, qp0=kepler.qp0)
    with pytest.raises(ValueError, match="q0 and qp0 must be vectors"):
        csrkn.integrate(tableaux["legendre4"], problem, 0.0, q0, qp0, 0.1, 3)
    assert calls == []


# Stormer-Verlet: c = (0, 1), A_bar = [[0, 0], [1/2, 0]]
STORMER_VERLET = {"c": [0.0, 1.0], "a_bar": [[0.0, 0.0], [0.5, 0.0]],
                  "b_bar": [0.5, 0.0], "b_prime": [0.5, 0.5]}


@pytest.mark.parametrize("field,values", [
    ("c", {"c": [0.0]}), ("b_prime", {"b_prime": [0.5, 0.5, 0.0]}),
    ("a_bar", {"a_bar": [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]}),
    ("c", {"c": [[0.0, 1.0]]}),
    ("c", {"c": [], "a_bar": [], "b_bar": [], "b_prime": []})])
def test_tableau_of_the_wrong_shape_names_its_field(field, values):
    # a hand-built tableau whose arrays do not fit used to fail on the
    # generated run's arguments with a TypeError naming nothing; the field
    # named is the one that differs from the others, an empty c for no
    # stages
    calls = []

    def f(t, q):
        calls.append(t)
        return -q

    problem = csrkn.SecondOrderProblem(name="counted", f=f,
                                       q0=np.array([1.0]),
                                       qp0=np.array([0.0]))
    tableau = csrkn.RKNTableau(**{**STORMER_VERLET, **values})
    with pytest.raises(ValueError, match=f"^tableau {field} has shape "):
        csrkn.integrate(tableau, problem, 0.0, problem.q0, problem.qp0,
                        0.1, 3)
    assert calls == []


def test_list_built_tableau_runs_as_array_built():
    # lists used to fail with an AttributeError on .tolist(); the run of
    # Stormer-Verlet from lists equals its run from arrays bit for bit
    kepler = csrkn.kepler()
    runs = [dataclasses.astuple(csrkn.integrate(
                csrkn.RKNTableau(**fields), kepler, 0.0, kepler.q0,
                kepler.qp0, 0.1, 20))
            for fields in (STORMER_VERLET, {name: np.array(value) for
                                            name, value in
                                            STORMER_VERLET.items()})]
    for listed, arrayed in zip(*runs):
        assert listed.dtype == arrayed.dtype
        assert listed.shape == arrayed.shape
        assert listed.tobytes() == arrayed.tobytes()


def test_config_validation():
    with pytest.raises(ValueError):
        csrkn.SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        csrkn.SolverConfig(record_every=0)


@pytest.mark.parametrize("field", ["max_iters", "record_every"])
@pytest.mark.parametrize("value", [2.5, 3.0, "3", None, np.float64(2.0),
                                   True])
def test_config_rejects_non_integers(field, value):
    # record_every = 2.5 used to record t = 0, 0.5, 1.0 of a 10-step run
    # (every 5th step) and max_iters = 2.5 to fail at step 0 inside range();
    # a bool used to pass as an integer
    with pytest.raises(TypeError, match=f"^{field} must be an integer"):
        csrkn.SolverConfig(**{field: value})


@pytest.mark.parametrize("value", [2.5, 3.0, "3", None, np.float64(2.0),
                                   True])
def test_integrate_rejects_non_integer_step_counts(tableaux, value):
    # n_steps = 2.5 used to fail inside range() with a bare TypeError, and
    # n_steps = True to run one step
    kepler = csrkn.kepler()
    with pytest.raises(TypeError, match="^n_steps must be an integer"):
        csrkn.integrate(tableaux["legendre4"], kepler, 0.0, kepler.q0,
                        kepler.qp0, 0.1, value)


# a str or None used to reach math.isfinite, whose TypeError named nothing
@pytest.mark.parametrize("value", ["0.1", None])
@pytest.mark.parametrize("argument,name", [("h", "step size"),
                                           ("t0", "start time")])
def test_non_real_step_or_start_error_names_it(tableaux, argument, name,
                                               value):
    kepler = csrkn.kepler()
    given = {"h": 0.1, "t0": 0.0, argument: value}
    for run in (lambda: csrkn.integrate(tableaux["legendre4"], kepler,
                                        given["t0"], kepler.q0, kepler.qp0,
                                        given["h"], 3),
                lambda: csrkn.rkn_step(tableaux["legendre4"], kepler,
                                       given["t0"], kepler.q0, kepler.qp0,
                                       given["h"])):
        with pytest.raises(TypeError) as info:
            run()
        assert str(info.value) == (f"{name} must be a real number, got "
                                   f"{value!r}")


# an int too large for a double used to escape math.isfinite as an
# OverflowError that named nothing
@pytest.mark.parametrize("argument,message", [
    ("h", "step size must be finite and nonzero"),
    ("t0", "start time must be finite")])
def test_huge_integer_step_or_start_error_names_it(tableaux, argument,
                                                   message):
    kepler = csrkn.kepler()
    given = {"h": 0.1, "t0": 0.0, argument: 10**400}
    with pytest.raises(ValueError) as info:
        csrkn.integrate(tableaux["legendre4"], kepler, given["t0"],
                        kepler.q0, kepler.qp0, given["h"], 3)
    assert str(info.value) == f"{message}, got {10**400!r}"


# a state that does not convert to floats used to raise numpy's message,
# which named neither argument, and a complex array lost its imaginary part
# behind numpy's ComplexWarning; None read as a NaN of shape ()
@pytest.mark.parametrize("value,error", [(["a", 0.0], ValueError),
                                         ([1j, 0.0], TypeError),
                                         ([10**400, 0.0], ValueError),
                                         ([[1.0], [1.0, 2.0]], ValueError),
                                         (np.array([1 + 1j, 0.0]), TypeError),
                                         (None, TypeError),
                                         ([None, 0.0], TypeError),
                                         ([[0.5], [None]], TypeError),
                                         (["1.0", "0.0"], ValueError)])
@pytest.mark.parametrize("argument", ["q0", "qp0"])
def test_state_that_is_not_real_names_it(tableaux, argument, value, error):
    kepler = csrkn.kepler()
    given = {"q0": kepler.q0, "qp0": kepler.qp0, argument: value}
    with pytest.raises(error) as info:
        csrkn.integrate(tableaux["legendre4"], kepler, 0.0, given["q0"],
                        given["qp0"], 0.1, 3)
    assert str(info.value) == (f"{argument} must hold real numbers, got "
                               f"{value!r}")


@pytest.mark.parametrize("problem_name", ["kepler", "harmonic"])
def test_float32_step_and_start_run_as_python_floats(tableaux, problem_name):
    # a float32 h used to keep h * h, so h^2 A_bar and h^2 b_bar, and
    # t0 + k h in float32: a 1,000-step legendre4 Kepler run ended at
    # t = 100.0, not 100.0000015, and drifted in energy by 2.0e-7
    problem = csrkn.problem_from_name(problem_name)
    runs = [csrkn.integrate(tableaux["legendre4"], problem, t0, problem.q0,
                            problem.qp0, h, 50)
            for t0, h in [(np.float32(0.25), np.float32(0.1)),
                          (float(np.float32(0.25)), float(np.float32(0.1)))]]
    for name in ("times", "q", "qp", "iterations"):
        new, python = (getattr(run, name) for run in runs)
        assert new.dtype == python.dtype and new.tobytes() == python.tobytes()


def test_integrate_accepts_numpy_integer_step_counts(tableaux):
    kepler = csrkn.kepler()
    runs = [csrkn.integrate(tableaux["legendre4"], kepler, 0.0, kepler.q0,
                            kepler.qp0, 0.1, kind(4))
            for kind in (int, np.int64, np.int32)]
    for run in runs:
        assert run.q.tobytes() == runs[0].q.tobytes()
        np.testing.assert_array_equal(run.iterations, runs[0].iterations)
    with pytest.raises(ValueError, match="^n_steps must be >= 1$"):
        csrkn.integrate(tableaux["legendre4"], kepler, 0.0, kepler.q0,
                        kepler.qp0, 0.1, np.int64(0))


def test_config_accepts_numpy_integers(tableaux):
    kepler = csrkn.kepler()
    runs = [csrkn.integrate(tableaux["legendre4"], kepler, 0.0, kepler.q0,
                            kepler.qp0, 0.1, 10,
                            csrkn.SolverConfig(max_iters=kind(50),
                                               record_every=kind(5)))
            for kind in (int, np.int64, np.int32)]
    for run in runs:
        np.testing.assert_array_equal(run.times, [0.0, 0.5, 1.0])
        assert run.q.tobytes() == runs[0].q.tobytes()
    with pytest.raises(ValueError, match="record_every must be >= 1"):
        csrkn.SolverConfig(record_every=np.int64(0))


def test_quadratic_invariant_preserved_to_solver_tolerance(kepler_long_runs):
    # angular momentum is a quadratic invariant; drift over 1e4 steps must
    # stay below 100x the stage tolerance
    kepler = csrkn.kepler()
    for name, trajectory in kepler_long_runs.items():
        drift = csrkn.invariant_drift(trajectory,
                                      kepler.invariants["angmom"]).max()
        assert drift < 100 * 1e-14, (name, drift)


def test_trajectory_csv_layout(tableaux):
    kepler = csrkn.kepler()
    trajectory = csrkn.integrate(tableaux["legendre4"], kepler, 0.0,
                                 kepler.q0, kepler.qp0, 0.1, 5)
    buffers = []
    for _ in range(2):
        buffer = io.StringIO()
        csrkn.write_trajectory_csv(trajectory, kepler, buffer)
        buffers.append(buffer.getvalue())
    assert buffers[0] == buffers[1]
    lines = buffers[0].splitlines()
    assert lines[0] == "t,q1,q2,p1,p2,H_err,angmom_err,rlp_err"
    assert len(lines) == 1 + 6
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == 1.0 and first[4] == 1.0


# Kepler, legendre4, h = 0.1, 5 steps, as written before the CSV writer
# shared invariant_drift; the state columns are read back from it below.
KEPLER_CSV = (
    "t,q1,q2,p1,p2,H_err,angmom_err,rlp_err\n"
    "0,1,0,0,1,0,0,0\n"
    "0.10000000000000001,0.99500415451263469,0.09983333315712585,"
    "-0.099833715676378942,0.99500415441732182,7.2608585810485238e-14,0,"
    "3.8061776072573217e-07\n"
    "0.20000000000000001,0.98006653442957348,0.19866916242454552,"
    "-0.19866993495529331,0.98006653291406276,2.8976820942716586e-13,0,"
    "7.5743261135352569e-07\n"
    "0.30000000000000004,0.95533639017844807,0.2955199503259075,"
    "-0.29552112732671659,0.95533638257166642,6.4914740249832903e-13,"
    "2.2204460492503131e-16,1.126679631757721e-06\n"
    "0.40000000000000002,0.92106081508827509,0.38941799264709231,"
    "-0.38941959451425684,0.92106079132842811,1.1477485628574868e-12,"
    "2.2204460492503131e-16,1.4846695021164535e-06\n"
    "0.5,0.87758227669841471,0.4794250871502469,-0.47942713873203302,"
    "0.87758221955964555,1.7795764861716634e-12,2.2204460492503131e-16,"
    "1.827825358402535e-06\n")


def test_trajectory_csv_pinned_bytes():
    rows = np.array([[float(x) for x in line.split(",")]
                     for line in KEPLER_CSV.splitlines()[1:]])
    trajectory = csrkn.Trajectory(times=rows[:, 0], q=rows[:, 1:3],
                                  qp=rows[:, 3:5],
                                  iterations=np.zeros(5, dtype=int))
    buffer = io.StringIO()
    csrkn.write_trajectory_csv(trajectory, csrkn.kepler(), buffer)
    assert buffer.getvalue() == KEPLER_CSV


@pytest.mark.parametrize("name", csrkn.BUILTIN_METHODS)
def test_integrate_matches_chained_steps(tableaux, name):
    # integrate warm-starts every step after the first, rkn_step always
    # starts cold; both solve the same fixed point, but the start can move
    # the rounding of the final sweeps.  Compared at every state of the
    # 300-step runs that RUN_CSV_SHA256 pins; largest measured difference:
    # 0.0 for legendre4 and hermite4, 2.8e-17 for chebyshev4 (on
    # Henon-Heiles) and 3.3e-15 for hermite3 (on Kepler).  The bound is ten
    # stage tolerances.
    tableau = tableaux[name]
    for problem_name in ("kepler", "henon-heiles"):
        problem = csrkn.problem_from_name(problem_name)
        trajectory = csrkn.integrate(tableau, problem, 0.0, problem.q0,
                                     problem.qp0, 0.1, 300)
        q, qp = problem.q0, problem.qp0
        for step in range(300):
            q, qp = csrkn.rkn_step(tableau, problem, step * 0.1, q, qp, 0.1)
            assert np.max(np.abs(trajectory.q[step + 1] - q)) < 1e-13
            assert np.max(np.abs(trajectory.qp[step + 1] - qp)) < 1e-13


def test_repeated_nodes_start_cold():
    # the midpoint rule split into two equal stages: repeated nodes have no
    # extrapolation matrix, so every step starts from the explicit guess
    tableau = csrkn.RKNTableau(c=np.array([0.5, 0.5]),
                               a_bar=np.full((2, 2), 1.0 / 16.0),
                               b_bar=np.array([0.25, 0.25]),
                               b_prime=np.array([0.5, 0.5]))
    kepler = csrkn.kepler()
    trajectory = csrkn.integrate(tableau, kepler, 0.0, kepler.q0,
                                 kepler.qp0, 0.1, 5)
    q, qp = kepler.q0, kepler.qp0
    for step in range(5):
        q, qp = csrkn.rkn_step(tableau, kepler, step * 0.1, q, qp, 0.1)
    np.testing.assert_array_equal(trajectory.q[-1], q)
    np.testing.assert_array_equal(trajectory.qp[-1], qp)


def _column_loop_extrapolation(c):
    # the numpy column loop _extrapolation replaced, kept as its reference
    s = len(c)
    if len(np.unique(c)) < s:
        return None
    ahead = 1.0 + c
    matrix = np.ones((s, s))
    for j in range(s):
        for m in range(s):
            if m != j:
                matrix[:, j] *= (ahead - c[m]) / (c[j] - c[m])
    return matrix


def _block_loop_corrected_extrapolation(extrapolation, m):
    # the per-block loop the binomial error weights replaced
    s = len(extrapolation)
    identity = np.eye(s)
    blocks = [np.zeros((s, s)) for _ in range(m + 1)]
    blocks[0] += extrapolation
    for k in range(m):
        weight = (-1) ** k * math.comb(m, k + 1)
        blocks[k] += weight * identity
        blocks[k + 1] -= weight * extrapolation
    return np.hstack(blocks[::-1])


def assert_same_array(new, reference):
    assert new.dtype == reference.dtype and new.shape == reference.shape
    assert new.flags.c_contiguous and reference.flags.c_contiguous
    assert new.tobytes() == reference.tobytes()


def assert_start_weights_match_references(c):
    # E as a flat list of Python floats, the column loop's bytes (its -0.0
    # entries from 1 + c_i = c_j included)
    flat = _extrapolation(c)
    extrapolation = _column_loop_extrapolation(c)
    assert type(flat) is list and {type(x) for x in flat} == {float}
    assert np.array(flat).tobytes() == extrapolation.tobytes()
    # E F_n + sum_j weights[j] (F_{n-m+1+j} - E F_{n-m+j}) as blocks on
    # F_{n-m}, ..., F_n; each entry rounds as in the per-block loop
    s, m = len(c), _HISTORY
    assert len(_ERROR_WEIGHTS) == m
    blocks = [np.zeros((s, s)) for _ in range(m + 1)]
    blocks[m] += extrapolation
    for i, weight in enumerate(_ERROR_WEIGHTS):
        blocks[i] -= weight * extrapolation
        blocks[i + 1] += weight * np.eye(s)
    assert_same_array(np.hstack(blocks),
                      _block_loop_corrected_extrapolation(extrapolation, m))


@pytest.mark.parametrize("name", csrkn.BUILTIN_METHODS)
def test_start_weights_bit_identical_on_builtins(tableaux, name):
    assert_start_weights_match_references(tableaux[name].c)


@pytest.mark.parametrize("s", range(1, 7))
def test_start_weights_bit_identical_on_random_nodes(s):
    # distinct nodes of either sign and several scales, 0 and 1 included
    # (1 + c_i = c_j puts exact zeros in E)
    rng = np.random.default_rng(1000 + s)
    node_sets = [rng.uniform(-1.0, 2.0, s) * scale
                 for scale in (1.0, 1e-3, 10.0) for _ in range(4)]
    node_sets.append(np.arange(s, dtype=float) / max(s - 1, 1))
    for c in node_sets:
        assert len(np.unique(c)) == s
        assert_start_weights_match_references(c)


@pytest.mark.parametrize("nodes", [[0.5, 0.5], [0.0, -0.0], [-0.0, 0.0],
                                   [0.2, 0.7, 0.2], [0.1, -0.0, 0.9, 0.0]])
def test_repeated_nodes_have_no_start_weights(nodes):
    c = np.array(nodes)
    assert _column_loop_extrapolation(c) is None
    assert _extrapolation(c) is None


def test_single_step_builds_no_start_weights(tableaux, monkeypatch):
    # E is built once per warm call, and a single step is cold
    kepler = csrkn.kepler()

    def refuse(*args):
        raise AssertionError("a single step built start weights")

    monkeypatch.setattr(csrkn.integrator, "_extrapolation", refuse)
    for tableau in tableaux.values():
        csrkn.rkn_step(tableau, kepler, 0.0, kepler.q0, kepler.qp0, 0.1)
        csrkn.integrate(tableau, kepler, 0.0, kepler.q0, kepler.qp0, 0.1, 1)
    monkeypatch.undo()

    calls = []

    def counted(c):
        calls.append(c)
        return _extrapolation(c)

    monkeypatch.setattr(csrkn.integrator, "_extrapolation", counted)
    for tableau in tableaux.values():
        calls.clear()
        csrkn.integrate(tableau, kepler, 0.0, kepler.q0, kepler.qp0, 0.1, 2)
        assert len(calls) == 1 and calls[0] is tableau.c


def test_warm_run_writes_the_error_weights_into_its_source():
    # a warm run's factory takes E and no error weights: they are
    # constants of the run
    for s in range(1, 4):
        cold, warm = (csrkn.integrator._run(s, 2, start, None)
                      for start in (False, True))
        count = warm.__code__.co_argcount
        assert count - cold.__code__.co_argcount == s * s
        run = warm(*[0.0] * count)
        assert set(_ERROR_WEIGHTS) <= set(run.__code__.co_consts)


def start_locals(s, warm):
    """The names of the start's locals (the extrapolated forces, the start
    and the list of prediction errors, r) among the cached Kepler run's
    locals."""
    make = csrkn.integrator._run(s, 2, warm, csrkn.kepler().f.expressions)
    run = make(*[0.0] * make.__code__.co_argcount)
    return {x for x in run.__code__.co_varnames
            if x.startswith(("a_", "e_")) or x == "r"}


def test_single_step_compiles_no_start_kernel(tableaux):
    # one step compiles a cold run, with no start code: asking the cache
    # for the cold run after one step hits and for the warm one misses,
    # and the cold run has no start locals, which the warm run of a
    # two-step run has
    run = csrkn.integrator._run
    kepler = csrkn.kepler()

    def probe(s, warm):
        before = run.cache_info()
        names = start_locals(s, warm)
        after = run.cache_info()
        return after.misses - before.misses, after.hits - before.hits, names

    for tableau in tableaux.values():
        s = tableau.s
        run.cache_clear()
        csrkn.rkn_step(tableau, kepler, 0.0, kepler.q0, kepler.qp0, 0.1)
        assert probe(s, False) == (0, 1, set())
        assert probe(s, True)[:2] == (1, 0)
        run.cache_clear()
        csrkn.integrate(tableau, kepler, 0.0, kepler.q0, kepler.qp0, 0.1, 2)
        misses, hits, names = probe(s, True)
        assert (misses, hits) == (0, 1)
        assert names == {"r", *(f"{x}_{e}" for x in "ae"
                                for e in range(2 * s))}


def test_runs_compile_one_step(tableaux, monkeypatch):
    # a single step and a run with a warm start each compile exactly one
    # function, the run of every step, and nothing else
    run, compiled = csrkn.integrator._run, []
    compile_run = csrkn.integrator._compiled

    def counted(label, *args):
        compiled.append(label)
        return compile_run(label, *args)

    monkeypatch.setattr(csrkn.integrator, "_compiled", counted)
    kepler = csrkn.kepler()
    for tableau in tableaux.values():
        s = tableau.s
        for steps, label in ((1, f"<run {s}x2 cold>"),
                             (2, f"<run {s}x2 warm>")):
            run.cache_clear()
            compiled.clear()
            csrkn.integrate(tableau, kepler, 0.0, kepler.q0, kepler.qp0,
                            0.1, steps)
            assert compiled == [label]
            info = run.cache_info()
            assert (info.currsize, info.misses) == (1, 1)


def test_run_decides_each_sweep_by_comparisons(monkeypatch):
    # a sweep decides on its stage differences g_e = p_e - n_e by chained
    # comparisons alone: converged, else not finite (the one finiteness
    # decision, taken after each stage value is rebound in place where its
    # difference is taken), which fails.  On the point-force path it calls
    # no function but the force's sqrt, the zero-divisor fallback f and the
    # failures; the increment max |g_e| is computed only where it is
    # reported, and nothing after the sweeps tests finiteness again
    run, sources = csrkn.integrator._run, []
    compile_run = csrkn.integrator._compiled

    def captured(label, parameters, signature, lines, namespace):
        sources.append(lines)
        return compile_run(label, parameters, signature, lines, namespace)

    monkeypatch.setattr(csrkn.integrator, "_compiled", captured)
    run.cache_clear()
    try:
        run(3, 2, True, csrkn.kepler().f.expressions)
    finally:
        run.cache_clear()
    lines, = sources

    def depth(line):
        return len(line) - len(line.lstrip())

    loop = next(i for i, line in enumerate(lines) if "for sweep in" in line)
    end = next(i for i in range(loop + 1, len(lines))
               if depth(lines[i]) <= depth(lines[loop]))
    body, after = lines[loop + 1:end], lines[end:]
    gaps = [f"g_{e}" for e in range(6)]
    within = "if " + " and ".join(f"lo < {g} < scale" for g in gaps) + ":"
    finite = [i for i, line in enumerate(body) if "-1e999 <" in line]
    assert len(finite) == 1
    check = body[finite[0]]
    assert check.strip() == "elif not (" + " and ".join(
        f"-1e999 < {g} < 1e999" for g in gaps) + "):"
    assert depth(check) == depth(lines[loop]) + 4
    assert "non-finite" in body[finite[0] + 1]
    strip = [line.strip() for line in body]
    rebound = [i for i, line in enumerate(strip)
               if line.startswith("g_0 = x0 - (x0 := b_0 + (")]
    assert len(rebound) == 1
    assert rebound[0] < strip.index(within) < finite[0]
    for word in ("isfinite", "abs(", "max("):
        assert not any(word in line for line in body), word
    assert set(re.findall(r"(\w+)\(", "\n".join(body))) == {"sqrt", "f",
                                                             "fail"}
    assert not any("isfinite" in line or "1e999" in line for line in after)


def run_source(monkeypatch, *args):
    """The body lines _run writes for these arguments, not compiled."""
    sources = []
    monkeypatch.setattr(csrkn.integrator, "_compiled",
                        lambda *args: sources.append(args[3]))
    csrkn.integrator._run.__wrapped__(*args)
    return sources.pop()


def test_run_writes_max_magnitude_in_one_line(monkeypatch):
    # the new position's max |q| is one max() call, with no sum of the
    # magnitudes to catch a NaN
    lines = run_source(monkeypatch, 3, 2, True, csrkn.kepler().f.expressions)
    assert [line.strip() for line in lines if "max(" in line] == [
        "m = max(0.0, abs(q_0), abs(q_1))"]
    assert not any(re.search(r"\btotal\b", line) for line in lines)


POINT_FORCES = {
    "kepler": csrkn.kepler().f.expressions,
    "henon-heiles": csrkn.henon_heiles().f.expressions,
    "harmonic": csrkn.harmonic().f.expressions,
    "kepler-3d": ("x / (d := -(r := x * x + y * y + z * z) * sqrt(r))",
                  "y / d", "z / d")}


@pytest.mark.parametrize("points", [1, 2, 12, 3000])
@pytest.mark.parametrize("name", POINT_FORCES)
def test_force_terms_indexed_per_point(monkeypatch, name, points):
    # the sweep's force lines, one per stage value, are each expression
    # with every one-letter name indexed by point, as substituting point by
    # point writes them; 3,000 points as 3 stages of 1,000 points each
    expressions = POINT_FORCES[name]
    dim = len(expressions)
    s = points if points <= 12 else 3
    lines = run_source(monkeypatch, s, dim * points // s, True, expressions)
    terms = [re.sub(r"\b([a-z])\b", rf"\g<1>{i}", expression)
             for i in range(points) for expression in expressions]
    assert [line.strip() for line in lines
            if re.match(r"\s*f_\d+ = ", line)] == [
        f"f_{e} = {term}" for e, term in enumerate(terms)]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("s", [1, 2, 3, 12])
def test_run_holds_one_local_per_stage_value(monkeypatch, s, d):
    # each sweep rebinds its stage values in place as it takes their
    # differences: no run holds a second name per stage value (n_steps is
    # the step count), and inside the sweep loop each stage local is
    # stored exactly once, on the point-force path and the f path, warm
    # and cold
    sources = []
    compile_run = csrkn.integrator._compiled

    def captured(label, parameters, signature, lines, namespace):
        sources.append(lines)
        return compile_run(label, parameters, signature, lines, namespace)

    monkeypatch.setattr(csrkn.integrator, "_compiled", captured)
    points = {1: csrkn.harmonic().f.expressions,
              2: csrkn.kepler().f.expressions, 3: ("-x", "-y", "-z")}
    for warm in (False, True):
        for expressions in (points[d], None):
            make = csrkn.integrator._run.__wrapped__(s, d, warm, expressions)
            run, = [code for code in make.__code__.co_consts
                    if getattr(code, "co_name", None) == "run"]
            assert "n_steps" in run.co_varnames
            assert not [name for name in run.co_varnames
                        if re.fullmatch(r"n_\d+", name)]
            dim = len(expressions) if expressions else 1
            stages = [f"{problems._COORDINATES[e % dim]}{e // dim}"
                      for e in range(s * d)]
            loop, = [node for node in ast.walk(ast.parse("\n".join(
                         sources.pop()))) if isinstance(node, ast.For)
                     and getattr(node.target, "id", None) == "sweep"]
            stored = [node.id for statement in loop.body
                      for node in ast.walk(statement)
                      if isinstance(node, ast.Name)
                      and isinstance(node.ctx, ast.Store)]
            assert all(stored.count(x) == 1 for x in stages), stored


@pytest.mark.parametrize("name", csrkn.BUILTIN_METHODS)
def test_corrected_start_exactness_degree(tableaux, name):
    # stage forces sampled from a polynomial in t over the last m + 1
    # steps: E F_n plus the weighted prediction errors reproduces the next
    # step's forces for every monomial up to degree s + m - 1 (so for every
    # polynomial of that degree) and for no higher one; rounding stays
    # below 1e-12 on the built-ins' nodes, and the degree s + m miss is
    # 1.8e-4 to 5.1e-4.  Time is scaled by 1 / (m + 2) to keep the samples
    # of order 1.
    c = tableaux[name].c
    s, m = len(c), _HISTORY
    extrapolation = np.array(_extrapolation(c)).reshape(s, s)
    weights = _ERROR_WEIGHTS
    sampled = [(step + c) / (m + 2) for step in range(m + 1)]
    ahead = (m + 1 + c) / (m + 2)

    def miss(degree):
        forces = [t ** degree for t in sampled]
        errors = [forces[j + 1] - extrapolation.dot(forces[j])
                  for j in range(m)]
        start = extrapolation.dot(forces[m]) + sum(
            w * error for w, error in zip(weights, errors))
        return np.max(np.abs(start - ahead ** degree))

    for degree in range(s + m):
        assert miss(degree) < 1e-11, degree
    assert miss(s + m) > 1e-6


def test_force_jump_in_time(tableaux):
    # a force that jumps at t = 1.234 breaks the smoothness the start
    # extrapolates for the next m + 1 steps: every built-in integrates
    # through it with one force call per sweep, and lands on the cold
    # start's fixed point
    calls = [0]

    def f(t, q):
        calls[0] += 1
        return -q + 0.5 * (t > 1.234)[:, None]

    jump = csrkn.SecondOrderProblem(name="jump", f=f,
                                    q0=np.array([1.0, 0.0]),
                                    qp0=np.array([0.0, 1.0]))
    for tableau in tableaux.values():
        calls[0] = 0
        trajectory = csrkn.integrate(tableau, jump, 0.0, jump.q0, jump.qp0,
                                     0.1, 60)
        assert calls[0] == int(trajectory.iterations.sum())
        q, qp = jump.q0, jump.qp0
        for step in range(60):
            q, qp = csrkn.rkn_step(tableau, jump, step * 0.1, q, qp, 0.1)
        assert np.max(np.abs(trajectory.q[-1] - q)) < 1e-13
        assert np.max(np.abs(trajectory.qp[-1] - qp)) < 1e-13


def test_non_finite_force_on_warm_step_raises():
    kepler = csrkn.kepler()

    def f(t, q):
        if np.max(t) > 0.25:
            return np.full_like(q, np.nan)
        return kepler.f(t, q)

    bad = csrkn.SecondOrderProblem(name="late-nan", f=f,
                                   q0=kepler.q0, qp0=kepler.qp0)
    with pytest.raises(csrkn.StageConvergenceError) as info:
        csrkn.integrate(csrkn.builtin_tableau("legendre4"), bad, 0.0,
                        bad.q0, bad.qp0, 0.1, 10)
    # step 2 is the first whose stage times pass 0.25
    assert info.value.step_index == 2
    assert info.value.iterations == 1


# Total fixed-point sweeps over 200 Kepler steps at h = 0.1 from the
# circular orbit; the iteration is deterministic, so the count is exact.
KEPLER_SWEEPS = {"legendre4": 631, "chebyshev4": 469, "hermite4": 473,
                 "hermite3": 679}


@pytest.mark.parametrize("name", csrkn.BUILTIN_METHODS)
def test_kepler_sweep_count_pinned(tableaux, name):
    kepler = csrkn.kepler()
    trajectory = csrkn.integrate(tableaux[name], kepler, 0.0, kepler.q0,
                                 kepler.qp0, 0.1, 200)
    assert int(trajectory.iterations.sum()) == KEPLER_SWEEPS[name]


# The same count for Henon-Heiles from its standard start state.
HENON_HEILES_SWEEPS = {"legendre4": 854, "chebyshev4": 809,
                       "hermite4": 807, "hermite3": 1040}


@pytest.mark.parametrize("name", csrkn.BUILTIN_METHODS)
def test_henon_heiles_sweep_count_pinned(tableaux, name):
    problem = csrkn.henon_heiles()
    trajectory = csrkn.integrate(tableaux[name], problem, 0.0, problem.q0,
                                 problem.qp0, 0.1, 200)
    assert int(trajectory.iterations.sum()) == HENON_HEILES_SWEEPS[name]


# the spec of CI's 12-stage console runs, at 5 and 12 stages: its dot
# products are longer than the 2-3-stage built-ins', so a change of their
# summation order shows in the bytes
CUSTOM_STAGES = {"custom5": 5, "custom12": 12}
CUSTOM_SPEC = csrkn.ConstructionSpec(
    family=csrkn.Family.SHIFTED_LEGENDRE, b_order=8, cn_order=3,
    tau_degree=4, symmetric=True)

# sha256 of the CSV of a 300-step run at h = 0.1 from each problem's start
# state; any change to a state, an invariant or the formatting moves it.
# harmonic (d = 1) takes the f path, kepler and henon-heiles the kernel's.
RUN_CSV_SHA256 = {
    ("legendre4", "kepler"):
        "e4ea0f3c66b28ed33810a4b354430fb567d76c9be5654833c9f657f8e606f0d6",
    ("legendre4", "henon-heiles"):
        "40976f29c991778e34ec67ce8ed5993f84733e520058311306f0d751a1188399",
    ("chebyshev4", "kepler"):
        "715bab4e694c9c0abf1cf0c4071e7701ae105c965c90952a706cef54848d4d1f",
    ("chebyshev4", "henon-heiles"):
        "a9b341a2dc81edd413c846e8442350215ba888b23fbb35b5000aa988566bff78",
    ("hermite4", "kepler"):
        "150b63d04b0290e82e9e23da90fec0c51105d42a867f89b3d818d110a4a6cc4a",
    ("hermite4", "henon-heiles"):
        "e164ea6704367abe31d8925996dc01cf19c7b5b8cc6f3764a3b2840cecb5a472",
    ("hermite3", "kepler"):
        "ab9d7d6ba8b0ddcbb3ae19cd4b17a7a9b38896b158baff498924cddd69041f24",
    ("hermite3", "henon-heiles"):
        "b8d7001fb00236654d58bee872048e12e424015b14f8dfdfe89e421e4c93d8f1",
    ("legendre4", "harmonic"):
        "0b51ed92c1d45bfe0767ce40c23e9e8d6f89a8f011646e011cf8d3dec0221e0a",
    ("chebyshev4", "harmonic"):
        "0975327ae43379e174f9cd7d1f864aa244cbe690cb3c4f3729c1e38bd42ea607",
    ("hermite4", "harmonic"):
        "2d2f717ea4f6fe22087fdd709aa5c87762ab1924ddaa9a67b9d94aad4e51e31f",
    ("hermite3", "harmonic"):
        "fb1e3e00e53370a4ebfe6f32d9d423565215e8ac68ddb9d9025cef11f99ecc47",
    ("custom5", "kepler"):
        "92fe06befab1359b9d832118983921560182010aa58756ddb043063d4b7df488",
    ("custom5", "henon-heiles"):
        "0644381dbecab1ffde9b5000c5dcf8f7137440bac447a132f55685ea64182dbb",
    ("custom12", "kepler"):
        "ce23e6d2444df341ee5b478d0741e4cdcab3c08d57959c51dbb931bee05df514",
    ("custom12", "henon-heiles"):
        "86b8170a748395ae85cc73d89e350984026e26ee44dc7058abbbed6996e23611",
}


@pytest.mark.parametrize("name,problem_name", sorted(RUN_CSV_SHA256))
def test_run_csv_pinned_sha256(tableaux, name, problem_name):
    problem = csrkn.problem_from_name(problem_name)
    tableau = (csrkn.derive(CUSTOM_SPEC, CUSTOM_STAGES[name])
               if name in CUSTOM_STAGES else tableaux[name])
    trajectory = csrkn.integrate(tableau, problem, 0.0, problem.q0,
                                 problem.qp0, 0.1, 300)
    buffer = io.StringIO()
    csrkn.write_trajectory_csv(trajectory, problem, buffer)
    digest = hashlib.sha256(buffer.getvalue().encode()).hexdigest()
    assert digest == RUN_CSV_SHA256[name, problem_name]


def spatial_force(t, q):
    # nonlinear and elementwise, on three components and the stage times,
    # with only IEEE products and sums so every platform gives the same bits
    return -(1.0 + 0.5 * q * q) * q + 0.01 * np.asarray(t)[:, None]


# sha256 of times, q, qp and iterations of a 300-step run at h = 0.1 of the
# d = 3 force above, which takes the f path; the run pins above cover only
# d = 1 (harmonic) and d = 2 (the planar problems)
SPATIAL_SHA256 = {
    "legendre4":
        "15152dc1ffb79f49c60fade153e250c52be6b39efc38e17a5b71e3291171cba3",
    "chebyshev4":
        "3e954b431a22f4444d05938c552179ce93cf09d3404903f7ca7612c66e5ba50f",
    "hermite4":
        "1a034a1680177f72d96332fc1e63fca708e63d885b6f4b22f0dde41d845c74a2",
    "hermite3":
        "0036982f78e5a350b165a43332892268a0302ca52605167933b4cc60360e2fe0",
    "custom5":
        "56c0b38907618117cba1494192cc25e95d438baf6c0cdc2d7691cd9514c6012f",
    "custom12":
        "7515dbd6398502e56b1f40fbfc88b8240f7d48489e525d0ed7de4fc0aa9d2d2e",
}


@pytest.mark.parametrize("name", sorted(SPATIAL_SHA256))
def test_spatial_run_pinned_sha256(tableaux, name):
    problem = csrkn.SecondOrderProblem(
        name="spatial", f=spatial_force, q0=np.array([1.0, -0.5, 0.25]),
        qp0=np.array([0.0, 0.75, -0.5]))
    tableau = (csrkn.derive(CUSTOM_SPEC, CUSTOM_STAGES[name])
               if name in CUSTOM_STAGES else tableaux[name])
    trajectory = csrkn.integrate(tableau, problem, 0.0, problem.q0,
                                 problem.qp0, 0.1, 300)
    digest = hashlib.sha256()
    for array in (trajectory.times, trajectory.q, trajectory.qp,
                  trajectory.iterations.astype(np.int64)):
        digest.update(array.tobytes())
    assert digest.hexdigest() == SPATIAL_SHA256[name]


def test_polish_cap_is_logged(tableaux, caplog):
    # a tiny constant force meets the tolerance on the first sweep with a
    # nonzero increment, so max_iters = 1 runs out before the polish sweeps
    nudge = csrkn.SecondOrderProblem(
        name="nudge",
        f=lambda t, q: np.full_like(np.asarray(q, dtype=float), 1e-12),
        q0=np.array([0.25, -1.5]), qp0=np.array([2.0, 0.5]))
    config = csrkn.SolverConfig(max_iters=1)
    with caplog.at_level(logging.WARNING, logger="csrkn"):
        trajectory = csrkn.integrate(tableaux["legendre4"], nudge, 0.0,
                                     nudge.q0, nudge.qp0, 0.1, 1, config)
    assert trajectory.iterations[0] == 1
    assert [r.name for r in caplog.records] == ["csrkn"]
    assert "polish" in caplog.records[0].getMessage()


# chebyshev4 at h = 0.1 takes 7 sweeps on the first Kepler step, so call 9 is
# the second sweep of step 1, a warm step.  The coupling dot spreads a NaN
# force over its column, so for odd components the first NaN of the stage
# list is not its first entry.
@pytest.mark.parametrize("component", [(i, j) for i in range(3)
                                       for j in range(2)])
def test_nan_stage_component_on_warm_sweep_pinned(tableaux, component):
    kepler = csrkn.kepler()
    calls = [0]

    def f(t, q):
        calls[0] += 1
        forces = kepler.f(t, q)
        if calls[0] == 9:
            forces[component] = np.nan
        return forces

    bad = csrkn.SecondOrderProblem(name="one-nan", f=f,
                                   q0=kepler.q0, qp0=kepler.qp0)
    with pytest.raises(csrkn.StageConvergenceError) as info:
        csrkn.integrate(tableaux["chebyshev4"], bad, 0.0, bad.q0, bad.qp0,
                        0.1, 5)
    err = info.value
    assert str(err) == ("step 1 (t = 0.1) failed: force evaluation returned "
                        "a non-finite value")
    assert (err.step_index, err.iterations) == (1, 2)
    assert err.last_delta == float.fromhex("0x1.8d0d2e6b80000p-23")


def test_huge_finite_state_pinned(tableaux):
    # every stage list sums past the largest double while each entry and
    # each increment stays finite; sha256 of times, q, qp and iterations
    nudge = csrkn.SecondOrderProblem(
        name="huge",
        f=lambda t, q: np.full_like(np.asarray(q, dtype=float), 1e-12),
        q0=np.array([1e308, 1.0]), qp0=np.array([1e305, 0.5]))
    trajectory = csrkn.integrate(tableaux["chebyshev4"], nudge, 0.0,
                                 nudge.q0, nudge.qp0, 0.1, 50)
    digest = hashlib.sha256()
    for array in (trajectory.times, trajectory.q, trajectory.qp,
                  trajectory.iterations.astype(np.int64)):
        digest.update(array.tobytes())
    assert digest.hexdigest() == ("bb1ccfff51e271d0e98c6c6dff05110013d4095e"
                                  "e88e3d0bb528c9d14fbbf61c")
    assert trajectory.iterations.tolist() == [2] + [1] * 49


def test_signed_zero_stages_count_as_zero_increment(tableaux, caplog):
    # the first sweep turns every -0.0 stage value into +0.0; an increment
    # of exactly 0 ends the step, so max_iters = 1 logs no polish warning
    tableau = tableaux["legendre4"]
    still = csrkn.SecondOrderProblem(
        name="still",
        f=lambda t, q: np.zeros_like(np.asarray(q, dtype=float)),
        q0=np.array([-0.0, -0.0]), qp0=np.array([-0.0, -0.0]))
    h = 0.1
    base = still.q0 + (h * tableau.c)[:, None] * still.qp0
    updated = base + ((h * h) * tableau.a_bar).dot(np.zeros((2, 2)))
    assert np.signbit(base).all() and not np.signbit(updated).any()
    config = csrkn.SolverConfig(max_iters=1)
    with caplog.at_level(logging.WARNING, logger="csrkn"):
        trajectory = csrkn.integrate(tableau, still, 0.0, still.q0,
                                     still.qp0, h, 3, config)
    assert trajectory.iterations.tolist() == [1, 1, 1]
    assert caplog.records == []


@pytest.mark.parametrize("q0", [[np.inf, 0.25], [0.25, -np.inf],
                                [np.nan, 0.25], [0.25, np.nan]])
def test_non_finite_state_raises(tableaux, q0):
    # with no force the first sweep repeats the start stages exactly, inf
    # entries included; inf - inf is still a non-finite increment
    problem = free_problem()
    with pytest.raises(csrkn.StageConvergenceError) as info:
        csrkn.integrate(tableaux["legendre4"], problem, 0.0, np.array(q0),
                        problem.qp0, 0.1, 3)
    err = info.value
    assert str(err) == ("step 0 (t = 0) failed: force evaluation returned "
                        "a non-finite value")
    assert (err.iterations, err.last_delta) == (1, None)


# one stage whose position weight 1e300 turns q_0 = 1e308 into NaN in the
# update of step 0: q + h q' overflows to inf and h^2 b_bar F to -inf
NAN_UPDATE = csrkn.RKNTableau(c=[0.5], a_bar=[[0.0]], b_bar=[1e300],
                              b_prime=[1.0])
NAN_FORCES = {"point force": csrkn.harmonic(),
              "plain f": dataclasses.replace(
                  csrkn.harmonic(), f=lambda t, q: -np.asarray(q, float))}


@pytest.mark.parametrize("force", NAN_FORCES)
def test_position_turned_nan_fails_the_next_sweep(force):
    # the NaN position makes every stage base of the next step NaN, so its
    # first sweep fails whatever the tolerance scale; a single step
    # returns the NaN state
    problem = NAN_FORCES[force]
    q0, qp0 = [1e308, 0.5], [1e308, 0.0]
    one = csrkn.integrate(NAN_UPDATE, problem, 0.0, q0, qp0, 1.0, 1)
    assert math.isnan(one.q[-1, 0]) and one.q[-1, 1] == -5e299
    assert one.iterations.tolist() == [1]
    with pytest.raises(csrkn.StageConvergenceError) as info:
        csrkn.integrate(NAN_UPDATE, problem, 0.0, q0, qp0, 1.0, 3)
    err = info.value
    assert str(err) == ("step 1 (t = 1) failed: force evaluation returned "
                        "a non-finite value")
    assert (err.step_index, err.time) == (1, 1.0)
    assert (err.iterations, err.last_delta) == (1, None)


@pytest.mark.parametrize("force", NAN_FORCES)
@pytest.mark.parametrize("q0", [[np.nan, 0.5], [0.5, np.inf],
                                [-np.inf, np.nan]])
def test_non_finite_start_fails_the_first_sweep(tableaux, force, q0):
    # NaN, inf or both in q0 fail step 0 at sweep 1, cold and warm
    problem = NAN_FORCES[force]
    for tableau in (NAN_UPDATE, tableaux["legendre4"]):
        for n_steps in (1, 3):
            with pytest.raises(csrkn.StageConvergenceError) as info:
                csrkn.integrate(tableau, problem, 0.0, q0, [0.0, 0.25], 0.1,
                                n_steps)
            err = info.value
            assert str(err) == ("step 0 (t = 0) failed: force evaluation "
                                "returned a non-finite value")
            assert (err.step_index, err.time) == (0, 0.0)
            assert (err.iterations, err.last_delta) == (1, None)


def test_overflowing_predictor_raises():
    # nearly repeated nodes give a predictor with entries near +-1250, so
    # the warm start of step 1 overflows to NaN in the second component
    # while the first sweep's own stage values stay finite
    tableau = csrkn.RKNTableau(c=np.array([0.5, 0.5001]),
                               a_bar=np.full((2, 2), 0.0625),
                               b_bar=np.array([0.25, 0.25]),
                               b_prime=np.array([0.5, 0.5]))
    push = csrkn.SecondOrderProblem(
        name="push",
        f=lambda t, q: np.asarray(q, dtype=float) * 0.0 + [1.0, 1e306],
        q0=np.array([0.25, -1.5]), qp0=np.array([2.0, 0.5]))
    with pytest.raises(csrkn.StageConvergenceError) as info:
        csrkn.integrate(tableau, push, 0.0, push.q0, push.qp0, 1.0, 3)
    err = info.value
    assert str(err) == ("step 1 (t = 1) failed: force evaluation returned "
                        "a non-finite value")
    assert (err.iterations, err.last_delta) == (1, None)


@pytest.mark.parametrize("problem_name", ["kepler", "henon-heiles"])
@pytest.mark.parametrize("name", csrkn.BUILTIN_METHODS)
def test_force_calls_match_iterations(tableaux, name, problem_name):
    # a plain-function f takes the f path; the kernel path is counted by
    # test_kernel_calls_match_iterations
    problem = csrkn.problem_from_name(problem_name)
    counts = {"calls": 0, "rows": 0}

    def f(t, q):
        counts["calls"] += 1
        counts["rows"] += len(q)
        return problem.f(t, q)

    counted = csrkn.SecondOrderProblem(name="counted", f=f,
                                       q0=problem.q0, qp0=problem.qp0)
    trajectory = csrkn.integrate(tableaux[name], counted, 0.0, counted.q0,
                                 counted.qp0, 0.1, 200)
    sweeps = int(trajectory.iterations.sum())
    assert counts == {"calls": sweeps, "rows": tableaux[name].s * sweeps}


# point-force expressions that raise ZeroDivisionError at every point, so
# that every sweep hands the stage list to the per-point function, which
# hands each point to on_zero
DIVIDING = ("x / 0.0", "y / 0.0")


def through_on_zero(force):
    """on_zero(x, y): the force at the point by its own per-point function,
    for expressions that always divide by zero."""
    return lambda x, y: force.on_points([x, y])


class KernelOnly(problems._PointForce):
    """A point force that integrate may not call as f: counts records its
    per-point function's calls and points, and without counts the run may
    not call that function either."""

    __slots__ = ("counts",)

    def __init__(self, expressions, on_zero=None, counts=None):
        super().__init__(expressions, on_zero)
        self.counts = counts

    @property
    def on_points(self):
        on_points, counts = super().on_points, self.counts

        def counted(xy):
            if counts is None:
                raise AssertionError("the run fell back to the per-point "
                                     "function")
            counts["calls"] += 1
            counts["points"] += len(xy) // 2
            return on_points(xy)
        return counted

    def __call__(self, t, q):
        raise AssertionError("integrate called f")


@pytest.mark.parametrize("problem_name", ["kepler", "henon-heiles"])
@pytest.mark.parametrize("name", csrkn.BUILTIN_METHODS)
def test_kernel_calls_match_iterations(tableaux, name, problem_name):
    # through the zero-divisor fallback, here on every sweep: integrate
    # calls the point force's per-point function once per sweep on the s
    # stage points, and never f
    problem = csrkn.problem_from_name(problem_name)
    counts = {"calls": 0, "points": 0}
    counted = dataclasses.replace(problem, f=KernelOnly(
        DIVIDING, through_on_zero(problem.f), counts))
    trajectory = csrkn.integrate(tableaux[name], counted, 0.0, counted.q0,
                                 counted.qp0, 0.1, 200)
    sweeps = int(trajectory.iterations.sum())
    assert counts == {"calls": sweeps, "points": tableaux[name].s * sweeps}


@pytest.mark.parametrize("problem_name", ["kepler", "henon-heiles"])
@pytest.mark.parametrize("name", csrkn.BUILTIN_METHODS)
def test_unrolled_kernel_calls_match_iterations(tableaux, name, problem_name):
    # the built-in problems' path: integrate compiles one run for the
    # stage count, the start and the force's expressions, shared by the
    # forces of later problem_from_name calls, and its sweeps call neither
    # f nor, on these orbits, the per-point function
    step = csrkn.integrator._run
    step.cache_clear()
    runs = [csrkn.integrate(tableaux[name], problem, 0.0, problem.q0,
                            problem.qp0, 0.1, 200)
            for problem in (csrkn.problem_from_name(problem_name)
                            for _ in range(2))]
    info = step.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
    problem = csrkn.problem_from_name(problem_name)
    counted = dataclasses.replace(problem,
                                  f=KernelOnly(problem.f.expressions))
    trajectory = csrkn.integrate(tableaux[name], counted, 0.0, counted.q0,
                                 counted.qp0, 0.1, 200)
    # the plain run: a plain-function f takes the f path
    plain = dataclasses.replace(problem, f=lambda t, q: problem.f(t, q))
    expected = csrkn.integrate(tableaux[name], plain, 0.0, plain.q0,
                               plain.qp0, 0.1, 200)
    for run in (*runs, trajectory):
        assert run.q.tobytes() == expected.q.tobytes()
        assert run.qp.tobytes() == expected.qp.tobytes()
        assert np.array_equal(run.iterations, expected.iterations)


def test_kernel_list_of_another_length_is_a_force_error(tableaux):
    # an on_zero that drops a point's last component, reached through the
    # zero-divisor fallback: the step cannot unpack the list into its force
    # locals, and the typed force error says so
    kepler = csrkn.kepler()
    short = problems._PointForce(
        DIVIDING, lambda x, y: kepler.f.on_points([x, y])[:-1])
    problem = dataclasses.replace(kepler, f=short)
    with pytest.raises(csrkn.StageConvergenceError) as info:
        csrkn.integrate(tableaux["legendre4"], problem, 0.0, problem.q0,
                        problem.qp0, 0.1, 3)
    err = info.value
    assert str(err).startswith("step 0 (t = 0) failed: force evaluation "
                               "failed: ")
    assert (err.step_index, err.iterations, err.last_delta) == (0, 1, None)
    assert isinstance(err.__cause__, ValueError)


def test_force_temporaries_leave_the_run_alone(tableaux):
    # the run appends the point index to every one-letter name of a point
    # force, and point 0's temporary t became t0, the run's start time
    # (times 0, 5.1, 5.2, ...): with any one-letter temporary, the run
    # gives the times, states and sweeps of the same force through f
    harmonic = csrkn.harmonic()
    for letter in "abcdefghijklmnopqrstuvw":
        force = problems._PointForce((f"-x + 0.0 * ({letter} := 5.0)",))
        runs = [csrkn.integrate(tableaux["legendre4"],
                                dataclasses.replace(harmonic, f=f), 0.0,
                                harmonic.q0, harmonic.qp0, 0.1, 12)
                for f in (force, lambda t, q: force(t, q))]
        for field in ("times", "q", "qp", "iterations"):
            written, plain = (getattr(run, field) for run in runs)
            assert written.tobytes() == plain.tobytes(), (letter, field)


# -x - sqrt(x - 0.5), -y per point: math.sqrt raises ValueError for x < 0.5
WALL = problems._PointForce(("-x - sqrt(x - 0.5)", "-y"))


def on_each_force_path(force):
    """The force as the step's expressions, its per-point function (behind
    expressions that always divide by zero) and a supplied f."""
    return {"expressions": force,
            "per-point": problems._PointForce(DIVIDING,
                                              through_on_zero(force)),
            "f": lambda t, q: force(t, q)}


@pytest.mark.parametrize("path", ["expressions", "per-point", "f"])
@pytest.mark.parametrize("name,last_delta", [
    ("legendre4", "0x1.97a3b4469f100p-10"),
    ("hermite3", "0x1.eb851eb851e80p-9")])
def test_force_error_mid_loop_pinned(tableaux, path, name, last_delta):
    # the bases of step 0 sit at x = 0.5 and the first sweep pulls every
    # stage below it, so the second sweep's force raises: on every force
    # path, the message, sweep count and last increment of the parent loop
    problem = csrkn.SecondOrderProblem(
        name="wall", f=on_each_force_path(WALL)[path],
        q0=np.array([0.5, 0.0]), qp0=np.array([0.0, 0.25]))
    with pytest.raises(csrkn.StageConvergenceError) as info:
        csrkn.integrate(tableaux[name], problem, 0.0, problem.q0,
                        problem.qp0, 0.1, 10)
    err = info.value
    assert str(err) == ("step 0 (t = 0) failed: force evaluation failed: "
                        "math domain error")
    assert (err.step_index, err.iterations) == (0, 2)
    assert err.last_delta == float.fromhex(last_delta)
    assert isinstance(err.__cause__, ValueError)


@pytest.mark.parametrize("path", ["expressions", "per-point", "f"])
def test_sweep_limits_pinned(tableaux, path, caplog):
    # hermite3 on Kepler from e = 0.5 needs 11 to 13 sweeps on its first
    # steps: max_iters = 11 runs out during the polish sweeps of steps 0-3,
    # which is logged, and max_iters = 10 fails on step 0
    kepler = csrkn.kepler()
    e = 0.5
    problem = dataclasses.replace(
        kepler, f=on_each_force_path(kepler.f)[path],
        q0=np.array([1.0 - e, 0.0]),
        qp0=np.array([0.0, math.sqrt((1.0 + e) / (1.0 - e))]))
    tableau = tableaux["hermite3"]
    with caplog.at_level(logging.WARNING, logger="csrkn"):
        trajectory = csrkn.integrate(tableau, problem, 0.0, problem.q0,
                                     problem.qp0, 0.1, 8,
                                     csrkn.SolverConfig(max_iters=11))
    assert trajectory.iterations.tolist() == [11, 11, 11, 11, 11, 10, 10, 9]
    assert trajectory.q[-1].tolist() == [-0.22582033558360584,
                                         0.8202335906956675]
    assert [r.getMessage() for r in caplog.records] == [
        f"stage iteration at t = {t} reached max_iters = 11 during the "
        f"polish sweeps (last increment {delta})"
        for t, delta in (("0", "7.994e-15"), ("0.1", "9.090e-16"),
                         ("0.2", "4.996e-16"), ("0.3", "5.551e-17"))]
    with pytest.raises(csrkn.StageConvergenceError) as info:
        csrkn.integrate(tableau, problem, 0.0, problem.q0, problem.qp0, 0.1,
                        8, csrkn.SolverConfig(max_iters=10))
    err = info.value
    assert str(err) == ("step 0 (t = 0) failed: stage iteration did not "
                        "reach tolerance within 10 sweeps (last increment "
                        "3.131e-13)")
    assert (err.step_index, err.iterations) == (0, 10)
    assert err.last_delta == float.fromhex("0x1.6080000000000p-42")
