"""Benchmark problems: values, invariants, exact solutions."""

import dataclasses
import math

import numpy as np
import pytest

import csrkn

PI = math.pi


def second_derivative(exact, t, h=0.005):
    """Fourth-order central stencil for q'' of the exact solution."""
    q = [exact(t + k * h)[0] for k in (-2, -1, 0, 1, 2)]
    return (-q[0] + 16 * q[1] - 30 * q[2] + 16 * q[3] - q[4]) / (12 * h * h)


def test_kepler_initial_values():
    problem = csrkn.kepler()
    np.testing.assert_array_equal(problem.q0, [1.0, 0.0])
    np.testing.assert_array_equal(problem.qp0, [0.0, 1.0])
    assert problem.hamiltonian(problem.q0, problem.qp0) == pytest.approx(-0.5)
    assert problem.invariants["angmom"](problem.q0, problem.qp0) == 1.0


def test_kepler_exact_solution():
    problem = csrkn.kepler()
    q, qp = problem.exact(PI / 2)
    np.testing.assert_allclose(q, [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(qp, [-1.0, 0.0], atol=1e-15)


def test_kepler_invariants_constant_on_exact_orbit():
    problem = csrkn.kepler()
    for t in np.linspace(0.0, 2 * PI, 17):
        q, qp = problem.exact(t)
        assert problem.hamiltonian(q, qp) == pytest.approx(-0.5, abs=1e-15)
        assert problem.invariants["angmom"](q, qp) == pytest.approx(
            1.0, abs=1e-15)


def test_kepler_runge_lenz_vanishes_on_exact_orbit():
    problem = csrkn.kepler()
    rlp = problem.invariants["rlp"]
    for t in np.linspace(0.0, 2 * PI, 17):
        q, qp = problem.exact(t)
        assert np.max(np.abs(rlp(q, qp))) < 1e-15


def test_kepler_singularity():
    problem = csrkn.kepler()
    with pytest.raises(ValueError):
        problem.f(0.0, np.zeros(2))
    for row in [(0, 0), (2, 1), (3, 2)]:
        batch = np.ones((4, 3, 2))
        batch[row] = 0.0
        with pytest.raises(ValueError):
            problem.f(0.0, batch)


# The forces as written with numpy reductions and fresh temporaries; the
# problems compute the same IEEE operations in the same order, so the
# results must agree to the bit.
def kepler_force_reference(q):
    r2 = (q * q).sum(-1, keepdims=True)
    return q / (-r2 * np.sqrt(r2))


def henon_heiles_force_reference(q):
    q1, q2 = q[..., 0], q[..., 1]
    force = np.empty_like(q)
    force[..., 0] = -q1 - 2.0 * q1 * q2
    force[..., 1] = -q2 - q1 * q1 + q2 * q2
    return force


@pytest.mark.parametrize("factory,reference", [
    (csrkn.kepler, kepler_force_reference),
    (csrkn.henon_heiles, henon_heiles_force_reference)])
def test_force_bitwise_equals_reference(factory, reference):
    problem = factory()
    rng = np.random.default_rng(11)
    batch = rng.uniform(-1.2, 1.2, size=(5, 3, 2))
    # signed zeros and magnitudes far from 1 stress rounding and sign rules
    batch[0, 0] = [-0.0, 0.75]
    batch[4, 2] = [1e-150, -3e100]
    nested = rng.uniform(-1.2, 1.2, size=(2, 5, 3, 2))
    large = rng.uniform(-1.2, 1.2, size=(1000, 2))
    for q in (batch, batch[1, 2], problem.q0, nested, large):
        before = q.tobytes()
        forces = problem.f(0.0, q)
        expected = reference(q)
        assert forces.shape == expected.shape
        assert forces.tobytes() == expected.tobytes()
        # the kernels work in place on their own temporaries: integrate
        # keeps both the stages and the previous step's forces
        assert not np.shares_memory(forces, q)
        assert q.tobytes() == before


FORCES = [(csrkn.kepler, kepler_force_reference),
          (csrkn.henon_heiles, henon_heiles_force_reference)]
# stage arrays of every size through six rows past the largest stage count
MAX_ROWS = 18
TINY = 5e-324
# entries whose squares, sums and quotients overflow, underflow to
# subnormals or to zero, or turn into NaN
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, TINY, -2.5e-310,
           1e200, -3e-200, 1e-109, 1e154, -0.75]
# points the Kepler force cannot divide by: r^2 sqrt(r^2) underflows to 0
# for 0 < |q| below about 1e-108, and r^2 itself for |q| below about 1e-162
UNDERFLOWING = [(1e-110, 0.0), (-3e-109, 2e-109), (0.0, -7e-120),
                (1e-170, 0.0), (TINY, -TINY)]


def special_points():
    pairs = [(x, y) for x in SPECIAL for y in SPECIAL] + UNDERFLOWING
    return np.array(pairs)


def assert_matches_reference(f, reference, q):
    """f(q) equals reference(q) to the bit, NaN up to its sign and payload,
    or raises where the Kepler force has no value; f leaves q alone."""
    before = q.tobytes()
    # only the reference runs under errstate: f must not warn
    with np.errstate(all="ignore"):
        expected = reference(q)
        at_origin = (reference is kepler_force_reference
                     and not ((q * q).sum(-1)).all())
    if at_origin:
        with pytest.raises(ValueError, match="origin"):
            f(0.0, q)
        assert q.tobytes() == before
        return
    forces = f(0.0, q)
    assert forces.dtype == np.float64
    assert forces.shape == expected.shape
    # numpy and Python floats agree on every IEEE result, but not on which
    # NaN an operation on NaNs returns
    assert np.array_equal(np.isnan(forces), np.isnan(expected))
    assert (np.where(np.isnan(forces), 0.0, forces).tobytes()
            == np.where(np.isnan(expected), 0.0, expected).tobytes())
    assert not np.shares_memory(forces, q)
    assert q.tobytes() == before


@pytest.mark.parametrize("factory,reference", FORCES)
def test_force_on_special_points_equals_reference(factory, reference):
    f = factory().f
    for point in special_points():
        assert_matches_reference(f, reference, point)
        assert_matches_reference(f, reference, point[None])


@pytest.mark.parametrize("factory,reference", FORCES)
@pytest.mark.parametrize("rows", range(1, MAX_ROWS + 1))
def test_force_on_stage_arrays_equals_reference(factory, reference, rows):
    f = factory().f
    rng = np.random.default_rng(rows)
    points = special_points()
    for k, point in enumerate(points[rng.permutation(len(points))[:40]]):
        q = rng.uniform(-1.2, 1.2, size=(rows, 2))
        assert_matches_reference(f, reference, q)
        q[k % rows] = point
        assert_matches_reference(f, reference, q)
        # a strided view, as the stages of integrate are a slice of a
        # larger array
        wide = rng.uniform(-1.2, 1.2, size=(2 * rows, 3))
        wide[::2, 1:] = q
        assert_matches_reference(f, reference, wide[::2, 1:])


def same_floats(values, expected):
    """Equal lists of floats to the bit, NaN up to its sign and payload."""
    canonical = [np.where(np.isnan(v), 0.0, v).tobytes()
                 for v in (np.array(values, float), np.array(expected))]
    return (len(values) == len(expected)
            and np.array_equal(np.isnan(values), np.isnan(expected))
            and canonical[0] == canonical[1])


def first_sweep(f, xy):
    """(forces, error) of the generated run's first sweep on the stage list
    xy, with f's expressions and per-point function: the error is the
    cause of the run's failure, None unless the force raised.  The run's weights
    are stand-ins: with q = -0.0 and q' = (0, 1), each weight of h c picks
    entry 2 i + k of xy as its product c_i q'_k, so that the stage bases
    -0.0 + xy[e] are xy itself, and row 0 of h^2 A_bar records each force
    it multiplies, before any check on it.  On a scale of 0 and one sweep
    the run fails after that sweep, before its updates."""
    points = len(xy) // 2
    forces = [[] for _ in range(points)]

    class Pick:
        def __init__(self, i):
            self.i = i

        def __mul__(self, k):
            return xy[2 * self.i + k]

    class Record:
        def __init__(self, j):
            self.j = j

        def __mul__(self, force):
            forces[self.j].append(force)
            return 0.0

    make = csrkn.integrator._run(points, 2, False, f.expressions)
    run = make(f.on_points, 1, *map(Pick, range(points)), 0.0,
               *map(Record, range(points)), *[0.0] * (points * (points + 1)))
    with pytest.raises(csrkn.StageConvergenceError) as info:
        run([-0.0, -0.0], [0, 1], -1.0, 0.0, 1, 1)
    assert (info.value.step_index, info.value.iterations) == (0, 1)
    return [x for point in forces for x in point] or None, info.value.__cause__


@pytest.mark.parametrize("factory", [csrkn.kepler, csrkn.henon_heiles])
@pytest.mark.parametrize("points", range(1, 13))
def test_unrolled_force_equals_f(factory, points):
    # the run's force for a stage count, the expressions written out per
    # point: every special point at every position among random ones, then
    # lists of special points alone; at the origin it returns f's error,
    # and where r^2 sqrt(r^2) underflows it gives f's +-inf or NaN
    # (x * -inf)
    f = factory().f
    rng = np.random.default_rng(100 + points)
    special = special_points()
    lists = []
    for k, point in enumerate(special):
        q = rng.uniform(-1.2, 1.2, size=(points, 2))
        q[k % points] = point
        lists.append(q)
    for start in range(0, len(special) - points + 1, points):
        lists.append(special[start:start + points])
    for q in lists:
        forces, error = first_sweep(f, q.ravel().tolist())
        try:
            expected = f(0.0, q)
        except ValueError as err:
            assert forces is None and type(error) is ValueError
            assert str(error) == str(err) == csrkn.problems._ORIGIN
            continue
        assert error is None
        assert type(forces) is list and len(forces) == q.size
        assert same_floats(forces, expected.ravel().tolist())


@pytest.mark.parametrize("name", ["kepler", "henon-heiles"])
def test_problems_share_one_compiled_kernel(name):
    # problem_from_name builds a new force on every call; the run is
    # compiled once per stage count, start and expressions for the process
    first, second = (csrkn.problem_from_name(name).f for _ in range(2))
    assert first is not second
    run = csrkn.integrator._run

    def compiled(force, points):
        return run(points, 2, True, force.expressions)

    for points in (1, 2, 3, 12):
        assert compiled(first, points) is compiled(second, points)
    assert compiled(first, 2) is not compiled(first, 3)


def test_forces_of_one_expression_share_one_run():
    # two forces with the same expressions and their own on_zero: their
    # runs share one cache entry, and each run's zero divisor (here on
    # every sweep) calls its own force's on_zero at each stage point
    kepler = csrkn.kepler()
    tableau = csrkn.builtin_tableau("legendre4")
    calls = [], []

    def counting(calls):
        def on_zero(x, y):
            calls.append((x, y))
            return kepler.f.on_points([x, y])
        return on_zero

    run = csrkn.integrator._run
    run.cache_clear()
    runs = [csrkn.integrate(
        tableau, dataclasses.replace(kepler, f=csrkn.problems._PointForce(
            ("x / 0.0", "y / 0.0"), counting(c))),
        0.0, kepler.q0, kepler.qp0, 0.1, 3) for c in calls]
    info = run.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
    for trajectory, c in zip(runs, calls):
        assert len(c) == tableau.s * trajectory.iterations.sum() > 0
    assert calls[0] == calls[1]


def test_zero_divisor_hands_the_stage_list_to_the_per_point_function():
    # expressions that divide by zero: the sweep hands the stage list to
    # the per-point function, which calls on_zero at each point in order
    kepler = csrkn.kepler()
    calls = []

    def on_zero(x, y):
        calls.append([x, y])
        return kepler.f.on_points([x, y])

    xy = [1.0, 0.0, 0.5, -0.25, -0.75, 2.0]
    force = csrkn.problems._PointForce(("x / 0.0", "y / 0.0"), on_zero)
    forces, error = first_sweep(force, xy)
    assert error is None and calls == [xy[0:2], xy[2:4], xy[4:6]]
    assert forces == kepler.f.on_points(xy)


def kepler_3d():
    """Kepler in space on an inclined orbit of eccentricity 0.3: a point
    force of dimension 3, which no built-in problem has."""
    return csrkn.SecondOrderProblem(
        name="kepler-3d", f=csrkn.problems._PointForce((
            "x / (d := -(r := x * x + y * y + z * z) * sqrt(r))", "y / d",
            "z / d")),
        q0=np.array([0.7, 0.0, 0.0]),
        qp0=np.array([0.0, 1.2 * math.cos(0.4), 1.2 * math.sin(0.4)]))


@pytest.mark.parametrize("factory", [csrkn.kepler, csrkn.henon_heiles,
                                     kepler_3d])
@pytest.mark.parametrize("shape", [(3, 1), (3, 3), (2, 0), (0,), (),
                                   (2, 2, 1)])
def test_force_rejects_points_off_the_plane(factory, shape):
    # a Henon-Heiles force on (n, 3) used to read the third coordinate as a
    # harmonic one, and on (n, 1) raised IndexError; a force in space
    # takes (3, 3) and refuses the plane's (3, 2) in its place
    f = factory().f
    space = len(f.expressions) == 3
    if space and shape == (3, 3):
        shape = (3, 2)
    with pytest.raises(ValueError) as info:
        f(0.0, np.ones(shape))
    assert str(info.value) == (
        "expected points of space (last axis of length 3), got shape "
        f"{shape}" if space else "expected points of the plane (last axis "
        f"of length 2), got shape {shape}")


@pytest.mark.parametrize("factory", [*csrkn.PROBLEMS.values(), kepler_3d])
@pytest.mark.parametrize("q", [np.array([1 + 1j, 0.5]), [0.25 + 0j],
                               np.ones((2, 3), dtype=np.complex64), None,
                               [None, 0.0], [[0.5], [None]]])
def test_force_refuses_complex_points(factory, q):
    # numpy would keep the real part with only a ComplexWarning, as
    # integrate's q0 would, and read None as a NaN point
    with pytest.raises(TypeError) as info:
        factory().f(0.0, q)
    assert str(info.value) == f"q must hold real numbers, got {q!r}"


@pytest.mark.parametrize("factory", [*csrkn.PROBLEMS.values(), kepler_3d])
@pytest.mark.parametrize("q", ["0.5", ["1.0", "0.5"], [[0.5], [0.5, 1.0]]])
def test_force_refuses_points_that_do_not_convert(factory, q):
    # numpy read a string of digits as its number
    with pytest.raises(ValueError) as info:
        factory().f(0.0, q)
    assert str(info.value) == f"q must hold real numbers, got {q!r}"


@pytest.mark.parametrize("shape", [(), (0,), (1,), (3,), (2, 3), (2, 0, 4),
                                   (4, 3, 2)])
def test_harmonic_force_takes_every_shape(shape):
    # d = 1: every entry of any array is a point of the line
    q = np.random.default_rng(len(shape)).uniform(-2.0, 2.0, size=shape)
    before = q.tobytes()
    forces = csrkn.harmonic().f(0.0, q)
    assert forces.dtype == np.float64 and forces.shape == q.shape
    assert forces.tobytes() == (-q).tobytes()
    assert not np.shares_memory(forces, q) and q.tobytes() == before
    # nested lists too
    assert csrkn.harmonic().f(0.0, q.tolist()).tobytes() == forces.tobytes()


# names the run holds or does not index by point: on harmonic, legendre4,
# 5 steps, scale set the stopping scale to 1.0 (3 sweeps a step where f
# takes 6, 6, 5, 6, 5), step read the step counter where f raises
# NameError, and x := 2.0 overwrote a stage value (no convergence in 50
# sweeps) where f's stage array stays as it is
@pytest.mark.parametrize("expressions,name", [
    (("-x + 0.0 * (scale := 1.0)",), "scale"),
    (("-x + step * 0.0",), "step"),
    (("-x", "-y + 0.0 * (y := 2.0)"), "y"),
    (("-x + 0.0 * (x := 2.0)",), "x"),
    (("-x + 0.0 * (sqrt := 1.0)",), "sqrt"),
    (("-x + exp(x)",), "exp"),
    (("-x + 0.0 * (ab := 1.0)",), "ab"),
    (("-X",), "X"),
    (("-x - \u00e9",), "\u00e9")])
def test_point_force_refuses_names_the_run_holds(expressions, name):
    coordinates = ", ".join("xyz"[:len(expressions)])
    with pytest.raises(ValueError) as info:
        csrkn.problems._PointForce(expressions)
    assert str(info.value) == (
        f"force expression {expressions[-1]!r} uses {name!r}: it may read "
        f"only one-letter names and sqrt, and assign only one-letter names "
        f"other than {coordinates}")


# a syntax error surfaced only at the first run, as a bare SyntaxError; a
# trailing comment cuts off the rest of on_points' line, and a line break
# outside brackets the run's
@pytest.mark.parametrize("expression", ["-x +", "-x  # restoring",
                                        "-x\n- y", ""])
def test_point_force_refuses_expressions_that_do_not_parse(expression):
    with pytest.raises(ValueError) as info:
        csrkn.problems._PointForce((expression,))
    assert str(info.value) == (f"force expression {expression!r} does not "
                               f"parse")


@pytest.mark.parametrize("expressions", [(), ("-x", "-y", "-z", "-x")])
def test_point_force_takes_one_to_three_expressions(expressions):
    # no coordinate names a fourth component: f raised "too many values to
    # unpack" and the run an IndexError while compiling; none gave a bare
    # SyntaxError
    with pytest.raises(ValueError) as info:
        csrkn.problems._PointForce(expressions)
    assert str(info.value) == (f"a point force takes 1 to 3 expressions, "
                               f"got {len(expressions)}")


def test_point_force_expressions_are_a_tuple_of_strings():
    # a str read as its characters ("'-' does not parse") and a list
    # failed the cache's hash
    for expressions in ("-x", ["-x"]):
        with pytest.raises(TypeError) as info:
            csrkn.problems._PointForce(expressions)
        assert str(info.value) == ("expressions must be a tuple of strings, "
                                   f"got {expressions!r}")
    with pytest.raises(TypeError) as info:
        csrkn.problems._PointForce(("-x", 2.0))
    assert str(info.value) == "force expression must be a string, got 2.0"


# each accepted as a force and then: a bare TypeError from the run's sums
# (x.hex(), lambda), the constant force 1.0 (x.__class__(1)), a tuple or
# list that the run unpacks or adds, or a power the run and f evaluate
@pytest.mark.parametrize("expression,construct", [
    ("x.hex()", "x.hex()"),
    ("lambda: x", "lambda: x"),
    ("x.__class__(1)", "x.__class__(1)"),
    ("-x, y", "(-x, y)"),
    ("[x]", "[x]"),
    ("x ** 2", "x ** 2"),
    ("-x // 2.0", "-x // 2.0"),
    ("-x if x else x", "-x if x else x"),
    ("not x", "not x"),
    ("x < 1.0", "x < 1.0"),
    ("x[0]", "x[0]"),
    ("-x * True", "True"),
    ("-x * 1j", "1j"),
    ("-x + 'a'", "'a'"),
    ("sqrt", "sqrt"),
    ("-x + sqrt", "sqrt"),
    ("sqrt(x, x)", "sqrt(x, x)"),
    ("sqrt(*x)", "*x"),
    ("sqrt(x=x)", "sqrt(x=x)"),
    ("x(1.0)", "x(1.0)")])
def test_point_force_refuses_constructs_outside_its_grammar(expression,
                                                            construct):
    with pytest.raises(ValueError) as info:
        csrkn.problems._PointForce((expression,))
    assert str(info.value) == (
        f"force expression {expression!r} uses {construct!r}: it may use "
        f"only int and float constants, one-letter names, sqrt of one "
        f"argument, binary + - * /, unary - and +, and :=")


def test_point_forces_in_use_pass_the_check():
    # the built-ins, the forces the tests build, and forms in brackets
    # across lines or with a comment inside, which both writers keep; the
    # check runs once per expressions tuple
    check = csrkn.problems._check
    check.cache_clear()
    for _ in range(2):
        for factory in (*csrkn.PROBLEMS.values(), kepler_3d):
            factory()
    assert check.cache_info().misses == len(csrkn.PROBLEMS) + 1
    assert check.cache_info().hits == len(csrkn.PROBLEMS) + 1
    for expressions in [("x / 0.0", "y / 0.0"), ("-x - sqrt(x - 0.5)", "-y"),
                        *((f"-x + 0.0 * ({t} := 5.0)",) for t in "atwz")]:
        csrkn.problems._PointForce(expressions)
    harmonic = csrkn.harmonic()
    tableau = csrkn.builtin_tableau("legendre4")
    for expressions in [("(-x\n - 0.0 * x)",), ("(-x  # restoring\n)",)]:
        force = csrkn.problems._PointForce(expressions)
        runs = [csrkn.integrate(tableau, dataclasses.replace(harmonic, f=f),
                                0.0, harmonic.q0, harmonic.qp0, 0.1, 3)
                for f in (harmonic.f, force, lambda t, q: force(t, q))]
        for run in runs[1:]:
            assert run.q.tobytes() == runs[0].q.tobytes()
            assert run.qp.tobytes() == runs[0].qp.tobytes()


def test_problems_compile_per_point_functions_on_first_use():
    # constructing the problems compiles nothing; the first per-point call
    # compiles one function per expressions tuple, shared by later forces
    points = csrkn.problems._points
    points.cache_clear()
    forces = [factory().f for factory in (*csrkn.PROBLEMS.values(),
                                          *csrkn.PROBLEMS.values())]
    assert points.cache_info().currsize == 0
    for force in forces:
        force(0.0, np.ones(len(force.expressions)))
    info = points.cache_info()
    assert (info.currsize, info.misses, info.hits) == (3, 3, 3)


def assert_same_runs(problem, other, tableaux, n_steps):
    """The runs of both problems, by the built-ins and the CLI's largest
    custom method (12 stages), equal bit for bit in states and sweeps."""
    spec = csrkn.ConstructionSpec(csrkn.Family.SHIFTED_LEGENDRE, b_order=8,
                                  cn_order=3, tau_degree=4, symmetric=True)
    for method in [*tableaux.values(), csrkn.derive(spec, 12)]:
        expected, trajectory = (
            csrkn.integrate(method, p, 0.0, p.q0, p.qp0, 0.1, n_steps)
            for p in (problem, other))
        assert trajectory.q.tobytes() == expected.q.tobytes()
        assert trajectory.qp.tobytes() == expected.qp.tobytes()
        assert np.array_equal(trajectory.iterations, expected.iterations)


def wrapped(problem):
    """The problem with its force as a plain function: the f path."""
    return dataclasses.replace(problem, f=lambda t, q: problem.f(t, q))


# integrate's run writes a point force's expressions out on its stage
# values, and a problem whose f is a plain function goes through f: both
# must give the same runs to the bit; harmonic (d = 1) is componentwise,
# so three oscillators are 3 s points of the line
@pytest.mark.parametrize("name", ["kepler", "henon-heiles", "harmonic",
                                  "harmonic-3"])
def test_force_paths_give_identical_runs(tableaux, name):
    problem = csrkn.problem_from_name(name.removesuffix("-3"))
    if name == "harmonic-3":
        problem = dataclasses.replace(problem, q0=np.array([1.0, -0.5, 0.25]),
                                      qp0=np.array([0.0, 0.75, -0.5]))
    assert_same_runs(problem, wrapped(problem), tableaux, 100)


def test_force_in_space_paths_give_identical_runs(tableaux):
    assert_same_runs(kepler_3d(), wrapped(kepler_3d()), tableaux, 300)


@pytest.mark.parametrize("factory", [csrkn.kepler, csrkn.henon_heiles])
def test_force_broadcasts_over_batch(factory):
    problem = factory()
    batch = np.random.default_rng(7).uniform(-1.2, 1.2, size=(5, 3, 2))
    forces = problem.f(0.0, batch)
    assert forces.shape == batch.shape
    for n in range(batch.shape[0]):
        for i in range(batch.shape[1]):
            np.testing.assert_array_equal(forces[n, i],
                                          problem.f(0.0, batch[n, i]))


@pytest.mark.parametrize("factory", [csrkn.kepler, csrkn.harmonic])
def test_exact_solution_satisfies_the_ode(factory):
    problem = factory()
    for t in np.linspace(0.1, 6.0, 20):
        qpp = second_derivative(problem.exact, t)
        q, _ = problem.exact(t)
        assert np.max(np.abs(qpp - problem.f(t, q))) < 1e-10


@pytest.mark.parametrize("factory", [csrkn.kepler, csrkn.henon_heiles])
def test_force_is_potential_gradient(factory):
    problem = factory()
    rng = np.random.default_rng(5)
    h = 1e-6
    dim = len(problem.q0)
    zero = np.zeros(dim)
    for _ in range(20):
        q = rng.uniform(0.4, 1.2, size=dim)
        grad = np.zeros(dim)
        for i in range(dim):
            step = np.zeros(dim)
            step[i] = h
            grad[i] = (problem.hamiltonian(q + step, zero)
                       - problem.hamiltonian(q - step, zero)) / (2 * h)
        force = problem.f(0.0, q)
        assert np.max(np.abs(force + grad)) < 1e-6 * max(1.0, np.max(np.abs(force)))


def test_henon_heiles_values():
    problem = csrkn.henon_heiles()
    np.testing.assert_array_equal(problem.q0, [0.1, -0.5])
    assert problem.hamiltonian(problem.q0, problem.qp0) == pytest.approx(
        1.0 / 6.0, abs=1e-15)
    np.testing.assert_allclose(problem.f(0.0, np.zeros(2)), [0.0, 0.0],
                               atol=0)
    np.testing.assert_allclose(problem.f(0.0, problem.q0), [0.0, 0.74],
                               atol=1e-15)
    assert problem.exact is None


def test_harmonic_values():
    problem = csrkn.harmonic()
    q, qp = problem.exact(2 * PI)
    assert q[0] == pytest.approx(1.0, abs=1e-15)
    assert qp[0] == pytest.approx(0.0, abs=1e-15)
    for t in np.linspace(0.0, 5.0, 11):
        assert problem.hamiltonian(*problem.exact(t)) == pytest.approx(
            0.5, abs=1e-15)


def test_invariant_drift_on_analytic_samples():
    problem = csrkn.kepler()
    times = np.linspace(0.0, 10.0, 101)
    states = [problem.exact(t) for t in times]
    trajectory = csrkn.Trajectory(
        times=times,
        q=np.array([s[0] for s in states]),
        qp=np.array([s[1] for s in states]),
        iterations=np.zeros(100, dtype=int))
    drift = csrkn.invariant_drift(trajectory, problem.invariants["angmom"])
    assert drift.shape == (101,)
    assert drift[0] == 0.0
    assert np.max(drift) < 1e-15


def test_invariant_drift_vector_max_norm():
    trajectory = csrkn.Trajectory(
        times=np.array([0.0, 1.0]),
        q=np.array([[1.0, 0.0], [0.0, 1.0]]),
        qp=np.array([[0.0, 1.0], [1.0, 0.0]]),
        iterations=np.zeros(1, dtype=int))
    drift = csrkn.invariant_drift(trajectory, lambda q, qp: np.stack(
        [q[..., 0], 2.0 * q[..., 1], np.zeros_like(q[..., 0])], axis=-1))
    np.testing.assert_allclose(drift, [0.0, 2.0])


def test_invariant_drift_matches_row_by_row():
    rng = np.random.default_rng(5)
    trajectory = csrkn.Trajectory(
        times=np.arange(6.0), q=rng.uniform(-1, 1, (6, 2)),
        qp=rng.uniform(-1, 1, (6, 2)), iterations=np.zeros(5, dtype=int))
    trajectory.q[3, 1] = np.nan
    kepler = csrkn.kepler()
    for invariant in [kepler.hamiltonian, *kepler.invariants.values()]:
        values = [np.atleast_1d(np.asarray(invariant(q, qp), dtype=float))
                  for q, qp in zip(trajectory.q, trajectory.qp)]
        expected = np.array([float(np.max(np.abs(v - values[0])))
                             for v in values])
        drift = csrkn.invariant_drift(trajectory, invariant)
        assert np.isnan(drift[3])
        assert drift.tobytes() == expected.tobytes()


def conserved_quantities(problem):
    quantities = {"H": problem.hamiltonian}
    quantities.update(problem.invariants)
    return quantities


# The conserved quantities as written one state at a time, with the BLAS
# dot of `x @ x` and the C pow of a float64 scalar; the broadcasting forms
# must round exactly as these do.
def kepler_quantities_reference(q, qp):
    r = float(np.hypot(q[0], q[1]))
    ell = q[0] * qp[1] - q[1] * qp[0]
    return {"H": 0.5 * float(qp @ qp) - 1.0 / r, "angmom": ell,
            "rlp": [qp[1] * ell - q[0] / r, -qp[0] * ell - q[1] / r, 0.0]}


def henon_heiles_quantities_reference(q, qp):
    return {"H": 0.5 * (qp @ qp) + 0.5 * (q @ q)
            + q[0] * q[0] * q[1] - q[1] ** 3 / 3.0}


def harmonic_quantities_reference(q, qp):
    return {"H": 0.5 * (qp @ qp + q @ q)}


QUANTITIES_REFERENCE = {"kepler": kepler_quantities_reference,
                        "henon-heiles": henon_heiles_quantities_reference,
                        "harmonic": harmonic_quantities_reference}


@pytest.fixture(scope="module")
def builtin_runs(tableaux):
    """A 300-step run of every built-in method on every problem."""
    runs = {}
    for name, factory in csrkn.PROBLEMS.items():
        problem = factory()
        runs[name] = [csrkn.integrate(tableaux[method], problem, 0.0,
                                      problem.q0, problem.qp0, 0.1, 300)
                      for method in csrkn.BUILTIN_METHODS]
    return runs


def assert_batch_equals_stacked(name, key, quantity, q, qp):
    batch = np.asarray(quantity(q, qp))
    stacked = np.array([quantity(x, y) for x, y in zip(q, qp)])
    reference = np.array([QUANTITIES_REFERENCE[name](x, y)[key]
                          for x, y in zip(q, qp)], dtype=float)
    assert batch.dtype == np.float64
    assert batch.shape == stacked.shape == reference.shape
    assert batch.tobytes() == stacked.tobytes() == reference.tobytes()


# The drift columns come from one call per quantity over the whole
# trajectory; the values must be the ones a call per state gives, to the bit.
@pytest.mark.parametrize("name", csrkn.PROBLEMS)
def test_conserved_quantities_broadcast_bitwise(builtin_runs, name):
    problem = csrkn.problem_from_name(name)
    for key, quantity in conserved_quantities(problem).items():
        for trajectory in builtin_runs[name]:
            assert_batch_equals_stacked(name, key, quantity, trajectory.q,
                                        trajectory.qp)
        rng = np.random.default_rng(17)
        q = rng.uniform(-1.5, 1.5, (40, len(problem.q0)))
        qp = rng.uniform(-1.5, 1.5, q.shape)
        q[7] = np.nan
        assert_batch_equals_stacked(name, key, quantity, q, qp)
        values = np.asarray(quantity(q, qp)).reshape(40, -1)
        assert np.isnan(values[7]).any()
        assert np.isfinite(np.delete(values, 7, axis=0)).all()
        # more than one leading axis broadcasts the same way
        assert np.asarray(quantity(q.reshape(4, 10, -1),
                                   qp.reshape(4, 10, -1))).tobytes() == (
            np.asarray(quantity(q, qp)).tobytes())


@pytest.mark.parametrize("name", csrkn.PROBLEMS)
def test_conserved_quantities_of_one_state(name):
    problem = csrkn.problem_from_name(name)
    for key, quantity in conserved_quantities(problem).items():
        value = quantity(problem.q0, problem.qp0)
        if key == "rlp":
            assert np.shape(value) == (3,)
        else:
            assert np.ndim(value) == 0
            assert isinstance(value, float)


def test_problem_registry():
    assert set(csrkn.PROBLEMS) == {"kepler", "henon-heiles", "harmonic"}
    assert len(csrkn.problem_from_name("harmonic").q0) == 1
    with pytest.raises(ValueError):
        csrkn.problem_from_name("three-body")
