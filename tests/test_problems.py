"""Benchmark problems: values, invariants, exact solutions."""

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


@pytest.mark.parametrize("factory", [csrkn.kepler, csrkn.henon_heiles])
@pytest.mark.parametrize("shape", [(3, 1), (3, 3), (2, 0), (0,), (),
                                   (2, 2, 1)])
def test_force_rejects_points_off_the_plane(factory, shape):
    # a Henon-Heiles force on (n, 3) used to read the third coordinate as a
    # harmonic one, and on (n, 1) raised IndexError
    with pytest.raises(ValueError) as info:
        factory().f(0.0, np.ones(shape))
    assert str(info.value) == ("expected points of the plane (last axis of "
                               f"length 2), got shape {shape}")


# integrate calls the planar force's per-point kernel on its stage list,
# and a problem whose f is a plain function goes through f: both must give
# the same runs to the bit
@pytest.mark.parametrize("name", ["kepler", "henon-heiles"])
def test_force_paths_give_identical_runs(tableaux, name):
    problem = csrkn.problem_from_name(name)
    wrapped = csrkn.SecondOrderProblem(
        name="wrapped", f=lambda t, q: problem.f(t, q),
        q0=problem.q0, qp0=problem.qp0)
    # the CLI's largest custom method: 12 stages
    spec = csrkn.ConstructionSpec(csrkn.Family.SHIFTED_LEGENDRE, b_order=8,
                                  cn_order=3, tau_degree=4, symmetric=True)
    methods = [*tableaux.values(), csrkn.derive(spec, 12)]

    def runs(problem):
        return [csrkn.integrate(method, problem, 0.0, problem.q0,
                                problem.qp0, 0.1, 100) for method in methods]

    for expected, trajectory in zip(runs(problem), runs(wrapped)):
        assert trajectory.q.tobytes() == expected.q.tobytes()
        assert trajectory.qp.tobytes() == expected.qp.tobytes()
        assert np.array_equal(trajectory.iterations, expected.iterations)


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
