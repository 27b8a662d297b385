"""integrate against independent references: the plain-loop stepper of
reference_stepper.py and, on q'' = -q, the exact step map.  None of these
depend on BLAS, so they hold under any OpenBLAS kernel."""

import hashlib
import logging
import math
import struct
from fractions import Fraction

import numpy as np
import pytest

import csrkn
from csrkn import problems
from csrkn.integrator import (_compiled, _run, _sums, _unpack, _updates,
                              _weights)
from reference_stepper import (FP_TOL, apply, harmonic_step_map,
                               henon_heiles_points, kepler_points,
                               reference_integrate, sweeps)

from test_integrator import CUSTOM_SPEC, spatial_force

CUSTOM_STAGES = {"custom5": 5, "custom8": 8, "custom12": 12}


def tableau_named(name):
    if name in CUSTOM_STAGES:
        return csrkn.derive(CUSTOM_SPEC, CUSTOM_STAGES[name])
    if name == "repeated":
        # the repeated-node tableau of test_repeated_nodes_start_cold
        return csrkn.RKNTableau(c=np.array([0.5, 0.5]),
                                a_bar=np.full((2, 2), 1.0 / 16.0),
                                b_bar=np.array([0.25, 0.25]),
                                b_prime=np.array([0.5, 0.5]))
    return csrkn.builtin_tableau(name)


def spatial_points(times, xs):
    # spatial_force on the flat stage list, entry by entry
    d = len(xs) // len(times)
    return [-(1.0 + 0.5 * x * x) * x + 0.01 * times[i // d]
            for i, x in enumerate(xs)]


# each problem with its force on the flat stage list, for the reference
CASES = {
    "kepler": (csrkn.kepler(), lambda times, xs: kepler_points(xs)),
    "henon-heiles": (csrkn.henon_heiles(),
                     lambda times, xs: henon_heiles_points(xs)),
    "harmonic": (csrkn.harmonic(), lambda times, xs: [-x for x in xs]),
    "spatial": (csrkn.SecondOrderProblem(
        name="spatial", f=spatial_force, q0=np.array([1.0, -0.5, 0.25]),
        qp0=np.array([0.0, 0.75, -0.5])), spatial_points),
}
METHODS = [*csrkn.BUILTIN_METHODS, *CUSTOM_STAGES, "repeated"]
# the reference loop of each planar point force, by its expressions
POINTS = {csrkn.kepler().f.expressions: kepler_points,
          csrkn.henon_heiles().f.expressions: henon_heiles_points}


def bits(values):
    # IEEE 754 leaves the sign of a NaN result open (CPython's C code may
    # take either operand's NaN), so every NaN counts as one value
    return struct.pack(f"<{len(values)}d",
                       *[x if x == x else math.nan for x in values])


# 40 steps reach the corrected start (from step 9 on) on distinct nodes
@pytest.mark.parametrize("problem_name", sorted(CASES))
@pytest.mark.parametrize("name", METHODS)
def test_integrate_equals_reference_stepper(name, problem_name):
    problem, force = CASES[problem_name]
    tableau = tableau_named(name)
    trajectory = csrkn.integrate(tableau, problem, 0.0, problem.q0,
                                 problem.qp0, 0.1, 40)
    times, q, qp, iterations = reference_integrate(
        tableau, force, 0.0, problem.q0.tolist(), problem.qp0.tolist(), 0.1,
        40)
    assert trajectory.times.tobytes() == bits(times)
    assert trajectory.q.tobytes() == bits([x for row in q for x in row])
    assert trajectory.qp.tobytes() == bits([x for row in qp for x in row])
    assert trajectory.iterations.tolist() == iterations


# the step counts where the start changes branch: the bases alone (1),
# E F_n from step 1 (2), the last step before (8) and the first steps with
# (9, 10) the m = 8 prediction errors; thinned as record_every says
@pytest.mark.parametrize("problem_name", sorted(CASES))
@pytest.mark.parametrize("name", [*csrkn.BUILTIN_METHODS, "repeated"])
def test_run_at_history_edges_equals_reference_stepper(name, problem_name):
    problem, force = CASES[problem_name]
    tableau = tableau_named(name)
    for n_steps in (1, 2, 8, 9, 10):
        times, q, qp, iterations = reference_integrate(
            tableau, force, 0.0, problem.q0.tolist(), problem.qp0.tolist(),
            0.1, n_steps)
        for every in (1, 3, n_steps):
            trajectory = csrkn.integrate(
                tableau, problem, 0.0, problem.q0, problem.qp0, 0.1, n_steps,
                csrkn.SolverConfig(record_every=every))
            kept = [k for k in range(n_steps + 1)
                    if k % every == 0 or k == n_steps]
            assert trajectory.times.tobytes() == bits([times[k]
                                                       for k in kept])
            assert trajectory.q.tobytes() == bits([x for k in kept
                                                   for x in q[k]])
            assert trajectory.qp.tobytes() == bits([x for k in kept
                                                    for x in qp[k]])
            assert trajectory.iterations.tolist() == iterations


# one stage on one component: the warm run's start has one stage value
ONE_STAGE = {
    "derived": csrkn.derive(csrkn.ConstructionSpec(
        family=csrkn.Family.SHIFTED_LEGENDRE), 1),
    "by hand": csrkn.RKNTableau(
        c=np.array([0.5]), a_bar=np.array([[0.25]]), b_bar=np.array([0.5]),
        b_prime=np.array([1.0]))}
ONE_COMPONENT = {
    "point force": (csrkn.harmonic(), lambda times, xs: [-x for x in xs]),
    "plain f": (csrkn.SecondOrderProblem(
        name="cubic", f=lambda t, q: -(1.0 + 0.5 * q * q) * q,
        q0=np.array([0.75]), qp0=np.array([-0.5])),
        lambda times, xs: [-(1.0 + 0.5 * x * x) * x for x in xs])}


@pytest.mark.parametrize("force", ONE_COMPONENT)
@pytest.mark.parametrize("name", ONE_STAGE)
def test_one_stage_value_equals_reference_stepper(name, force):
    problem, points = ONE_COMPONENT[force]
    tableau = ONE_STAGE[name]
    for n_steps in (2, 9, 50):
        trajectory = csrkn.integrate(tableau, problem, 0.0, problem.q0,
                                     problem.qp0, 0.1, n_steps)
        times, q, qp, iterations = reference_integrate(
            tableau, points, 0.0, problem.q0.tolist(), problem.qp0.tolist(),
            0.1, n_steps)
        assert trajectory.times.tobytes() == bits(times)
        assert trajectory.q.tobytes() == bits([x for row in q for x in row])
        assert trajectory.qp.tobytes() == bits([x for row in qp
                                                for x in row])
        assert trajectory.iterations.tolist() == iterations


def test_large_state_equals_reference_stepper():
    # 1,000 uncoupled oscillators through f: 12 steps reach the corrected
    # start, and each position update takes the max of 1,000 magnitudes
    # for the next step's tolerance; they start near q = 0, so that max |q|
    # grows over the run and a stale tolerance would change the sweep counts
    rng = np.random.default_rng(33)
    d = 1000
    stiffness = -rng.uniform(0.25, 4.0, d)
    problem = csrkn.SecondOrderProblem(
        name="oscillators", f=lambda t, q: stiffness * q,
        q0=rng.uniform(-1e-3, 1e-3, d), qp0=rng.uniform(-1.0, 1.0, d))
    weights = stiffness.tolist()

    def force(times, xs):
        return [weights[e % d] * x for e, x in enumerate(xs)]

    tableau = csrkn.builtin_tableau("hermite4")
    trajectory = csrkn.integrate(tableau, problem, 0.0, problem.q0,
                                 problem.qp0, 0.1, 12)
    times, q, qp, iterations = reference_integrate(
        tableau, force, 0.0, problem.q0.tolist(), problem.qp0.tolist(), 0.1,
        12)
    assert trajectory.q.tobytes() == bits([x for row in q for x in row])
    assert trajectory.qp.tobytes() == bits([x for row in qp for x in row])
    assert trajectory.iterations.tolist() == iterations


SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("s", range(1, 13))
def test_kernels_equal_plain_loops(s, d):
    # the sums the run writes for its start, compiled alone: the
    # extrapolation (s, s) and the error sum (1, m) over s d entries;
    # random entries of mixed sign and scale, with signed zeros,
    # infinities and NaN in both the weights and the lists
    rng = np.random.default_rng(100 * s + d)
    for rows, cols, width in ((s, s, d), (1, 8, s * d)):
        for trial in range(4):
            values = [rng.standard_normal(rows * cols),
                      rng.standard_normal(rows * width),
                      rng.standard_normal(cols * width)]
            for array in values:
                array *= 10.0 ** rng.integers(-3, 4, array.size)
                if trial:
                    hits = rng.integers(0, array.size, 1 + array.size // 4)
                    array[hits] = rng.choice(SPECIALS[:2 * trial + 1],
                                             hits.size)
            weights, base, forces = (array.tolist() for array in values)
            kernel = sum_kernel(rows, cols, width)(*weights)
            plain = apply([weights[i * cols:(i + 1) * cols]
                           for i in range(rows)], base, forces, width)
            assert bits(kernel(base, forces)) == bits(plain)


def sum_kernel(rows, cols, d):
    """make(*w), for (rows, cols) weights w row by row, returns
    kernel(B, F), the list of the right-hand sides _sums writes for
    B[i d + k] + (w_i0 F[k] + w_i1 F[d + k] + ...)."""
    names, forces = _weights(rows, cols), [f"f{e}" for e in range(cols * d)]
    sums = _sums(names, d, [f"B[{e}]" for e in range(rows * d)], forces)
    lines = [_unpack(forces, "F"), f"return [{', '.join(sums)}]"]
    return _compiled("<sums>", [x for row in names for x in row],
                     "kernel(B, F)", lines, {})


SUBNORMALS = [5e-324, -5e-324, 1e-310, -2.2e-309]


def random_list(rng, size, trial):
    # mixed signs and scales; from trial 1 on, specials and subnormals, and
    # in the last two trials entries near the largest double, whose sums
    # and products overflow
    array = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4, size)
    if trial >= 4:
        array = np.copysign(rng.uniform(0.8, 1.7, size) * 1e308, array)
    if trial:
        pool = (SPECIALS + SUBNORMALS)[:2 * trial + 1]
        hits = rng.integers(0, size, 1 + size // 3)
        array[hits] = rng.choice(pool, hits.size)
    return array.tolist()


def fixed(values):
    """A force on the flat stage list that returns values whatever the
    stages."""
    return lambda times, xs: values


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("s", range(1, 13))
def test_step_list_kernels_equal_plain_loops(s, d):
    # one step of the run on a force that returns a fixed list, whose
    # second sweep repeats the first's sums: the stage bases q + c h q'
    # that f sees, and where the step ends with finite values the drift
    # q + h q' under the position update and the velocity update; and in
    # every case the run's update lines compiled alone, with the new
    # max |q| against max(0.0, |q_0|, ...), which skips a NaN
    rng = np.random.default_rng(1000 + 100 * s + d)
    for trial in range(6):
        ch, q, qp = (random_list(rng, size, trial) for size in (s, d, d))
        weights, position, velocity, forces = (
            random_list(rng, size, trial) for size in (s * s, s, s, s * d))
        update = update_kernel(s, d)
        # at h = 0 and q' = -0.0 the drift is q itself, whose magnitudes'
        # sum overflows in the last two trials, or -0.0 for q = -0.0; and
        # new entries of -0.0, whose magnitude is +0.0
        minus, zeros = [-0.0] * d, [0.0] * (s * d)
        negative = [math.copysign(0.0, -w) for w in position for _ in q]
        for state, h, values in (((q, qp), ch[0], forces),
                                 ((q, minus), 0.0, forces),
                                 ((q, minus), 0.0, zeros),
                                 ((minus, minus), 0.0, zeros),
                                 ((minus, minus), 0.0, zeros[1:] + [-0.0]),
                                 ((minus, minus), 0.0, negative)):
            assert_same_step(s, d, ch, weights, (h, position, velocity),
                             *state, None, 0.0, 2, 0.0, fixed(values))
            new = apply([position],
                        [x + h * v for x, v in zip(*state)], values, d)
            new_q, new_qp, m = update(h, *position, *velocity)(*state,
                                                               values)
            assert bits(new_q) == bits(new)
            assert bits(new_qp) == bits(apply([velocity], state[1], values,
                                              d))
            assert type(m) is float
            assert bits([m]) == bits([max(0.0, *map(abs, new))])


def update_kernel(s, d):
    """make(h, *h^2 b_bar, *h b') returns kernel(q, qp, F), the run's
    update lines from ``_updates`` compiled alone: (the new q, the new q',
    the new q's max |q|)."""
    q, qp = [f"q_{k}" for k in range(d)], [f"v_{k}" for k in range(d)]
    forces = [f"f_{e}" for e in range(s * d)]
    h, p, v = _weights(1, 1, "h"), _weights(1, s, "p"), _weights(1, s, "v")
    lines = [_unpack(q, "q"), _unpack(qp, "qp"), _unpack(forces, "F"),
             *_updates(d, q, qp, forces, h, p, v),
             f"return [{', '.join(q)}], [{', '.join(qp)}], m"]
    return _compiled("<updates>", [*h[0], *p[0], *v[0]], "kernel(q, qp, F)",
                     lines, {})


@pytest.mark.parametrize("d", [64, 65, 130, 1000])
def test_update_kernel_max_magnitude_across_chunks(d):
    # the new q's max |q| is one call, max(0.0, abs(q_0), ...), which
    # compiles at d = 1,000, and which skips a NaN, so a NaN q gives the
    # largest other magnitude, or +0.0: NaN, inf and +-0.0 anywhere, first
    # and last; at h = 0, q' = -0.0 and F = -0.0 the new q is q, bit for bit
    rng = np.random.default_rng(d)
    update = update_kernel(1, d)(0.0, 1.0, 1.0)
    minus = [-0.0] * d
    finite = random_list(rng, d, 0)
    cases = []
    for specials in ([math.nan], [math.inf, -0.0], [-math.inf, 0.0],
                     [math.nan, math.inf, -0.0], [-0.0], [math.nan] * 3):
        q = list(finite)
        spots = rng.choice(d, len(specials), replace=False).tolist()
        for spot, value in zip(spots, specials):
            q[spot] = value
        cases.append(q)
    # NaN first, last and everywhere; magnitudes that are all zero, the
    # largest one last, and magnitudes whose sum overflows
    cases += [[math.nan, *finite[1:]], [*finite[:-1], math.nan],
              [math.nan] * d, [math.nan, *[-0.0] * (d - 1)],
              [math.copysign(0.0, x) for x in finite],
              [*(x * 1e-3 for x in finite[:-1]), 1e3],
              [math.copysign(1.5e308, x) for x in finite]]
    for q in cases:
        new_q, new_qp, m = update(q, minus, minus)
        assert bits(new_q) == bits(q)
        assert type(m) is float
        assert bits([m]) == bits([max(0.0, *map(abs, q))])


def test_sweep_kernel_of_a_large_state():
    # 3 stages of 1,000 components: the 3,000 increment terms and the 1,000
    # magnitudes of the new q, each written as one sum, would nest deeper
    # than CPython's compiler accepts
    assert_increments_match(3, 1000, np.random.default_rng(7), 0)


def assert_increments_match(s, d, rng, trial):
    """Steps on a force that ignores the stages but returns G on its first
    call, so the second sweep's sums N = B + h^2 A_bar F are fixed and its
    stage values P = B + h^2 A_bar G are set against them by G: P = N
    (inf - inf where the sums hold an infinity), +-0.0 pairs, NaN in G,
    and differences that overflow; and at the scale 1e-14, differences of
    exactly +-scale and one ulp inside, finite ones whose absolute sum
    overflows, and +-0.0 pairs after a first sweep that moved.  Two sweeps
    end on that increment, three read N once more.  Random lists of this
    trial otherwise."""
    n = s * d
    ch, q, qp = (random_list(rng, size, trial) for size in (s, d, d))
    weights, forces = (random_list(rng, size, trial) for size in (s * s, n))
    updates = (ch[0], *(random_list(rng, s, trial) for _ in range(2)))
    nan_spots = set(rng.integers(0, n, 1 + n // 3).tolist())
    ones, zero, minus = [1.0] * s, [0.0] * d, [-0.0] * d
    identity = [float(i == j) for i in range(s) for j in range(s)]
    huge = [math.copysign(1.5e308, x) for x in forces]
    below, above = (rng.uniform(0.5, 2.0, n) * sign for sign in (-1.0, 1.0))
    cases = [
        (ch, weights, q, qp, forces, rng.standard_normal(n).tolist()),
        (ch, weights, q, qp, forces, list(forces)),
        (ch, weights, q, qp, forces, [math.nan if e in nan_spots else x
                                      for e, x in enumerate(forces)]),
        # zero weights on bases of -0.0: N = -0.0 against P = +0.0, and
        # with F and G swapped the other way round
        (ones, [0.0] * (s * s), minus, minus, below.tolist(),
         above.tolist()),
        (ones, [0.0] * (s * s), minus, minus, above.tolist(),
         below.tolist()),
        # bases of 0 and the identity: N = F and P = G near the largest
        # double, of opposite signs
        (ones, identity, zero, zero, huge, [-x for x in huge]),
        (ones, identity, zero, zero, huge,
         [x if e % 2 else -x for e, x in enumerate(huge)]),
    ]
    # the edges of the tolerance at m = 0, the scale 1e-14: on bases of 0
    # and the identity, F = -g against G = -2 g, so that the second
    # sweep's difference g is exact (Sterbenz) and the first sweep's -2 g
    # does not meet the tolerance: g = +-scale (not converged), one ulp
    # inside (converged), and finite g whose absolute sum overflows (the
    # run goes on); on bases of -0.0, a first stage value moved by -1.0
    # and the rest set so that the second sweep's differences are +0.0
    # and -0.0, which end the step there
    alternate = [(-1.0) ** e for e in range(n)]
    edges = [*((ones, identity, zero, zero, [-x * g for x in alternate],
                [-2.0 * x * g for x in alternate])
               for g in (FP_TOL, -FP_TOL, math.nextafter(FP_TOL, 0.0))),
             (ones, identity, zero, zero, [0.75e308 * x for x in alternate],
              [-0.75e308 * x for x in alternate]),
             (ones, identity, minus, minus, [-1.0] + [-0.0] * (n - 1),
              [-1.0] + [0.0] * (n - 1))]
    outcomes = []
    # m = -1: a tolerance scale of 0; m = 0: the scale 1e-14
    for m, group in ((-1.0, cases), (0.0, edges)):
        for stage_ch, coupling, state_q, state_qp, values, start in group:
            for max_iters in (2, 3):
                plain = assert_same_step(s, d, stage_ch, coupling, updates,
                                         state_q, state_qp, start, m,
                                         max_iters, 0.0, fixed(values))
                outcomes.append((plain[1], plain[4], plain[5]))
    # (sweeps, polish sweeps, whether the sweeps ran out) of the edges
    assert outcomes[-10:] == [(2, 0, True), (3, 0, False)] * 2 + [
        (2, 1, True), (3, 1, False), (2, 0, True), (3, 0, False),
        (2, 0, False), (2, 0, False)]


def counted_verlet_force(sweep, bad, d):
    """A force on the flat stage list of the Stormer-Verlet tableau that
    counts its calls in rounds of sweep calls.  At call j of a round the
    first stage gets -x (1 + j / 8), which moves the second stage every
    sweep, and the second stage gets bad on its first component at
    j = sweep, else -x.  The run and the plain sweeps, called one after
    the other, each take one round and meet bad on their sweep-th sweep."""
    calls = []

    def force(times, xs):
        calls.append(None)
        j = (len(calls) - 1) % sweep + 1
        return [-x * (1.0 + j / 8.0) for x in xs[:d]] + [
            bad if e == 0 and j == sweep else -x
            for e, x in enumerate(xs[d:])]
    return force


# Stormer-Verlet: c = (0, 1), A_bar = [[0, 0], [1/2, 0]].  The second
# stage's force enters the stage sums only times the zero weights of the
# second column, where 0 * inf and 0 * NaN are NaN, so the increment of
# the sweep that returns it is NaN and the step fails on that sweep with
# the increment before it
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("sweep", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2])
def test_non_finite_force_of_a_zero_column_equals_plain_sweeps(d, sweep,
                                                               bad):
    h = 0.125
    hh = h * h
    q, qp = [0.75, -0.5][:d], [0.25, 1.0][:d]
    updates = (h, [0.5 * hh, 0.0], [0.5 * h, 0.5 * h])
    plain = assert_same_step(2, d, [0.0, h], [0.0, 0.0, 0.5 * hh, 0.0],
                             updates, q, qp, None, max(map(abs, q)), 50,
                             0.5, counted_verlet_force(sweep, bad, d))
    forces, count, delta, increment = plain[:4]
    assert count == sweep and math.isnan(increment)
    assert (delta is None) == (sweep == 1)
    assert not math.isfinite(forces[d]) and all(map(math.isfinite,
                                                    forces[:d]))


def logged(run, *args):
    """(run(*args) or the StageConvergenceError it raised, the records
    logged on the csrkn logger meanwhile)."""
    records, handler = [], logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("csrkn")
    logger.addHandler(handler)
    try:
        return run(*args), records
    except csrkn.StageConvergenceError as err:
        return err, records
    finally:
        logger.removeHandler(handler)


def assert_same_step(s, d, ch, weights, updates, q, qp, start, m, max_iters,
                     t0, force):
    """One cold step by the generated run and by plain loops, compared bit
    for bit: the stage lists f sees, its last forces, the sweeps, the
    logged polish-cap warning, the raised failure and, when the step ends,
    the new q and q'.  The plain step takes the bases q + c h q',
    reference_stepper.sweeps from them and the updates, for updates =
    (h, h^2 b_bar, h b').  force(times, xs) on the flat stage list serves
    as f on the stage array, at the stage times t0 + c h; its first call
    returns start if one is given.  A point force runs through its
    expressions against its reference loop in POINTS (no stage lists
    then, and no start).  Returns the plain
    (forces, sweeps, last finite increment, last increment, polish
    sweeps, whether the sweeps ran out)."""
    h, position, velocity = updates
    coupling = [weights[i * s:(i + 1) * s] for i in range(s)]
    times = [t0 + c for c in ch]
    seen = [], [], []
    expressions = None
    if isinstance(force, problems._PointForce):
        plain_force, f = POINTS[force.expressions], force.on_points
        expressions = force.expressions
    else:
        def starting(start):
            calls = []

            def first(times, xs):
                calls.append(None)
                return start if len(calls) == 1 else force(times, xs)
            return first if start is not None else force

        plain_values, values = starting(start), starting(start)

        def plain_force(xs):
            seen[0].append(list(xs))
            return plain_values(times, xs)

        def f(t, stages):
            seen[1].append(stages.ravel().tolist())
            forces = np.array(values(t.tolist(), stages.ravel().tolist()))
            seen[2].append(forces.tolist())
            return forces.reshape(stages.shape)

    run = _run(s, d, False, expressions)(f, max_iters, *ch, h, *weights,
                                         *position, *velocity)
    result, records = logged(run, q, qp, m, t0, 1, 1)
    base = [x + c * v for c in ch for x, v in zip(q, qp)]
    plain = sweeps(coupling, base, base, plain_force, FP_TOL * (1.0 + m),
                   max_iters, d)
    forces, count, delta, increment, polish, exhausted = plain
    assert len(seen[0]) == len(seen[1])
    for plain_stages, stages in zip(seen[0], seen[1]):
        assert bits(stages) == bits(plain_stages)
    if seen[2]:
        assert bits(seen[2][-1]) == bits(forces)
    # step 0's time, t0 + 0 h: NaN for an infinite or NaN h
    time = t0 + 0 * h
    assert len(records) == (exhausted and polish > 0)
    for record in records:
        assert record.args[1] == max_iters
        assert bits(record.args[::2]) == bits([time, delta])
    if exhausted and not polish:
        reason = (f"stage iteration did not reach tolerance within "
                  f"{max_iters} sweeps (last increment {delta:.3e})")
    elif not (math.isfinite(increment) and all(map(math.isfinite, forces))):
        reason = "force evaluation returned a non-finite value"
    else:
        ts, qs, qps, iterations = result
        new = apply([position], [x + h * v for x, v in zip(q, qp)], forces,
                    d)
        assert iterations == [count]
        assert bits(qs[1]) == bits(new)
        assert bits(qps[1]) == bits(apply([velocity], qp, forces, d))
        assert bits(ts) == bits([t0, t0 + h])
        return plain
    assert str(result) == f"step 0 (t = {time:g}) failed: {reason}"
    assert bits([result.time]) == bits([time])
    assert (result.step_index, result.iterations) == (0, count)
    assert result.__cause__ is None
    assert (result.last_delta is None) == (delta is None)
    if delta is not None:
        assert bits([result.last_delta]) == bits([delta])
    return plain


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("s", range(1, 13))
def test_solver_equals_plain_sweeps(s, d):
    # whole steps on a nonlinear force through f, from the bases and from a
    # start: converged with its polish sweeps, stopped on the first sweep
    # below a large scale, run out of sweeps, and never below a scale of 0
    # (m = -1); on two components also the Kepler and Henon-Heiles
    # expressions, from the bases and, in a warm two-step run of the
    # tableau of these weights, from the start B + h^2 A_bar E F
    rng = np.random.default_rng(2000 + 100 * s + d)
    forces = [spatial_points]
    if d == 2:
        forces += [csrkn.kepler().f, csrkn.henon_heiles().f]
    for trial in range(3):
        weights = (rng.standard_normal(s * s) * 0.02).tolist()
        ch = rng.uniform(0.0, 0.1, s).tolist()
        q = rng.uniform(0.5, 1.0, d) * rng.choice([-1.0, 1.0], d)
        qp = rng.standard_normal(d).tolist()
        updates = (0.1, *(rng.uniform(0.0, 0.01, s).tolist()
                          for _ in range(2)))
        start = (rng.standard_normal(s * d) * 0.05).tolist() if trial else None
        t0 = float(rng.uniform(0.0, 1.0))
        magnitude, q = max(abs(q)), q.tolist()
        for force in forces:
            for m, max_iters in ((magnitude, 50), (1e14, 50),
                                 (magnitude, 3), (-1.0, 4)):
                plain = assert_same_step(s, d, ch, weights, updates, q, qp,
                                         start, m, max_iters, t0, force)
                assert plain[5] == (max_iters < 50)
            if start is not None and force is not spatial_points:
                for max_iters in (50, 15):
                    assert_warm_run_matches(ch, weights, updates, q, qp,
                                            max_iters, t0, force)


def assert_warm_run_matches(ch, weights, updates, q, qp, max_iters, t0,
                            force):
    """Two steps of integrate on a planar force and of reference_integrate,
    both on the tableau whose weights at h are ch, h^2 A_bar, h^2 b_bar
    and h b', for updates = (h, h^2 b_bar, h b'); the second step starts
    from E F of the first.  Equal bit for bit, or failing at one step."""
    h, position, velocity = updates
    s, hh = len(ch), h * h
    tableau = csrkn.RKNTableau(
        c=np.array(ch) / h, a_bar=np.reshape(weights, (s, s)) / hh,
        b_bar=np.array(position) / hh, b_prime=np.array(velocity) / h)
    problem = csrkn.SecondOrderProblem(name="planar", f=force,
                                       q0=np.array(q), qp0=np.array(qp))
    config = csrkn.SolverConfig(max_iters=max_iters)
    try:
        times, qs, qps, iterations = reference_integrate(
            tableau, lambda times, xs: POINTS[force.expressions](xs), t0, q,
            qp, h, 2, max_iters)
    except ArithmeticError as err:
        with pytest.raises(csrkn.StageConvergenceError) as info:
            csrkn.integrate(tableau, problem, t0, q, qp, h, 2, config)
        assert str(err).endswith(f"step {info.value.step_index}")
        return
    trajectory = csrkn.integrate(tableau, problem, t0, q, qp, h, 2, config)
    assert trajectory.times.tobytes() == bits(times)
    assert trajectory.q.tobytes() == bits([x for row in qs for x in row])
    assert trajectory.qp.tobytes() == bits([x for row in qps for x in row])
    assert trajectory.iterations.tolist() == iterations


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("s", range(1, 13))
def test_solver_increments_equal_plain_sweeps(s, d):
    rng = np.random.default_rng(3000 + 100 * s + d)
    for trial in range(6):
        assert_increments_match(s, d, rng, trial)


def in_turn(calls):
    """A force on the flat stage list that returns calls[j] on its j-th
    call of each round of len(calls) calls, whatever the stages, or raises
    calls[j] where it is an exception."""
    made = []

    def force(xs):
        made.append(None)
        value = calls[(len(made) - 1) % len(calls)]
        if isinstance(value, Exception):
            raise value
        return value
    return force


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("s", [1, 3])
def test_reported_increments_equal_plain_sweeps(s, d):
    # the run computes a sweep's increment only where it reports one: a
    # force that raises or returns inf or NaN on the polish sweep right
    # after the sweep that met the tolerance, and polish-cap exits whose
    # last sweep met the tolerance or did not.  last_delta, the failure
    # and the warning text equal those of the plain sweeps, which stop
    # before the raising call.  On bases of 0 and the identity the stage
    # values of sweep k are the forces of call k: 1.0, then differences of
    # a few ulps of mixed sign, below the tolerance but not 0, or 2.0
    n, h = s * d, 0.125
    ones = [1.0] * s
    identity = [float(i == j) for i in range(s) for j in range(s)]
    updates = ([0.5 * h * h] * s, [0.5 * h] * s)
    far, jump = [1.0] * n, [2.0] * n
    near, nearer = ([1.0 + k * (-1.0) ** e * (e + 1) * 2.0 ** -52
                     for e in range(n)] for k in (1.0, -1.0))
    raised = ValueError("no force at these stages")
    cases = [([far, near, raised], 3), ([far, near, [math.inf] + near[1:]], 3),
             ([far, near, near[:-1] + [math.nan]], 3), ([far, near], 2),
             ([far, near, nearer], 3), ([far, near, jump], 3)]
    coupling, base = [identity[i * s:(i + 1) * s] for i in range(s)], [0.0] * n
    for calls, max_iters in cases:
        force = in_turn(calls)

        def f(t, stages):
            return np.array(force(stages)).reshape(stages.shape)

        run = _run(s, d, False, None)(f, max_iters, *ones, h, *identity,
                                      *updates[0], *updates[1])
        result, records = logged(run, [0.0] * d, [0.0] * d, 0.0, 0.0, 1, 1)
        # the run took one round of calls; the plain sweeps stop before a
        # raising one
        plain = sweeps(coupling, base, base, force, FP_TOL,
                       max_iters - (calls[-1] is raised), d)
        delta, polish = plain[2], plain[4]
        assert polish and delta > 0.0
        if isinstance(result, Exception):
            reason = ("force evaluation failed: no force at these stages"
                      if calls[-1] is raised else
                      "force evaluation returned a non-finite value")
            assert str(result) == f"step 0 (t = 0) failed: {reason}"
            assert result.__cause__ is (raised if calls[-1] is raised
                                        else None)
            assert (result.iterations, records) == (max_iters, [])
            assert bits([result.last_delta]) == bits([delta])
            assert delta < FP_TOL
            continue
        assert result[3] == [max_iters]
        record, = records
        assert record.getMessage() == (
            f"stage iteration at t = 0 reached max_iters = {max_iters} "
            f"during the polish sweeps (last increment {delta:.3e})")
        assert bits([record.args[2]]) == bits([delta])
        assert (delta < FP_TOL) == (calls[-1] is not jump)


# sha256 of times, q, qp and iterations of a 300-step run at h = 0.1 from
# each problem's start state: legendre4 and hermite3, whose tableaux are
# the same under every OpenBLAS kernel, pin the run bytes where the CSV
# pins cannot, because the CSV's drift columns are BLAS dot products
STATE_SHA256 = {
    ("legendre4", "kepler"):
        "b7f1716d040478565a51b823a11f3e93e1b4bb443c26f1968afd69e6a362d3cc",
    ("legendre4", "henon-heiles"):
        "67efbf682d1c4f9bfaea1937e2332dee984268e00d4006ac5c4cdd78645f3783",
    ("legendre4", "harmonic"):
        "45e897576666e721ed141783564c8548853c43a840a156dc718e026543d68511",
    ("hermite3", "kepler"):
        "c92bcd0345aeac9c651f02e9df27243a86dcd7100277e18c1a8463359c0cc4dd",
    ("hermite3", "henon-heiles"):
        "e7c030c465e6b8014dda54d81890b0c991954007fbfae05fa682204b08f540ff",
    ("hermite3", "harmonic"):
        "b78937b0bc042825459f0101ccf05ec3018a6e57112246a879f02193f927b5ce",
}


@pytest.mark.parametrize("name,problem_name", sorted(STATE_SHA256))
def test_run_state_pinned_sha256(name, problem_name):
    problem = csrkn.problem_from_name(problem_name)
    trajectory = csrkn.integrate(csrkn.builtin_tableau(name), problem, 0.0,
                                 problem.q0, problem.qp0, 0.1, 300)
    digest = hashlib.sha256()
    for array in (trajectory.times, trajectory.q, trajectory.qp,
                  trajectory.iterations.astype(np.int64)):
        digest.update(array.tobytes())
    assert digest.hexdigest() == STATE_SHA256[name, problem_name]


# Every step of a run on q'' = -q lies within this many units of
# 2^-52 |(q, q')| of the exact step map applied to the previous recorded
# state.  Fixed before the change it judges: over 3,000 steps of each case
# below, the largest error read 0.68-0.99 units (hermite3 at h = 0.5
# highest).
STEP_MAP_ULPS = 1.5


@pytest.mark.parametrize("h", [0.1, 0.25, 0.5])
@pytest.mark.parametrize("name", [*csrkn.BUILTIN_METHODS, *CUSTOM_STAGES])
def test_harmonic_steps_follow_exact_step_map(name, h):
    tableau = tableau_named(name)
    problem = csrkn.harmonic()
    (m00, m01), (m10, m11) = harmonic_step_map(tableau, h)
    trajectory = csrkn.integrate(tableau, problem, 0.0, problem.q0,
                                 problem.qp0, h, 300)
    q, qp = trajectory.q[:, 0].tolist(), trajectory.qp[:, 0].tolist()
    for k in range(300):
        x, v = Fraction(q[k]), Fraction(qp[k])
        error = max(abs(Fraction(q[k + 1]) - (m00 * x + m01 * v)),
                    abs(Fraction(qp[k + 1]) - (m10 * x + m11 * v)))
        unit = math.ulp(1.0) * math.hypot(q[k], qp[k])
        assert error <= Fraction(STEP_MAP_ULPS * unit), (k, error / unit)


# det M - 1 of the exact step map at h = 0.1, in lowest terms: the miss of
# the stored coefficients' doubles from an exactly symplectic map (about
# -5.5e-19, -3.5e-19, -9.6e-20 and -2.4e-18 in the order below).  The
# legendre4 and hermite3 tableaux are the same under every OpenBLAS kernel;
# the chebyshev4 and hermite4 values depend on the BLAS and LAPACK that
# derive their tableaux, as the tableaux's sha256 pins do.
STEP_MAP_DET_MISS = {
    "legendre4": Fraction(
        "-817766161157506883876060826874279/"
        "1499075090624715634819598411750298912626016157433856"),
    "chebyshev4": Fraction(
        "-2465155190663149177735290728058106037804400453411176089/"
        "70791804295495226415701169811614608875830968365489252897534487024"
        "83103744"),
    "hermite4": Fraction(
        "-113179595456223041058798258248086004230964856162865893/"
        "11798629448084973208272155548146050484801546166375843312470155278"
        "53326336"),
    "hermite3": Fraction(
        "-19371163006067993552517177913926986736756843254103489911936292576"
        "810923/"
        "79639458177548791934591201644622957037932155085203705893787437547"
        "13032479982747278901248"),
}


@pytest.mark.parametrize("name", csrkn.BUILTIN_METHODS)
def test_step_map_determinant_pinned(name):
    (m00, m01), (m10, m11) = harmonic_step_map(csrkn.builtin_tableau(name),
                                               0.1)
    miss = m00 * m11 - m01 * m10 - 1
    assert miss == STEP_MAP_DET_MISS[name]
