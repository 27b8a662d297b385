"""Fixed-step integrator for q'' = f(t, q) driven by an RKN tableau.

``integrate`` is one loop over the steps; ``rkn_step`` is its first step.
The implicit stage values are found by fixed-point iteration, which needs no
Jacobians and contracts quickly at the step sizes these methods target.  On
exit the stage values satisfy the stage equations exactly with respect to
the last force evaluations, so each step realizes the tableau's map up to
the iteration tolerance; up to two polish sweeps after the tolerance is met
push stage consistency to the rounding floor, which keeps quadratic
invariants flat over long runs.  A sweep with an increment of exactly 0
ends the step at once.  Non-convergence and non-finite force values raise
StageConvergenceError with the failing step's index and time, never
degrade; running out of sweeps during the polish sweeps is logged as a
warning on the ``csrkn`` logger.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from operator import add, sub

import numpy as np

from .basis import _integer, _real
from .construction import RKNTableau, _max_magnitude
from .problems import SecondOrderProblem, _PlanarForce, invariant_drift

# mixed absolute/relative stage-increment tolerance of the fixed point
_FP_TOL = 1e-14
# Over 400 ensemble orbits and 80 cli_run jobs (benchmark seed 7), 94.3 and
# 97.6 % of steps end on a zero increment, 4.9 and 2.0 % reach this cap still
# falling and 0.8 and 0.4 % stagnate: a stop on stagnation would save 0.009
# and 0.028 % of sweeps, a cap of 1 saves 10.3 and 10.5 % but moves output.
_POLISH_SWEEPS = 2
# m, the number of past prediction errors the warm start extrapolates.
# Sweeps per step over 32 seeded runs like the benchmark's cli_run jobs
# (each built-in on Kepler and Henon-Heiles, gamma in [-0.5, 0.5], h in
# [0.02, 0.1], 300 steps):
#   m      0 (E F_n only)  2     4     6     8     10    12    16
#   sweeps 5.64            4.78  3.98  3.23  2.79  2.65  2.71  2.99
# Beyond m ~ 10 the rounding that the binomial weights amplify (about 2^m)
# takes over.
_HISTORY = 8

_log = logging.getLogger("csrkn")


class StageConvergenceError(RuntimeError):
    """Fixed-point iteration failed to solve the stage equations."""

    def __init__(self, message: str, *, step_index: int | None = None,
                 time: float | None = None, iterations: int | None = None,
                 last_delta: float | None = None):
        super().__init__(message)
        self.step_index = step_index
        self.time = time
        self.iterations = iterations
        self.last_delta = last_delta


@dataclass(frozen=True)
class SolverConfig:
    """max_iters caps the fixed-point sweeps of one step; record_every thins
    trajectory storage (first and last states always kept).  The stage
    tolerance is fixed at 1e-14, relative to 1 + max |q|."""

    max_iters: int = 50
    record_every: int = 1

    def __post_init__(self):
        for name, value in vars(self).items():
            _integer(name, value, 1)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    q: np.ndarray
    qp: np.ndarray
    iterations: np.ndarray


def _extrapolation(c: np.ndarray) -> np.ndarray | None:
    """E[i, j] = l_j(1 + c_i), the Lagrange basis on the nodes c evaluated
    one step ahead: E @ forces extrapolates one step's stage forces to the
    next step's stage times.  None when the nodes are not distinct."""
    nodes = c.tolist()
    if len(set(nodes)) < len(nodes):
        return None
    return np.array([[math.prod([(ahead - other) / (node - other)
                                 for m, other in enumerate(nodes) if m != j],
                                start=1.0) for j, node in enumerate(nodes)]
                     for ahead in [1.0 + node for node in nodes]])


def _corrected_extrapolation(extrapolation: np.ndarray,
                             m: int) -> np.ndarray:
    """[B_0 | ... | B_m], such that sum_i B_i F_{n-m+i} over the stage
    forces of the last m + 1 steps is E F_n plus the degree-(m-1)
    extrapolation of the prediction errors eps_j = F_j - E F_{j-1} of the
    last m steps, sum_{k<m} (-1)^k C(m, k+1) eps_{n-k}.  For stage forces
    sampled from a polynomial in t it is exact up to degree s + m - 1."""
    s = len(extrapolation)
    # from 0: B_m += E, B_i -= w_{m-1-i} E (i < m), B_i += w_{m-i} I (i > 0)
    weights = np.array([(-1) ** k * math.comb(m, k + 1) for k in
                        reversed(range(m))], dtype=float).reshape(-1, 1, 1)
    blocks = np.zeros((m + 1, s, s))
    blocks[m] += extrapolation
    blocks[:m] -= weights * extrapolation
    blocks[1:] += weights * np.eye(s)
    return blocks.transpose(1, 0, 2).reshape(s, (m + 1) * s)


def _start_weights(c: np.ndarray, h2_a_bar: np.ndarray, m: int):
    """(h^2 A_bar E, [np.roll(h^2 A_bar [B_0 | ... | B_m], k s, axis=1) for
    k = 0..m]) as contiguous arrays, or (None, None) for repeated nodes."""
    extrapolation = _extrapolation(c)
    if extrapolation is None:
        return None, None
    corrector = h2_a_bar.dot(_corrected_extrapolation(extrapolation, m))
    doubled = np.concatenate((corrector, corrector), axis=1)
    return h2_a_bar.dot(extrapolation), [
        doubled[:, start:start + corrector.shape[1]].copy()
        for start in range(corrector.shape[1], 0, -len(c))]


def _failure(step: int, t: float, reason: str, sweeps: int,
             last_delta: float | None) -> StageConvergenceError:
    return StageConvergenceError(f"step {step} (t = {t:g}) failed: {reason}",
                                 step_index=step, time=t, iterations=sweeps,
                                 last_delta=last_delta)


def rkn_step(tableau: RKNTableau, problem: SecondOrderProblem, t: float,
             q: np.ndarray, qp: np.ndarray, h: float,
             config: SolverConfig | None = None):
    """Advance (q, q') by one step of size h (negative h is allowed): the
    first step of ``integrate``, with its errors."""
    last = integrate(tableau, problem, t, q, qp, h, 1, config)
    return last.q[-1], last.qp[-1]


# +-inf forces give inf - inf in a sweep, and a force can divide by a value
# that underflowed to 0: the typed error reports it, not numpy
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def integrate(tableau: RKNTableau, problem: SecondOrderProblem, t0: float,
              q0, qp0, h: float, n_steps: int,
              config: SolverConfig | None = None) -> Trajectory:
    """Repeated steps from (t0, q0, qp0), two nonempty vectors of one
    length; deterministic for fixed inputs.

    iterations[k] counts the fixed-point sweeps of step k, one force call
    each: ``problem.f`` on the (s, d) stage array or, for the built-in
    planar forces on two components, the kernel f itself runs,
    ``f.on_points``, on the stage list.  The state, the stage bases
    q + c h q' and the stage values are Python float lists, each entry the
    product and sum numpy's broadcast made; numpy computes only the BLAS
    products (the start, h^2 A_bar F and the two weight products).  The
    first step starts from the explicit guess q + c h q', steps 1 to m
    (m = 8) from the previous step's stage forces F_n extrapolated to the
    new stage times, E F_n (Hairer, Lubich & Wanner, Geometric Numerical
    Integration, 2006, sec. VIII.6.1), and every later step adds to E F_n
    the extrapolation of the last m prediction errors F_j - E F_{j-1} (as
    in the starting algorithms of Calvo, Laburta & Montijano, Comput. Math.
    Appl., 2003); repeated nodes, which have no extrapolation, start every
    step from the guess.  The start changes the sweep count, not the fixed
    point.
    """
    n_steps = _integer("n_steps", n_steps, 1)
    _real("step size", h, nonzero=True)
    _real("start time", t0)
    config = config or SolverConfig()
    f, isfinite = problem.f, math.isfinite
    max_iters, record_every = config.max_iters, config.record_every
    ch = h * tableau.c
    *stage_ch, drift_h = np.append(ch, h).tolist()  # as Python floats
    h2_a_bar = (h * h) * tableau.a_bar
    a_dot = h2_a_bar.dot
    b_bar_dot = ((h * h) * tableau.b_bar).dot
    b_prime_dot = (h * tableau.b_prime).dot
    arrays = []
    for name, value in (("q0", q0), ("qp0", qp0)):
        try:
            if np.iscomplexobj(value):  # numpy would drop the imaginary part
                raise TypeError
            arrays.append(np.array(value, dtype=float))
        except (TypeError, ValueError, OverflowError) as err:
            kind = TypeError if isinstance(err, TypeError) else ValueError
            raise kind(f"{name} must hold real numbers, got "
                       f"{value!r}") from None
    q, qp = arrays
    if q.ndim != 1 or qp.shape != q.shape or not q.size:
        raise ValueError(f"q0 and qp0 must be vectors of one positive "
                         f"length, got shapes {q.shape} and {qp.shape}")
    shape = (tableau.s, q.size)
    q, qp = q.tolist(), qp.tolist()
    # the kernel reads the stage list the increment already holds and no
    # stage time; any other force, or shape, goes through f
    on_points = (f.on_points if isinstance(f, _PlanarForce) and len(q) == 2
                 else None)
    times, qs, qps = [t0], [q], [qp]
    iterations, predictor = [], None
    # the final stage forces of step k in block k mod (m + 1), so the last
    # m + 1 steps are stacked with no copy; correctors[k mod (m + 1)]
    # holds the start's blocks rotated to match at step k.  Each kernel
    # sweep writes its forces into its step's block once the start has read it
    slots = _HISTORY + 1
    history = np.zeros((slots,) + shape)
    stacked, ring = history.reshape(-1, shape[1]), history.reshape(slots, -1)
    stage_base, product = np.empty((2,) + shape, h2_a_bar.dtype)
    flat_base, flat_product = stage_base.reshape(-1), product.reshape(-1)
    for step in range(n_steps):
        t = t0 + step * h
        slot = step % slots
        if step == 1:
            # built for the second step, so a single step never pays for it
            predictor, correctors = _start_weights(tableau.c, h2_a_bar,
                                                   _HISTORY)
        # the stage bases and the start's stage values; total is sum(previous)
        previous = base = [x + c * v for c in stage_ch for x, v in zip(q, qp)]
        if predictor is not None:
            start = (predictor.dot(forces) if step <= _HISTORY
                     else correctors[slot].dot(stacked))
        if on_points is None:
            # bases as an array once a step; f gets a fresh one each sweep
            t_stage = t + ch
            flat_base[:] = base
            stages = (stage_base.copy() if predictor is None
                      else stage_base + start)
            previous = stages.ravel().tolist()
        else:
            flat, forces = ring[slot], history[slot]
            if predictor is not None:
                previous = list(map(add, base, start.ravel().tolist()))
        total = sum(previous)
        scale = _FP_TOL * (1.0 + _max_magnitude(q))
        delta, polish = None, 0
        for sweep in range(1, max_iters + 1):
            try:
                if on_points is None:
                    forces = np.asarray(f(t_stage, stages))
                    # a complex result would lose its imaginary part, and
                    # one that broadcasts would integrate another equation
                    if forces.dtype.char != "d":
                        if forces.dtype.kind == "c":
                            raise ValueError("f returned complex values")
                        forces = forces.astype(float)
                    if forces.shape != shape:
                        raise ValueError(f"f returned shape {forces.shape} "
                                         f"for stages of shape {shape}")
                else:
                    values = on_points(previous)
                    flat[:] = values
            except (ValueError, ArithmeticError) as err:
                raise _failure(step, t, f"force evaluation failed: {err}",
                               sweep, delta) from err
            a_dot(forces, product)
            if on_points is None:
                stages = stage_base + product
                current = stages.ravel().tolist()
            else:
                current = list(map(add, base, flat_product.tolist()))
            # equal finite lists differ by exactly 0 (+-0.0 included); finite
            # sums of both lists leave no NaN for max() to skip, and an
            # overflowing sum only takes the NaN-aware path
            if current == previous and isfinite(total):
                increment = 0.0
            else:
                last_total, total = total, sum(current)
                if isfinite(last_total + total):
                    increment = max(map(abs, map(sub, current, previous)))
                else:
                    increment = _max_magnitude(map(sub, current, previous))
            if not isfinite(increment):
                break
            delta, previous = increment, current
            if delta < scale:
                if polish >= _POLISH_SWEEPS or delta == 0.0:
                    break
                polish += 1
        else:
            if not polish:
                raise _failure(
                    step, t, f"stage iteration did not reach tolerance "
                    f"within {max_iters} sweeps (last increment "
                    f"{delta:.3e})", max_iters, delta)
            _log.warning("stage iteration at t = %g reached max_iters = %d "
                         "during the polish sweeps (last increment %.3e)",
                         t, max_iters, delta)
        # a non-finite increment leaves the sweeps early; non-finite forces
        # can also meet the tolerance where a_bar does not reach them
        if on_points is None:
            values = forces.ravel().tolist()
            history[slot] = forces
        if not (isfinite(increment) and all(map(isfinite, values))):
            raise _failure(step, t, "force evaluation returned a non-finite "
                           "value", sweep, delta)
        q = [x + drift_h * v + w
             for x, v, w in zip(q, qp, b_bar_dot(forces).tolist())]
        qp = list(map(add, qp, b_prime_dot(forces).tolist()))
        iterations.append(sweep)
        if (step + 1) % record_every == 0 or step == n_steps - 1:
            times.append(t0 + (step + 1) * h)
            qs.append(q)
            qps.append(qp)
    return Trajectory(np.array(times), np.array(qs), np.array(qps),
                      np.array(iterations, dtype=int))


def write_trajectory_csv(trajectory: Trajectory,
                         problem: SecondOrderProblem, stream) -> None:
    """CSV export: t, q1..qd, p1..pd, then one drift column per invariant."""
    dim = trajectory.q.shape[1]
    header = ["t", *(f"q{i + 1}" for i in range(dim)),
              *(f"p{i + 1}" for i in range(dim))]
    columns = [trajectory.times, *trajectory.q.T, *trajectory.qp.T]
    drifts = {}
    if problem.hamiltonian is not None:
        drifts["H"] = problem.hamiltonian
    drifts.update(problem.invariants)
    for name, func in drifts.items():
        header.append(f"{name}_err")
        columns.append(invariant_drift(trajectory, func))
    stream.write(",".join(header) + "\n")
    row_format = ",".join(["%.17g"] * len(columns)) + "\n"
    stream.writelines(row_format % tuple(row)
                      for row in np.column_stack(columns).tolist())
