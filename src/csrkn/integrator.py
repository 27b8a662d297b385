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
from operator import index, sub

import numpy as np

from .construction import RKNTableau
from .problems import SecondOrderProblem, invariant_drift

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
            try:
                if index(value) < 1:
                    raise ValueError(f"{name} must be >= 1")
            except TypeError:
                raise TypeError(f"{name} must be an integer, got "
                                f"{value!r}") from None


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


def _max_magnitude(values) -> float:
    """max |v| over Python floats, as float(np.abs(a).max()) gives it.  The
    sum of the magnitudes is NaN exactly when one of them is, and max()
    would skip a NaN that is not first, so NaN anywhere gives NaN here as in
    numpy."""
    magnitudes = list(map(abs, values))
    total = sum(magnitudes)
    return max(magnitudes) if total == total else total


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
    """Repeated steps from (t0, q0, qp0), two vectors of one length;
    deterministic for fixed inputs.

    iterations[k] counts the fixed-point sweeps of step k, one ``problem.f``
    call each.  The first step starts its stage iteration from the explicit
    guess q + c h q'.  Steps 1 to m (m = 8) start from the previous step's
    stage forces F_n extrapolated to the new stage times, E F_n (Hairer,
    Lubich & Wanner, Geometric Numerical Integration, 2006, sec. VIII.6.1).
    Every later step adds to E F_n the extrapolation of the last m
    prediction errors F_j - E F_{j-1}, which vary smoothly from step to
    step (as in the starting algorithms of Calvo, Laburta & Montijano,
    Comput. Math. Appl., 2003); it keeps the final stage forces of the last
    m + 1 steps for this.  Nodes that repeat have no extrapolation, so
    every step starts from the explicit guess.  The start changes the
    sweep count, not the fixed point.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not (math.isfinite(h) and h != 0.0):
        raise ValueError(f"step size must be finite and nonzero, got {h!r}")
    if not math.isfinite(t0):
        raise ValueError(f"start time must be finite, got {t0!r}")
    config = config or SolverConfig()
    f = problem.f
    isfinite = math.isfinite
    max_iters = config.max_iters
    s = tableau.s
    ch = h * tableau.c
    # one broadcast per step: rows[:s] are the stage bases q + c h q' and
    # rows[s] is the drift q + h q' of the position update
    ch_column = np.concatenate((ch, [h]))[:, None]
    h2_a_bar = (h * h) * tableau.a_bar
    a_dot = h2_a_bar.dot
    b_bar_dot = ((h * h) * tableau.b_bar).dot
    b_prime_dot = (h * tableau.b_prime).dot
    q = np.array(q0, dtype=float)
    qp = np.array(qp0, dtype=float)
    if q.ndim != 1 or qp.shape != q.shape:
        raise ValueError(f"q0 and qp0 must be vectors of one length, got "
                         f"shapes {q.shape} and {qp.shape}")
    times, qs, qps = [t0], [q], [qp]
    iterations = []
    predictor = None
    # the final stage forces of step k in block k mod (m + 1), so the last
    # m + 1 steps are stacked with no copy; correctors[k mod (m + 1)]
    # holds the start's blocks rotated to match at step k
    slots = _HISTORY + 1
    history = np.zeros((slots, s, q.size))
    stacked = history.reshape(slots * s, q.size)
    for step in range(n_steps):
        t = t0 + step * h
        if step == 1:
            # built for the second step, so a single step never pays for it
            predictor, correctors = _start_weights(tableau.c, h2_a_bar,
                                                   _HISTORY)
        t_stage = t + ch
        rows = q + ch_column * qp
        base = rows[:s]
        if predictor is None:
            stages = base
        elif step <= _HISTORY:
            stages = base + predictor.dot(forces)
        else:
            stages = base + correctors[step % slots].dot(stacked)
        # the increment on Python floats: numpy's IEEE subtractions without
        # two array dispatches per sweep; total is the sum of previous
        previous = stages.ravel().tolist()
        total = sum(previous)
        scale = _FP_TOL * (1.0 + _max_magnitude(q.tolist()))
        delta = None
        polish = 0
        for sweep in range(1, max_iters + 1):
            try:
                forces = np.asarray(f(t_stage, stages), dtype=float)
            except (ValueError, ArithmeticError) as err:
                raise _failure(step, t, f"force evaluation failed: {err}",
                               sweep, delta) from err
            updated = base + a_dot(forces)
            current = updated.ravel().tolist()
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
            delta = increment
            stages = updated
            previous = current
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
        if not (isfinite(increment)
                and all(map(isfinite, forces.ravel().tolist()))):
            raise _failure(step, t, "force evaluation returned a non-finite "
                           "value", sweep, delta)
        q = rows[s] + b_bar_dot(forces)
        qp = qp + b_prime_dot(forces)
        history[step % slots] = forces
        iterations.append(sweep)
        if (step + 1) % config.record_every == 0 or step == n_steps - 1:
            times.append(t0 + (step + 1) * h)
            qs.append(q)
            qps.append(qp)
    return Trajectory(times=np.array(times), q=np.array(qs),
                      qp=np.array(qps),
                      iterations=np.array(iterations, dtype=int))


def write_trajectory_csv(trajectory: Trajectory,
                         problem: SecondOrderProblem, stream) -> None:
    """CSV export: t, q1..qd, p1..pd, then one drift column per invariant."""
    dim = trajectory.q.shape[1]
    header = ["t"]
    header.extend(f"q{i + 1}" for i in range(dim))
    header.extend(f"p{i + 1}" for i in range(dim))
    columns = [trajectory.times]
    columns.extend(trajectory.q[:, i] for i in range(dim))
    columns.extend(trajectory.qp[:, i] for i in range(dim))
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
