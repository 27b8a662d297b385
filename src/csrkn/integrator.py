"""Fixed-step integrator for q'' = f(t, q) driven by an RKN tableau.

``integrate`` takes all steps in generated code; ``rkn_step`` is its first.
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
import re
from dataclasses import dataclass
from functools import cache
from itertools import chain

import numpy as np

from .basis import _integer, _real, _reals
from .construction import RKNTableau, _max_magnitude
from .problems import (_COORDINATES, SecondOrderProblem, _compiled,
                       _PointForce, invariant_drift)

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
# the errors' weights oldest first, (-1)^k C(m, k + 1) for k = m - 1 .. 0:
# exact up to degree s + m - 1 for stage forces polynomial in t
_ERROR_WEIGHTS = tuple(float((-1) ** k * math.comb(_HISTORY, k + 1))
                       for k in reversed(range(_HISTORY)))

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


def _extrapolation(c: np.ndarray) -> list | None:
    """E row by row, E[i, j] = l_j(1 + c_i) for the Lagrange basis l on the
    nodes c: E F extrapolates one step's stage forces F to the next step's
    stage times.  None when the nodes are not distinct."""
    nodes = c.tolist()
    if len(set(nodes)) < len(nodes):
        return None
    return [math.prod([(ahead - other) / (node - other)
                       for m, other in enumerate(nodes) if m != j], start=1.0)
            for ahead in [1.0 + node for node in nodes]
            for j, node in enumerate(nodes)]


def _sums(names, d, base, forces):
    """Right-hand sides base[e] + (w_i0 forces[k] + w_i1 forces[d + k] + ...)
    for e = i d + k, weights named row by row, summed left to right in
    binary64 (CPython fuses no multiply-add), so the order sets the bytes."""
    return [f"{base[i * d + k]} + ("
            + " + ".join(f"{w} * {forces[j * d + k]}"
                         for j, w in enumerate(row))
            + ")" for i, row in enumerate(names) for k in range(d)]


def _set(names, values):
    return list(map("{} = {}".format, names, values))


def _updates(d, q, qp, forces, h, p, v):
    """Source lines of q + h q' + p F, with m = max(0.0, |q_0|, ...) of the
    new q, and qp + v F.  m skips a NaN, which nothing reads: m only scales
    the next step's tolerance, and a NaN q_k makes that step's stage bases,
    so its first sweep's differences, NaN, which fail at any scale."""
    return [*_set(q, _sums(h, d, q, qp)), *_set(q, _sums(p, d, q, forces)),
            f"m = max(0.0, {', '.join(f'abs({x})' for x in q)})",
            *_set(qp, _sums(v, d, qp, forces))]


def _weights(rows, cols, prefix="w"):
    return [[f"{prefix}{i}_{j}" for j in range(cols)] for i in range(rows)]


def _unpack(names, source):
    return f"{''.join(f'{x}, ' for x in names)}= {source}"


def _fail(step, time, sweeps, diffs, reason, cause=None):
    """Raise the failure of a step, last_delta the increment of diffs."""
    raise StageConvergenceError(
        f"step {step} (t = {time:g}) failed: {reason}", step_index=step,
        time=time, iterations=sweeps,
        last_delta=None if diffs is None else _max_magnitude(diffs)) from cause


@cache
def _run(s: int, d: int, warm: bool, expressions=None):
    """make(f, max_iters, *w), for the weights h c, h, h^2 A_bar row by row,
    h^2 b_bar, h b' and, when warm, E row by row, returns run(q, qp, m,
    t_start, n_steps, record_every), m = max |q| skipping NaN: every step on
    float lists, each sum from ``_sums``.  A step forms the stage bases
    B = q + c h q' and the start, runs at most max_iters sweeps on the stage
    values as locals (below 1e-14 (1 + m) up to _POLISH_SWEEPS more, none
    after an increment of 0) and writes the ``_updates``.  Steps start from B
    or, warm, from step 1 on from B + h^2 A_bar a, for a = E F the last forces
    extrapolated, plus from step _HISTORY + 1 on the last _HISTORY prediction
    errors F - a, the list r oldest first, weighted by _ERROR_WEIGHTS written
    in as float literals (the same multiplies as by a parameter).  run returns
    the times, q's and q''s of every record_every-th step and the last, and the
    sweeps per step.  A sweep takes g_e = p_e - (p_e := n_e), rebinding each
    stage value p_e in place to its new value n_e (no line reads what a
    failing or final sweep leaves), and decides by chained comparisons that
    call nothing and read no sign of g: all in (-scale, scale) meet the
    tolerance, else all finite go on, else ``_fail`` raises (a non-finite
    force makes some g_e so, as each force enters every stage sum of its
    coordinate times a weight and 0 * inf is NaN).  Only where reported,
    ``_max_magnitude`` takes max |g_e| of the last finite ones, ``last``, in
    the warning on polish sweeps that run out and in ``_fail``.

    The forces are a point force's dim expressions, each one-letter name
    indexed by point (stage value e is coordinate e % dim of point
    e // dim, so no other name of the run is a letter and digits alone:
    the start time is t_start), where a zero divisor hands the stage list
    to f, the force's on_points; or else f(t + c h, stages) on the (s, d)
    stage array, with the checks of a supplied force.  Cached by the
    expressions, not by the force, as problem_from_name makes a new force
    on every call."""
    n = s * d
    forces, bases, start, ahead = ([f"{x}_{e}" for e in range(n)]
                                   for x in "fbea")
    q, qp = ([f"{x}_{k}" for k in range(d)] for x in "qv")
    dim = len(expressions) if expressions else 1
    stages = [f"{_COORDINATES[e % dim]}{e // dim}" for e in range(n)]
    listed = ", ".join(stages)
    c, h, a = _weights(s, 1, "c"), _weights(1, 1, "h"), _weights(s, s, "a")
    p, v = _weights(1, s, "p"), _weights(1, s, "v")
    now = "t_start + step * h0_0"
    if expressions:
        templates = [re.sub(r"\b([a-z])\b", r"\g<1>{0}", expression)
                     for expression in expressions]
        terms = [x.format(i) for i in range(n // dim) for x in templates]
        times, force = [], [
            "try:", *(f"    {x} = {term}" for x, term in zip(forces, terms)),
            "except ZeroDivisionError:",
            f"    {_unpack(forces, f'f([{listed}])')}"]
    else:
        times = [f"t = {now}",
                 f"times = array([{', '.join(f't + {x}' for x, in c)}])"]
        # a complex result would lose its imaginary part, and one that
        # broadcasts would integrate another equation
        force = [f"forces = asarray(f(times, array([{listed}], float)"
                 ".reshape(shape)))",
                 'if forces.dtype.char != "d":',
                 '    if forces.dtype.kind == "c":',
                 '        raise ValueError("f returned complex values")',
                 "    forces = forces.astype(float)",
                 "if forces.shape != shape:",
                 '    raise ValueError(f"f returned shape {forces.shape} '
                 'for stages of shape {shape}")',
                 _unpack(forces, "forces.ravel().tolist()")]
    starts = _set(stages, bases)
    predict, e = [], []
    if warm:
        e = _weights(s, s, "E")
        history = [f"r[{k}]" for k in range(_HISTORY * n)]
        starts = ["if step:", *(f"    {x}" for x in _set(
                      stages, _sums(a, d, bases, start))),
                  "else:", *(f"    {x}" for x in starts)]
        predict = [
            "if step:", f"    del r[:{n}]",
            f"    r += [{', '.join(map('{} - {}'.format, forces, ahead))}]",
            "else:", f"    r = [0.0] * {_HISTORY * n}",
            *_set(ahead, _sums(e, d, ["0.0"] * n, forces)),
            f"if step >= {_HISTORY}:",
            *(f"    {x}" for x in _set(start, _sums(
                [list(map(repr, _ERROR_WEIGHTS))], n, ahead, history))),
            # a trailing comma makes one stage value a tuple
            "else:",
            f"    {_unpack(start, ', '.join(ahead) + ',' * (n == 1))}"]
    gaps = [f"g_{e}" for e in range(n)]
    within = " and ".join(f"lo < {g} < scale" for g in gaps)
    # 1e999 is inf as a constant of the code, not a global looked up
    finite = " and ".join(f"-1e999 < {g} < 1e999" for g in gaps)
    sweep = [f"{g} = {x} - ({x} := {y})" for g, x, y in
             zip(gaps, stages, _sums(a, d, bases, forces))]
    fail = f"fail(step, {now}, sweep, last, "
    lines = [_unpack(q, "q"), _unpack(qp, "qp"),
             "ts, qs, qps, iterations = [t_start], [q], [qp], []",
             "for step in range(n_steps):", *(f"    {x}" for x in [
                 *_set(bases, _sums(c, d, q * s, qp)), *starts, *times,
                 f"scale = {_FP_TOL!r} * (1.0 + m)",
                 "lo, last, polish = -scale, None, 0",
                 "for sweep in range(1, max_iters + 1):",
                 "    try:", *(f"        {x}" for x in force + sweep),
                 "    except (ValueError, ArithmeticError) as err:",
                 f'        {fail}f"force evaluation failed: {{err}}", err)',
                 f"    if {within}:",
                 f"        if polish >= {_POLISH_SWEEPS} or not "
                 f"({' or '.join(gaps)}):",
                 "            break",
                 "        polish += 1",
                 f"    elif not ({finite}):",
                 f'        {fail}"force evaluation returned a non-finite '
                 'value")',
                 f"    last = ({', '.join(gaps)},)",
                 "else:",
                 "    if not polish:",
                 f'        {fail}f"stage iteration did not reach tolerance '
                 'within {max_iters} sweeps (last increment '
                 '{increment(last):.3e})")',
                 '    warning("stage iteration at t = %g reached max_iters = '
                 '%d during the polish sweeps (last increment %.3e)", '
                 f"{now}, max_iters, increment(last))",
                 *predict, *_updates(d, q, qp, forces, h, p, v),
                 "iterations.append(sweep)",
                 "if (step + 1) % record_every == 0 or step == n_steps - 1:",
                 "    ts.append(t_start + (step + 1) * h0_0)",
                 f"    qs.append([{', '.join(q)}])",
                 f"    qps.append([{', '.join(qp)}])"]),
             "return ts, qs, qps, iterations"]
    namespace = {"sqrt": math.sqrt, "array": np.array, "asarray": np.asarray,
                 "shape": (s, d), "fail": _fail, "increment": _max_magnitude,
                 "warning": _log.warning}
    return _compiled(f"<run {s}x{d} {'warm' if warm else 'cold'}>",
                     ["f", "max_iters", *chain(*c, *h, *a, *p, *v, *e)],
                     "run(q, qp, m, t_start, n_steps, record_every)", lines,
                     namespace)


def rkn_step(tableau: RKNTableau, problem: SecondOrderProblem, t: float,
             q: np.ndarray, qp: np.ndarray, h: float,
             config: SolverConfig | None = None):
    """Advance (q, q') by one step of size h (negative h is allowed): the
    first step of ``integrate``, with its errors."""
    last = integrate(tableau, problem, t, q, qp, h, 1, config)
    return last.q[-1], last.qp[-1]


# a supplied f's numpy arithmetic can overflow or divide by 0: the typed
# non-finite force error reports it, not a numpy warning
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def integrate(tableau: RKNTableau, problem: SecondOrderProblem, t0: float,
              q0, qp0, h: float, n_steps: int,
              config: SolverConfig | None = None) -> Trajectory:
    """Repeated steps from (t0, q0, qp0), two nonempty real vectors of one
    length (``_reals``), h and t0 as Python floats, by a tableau of real
    arrays of shapes (s,), (s, s), (s,), (s,) for one s >= 1, else a
    ValueError names the field; deterministic.  iterations[k] counts the
    fixed-point sweeps of step k, one force evaluation each: ``problem.f``
    on the (s, d) stage array or, for a point force of dimension d or 1
    (the built-ins), its expressions written out on the stage values.  One
    generated function, ``_run``, takes all the steps on Python float
    lists, every sum written out and taken left to right in binary64, so
    no BLAS decides a run's bytes.
    The first step starts from the guess q + c h q', steps 1 to m (m = 8)
    from the previous step's stage forces F_n extrapolated to the new stage
    times, E F_n (Hairer, Lubich & Wanner, Geometric Numerical Integration,
    2006, sec. VIII.6.1), and every later step adds to E F_n the
    extrapolation of the last m prediction errors F_j - E F_{j-1} (as in
    the starting algorithms of Calvo, Laburta & Montijano, Comput. Math.
    Appl., 2003), with E built per call and the m error weights written
    into the run.  A single step, and repeated nodes, which have no
    extrapolation, compile no start and start every step from the guess.
    The start changes the sweep count, not the fixed point.
    """
    n_steps = _integer("n_steps", n_steps, 1)
    _real("step size", h, nonzero=True)
    _real("start time", t0)
    h, t0 = float(h), float(t0)
    config = config or SolverConfig()
    f = problem.f
    q, qp = _reals("q0", q0), _reals("qp0", qp0)
    if q.ndim != 1 or qp.shape != q.shape or not q.size:
        raise ValueError(f"q0 and qp0 must be vectors of one positive "
                         f"length, got shapes {q.shape} and {qp.shape}")
    q, qp = q.tolist(), qp.tolist()
    names = "c", "a_bar", "b_bar", "b_prime"
    c, a_bar, b_bar, b_prime = fields = [
        _reals(f"tableau {name}", getattr(tableau, name)) for name in names]
    # s as most vectors give it, so the error names the one that differs
    lengths = [len(x) if x.ndim == 1 else 0 for x in (c, b_bar, b_prime)]
    s = max(lengths, key=lengths.count)
    for name, field, shape in zip(names, fields, [(s,), (s, s), (s,), (s,)]):
        if field.shape != shape or not s:
            raise ValueError(
                f"tableau {name} has shape {field.shape}; c, a_bar, b_bar "
                "and b_prime need (s,), (s, s), (s,), (s,) for one s >= 1")
    # a point force's expressions, written into the run, read no stage
    # time; any other force, or a state of other points, goes through f
    point = isinstance(f, _PointForce) and len(f.expressions) in (1, len(q))
    start = _extrapolation(c) if n_steps > 1 else None
    run = _run(s, len(q), start is not None,
               f.expressions if point else None)(
        f.on_points if point else f, config.max_iters, *(h * c).tolist(), h,
        *(h * h * a for a in chain(*a_bar.tolist())),
        *(h * h * b_bar).tolist(), *(h * b_prime).tolist(), *start or ())
    times, qs, qps, iterations = run(
        q, qp, max(0.0, *map(abs, q)), t0, n_steps, config.record_every)
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
