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
import re
from dataclasses import dataclass
from functools import cache
from itertools import chain
from operator import sub

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


def _corrected_extrapolation(m: int) -> list:
    """[w_{m-1}, ..., w_0] for w_k = (-1)^k C(m, k+1): E F_n plus
    sum_{k<m} w_k eps_{n-k} over the last m prediction errors
    eps_j = F_j - E F_{j-1}, oldest first, extrapolates the stage forces
    one step ahead, exactly up to degree s + m - 1 for stage forces sampled
    from a polynomial in t."""
    return [float((-1) ** k * math.comb(m, k + 1))
            for k in reversed(range(m))]


def _start_weights(c: np.ndarray, m: int):
    """The start's kernel weights, E row by row and the m error weights, or
    None for repeated nodes."""
    extrapolation = _extrapolation(c)
    if extrapolation is None:
        return None
    return extrapolation.ravel().tolist(), _corrected_extrapolation(m)


def _sums(names, d, base, forces, stages=None):
    """Source lines of n_e = base[e] + (w_i0 forces[k] + w_i1 forces[d + k]
    + ...) for e = i d + k, the weights named row by row, written out and
    taken left to right in binary64 (CPython fuses no multiply-add), so the
    bytes depend on the order alone.  With the stage names, also the lines
    of g_e = |n_e - stages[e]| and their sum t, and the increment max_e g_e
    as an expression: NaN if one g_e is, as max() could skip it and t
    cannot (summed 64 terms a statement, as the compiler refuses deeply
    nested sums).  Returns (lines, increment or None)."""
    n = range(len(names) * d)
    lines = [f"n_{i * d + k} = {base[i * d + k]} + ("
             + " + ".join(f"{w} * {forces[j * d + k]}"
                          for j, w in enumerate(row))
             + ")" for i, row in enumerate(names) for k in range(d)]
    if stages is None:
        return lines, None
    sums = [" + ".join(f"g_{e}" for e in n[k:k + 64]) for k in n[::64]]
    lines += [*(f"g_{e} = abs(n_{e} - {stages[e]})" for e in n),
              f"t = {sums[0]}", *(f"t = t + {x}" for x in sums[1:])]
    gaps = ", ".join(f"g_{e}" for e in n)
    return lines, f"(max(0.0, {gaps}) if t == t else t)"


def _weights(rows, cols):
    return [[f"w{i}_{j}" for j in range(cols)] for i in range(rows)]


def _compiled(label, parameters, signature, lines, namespace):
    """make(*parameters), which returns the function of this signature and
    body lines; label names the source in tracebacks."""
    exec(compile(f"def make({', '.join(parameters)}):\n"
                 f"    def {signature}:\n"
                 + "".join(f"        {line}\n" for line in lines)
                 + f"    return {signature.partition('(')[0]}\n",
                 label, "exec"), namespace)
    return namespace["make"]


@cache
def _kernel(rows: int, cols: int, d: int, increment: bool = False):
    """make(*w), for (rows, cols) weights w row by row, returns kernel(B, F)
    = N = [B[i d + k] + (w_i0 F[k] + w_i1 F[d + k] + ...) for i, k], the
    sums of ``_sums``; compiled once per shape.  With increment,
    kernel(B, F, P) = (N, max_e |N_e - P_e|), NaN if one |N_e - P_e| is."""
    names = _weights(rows, cols)
    n = range(rows * d)
    forces = [f"f{e}" for e in range(cols * d)]
    stages = [f"p{e}" for e in n] if increment else None
    sums, gap = _sums(names, d, [f"B[{e}]" for e in n], forces, stages)
    new = ", ".join(f"n_{e}" for e in n)
    lines = [f"{''.join(f'{x}, ' for x in forces)}= F", *sums,
             f"return [{new}]"]
    if increment:
        lines[1:1] = [f"{''.join(f'{x}, ' for x in stages)}= P"]
        lines[-1] += f", {gap}"
    return _compiled(f"<kernel {rows}x{cols}x{d}>", chain(*names),
                     f"kernel(B, F{', P' if increment else ''})", lines, {})


@cache
def _solver(s: int, d: int, on_points=None, expressions=None):
    """make(f, max_iters, *w), for the h^2 A_bar weights w row by row,
    returns solve(B, P, scale, times): one step's fixed-point sweeps from
    the stage bases B and the start's stage values P, at most max_iters,
    with the stage values as locals.  Each sweep takes the forces on the
    stage values, the sums and increment of ``_sums`` and the stopping rule
    (below the tolerance scale, up to _POLISH_SWEEPS more sweeps, and none
    after an increment of exactly 0); a non-finite increment ends the loop.
    It returns (F, sweeps, the last finite increment, the last increment,
    polish sweeps, whether the sweeps ran out, None), with F the last force
    list, or (None, sweeps, the last finite increment, None, polish sweeps,
    False, error) when the forces or sums raise ValueError or
    ArithmeticError.

    The forces are the expressions of a planar force written out for s
    points, each one-letter name indexed by point (the stage values are
    x0, y0, x1, ...), where a zero divisor hands the stage list to
    on_points; on_points on the stage list for a planar force without
    expressions; or else f(times, stages) on the (s, d) stage array, with
    the dtype, complex and shape checks of a supplied force.  Cached by
    the per-point function and expressions, as problem_from_name makes a
    new force on every call; f comes with each run."""
    n = range(s * d)
    forces = [f"f_{e}" for e in n]
    planar = on_points is not None
    stages = ([f"{v}{i}" for i in range(s) for v in "xy"] if planar
              else [f"s{e}" for e in n])
    unpack, listed = "".join(f"{x}, " for x in forces), ", ".join(stages)
    if expressions is not None:
        terms = [re.sub(r"\b([a-z])\b", rf"\g<1>{i}", expression)
                 for i in range(s) for expression in expressions]
        force = ["try:",
                 *(f"    {x} = {term}" for x, term in zip(forces, terms)),
                 "except ZeroDivisionError:",
                 f"    {unpack}= on_points([{listed}])"]
    elif planar:
        force = [f"{unpack}= on_points([{listed}])"]
    else:
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
                 f"{unpack}= forces.ravel().tolist()"]
    names = _weights(s, s)
    sums, increment = _sums(names, d, [f"b_{e}" for e in n], forces, stages)
    lines = [f"{''.join(f'b_{e}, ' for e in n)}= B", f"{listed}, = P",
             "delta, polish, exhausted = None, 0, False",
             "for sweep in range(1, max_iters + 1):",
             "    try:", *(f"        {line}" for line in force + sums),
             f"        increment = {increment}",
             "    except (ValueError, ArithmeticError) as err:",
             "        return None, sweep, delta, None, polish, False, err",
             "    if not isfinite(increment):",
             "        break",
             "    delta = increment",
             *(f"    {x} = n_{e}" for e, x in enumerate(stages)),
             "    if delta < scale:",
             f"        if polish >= {_POLISH_SWEEPS} or delta == 0.0:",
             "            break",
             "        polish += 1",
             "else:",
             "    exhausted = True",
             f"return [{', '.join(forces)}], sweep, delta, increment, "
             "polish, exhausted, None"]
    namespace = {"isfinite": math.isfinite, "sqrt": math.sqrt,
                 "on_points": on_points, "array": np.array,
                 "asarray": np.asarray, "shape": (s, d)}
    label = f"<solver {s}x{d} {on_points.__name__ if planar else 'f'}>"
    return _compiled(label, ["f", "max_iters", *chain(*names)],
                     "solve(B, P, scale, times)", lines, namespace)


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


# a supplied f's numpy arithmetic can overflow or divide by 0: the typed
# non-finite force error reports it, not a numpy warning
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def integrate(tableau: RKNTableau, problem: SecondOrderProblem, t0: float,
              q0, qp0, h: float, n_steps: int,
              config: SolverConfig | None = None) -> Trajectory:
    """Repeated steps from (t0, q0, qp0), two nonempty vectors of one length,
    with h and t0 taken as Python floats; deterministic for fixed inputs.
    iterations[k] counts the fixed-point sweeps of step k, one force
    evaluation each: ``problem.f`` on the (s, d) stage array or, for the
    built-in planar forces on two components, their expressions written out
    for s points on the stage values.  One generated solver per stage count,
    state length and force runs a step's sweeps with the stage values as
    locals.  The state is a Python float list, and every sum of a step (the
    stage bases q + c h q', the drift q + h q', the start, h^2 A_bar F,
    h^2 b_bar F and h b' F) is straight-line code summed left to right in
    binary64, which also gives a sweep's stage increment and the new max |q|
    that scales the next tolerance: no BLAS decides a run's bytes.  The
    first step starts from the guess q + c h q', steps 1 to m (m = 8) from
    the previous step's stage forces F_n extrapolated to the new stage
    times, E F_n (Hairer, Lubich & Wanner, Geometric Numerical Integration,
    2006, sec. VIII.6.1), and every later step adds to E F_n the
    extrapolation of the last m prediction errors F_j - E F_{j-1} (as in the
    starting algorithms of Calvo, Laburta & Montijano, Comput. Math. Appl.,
    2003); repeated nodes, which have no extrapolation, start every step
    from the guess.  The start changes the sweep count, not the fixed point.
    """
    n_steps = _integer("n_steps", n_steps, 1)
    _real("step size", h, nonzero=True)
    _real("start time", t0)
    h, t0 = float(h), float(t0)
    config = config or SolverConfig()
    f, isfinite = problem.f, math.isfinite
    max_iters, record_every = config.max_iters, config.record_every
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
    s, dim = tableau.s, q.size
    q, qp = q.tolist(), qp.tolist()
    ch, hh = h * tableau.c, h * h
    h2_a_bar = [hh * a for a in chain(*tableau.a_bar.tolist())]
    stage_bases = _kernel(s, 1, dim)(*ch.tolist())
    drift, origin = _kernel(1, 1, dim)(h), [0.0] * dim
    # against the origin, the position kernel's increment is max |q|
    position = _kernel(1, s, dim, True)(*(hh * tableau.b_bar).tolist())
    velocity = _kernel(1, s, dim)(*(h * tableau.b_prime).tolist())
    # a planar force's expressions, written into the solver, read no stage
    # time; any other force, or shape, goes through f
    planar = isinstance(f, _PlanarForce) and dim == 2
    solve = (_solver(s, dim, f.on_points, f.expressions) if planar
             else _solver(s, dim))(f, max_iters, *h2_a_bar)
    times, qs, qps = [t0], [q], [qp]
    iterations, extrapolate, magnitude = [], None, _max_magnitude(q)
    # the last m prediction errors F_j - E F_{j-1}, oldest first
    n = s * dim
    errors = [0.0] * (_HISTORY * n)
    for step in range(n_steps):
        t = t0 + step * h
        if step == 1:
            # built for the second step, so a single step never pays for it;
            # ahead is E F_n, the last step's stage forces extrapolated
            weights = _start_weights(tableau.c, _HISTORY)
            if weights is not None:
                extrapolate = _kernel(s, s, dim)(*weights[0])
                update = _kernel(s, s, dim)(*h2_a_bar)
                correct = _kernel(1, _HISTORY, n)(*weights[1])
                zeros = [0.0] * n
                ahead = extrapolate(zeros, values)
        # the stage bases q + c h q' and the start's stage values
        previous = base = stage_bases(q * s, qp)
        if extrapolate is not None:
            previous = update(base, ahead if step <= _HISTORY else
                              correct(ahead, errors))
        (values, sweep, delta, increment, polish, exhausted,
         error) = solve(base, previous, _FP_TOL * (1.0 + magnitude),
                        None if planar else t + ch)
        if error is not None:
            raise _failure(step, t, f"force evaluation failed: {error}",
                           sweep, delta) from error
        if exhausted:
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
        if not (isfinite(increment) and all(map(isfinite, values))):
            raise _failure(step, t, "force evaluation returned a non-finite "
                           "value", sweep, delta)
        if extrapolate is not None:
            del errors[:n]
            errors += map(sub, values, ahead)
            ahead = extrapolate(zeros, values)
        q, magnitude = position(drift(q, qp), values, origin)
        qp = velocity(qp, values)
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
