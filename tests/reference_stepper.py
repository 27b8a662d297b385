"""Plain-loop references for csrkn.integrate, with no numpy.

``reference_integrate`` runs the stage iteration of ``integrate`` on Python
floats, one loop per sum: the same weights, start, stopping rule and polish
cap, and every sum w_0 x_0 + w_1 x_1 + ... taken left to right in binary64.
``sweeps`` is its loop over one step's sweeps, the plain form of the sweep
loop in the generated step.
``kepler_points`` and ``henon_heiles_points`` are the built-in planar
forces as plain per-point loops on the flat coordinate list.
``harmonic_step_map`` is the exact one-step map of q'' = -q, in fractions,
built from the doubles the stage iteration uses.
"""

import math
from fractions import Fraction

FP_TOL = 1e-14
POLISH_SWEEPS = 2
HISTORY = 8


def kepler_points(xy):
    points = iter(xy)
    forces = []
    for x, y in zip(points, points):
        r2 = x * x + y * y
        if r2 == 0.0:
            raise ValueError("acceleration is undefined at the origin")
        den = -r2 * math.sqrt(r2)
        if den == 0.0:
            # r^2 sqrt(r^2) underflowed to -0.0, where Python raises on
            # x / den: x * -inf is numpy's x / -0.0
            forces.append(x * -math.inf)
            forces.append(y * -math.inf)
        else:
            forces.append(x / den)
            forces.append(y / den)
    return forces


def henon_heiles_points(xy):
    points = iter(xy)
    forces = []
    for x, y in zip(points, points):
        forces.append(-x - 2.0 * x * y)
        forces.append(-y - x * x + y * y)
    return forces


def dot(weights, values):
    """w_0 x_0 + w_1 x_1 + ..., summed left to right in binary64."""
    total = weights[0] * values[0]
    for weight, value in zip(weights[1:], values[1:]):
        total = total + weight * value
    return total


def apply(weights, base, forces, d):
    """base[i d + k] + sum_j weights[i][j] forces[j d + k], for each row i
    of weights and component k; no entry of base or forces is reordered."""
    return [base[i * d + k] + dot(row, forces[k::d])
            for i, row in enumerate(weights) for k in range(d)]


def extrapolation(c):
    """E[i][j] = l_j(1 + c_i) on the nodes c, or None for repeated nodes."""
    if len(set(c)) < len(c):
        return None
    return [[math.prod([(ahead - other) / (node - other)
                        for m, other in enumerate(c) if m != j], start=1.0)
             for j, node in enumerate(c)] for ahead in [1.0 + x for x in c]]


def error_weights(m):
    """[w_{m-1}, ..., w_0], w_k = (-1)^k C(m, k+1): the start's stage forces
    are E F_n + sum_{k<m} w_k eps_{n-k}, over the prediction errors
    eps_j = F_j - E F_{j-1} of the last m steps taken oldest first."""
    return [float((-1) ** k * math.comb(m, k + 1)) for k in reversed(range(m))]


def sweeps(coupling, base, previous, force, scale, max_iters, d):
    """The fixed-point sweeps of one step from the start's stage values
    previous: (the last forces, sweeps, the last finite increment, the last
    increment, polish sweeps, whether the sweeps ran out).  force maps the
    flat stage list to the flat force list; below scale, up to
    POLISH_SWEEPS more sweeps run, none after an increment of exactly 0,
    and a non-finite increment ends the sweeps."""
    delta, polish = None, 0
    for sweep in range(1, max_iters + 1):
        forces = force(previous)
        current = apply(coupling, base, forces, d)
        changes = [abs(x - y) for x, y in zip(current, previous)]
        increment = (math.nan if any(map(math.isnan, changes))
                     else max(changes))
        if not math.isfinite(increment):
            return forces, sweep, delta, increment, polish, False
        delta, previous = increment, current
        if delta < scale:
            if polish >= POLISH_SWEEPS or delta == 0.0:
                return forces, sweep, delta, increment, polish, False
            polish += 1
    return forces, sweep, delta, increment, polish, True


def reference_integrate(tableau, force, t0, q0, qp0, h, n_steps,
                        max_iters=50):
    """(times, q, qp, iterations) as lists, every step recorded.

    force(times, stages) maps the stage times and the flat stage list
    [x_00, ..., x_0(d-1), x_10, ...] to the flat force list."""
    c, a_bar = tableau.c.tolist(), tableau.a_bar.tolist()
    s, d = len(c), len(q0)
    hh = h * h
    coupling = [[hh * a for a in row] for row in a_bar]
    position = [[hh * b for b in tableau.b_bar.tolist()]]
    velocity = [[h * b for b in tableau.b_prime.tolist()]]
    ch = [h * x for x in c]
    nodes = extrapolation(c)
    weights = error_weights(HISTORY)
    q, qp = [float(x) for x in q0], [float(x) for x in qp0]
    times, qs, qps, iterations, errors = [t0], [q], [qp], [], []
    for step in range(n_steps):
        t = t0 + step * h
        stage_times = [t + x for x in ch]
        base = [x + y * v for y in ch for x, v in zip(q, qp)]
        if nodes is None or step == 0:
            previous = base
        else:
            if step == 1:
                # E F_0; later steps find E F_n at the end of the step before
                ahead = apply(nodes, [0.0] * len(forces), forces, d)
            guess = ahead
            if step > HISTORY:
                guess = [a + dot(weights, column) for a, column
                         in zip(ahead, zip(*errors[-HISTORY:]))]
            previous = apply(coupling, base, guess, d)
        scale = FP_TOL * (1.0 + max(abs(x) for x in q))
        forces, sweep, _, increment, polish, exhausted = sweeps(
            coupling, base, previous,
            lambda xs: force(stage_times, xs), scale, max_iters, d)
        if not math.isfinite(increment):
            raise ArithmeticError(f"non-finite increment at step {step}")
        if exhausted and not polish:
            raise ArithmeticError(f"no convergence at step {step}")
        if not all(map(math.isfinite, forces)):
            raise ArithmeticError(f"non-finite force at step {step}")
        if nodes is not None and step > 0:
            errors.append([x - y for x, y in zip(forces, ahead)])
            ahead = apply(nodes, [0.0] * len(forces), forces, d)
        q = apply(position, [x + h * v for x, v in zip(q, qp)], forces, d)
        qp = apply(velocity, qp, forces, d)
        iterations.append(sweep)
        times.append(t0 + (step + 1) * h)
        qs.append(q)
        qps.append(qp)
    return times, qs, qps, iterations


def harmonic_step_map(tableau, h):
    """The exact map (q, q') -> (q1, q1') of one step on q'' = -q, as a 2 x 2
    matrix of Fractions, from the doubles the stage iteration uses:
    H = fl(h h) a_bar, ch = h c, Bb = fl(h h) b_bar and Bp = h b'.  The
    stages solve (I + H) Q = q 1 + q' ch, so Q = q u + q' v."""
    s, hh = tableau.s, h * h
    H = [[Fraction(hh * a) for a in row] for row in tableau.a_bar.tolist()]
    ch = [Fraction(h * x) for x in tableau.c.tolist()]
    Bb = [Fraction(hh * b) for b in tableau.b_bar.tolist()]
    Bp = [Fraction(h * b) for b in tableau.b_prime.tolist()]
    system = [[H[i][j] + (i == j) for j in range(s)] + [Fraction(1), ch[i]]
              for i in range(s)]
    for col in range(s):  # Gauss-Jordan, exact
        pivot = next(r for r in range(col, s) if system[r][col])
        system[col], system[pivot] = system[pivot], system[col]
        lead = system[col][col]
        system[col] = [x / lead for x in system[col]]
        for r in range(s):
            if r != col and system[r][col]:
                factor = system[r][col]
                system[r] = [x - factor * y
                             for x, y in zip(system[r], system[col])]
    u = [row[s] for row in system]
    v = [row[s + 1] for row in system]

    def weighted(weights, values):
        return sum((w * x for w, x in zip(weights, values)), Fraction(0))

    return [[1 - weighted(Bb, u), Fraction(h) - weighted(Bb, v)],
            [-weighted(Bp, u), 1 - weighted(Bp, v)]]
