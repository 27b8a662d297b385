"""The three benchmark workloads: seeded inputs, the timed call, the gate.

Every workload yields rounds of operations.  A round is a fixed mix of
operation kinds (every method x problem pair, or a fixed count of each
derivation kind) whose parameters the seed draws, so the mix is the same for
every seed and only the drawn values change.  Draws are stratified: discrete
choices walk seeded permutations of all choices, and continuous ones take
one value per stratum of their range in seeded order, so a run covers the
input space evenly whatever the seed.  Each operation has a ``run``
callable, which is all that is timed, and a ``check`` callable that gates
its output afterwards and returns a failure cause or None.

The program is reached only through module attributes looked up at call
time (``csrkn.cli.main``, ``csrkn.construction.builtin_tableau``, ...), so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

METHODS = ("legendre4", "chebyshev4", "hermite4", "hermite3")
CAPTION_ORDER = {"legendre4": 4, "chebyshev4": 4, "hermite4": 4,
                 "hermite3": 3}
PROBLEMS = ("kepler", "henon-heiles")
GAMMA_RANGE = (-0.5, 0.5)

RESIDUAL_TOL = 1e-12
# Energy error of a method of order p at step h on a problem whose fastest
# angular rate is omega stays below ENERGY_K * (h * omega) ** p.  On 1,920
# ensemble orbits and 200 cli_run jobs the largest ratio was 0.14.
ENERGY_K = 1.0
# All four methods are symplectic, so the quadratic invariant q x p moves
# only by rounding, as a random walk: below 1 ulp * sqrt(steps) on the same
# orbits and jobs.
ANGMOM_ULPS = 16.0


def _known_failures():
    """The inputs that failed, and with which cause, when the benchmark was
    written: every (family, s) Gauss pair and every custom spec of the CLI
    space that failed then.  A custom spec fails the same way for every
    stage count, so it is listed without one."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "known_failures.json")
    with open(path) as stream:
        known = json.load(stream)
    gauss = {(family, s): cause for family, s, cause in known["gauss_rule"]}
    custom = {tuple(spec): cause for *spec, cause in known["custom_spec"]}
    return gauss, custom


KNOWN_GAUSS, KNOWN_CUSTOM = _known_failures()


@dataclass
class Op:
    """One timed operation and the gate for its output."""

    run: Callable[[], object]
    check: Callable[[object], str | None]
    steps: int = 0
    # the cause this input already failed with when the benchmark was written
    # (known_failures.json); failing with it again is reported as a known
    # defect, and any other failure counts as failed and makes the run
    # incorrect
    known: str | None = None


def cause_of(err: BaseException) -> str:
    """Exception type plus the fixed leading words of its message."""
    head = re.split(r"[(:;=0-9]", str(err), maxsplit=1)[0].strip()
    return f"{type(err).__name__}: {head}"


def shuffled_cycle(rng, items):
    """Endless walk over seeded permutations of items."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def stratified(rng, low: float, high: float, strata: int = 8):
    """Endless uniform draws from [low, high), one per stratum in turn."""
    width = (high - low) / strata
    for k in shuffled_cycle(rng, range(strata)):
        yield low + (k + rng.random()) * width


def energy_bound(method: str, h: float, omega: float) -> float:
    return ENERGY_K * (h * omega) ** CAPTION_ORDER[method]


def angmom_bound(steps: int) -> float:
    return ANGMOM_ULPS * np.finfo(float).eps * math.sqrt(steps)


def _tableau_gates(tableau, report, back, symmetric: bool) -> str | None:
    """Gates shared by every derived tableau."""
    if report.symplectic_residual > RESIDUAL_TOL:
        return "gate: symplectic residual"
    if symmetric and not report.symmetry_residual <= RESIDUAL_TOL:
        return "gate: symmetric residual"
    for name in ("c", "a_bar", "b_bar", "b_prime"):
        if not np.array_equal(getattr(tableau, name), getattr(back, name)):
            return "gate: serialize/parse round trip"
    return None


class CliRun:
    """In-process ``csrkn run`` jobs, each writing every state to CSV."""

    name = "cli_run"
    STEPS = 300
    RECORD_EVERY = 1
    H_RANGE = (0.02, 0.1)

    def __init__(self, csrkn, seed: int, workdir: str):
        self.csrkn = csrkn
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        """Nothing is derived before timing: each job derives its method."""

    def rounds(self):
        rng = random.Random(self.seed)
        gammas = stratified(rng, *GAMMA_RANGE)
        step_sizes = stratified(rng, *self.H_RANGE)
        combos = list(itertools.product(METHODS, PROBLEMS))
        while True:
            rng.shuffle(combos)
            yield [self._job(method, problem, next(gammas), next(step_sizes),
                             slot)
                   for slot, (method, problem) in enumerate(combos)]

    def _job(self, method: str, problem: str, gamma: float, h: float,
             slot: int) -> Op:
        out = os.path.join(self.workdir, f"job{slot}.csv")
        # VALUE joined to its flag: argparse reads a lone "-4e-05" as a flag
        argv = ["run", "--method", method, f"--gamma={gamma!r}",
                "--problem", problem, f"--h={h!r}",
                "--steps", str(self.STEPS),
                "--record-every", str(self.RECORD_EVERY),
                "--out", out]
        cli = self.csrkn.cli
        stderr = io.StringIO()

        def run():
            stderr.seek(0)
            stderr.truncate()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                return cli.main(argv)

        def check(code) -> str | None:
            if code != 0:
                return f"exit {code}: " + stderr.getvalue().split(":")[0]
            with open(out) as stream:
                header = stream.readline().strip().split(",")
                data = np.loadtxt(stream, delimiter=",", ndmin=2)
            if data.shape[0] != self.STEPS // self.RECORD_EVERY + 1:
                return "gate: CSV row count"
            if not np.all(np.isfinite(data)):
                return "gate: non-finite state"
            # both CLI problems start on orbits with unit angular rate
            energy = data[:, header.index("H_err")]
            if energy.max() > energy_bound(method, h, 1.0):
                return "gate: energy error"
            if "angmom_err" in header and (
                    data[:, header.index("angmom_err")].max()
                    > angmom_bound(self.STEPS)):
                return "gate: angular momentum drift"
            return None

        return Op(run=run, check=check, steps=self.STEPS)


class Ensemble:
    """Independent short orbits from seeded initial states; no export."""

    name = "ensemble"
    STEPS = 100
    H = 0.1
    ECCENTRICITY = (0.0, 0.6)
    ENERGY = (0.03, 1.0 / 6.0)
    HH_Y = (-0.2, 0.2)
    # gamma moves the sweeps per step by up to 40 %, so each method gets one
    # tableau per gamma stratum rather than a single seeded gamma
    GAMMAS_PER_METHOD = 4

    def __init__(self, csrkn, seed: int, workdir: str):
        self.csrkn = csrkn
        self.seed = seed
        self.tableaux: dict[str, list] = {}
        # untraced copies of the problems for the gates
        self.reference = {p: csrkn.problems.problem_from_name(p)
                          for p in PROBLEMS}

    def prepare(self) -> None:
        """Derive every method's tableaux, at seeded gammas, before timing."""
        rng = random.Random(self.seed + 1)
        builtin_tableau = self.csrkn.construction.builtin_tableau
        self.tableaux = {}
        for method in METHODS:
            gammas = stratified(rng, *GAMMA_RANGE, self.GAMMAS_PER_METHOD)
            self.tableaux[method] = [builtin_tableau(method, next(gammas))
                                     for _ in range(self.GAMMAS_PER_METHOD)]

    def rounds(self):
        rng = random.Random(self.seed)
        draws = {"e": stratified(rng, *self.ECCENTRICITY),
                 "energy": stratified(rng, *self.ENERGY),
                 "y": stratified(rng, *self.HH_Y)}
        tableaux = {m: shuffled_cycle(rng, self.tableaux[m]) for m in METHODS}
        combos = list(itertools.product(METHODS, PROBLEMS))
        while True:
            rng.shuffle(combos)
            yield [self._orbit(draws, next(tableaux[method]), method, problem)
                   for method, problem in combos]

    def _initial_state(self, draws, problem: str):
        """(q0, p0, omega): omega is the fastest angular rate on the orbit."""
        if problem == "kepler":
            # unit semi-major axis, started at perihelion
            e = next(draws["e"])
            return (np.array([1.0 - e, 0.0]),
                    np.array([0.0, math.sqrt((1.0 + e) / (1.0 - e))]),
                    (1.0 - e) ** -1.5)
        energy = next(draws["energy"])
        y = next(draws["y"])
        potential = 0.5 * y * y - y ** 3 / 3.0
        return (np.array([0.0, y]),
                np.array([math.sqrt(2.0 * (energy - potential)), 0.0]), 1.0)

    def _orbit(self, draws, tableau, method: str, problem: str) -> Op:
        q0, p0, omega = self._initial_state(draws, problem)
        config = self.csrkn.integrator.SolverConfig(record_every=self.STEPS)
        problems = self.csrkn.problems
        integrator = self.csrkn.integrator
        reference = self.reference[problem]

        def run():
            return integrator.integrate(
                tableau, problems.problem_from_name(problem), 0.0, q0, p0,
                self.H, self.STEPS, config)

        def check(trajectory) -> str | None:
            if trajectory.q.shape[0] != 2:
                return "gate: recorded states"
            q, p = trajectory.q[-1], trajectory.qp[-1]
            if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
                return "gate: non-finite state"
            drift = abs(reference.hamiltonian(q, p)
                        - reference.hamiltonian(q0, p0))
            if drift > energy_bound(method, self.H, omega):
                return "gate: energy error"
            angmom = reference.invariants.get("angmom")
            if angmom is not None and (
                    abs(angmom(q, p) - angmom(q0, p0))
                    > angmom_bound(self.STEPS)):
                return "gate: angular momentum drift"
            return None

        return Op(run=run, check=check, steps=self.STEPS)


def custom_spec_space(csrkn) -> list[tuple]:
    """Every spec the CLI's --family/--symmetric/--b-order/--cn-order/
    --tau-degree/--stages flags accept, with b_order <= 8 (the default basis
    degree), tau_degree <= 4 and stages <= 6: 2,520 specs.  ConstructionSpec
    itself decides validity; specs that later fail to derive stay in."""
    construction = csrkn.construction
    space = []
    for family, symmetric, b, cn, tau, s in itertools.product(
            csrkn.basis.Family, (False, True), range(1, 9), range(1, 9),
            range(1, 5), range(1, 7)):
        try:
            construction.ConstructionSpec(family=family, b_order=b,
                                          cn_order=cn, tau_degree=tau,
                                          symmetric=symmetric)
        except construction.ConstructionError:
            continue
        space.append((family, symmetric, b, cn, tau, s))
    return space


class DeriveCheck:
    """The method-design loop: derive, check and round-trip; no integration."""

    name = "derive_check"
    CUSTOM_PER_ROUND = 12
    GAUSS_PER_ROUND = 12

    def __init__(self, csrkn, seed: int, workdir: str):
        self.csrkn = csrkn
        self.seed = seed
        self.space = custom_spec_space(csrkn)
        max_degree = csrkn.basis.MAX_DEGREE
        self.gauss_pairs = list(itertools.product(
            csrkn.basis.Family, range(1, max_degree + 1)))

    def prepare(self) -> None:
        """Nothing is derived before timing."""

    def rounds(self):
        rng = random.Random(self.seed)
        gammas = stratified(rng, *GAMMA_RANGE)
        specs = shuffled_cycle(rng, self.space)
        pairs = shuffled_cycle(rng, self.gauss_pairs)
        while True:
            ops = [self._builtin(m, next(gammas)) for m in METHODS]
            ops += [self._custom(*next(specs))
                    for _ in range(self.CUSTOM_PER_ROUND)]
            ops += [self._gauss(*next(pairs))
                    for _ in range(self.GAUSS_PER_ROUND)]
            rng.shuffle(ops)
            yield ops

    def _round_trip(self, tableau):
        construction = self.csrkn.construction
        return construction.parse_tableau(
            construction.serialize_tableau(tableau))

    def _builtin(self, method: str, gamma: float) -> Op:
        construction = self.csrkn.construction
        verification = self.csrkn.verification

        def run():
            tableau = construction.builtin_tableau(method, gamma)
            report = verification.check_discrete(tableau)
            return tableau, report, self._round_trip(tableau)

        def check(result) -> str | None:
            tableau, report, back = result
            if report.predicted_order != CAPTION_ORDER[method]:
                return "gate: predicted order"
            return _tableau_gates(tableau, report, back,
                                  symmetric=method != "hermite3")

        return Op(run=run, check=check)

    def _custom(self, family, symmetric, b, cn, tau, s) -> Op:
        """The CLI's custom pipeline, called through the public functions."""
        csrkn = self.csrkn

        def run():
            construction = csrkn.construction
            spec = construction.ConstructionSpec(
                family=family, b_order=b, cn_order=cn, tau_degree=tau,
                symmetric=symmetric)
            basis = csrkn.basis.make_basis(family, max(8, b, s))
            coeffs = construction.assemble(
                basis, construction.build_b(basis, spec),
                construction.solve_alpha(basis, spec), spec=spec)
            tableau = construction.discretize(
                coeffs, csrkn.quadrature.gauss_rule(basis, s))
            report = csrkn.verification.check_discrete(tableau)
            return coeffs, tableau, report, self._round_trip(tableau)

        def check(result) -> str | None:
            coeffs, tableau, report, back = result
            # the order the spec targets once the s-point rule samples it;
            # check_discrete may find more conditions satisfied, never fewer
            target = csrkn.verification.order_bound_with_quadrature(
                b, cn, cn, 2 * s, *coeffs.degrees)
            if report.predicted_order < target:
                return "gate: predicted order"
            return _tableau_gates(tableau, report, back, symmetric)

        known = KNOWN_CUSTOM.get((family.name, symmetric, b, cn, tau))
        return Op(run=run, check=check, known=known)

    def _gauss(self, family, s: int) -> Op:
        csrkn = self.csrkn

        def run():
            basis = csrkn.basis.make_basis(family, max(8, s))
            return basis, csrkn.quadrature.gauss_rule(basis, s)

        def check(result) -> str | None:
            basis, rule = result
            if csrkn.quadrature.exactness_degree(rule, basis) < 2 * s - 1:
                return "gate: exactness degree"
            return None

        return Op(run=run, check=check,
                  known=KNOWN_GAUSS.get((family.name, s)))


WORKLOADS = {w.name: w for w in (CliRun, Ensemble, DeriveCheck)}
