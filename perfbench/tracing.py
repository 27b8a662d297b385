"""Span tracing of the csrkn layers, installed from outside the library.

The tracer replaces each public function at every name its callers look up
(``csrkn.cli.integrate``, ``csrkn.construction.make_basis``, ...) with a
wrapper that records a span: name, start, end, parent span and operation id.
Problems are traced by wrapping their ``f`` and their conserved quantities
through ``dataclasses.replace`` on the problem returned by
``problems.problem_from_name``.  Spans live in flat in-memory arrays and are
written out once, after the run; self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import dataclasses
import gzip
import sys
import time
from array import array
from collections import Counter

# (module, attribute) of every traced function; the span name is
# "<module>.<attribute>".
TRACED = (
    ("cli", "main"),
    ("basis", "make_basis"),
    ("quadrature", "gauss_rule"),
    ("construction", "build_b"),
    ("construction", "solve_alpha"),
    ("construction", "assemble"),
    ("construction", "discretize"),
    ("construction", "builtin_tableau"),
    ("construction", "serialize_tableau"),
    ("construction", "parse_tableau"),
    ("verification", "check_discrete"),
    ("integrator", "integrate"),
    ("integrator", "write_trajectory_csv"),
    ("problems", "problem_from_name"),
)
F_SPAN = "problems.f"
STAGE_FORCES = "problems.stage_forces"
INVARIANT = "problems.invariant"
CSV_BYTES = "integrator.write_trajectory_csv.bytes"


@dataclasses.dataclass(frozen=True)
class Integration:
    """One integrate call: the trajectory's accounting (sweeps and polish-cap
    hits from ``Trajectory.iterations``) and the f calls actually made."""

    s: int
    steps: int
    sweeps: int
    max_iters_hits: int
    f_calls: int
    stage_forces: int

    @property
    def consistent(self) -> bool:
        """f runs once per sweep on all s stages."""
        return (self.f_calls == self.sweeps
                and self.stage_forces == self.s * self.sweeps)


class Tracer:
    """Records spans and counts at the layer boundaries of one run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.span_op = array("i")
        self._stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.integrations: list[Integration] = []
        self._patches: list[tuple[object, str, object]] = []
        self._default_max_iters = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, func):
        """Return func recording one span per call."""
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.span_name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return func(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def install(self, package) -> None:
        """Patch every csrkn module that exposes a traced function."""
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__
                   or name.startswith(package.__name__ + ".")]
        self._default_max_iters = package.integrator.SolverConfig().max_iters
        special = {"integrate": self._wrap_integrate,
                   "write_trajectory_csv": self._wrap_write_csv,
                   "problem_from_name": self._wrap_problem_from_name}
        for module_name, attr in TRACED:
            original = getattr(getattr(package, module_name), attr)
            wrapper = self.wrap(f"{module_name}.{attr}", original)
            if attr in special:
                wrapper = special[attr](wrapper)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap_problem_from_name(self, traced):
        def problem_from_name(name):
            return self.wrap_problem(traced(name))
        return problem_from_name

    def _wrap_write_csv(self, traced):
        def write_trajectory_csv(trajectory, problem, stream):
            before = stream.tell()
            traced(trajectory, problem, stream)
            self.counts[CSV_BYTES] += stream.tell() - before
        return write_trajectory_csv

    def wrap_problem(self, problem):
        """The problem with a traced f and counted conserved quantities."""
        force = self.wrap(F_SPAN, problem.f)
        counts = self.counts

        def f(t, q):
            counts[F_SPAN] += 1
            counts[STAGE_FORCES] += len(q)
            return force(t, q)

        def counted(func):
            def invariant(q, qp):
                counts[INVARIANT] += 1
                return func(q, qp)
            return invariant

        hamiltonian = problem.hamiltonian
        return dataclasses.replace(
            problem, f=f,
            hamiltonian=None if hamiltonian is None else counted(hamiltonian),
            invariants={k: counted(v) for k, v in problem.invariants.items()})

    def _wrap_integrate(self, traced):
        """Record each trajectory's own accounting next to the f calls made
        while it ran."""
        counts = self.counts

        def integrate(*args, **kwargs):
            calls, forces = counts[F_SPAN], counts[STAGE_FORCES]
            trajectory = traced(*args, **kwargs)
            tableau = args[0] if args else kwargs["tableau"]
            config = args[7] if len(args) > 7 else kwargs.get("config")
            max_iters = (self._default_max_iters if config is None
                         else config.max_iters)
            iterations = trajectory.iterations
            self.integrations.append(Integration(
                s=tableau.s, steps=int(iterations.size),
                sweeps=int(iterations.sum()),
                max_iters_hits=int((iterations == max_iters).sum()),
                f_calls=counts[F_SPAN] - calls,
                stage_forces=counts[STAGE_FORCES] - forces))
            return trajectory

        return integrate

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, inclusive ns, self ns)."""
        n = len(self.start)
        child = array("q", bytes(8 * n))
        parent = self.parent
        dur = [e - s for s, e in zip(self.start, self.end)]
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls, incl, own = Counter(), Counter(), Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            incl[name] += dur[i]
            own[name] += dur[i] - child[i]
        return calls, incl, own

    def write(self, path: str) -> None:
        """Spans as gzip CSV: name,start_ns,end_ns,parent,op."""
        with gzip.open(path, "wt", compresslevel=3) as stream:
            stream.write("name,start_ns,end_ns,parent,op\n")
            for i in range(len(self.start)):
                name = self.names[self.span_name[i]]
                stream.write(f"{name},{self.start[i]},{self.end[i]},"
                             f"{self.parent[i]},{self.span_op[i]}\n")
