"""csrkn benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload cli_run --seed 1 --seconds 15 --trace 0

Run from anywhere inside a source checkout; the library is imported from the
checkout's ``src/``.  Single process, single thread.  The seed generates the
workload's inputs; the program only receives them.  Every operation's output
is gated (see workloads.py) and failures are counted by cause.  An input
pinned in ``known_failures.json`` that fails with its pinned cause reproduces
a known defect of the program: it is reported by cause, apart from
``failed``, which counts every other failure and makes ``correct`` false.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs the same operation sequence twice, untraced for the first half of the
time and traced for the second, and reports the per-layer metrics; the
slowdown between the two halves is ``trace.overhead_frac``.  The last line
of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by name
with its unit, the failure causes, the machine and the library versions.  A
fuller report, and the spans of a traced run, go to ``perfbench/out/``.

Times are reported at a nominal machine speed.  On a shared machine the
speed of one core drifts by up to 1.6x over minutes, far more than the
regressions the benchmark must catch, so between operations (at least every
``CHECKPOINT_S`` of operation time, and around every set-up repeat) the run
times a fixed numpy/Python reference kernel that does not touch csrkn, and
scales wall times by ``REFERENCE_NOMINAL_S / reference time``.  A value
therefore reads as the wall time on a machine that runs the reference in
``REFERENCE_NOMINAL_S``; the raw wall-clock figures and the measured
``slowdown`` are printed beside them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from collections import Counter

# single-threaded numpy, set before anything imports it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from tracing import (CSV_BYTES, F_SPAN, INVARIANT,  # noqa: E402
                     STAGE_FORCES, Tracer)
from workloads import WORKLOADS, cause_of  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 11
# the reference kernel took 1.6-2.9 ms on the 2-core Xeon this was written on
REFERENCE_NOMINAL_S = 2.5e-3
CHECKPOINT_S = 0.05
# p90 has ten samples beyond it from 100 samples on; a run keeps going past
# --seconds until it has that many operations (bounded by MAX_SECONDS)
PERCENTILE = 90
MIN_OPS = 100
MAX_SECONDS = 150.0


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


_MATRIX = np.arange(9.0).reshape(3, 3) / 40.0
_ONES = np.ones(3)


def slowdown() -> float:
    """Time of a fixed reference kernel over REFERENCE_NOMINAL_S: above 1
    while the machine runs slower than nominal.  The kernel does work in
    csrkn's style (small numpy products and reductions, float conversion and
    formatting) without calling csrkn."""
    start = time.perf_counter()
    x = _ONES
    total = 0.0
    for _ in range(300):
        x = _MATRIX @ x + _ONES
        total += float(np.max(np.abs(x)))
        text = f"{total:.17g}"  # noqa: F841
    return (time.perf_counter() - start) / REFERENCE_NOMINAL_S


def import_fresh():
    """Import csrkn from the checkout, discarding any earlier import."""
    for name in [n for n in sys.modules
                 if n == "csrkn" or n.startswith("csrkn.")]:
        del sys.modules[name]
    import csrkn
    import csrkn.cli  # noqa: F401  (the CLI module is not imported by csrkn)
    if not os.path.abspath(csrkn.__file__).startswith(SRC + os.sep):
        raise BenchError(f"csrkn imported from {csrkn.__file__}, "
                         f"not from {SRC}")
    return csrkn


def setup(workload_cls, seed: int, workdir: str):
    """setup_s samples: a fresh import of csrkn (numpy is already loaded)
    plus the workload's derivation before timing, repeated; the last
    import is kept."""
    if not os.path.isdir(os.path.join(SRC, "csrkn")):
        raise BenchError(f"no csrkn package under {SRC}")
    sys.path.insert(0, SRC)
    samples = []
    before = slowdown()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        csrkn = import_fresh()
        imported = time.perf_counter()
        # generating the seeded inputs is the benchmark's work, not set-up
        workload = workload_cls(csrkn, seed, workdir)
        start += time.perf_counter() - imported
        workload.prepare()
        wall = time.perf_counter() - start
        after = slowdown()
        samples.append(wall * 2.0 / (before + after))
        before = after
    return csrkn, workload, samples


class Result:
    """Timings and outcomes of one pass over a workload's operations."""

    def __init__(self):
        self.wall_s: list[float] = []
        self.op_s: list[float] = []  # at nominal machine speed
        self.round_ops_per_s: list[float] = []  # at nominal machine speed
        self.slowdowns: list[float] = []  # one per checkpoint
        self.steps = 0
        # operations that failed with the cause pinned for their input in
        # known_failures.json: the program's known defects, reproduced
        self.known: Counter = Counter()
        # every other failure: an output that differs from this commit's
        self.failures: Counter = Counter()

    @property
    def attempted(self) -> int:
        return len(self.wall_s)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def measure(workload, seconds: float, tracer=None,
            min_ops: int = MIN_OPS) -> Result:
    """Run whole rounds until `seconds` have passed and `min_ops` are done.

    The reference kernel runs at checkpoints at least CHECKPOINT_S of
    operation time apart; an operation's wall time is scaled by the mean
    slowdown of the two checkpoints around it.
    """
    result = Result()
    clock = time.perf_counter
    segment_of: list[int] = []
    round_sizes: list[int] = []
    gc.collect()
    result.slowdowns.append(slowdown())
    since_checkpoint = 0.0
    began = clock()
    for ops in workload.rounds():
        for op in ops:
            if tracer is not None:
                tracer.op = result.attempted
            start = clock()
            try:
                output = op.run()
            except Exception as err:  # every failure is counted by cause
                elapsed = clock() - start
                cause = cause_of(err)
            else:
                elapsed = clock() - start
                cause = op.check(output)
            result.wall_s.append(elapsed)
            segment_of.append(len(result.slowdowns) - 1)
            result.steps += op.steps
            if cause is not None:
                if cause == op.known:
                    result.known[cause] += 1
                else:
                    result.failures[cause] += 1
            since_checkpoint += elapsed
            if since_checkpoint >= CHECKPOINT_S:
                result.slowdowns.append(slowdown())
                since_checkpoint = 0.0
        round_sizes.append(len(ops))
        spent = clock() - began
        if spent >= MAX_SECONDS or (spent >= seconds
                                    and result.attempted >= min_ops):
            break
    if since_checkpoint:
        result.slowdowns.append(slowdown())

    slow = result.slowdowns
    result.op_s = [wall * 2.0 / (slow[k] + slow[k + 1])
                   for wall, k in zip(result.wall_s, segment_of)]
    first = 0
    for size in round_sizes:
        busy = sum(result.op_s[first:first + size])
        result.round_ops_per_s.append(size / busy)
        first += size
    return result


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def top_percentile(n: int) -> int:
    """Highest integer percentile with at least ten samples beyond it."""
    return max((q for q in range(50, 100) if n * (100 - q) / 100 >= 10),
               default=50)


def end_to_end(result: Result, setup_samples) -> dict:
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (statistics.median(result.round_ops_per_s), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(result.op_s), "ms"),
        f"op_ms_p{PERCENTILE}": (1e3 * percentile(result.op_s, PERCENTILE),
                                 "ms"),
    }


def named_views(workload: str, result: Result, metrics: dict) -> dict:
    """The workload's own names for the end-to-end numbers."""
    n = result.attempted
    top = top_percentile(n)
    views = {}
    steps_per_op = result.steps / n
    if workload == "cli_run":
        views["run_steps_per_s"] = (
            metrics["ops_per_s"][0] * steps_per_op, "steps/s")
        views["run_job_s_p50"] = (metrics["op_ms_p50"][0] / 1e3, "s")
        views[f"run_job_s_p{top}"] = (percentile(result.op_s, top), "s")
    elif workload == "ensemble":
        views["ensemble_orbit_steps_per_s"] = (
            metrics["ops_per_s"][0] * steps_per_op, "steps/s")
    else:
        views["derive_ops_per_s"] = (metrics["ops_per_s"][0], "1/s")
        views["derive_op_ms_p50"] = (metrics["op_ms_p50"][0], "ms")
        views[f"derive_op_ms_p{top}"] = (
            1e3 * percentile(result.op_s, top), "ms")
    views["samples"] = (n, "count")
    views["fail_frac"] = ((result.failed + sum(result.known.values())) / n,
                          "frac")
    views["known_defect_frac"] = (sum(result.known.values()) / n, "frac")
    views["slowdown"] = (statistics.median(result.slowdowns), "x")
    views["wall_op_ms_p50"] = (1e3 * statistics.median(result.wall_s), "ms")
    views[f"wall_op_ms_p{PERCENTILE}"] = (
        1e3 * percentile(result.wall_s, PERCENTILE), "ms")
    return views


def per_layer(tracer, untraced: Result, traced: Result) -> dict:
    calls, incl, own = tracer.self_times()
    # span times at nominal machine speed, like the end-to-end times
    slow = statistics.median(traced.slowdowns)
    incl = Counter({name: ns / slow for name, ns in incl.items()})
    own = Counter({name: ns / slow for name, ns in own.items()})
    ops = traced.attempted
    metrics = {}

    def per_call_us(name, ns):
        return 1e-3 * ns[name] / calls[name] if calls[name] else 0.0

    for name in ("basis.make_basis", "quadrature.gauss_rule",
                 "construction.build_b", "construction.solve_alpha",
                 "construction.assemble", "construction.discretize",
                 "construction.builtin_tableau",
                 "construction.serialize_tableau",
                 "construction.parse_tableau", "verification.check_discrete"):
        metrics[f"{name}.us"] = (per_call_us(name, own), "us")
    for name in ("basis.make_basis", "quadrature.gauss_rule", F_SPAN):
        metrics[f"{name}.calls"] = (calls[name] / ops, "1/op")
    gauss_calls = calls["quadrature.gauss_rule"]
    metrics["quadrature.gauss_rule.fail"] = (
        tracer.errors["quadrature.gauss_rule"] / gauss_calls
        if gauss_calls else 0.0, "frac")

    runs = tracer.integrations
    steps = sum(r.steps for r in runs)
    sweeps = sum(r.sweeps for r in runs)
    integrate_ns = incl["integrator.integrate"]
    metrics["integrator.integrate.self_s"] = (
        1e-9 * own["integrator.integrate"] / ops, "s/op")
    metrics["integrator.sweeps_per_step"] = (
        sweeps / steps if steps else 0.0, "sweeps/step")
    metrics["integrator.us_per_sweep"] = (
        1e-3 * integrate_ns / sweeps if sweeps else 0.0, "us")
    metrics["integrator.us_per_step"] = (
        1e-3 * integrate_ns / steps if steps else 0.0, "us")
    metrics["integrator.max_iters_hits"] = (
        sum(r.max_iters_hits for r in runs), "count")
    metrics["problems.f.us"] = (per_call_us(F_SPAN, incl), "us")
    metrics["problems.stage_forces_per_step"] = (
        tracer.counts[STAGE_FORCES] / steps if steps else 0.0, "forces/step")

    csv = "integrator.write_trajectory_csv"
    csv_s = 1e-9 * incl[csv]
    csv_bytes = tracer.counts[CSV_BYTES]
    metrics[f"{csv}.s"] = (csv_s / calls[csv] if calls[csv] else 0.0, "s")
    metrics[f"{csv}.bytes"] = (
        csv_bytes / calls[csv] if calls[csv] else 0.0, "B")
    metrics[f"{csv}.MB_per_s"] = (
        1e-6 * csv_bytes / csv_s if csv_s else 0.0, "MB/s")
    metrics["problems.invariant.calls"] = (tracer.counts[INVARIANT] / ops,
                                           "1/op")
    metrics["cli.main.self_s"] = (1e-9 * own["cli.main"] / ops, "s/op")

    # same operations, same order: compare the common prefix
    k = min(untraced.attempted, traced.attempted)
    metrics["trace.overhead_frac"] = (
        sum(traced.op_s[:k]) / sum(untraced.op_s[:k]) - 1.0, "frac")
    return metrics


def src_lines() -> int:
    total = 0
    for folder, _, files in os.walk(os.path.join(SRC, "csrkn")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as stream:
                    total += sum(1 for _ in stream)
    return total


def environment(csrkn, seed: int) -> dict:
    import numpy
    return {"machine": platform.machine(), "platform": platform.platform(),
            "processor": platform.processor(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "csrkn": csrkn.__version__, "seed": seed,
            "src_lines": src_lines()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, workdir: str) -> dict:
    """Set up, measure and check one workload; returns the full report."""
    csrkn, workload, setup_samples = setup(WORKLOADS[args.workload],
                                           args.seed, workdir)
    report = {"workload": args.workload, "trace": args.trace,
              "environment": environment(csrkn, args.seed),
              "setup_s_samples": setup_samples}
    if not args.trace:
        result = measure(workload, args.seconds)
        passes = [result]
        metrics = end_to_end(result, setup_samples)
        checks_hold = True
    else:
        # the named views below come from the untraced half, free of the
        # tracing overhead; both halves are gated
        result = measure(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install(csrkn)
        try:
            traced = measure(workload, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        passes = [result, traced]
        metrics = per_layer(tracer, result, traced)
        metrics["src_lines"] = (report["environment"]["src_lines"], "lines")
        checks_hold = all(r.consistent for r in tracer.integrations)
        report["force_cross_check"] = {
            "integrate_calls": len(tracer.integrations),
            "f_calls": sum(r.f_calls for r in tracer.integrations),
            "sum_iterations": sum(r.sweeps for r in tracer.integrations),
            "holds": checks_hold}
        tracer.write(os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.csv.gz"))
    report["views"] = named_views(args.workload, result, end_to_end(
        result, setup_samples))
    # `failed` counts outputs that differ from this commit's: a known
    # defect reproduced on its pinned input is this commit's outcome, and is
    # reported by cause beside the failures rather than counted among them
    failures = sum((p.failures for p in passes), Counter())
    known = sum((p.known for p in passes), Counter())
    report["failures"] = dict(failures.most_common())
    report["known_defects"] = dict(known.most_common())
    report["metrics"] = metrics
    report["summary"] = {
        "correct": checks_hold and not failures,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(failures.values()),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}
    return report


def main(argv=None) -> int:
    args = parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(prefix=f"{args.workload}-",
                                         dir=OUT) as workdir:
            report = run(args, workdir)
    except (BenchError, ImportError) as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2

    env = report["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} | "
          f"python {env['python']} numpy {env['numpy']} | "
          f"{env['platform']} ({env['cpus']} cpus) | "
          f"src lines {env['src_lines']}")
    for name, (value, unit) in {**report["metrics"],
                                **report["views"]}.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    attempted = report["summary"]["attempted"]
    for cause, count in report["known_defects"].items():
        print(f"known defect: {count:6d} ({count / attempted:.4f})  "
              f"{cause}")
    for cause, count in report["failures"].items():
        print(f"fail: {count:6d} ({count / attempted:.4f})  {cause}")
    if "force_cross_check" in report:
        print(f"force cross-check: {report['force_cross_check']}")
    with open(os.path.join(OUT, f"report-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as stream:
        json.dump(report, stream, indent=1, default=str)
    print(json.dumps(report["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
