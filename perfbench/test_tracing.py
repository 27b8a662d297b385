"""The traced run's force-evaluation cross-check, on a small seed.

Run with ``python3 -m pytest perfbench``.
"""

import tempfile

import pytest

import run
from tracing import Tracer
from workloads import WORKLOADS


@pytest.mark.parametrize("workload", ["cli_run", "ensemble"])
def test_f_calls_match_trajectory_iterations(workload):
    with tempfile.TemporaryDirectory() as workdir:
        csrkn, bench, _ = run.setup(WORKLOADS[workload], seed=3,
                                    workdir=workdir)
        untraced = run.measure(bench, 0.0, min_ops=0)
        tracer = Tracer()
        tracer.install(csrkn)
        try:
            traced = run.measure(bench, 0.0, tracer, min_ops=0)
        finally:
            tracer.uninstall()
    assert traced.failed == 0
    runs = tracer.integrations
    assert len(runs) == traced.attempted == 8
    for r in runs:
        assert r.f_calls == r.sweeps
        assert r.stage_forces == r.s * r.sweeps
    calls, _, _ = tracer.self_times()
    assert calls["problems.f"] == sum(r.sweeps for r in runs)

    metrics = run.per_layer(tracer, untraced, traced)
    steps = sum(r.steps for r in runs)
    sweeps_per_step = metrics["integrator.sweeps_per_step"][0]
    assert sweeps_per_step == sum(r.sweeps for r in runs) / steps
    # one f call per sweep evaluates all s stages
    assert metrics["problems.stage_forces_per_step"][0] == (
        sum(r.s * r.sweeps for r in runs) / steps)


def test_uninstall_restores_the_library():
    with tempfile.TemporaryDirectory() as workdir:
        csrkn, _, _ = run.setup(WORKLOADS["derive_check"], seed=3,
                                workdir=workdir)
    original = csrkn.cli.integrate
    tracer = Tracer()
    tracer.install(csrkn)
    assert csrkn.cli.integrate is not original
    assert csrkn.construction.make_basis is csrkn.basis.make_basis
    tracer.uninstall()
    assert csrkn.cli.integrate is original
