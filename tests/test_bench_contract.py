"""What the benchmark reads of the library: the bindings it wraps and its first jobs.

``perfbench/tracer.py`` wraps library functions by module attribute and
methods on the class that defines them, so a renamed function, a moved
method or a dropped import breaks every traced benchmark run. This file
installs and uninstalls the tracer, runs the first job of each workload's
seed-0 pool against the stored reference outputs, and checks that a traced
first cycle of jobs leaves no layer the benchmark expects to be busy
silent, so such a break fails here. Nothing is written under ``perfbench/``.
"""

import sys
from pathlib import Path

import pytest

from regretforge import harness

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    try:
        import run
        import tracer
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))
    return tracer, workloads, run


def test_tracer_wraps_and_restores_every_binding(bench):
    tracer, _, _ = bench
    bindings = [(tracer.MODULES[mod], attr)
                for layer in tracer.FUNCTIONS.values() for mod, attr in layer]
    bindings += [(getattr(tracer.MODULES[mod], cls), attr)
                 for layer in tracer.METHODS.values() for mod, cls, attr in layer]
    bindings.append((harness, "_sweep_cell"))
    # a method must be defined on the class the tracer names, not inherited
    originals = [vars(owner)[attr] for owner, attr in bindings]
    t = tracer.Tracer()
    try:
        t.install()
        for (owner, attr), original in zip(bindings, originals):
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        t.uninstall()
    for (owner, attr), original in zip(bindings, originals):
        assert vars(owner)[attr] is original, (owner, attr)


@pytest.mark.parametrize("name", ["hinted_small_d", "multinorm_d1024", "bernstein_mc",
                                  "sweep_pool"])
def test_first_job_matches_reference(bench, name, tmp_path):
    _, workloads, _ = bench
    job = workloads.WORKLOADS[name].pool(0, tmp_path)[0]
    out, extra = job.run()
    assert job.check(out, extra) == []
    problems, bitwise = workloads.compare(out, workloads.load_reference(name)[0][0])
    assert problems == []
    # the p < 2 direction step of multi_norm rounds differently from the
    # reference commit's, within the benchmark's 1e-12 relative tolerance
    assert bitwise or name == "multinorm_d1024"


@pytest.mark.parametrize("name", ["hinted_small_d", "multinorm_d1024", "bernstein_mc",
                                  "sweep_pool"])
def test_traced_first_cycle_leaves_no_large_layer_silent(bench, name, tmp_path, monkeypatch):
    # A traced benchmark run fails when a layer it expects to be busy on a
    # workload records no calls; a learner change that routes around the
    # wrapped bindings fails here first. Like the benchmark, this runs whole
    # cycles of job shapes: hinted_small_d reaches its projection and
    # tilde_hint layers only in the cycle's constrained job. The sweep
    # workload's cells run in pool workers; here its first config runs with
    # one worker, so every cell runs in this process under the tracer.
    tracer, workloads, run = bench
    workload = workloads.WORKLOADS[name]
    if name == "sweep_pool":
        monkeypatch.setattr(workload, "workers", lambda: 1)
    jobs = workload.pool(0, tmp_path)[:workload.cycle]
    t = tracer.Tracer()
    try:
        t.install()
        for job in jobs:
            job.run()
    finally:
        t.uninstall()
    assert run.silent_layers(name, {"layers": t.stats}) == []


def test_traced_sweep_with_a_two_worker_pool(bench, tmp_path, monkeypatch):
    # as perfbench/worker.py traces a sweep: pool workers run their tasks under the tracer
    # and write layer totals to files, which collect_cells folds in
    tracer, workloads, run = bench
    workload = workloads.WORKLOADS["sweep_pool"]
    monkeypatch.setattr(workload, "workers", lambda: 2)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)  # a real pool on any host
    jobs = workload.pool(0, tmp_path)[:workload.cycle]
    untraced = [job.run()[0] for job in jobs]
    cell_dir = tmp_path / "cells"
    cell_dir.mkdir()
    t = tracer.Tracer()
    t.install()
    tracer.activate(t, cell_dir)
    try:
        traced = [job.run()[0] for job in jobs]
    finally:
        tracer.deactivate()
        t.uninstall()
    assert list(cell_dir.glob("cell_*.json"))  # the pool's workers traced their tasks
    tracer.collect_cells(t, cell_dir)
    for got, expected in zip(traced, untraced):
        assert workloads.compare(got, expected) == ([], True)
    assert run.silent_layers("sweep_pool", {"layers": t.stats}) == []
    assert list(cell_dir.iterdir()) == []
