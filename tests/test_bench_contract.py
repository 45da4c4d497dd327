"""What the benchmark reads of the library: the bindings it wraps and its first jobs.

``perfbench/tracer.py`` wraps library functions by module attribute and
methods on the class that defines them, so a renamed function, a moved
method or a dropped import breaks every traced benchmark run. This file
installs and uninstalls the tracer, and runs the first job of each
workload's seed-0 pool against the stored reference outputs, so such a
break fails here. Nothing is written under ``perfbench/``.
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
        import tracer
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))
    return tracer, workloads


def test_tracer_wraps_and_restores_every_binding(bench):
    tracer, _ = bench
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
    _, workloads = bench
    job = workloads.WORKLOADS[name].pool(0, tmp_path)[0]
    out, extra = job.run()
    assert job.check(out, extra) == []
    problems, bitwise = workloads.compare(out, workloads.load_reference(name)[0][0])
    assert problems == []
    # the p < 2 direction step of multi_norm rounds differently from the
    # reference commit's, within the benchmark's 1e-12 relative tolerance
    assert bitwise or name == "multinorm_d1024"
