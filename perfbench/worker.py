"""One workload process of the benchmark; ``run.py`` starts it in a fresh interpreter.

With ``--setup`` it times importing the library and building the first
job's inputs, runs the speed probe, then exits. Otherwise it runs one
untimed warm-up job, then the timed phase; with ``--trace 1`` the timed
phase is followed by a traced phase. Every job of a phase is timed beside
the speed probe (``speed.py``). It prints one JSON line with the raw
measurements.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tmpdir", required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-jobs", type=int, default=0,
                   help="end each phase after this many jobs (rounded up to whole "
                        "cycles) instead of after --seconds")
    p.add_argument("--setup", action="store_true", help="time set-up only")
    return p.parse_args(argv)


class Runner:
    """Runs jobs, checks every output, and counts attempts and failures."""

    def __init__(self, workloads, references: dict, seed: int):
        self.w = workloads
        self.references = references
        self.seed = seed
        self.first = {}            # pool index -> first output of this run
        self.attempted = 0
        self.failed = 0
        self.compared = 0
        self.bitwise = 0
        self.problems = []

    def expected(self, index: int):
        if self.seed in self.references:
            return self.references[self.seed][index]
        return self.first.get(index)

    def execute(self, job, expected, index, probe) -> tuple:
        """Run one job beside ``probe``; returns (seconds, probe seconds per chunk, completed)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            (out, extra), elapsed, chunk_s = probe.time_job(job.run)
        except Exception as exc:  # noqa: BLE001 - a failing job is counted, not fatal
            self.fail(job, f"raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - start, probe.last_chunk_s, False
        problems = job.check(out, extra)
        if expected is not None:
            mismatch, bitwise = self.w.compare(out, expected)
            problems += mismatch
            self.compared += 1
            self.bitwise += bitwise
        if problems:
            self.fail(job, "; ".join(problems))
        elif index is not None and index not in self.first:
            self.first[index] = out
        return elapsed, chunk_s, True

    def fail(self, job, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"{job.key}: {message}")

    def phase(self, pool, cycle, seconds, max_jobs, probe, tracer=None) -> dict:
        """Jobs back to back until time (or the job limit) is up, ending on a cycle boundary.

        Each job's time excludes the probe's chunks; ``chunk_s`` holds the
        probe's seconds per chunk measured with it.
        """
        times, chunk_s, rounds, i = [], [], 0, 0
        start = time.perf_counter()
        with probe:
            while True:
                index = i % len(pool)
                job = pool[index]
                if tracer is not None:
                    tracer.job = i
                    tracer.keep_spans = i == 0
                elapsed, chunk, completed = self.execute(job, self.expected(index), index, probe)
                times.append(elapsed)
                chunk_s.append(chunk)
                rounds += job.rounds if completed else 0
                i += 1
                done = i >= max_jobs if max_jobs else time.perf_counter() - start >= seconds
                if done and i % cycle == 0:
                    break
        return {"times_s": times, "chunk_s": chunk_s, "rounds": rounds,
                "wall_s": time.perf_counter() - start}


def blas_version(np) -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    tmpdir = Path(args.tmpdir)
    start = time.perf_counter()
    import workloads  # imports numpy and regretforge: part of set-up time

    workload = workloads.WORKLOADS[args.workload]
    workload.setup(args.seed, tmpdir)
    setup_s = time.perf_counter() - start
    import speed

    if args.setup:
        chunk_s = speed.Probe("after").measure_after(setup_s)
        print(json.dumps({"setup_s": setup_s, "chunk_s": chunk_s,
                          "nominal_chunk_s": speed.NOMINAL_CHUNK_S}))
        return 0

    import numpy as np

    references = workloads.load_reference(args.workload)
    runner = Runner(workloads, references, args.seed)
    pool = workload.pool(args.seed, tmpdir)

    # Untimed warm-up: one job of a stored reference seed, checked against it.
    ref_seed = workloads.REFERENCE_SEEDS[args.seed % len(workloads.REFERENCE_SEEDS)]
    ref_pool = pool if ref_seed == args.seed else workload.pool(ref_seed, tmpdir)
    warm = args.seed % len(ref_pool)
    runner.execute(ref_pool[warm], references[ref_seed][warm], None, speed.Probe("after"))

    seconds = args.seconds / 2 if args.trace else args.seconds
    timed = runner.phase(pool, workload.cycle, seconds, args.max_jobs,
                         speed.Probe(workload.probe_mode))
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "setup_s": setup_s,
        "timed": timed,
        "peak_rss_kb": self_kb + children_kb,
        "context": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "openblas": blas_version(np),
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "sweep_workers": workloads.SweepPool.workers(),
            "probe_mode": workload.probe_mode,
            "probe_nominal_chunk_s": speed.NOMINAL_CHUNK_S,
        },
    }

    if args.trace:
        import tracer as tracing

        cell_dir = tmpdir / "cells"
        cell_dir.mkdir(exist_ok=True)
        tr = tracing.Tracer()
        tr.install()
        tracing.activate(tr, cell_dir)
        try:
            # the probe's chunks must not land inside traced spans
            traced = runner.phase(pool, workload.cycle, seconds, args.max_jobs,
                                  speed.Probe("after"), tracer=tr)
        finally:
            tracing.deactivate()
            tr.uninstall()
        tracing.collect_cells(tr, cell_dir)
        spans_path = tmpdir.parent / f"spans_{args.workload}_seed{args.seed}.jsonl"
        tr.write_spans(spans_path)
        result["traced"] = traced
        result["layers"] = tr.stats
        result["project_moved"] = tr.project_moved
        result["spans_path"] = str(spans_path)

    result.update(attempted=runner.attempted, failed=runner.failed, compared=runner.compared,
                  bitwise=runner.bitwise, problems=runner.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
