"""regretforge benchmark: one workload run, or a tiny self-check of every workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hinted_small_d --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --selfcheck

A run times set-up in fresh interpreters before and after the workload
process. The workload runs in one more fresh interpreter (``worker.py``):
an untimed warm-up job, then jobs back to back for ``--seconds``. With
``--trace 1`` half of the time is untraced and half traced, and the
per-layer metrics are reported instead of the end-to-end ones. Every time
is corrected for the machine's speed measured beside it (``speed.py``);
the uncorrected figures go into the run context. Every job's output is
checked. The last line of standard output is the JSON result;
the line before it holds the run context. This file uses the standard
library only: numpy and the library are imported by the worker processes
alone.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
SCRATCH = ROOT / ".perfbench"

#: fresh interpreters timed for set-up, before and after the workload; setup_s is their median
SETUP_RUNS = 9
CHILD_TIMEOUT_S = 170

#: layers that must record calls on a workload; zero calls there fails the traced run
LARGE_ON = {
    "hinted_small_d": ["core.validate", "learners.bettor", "learners.learner",
                       "geometry.project", "combinators.hinted", "combinators.tilde_hint",
                       "hints.source", "harness.generate_stream", "harness.build_learner",
                       "harness.drive", "harness.report"],
    "multinorm_d1024": ["learners.direction", "learners.learner", "geometry.p_norm",
                        "combinators.add", "harness.generate_stream", "harness.build_learner"],
    "bernstein_mc": ["core.validate", "core.replay", "learners.bettor", "learners.learner",
                     "combinators.hinted", "hints.source", "concentration.draw",
                     "concentration.learner_radius"],
    "sweep_pool": ["learners.learner", "combinators.add", "harness.run_sweep",
                   "harness.write_csv", "cli"],
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_checkout() -> None:
    needed = [ROOT / "src" / "regretforge" / "__init__.py",
              ROOT / "configs" / "optimistic_run.json",
              ROOT / "configs" / "multihint_run.json",
              ROOT / "configs" / "sweep.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError(f"not a regretforge checkout, missing: {', '.join(missing)}")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # one BLAS thread per process, in the benchmark's own processes only
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # the CLI would otherwise replace the sweep's derived seeds
    env.pop("REGRETFORGE_SEED", None)
    return env


def run_child(args: list) -> dict:
    proc = subprocess.run([sys.executable, str(WORKER)] + args, env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def loadavg_1m() -> float:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return float(fh.read().split()[0])
    except OSError:
        return float(os.getloadavg()[0])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quantile(values: list, q: int) -> float:
    """q-th decile (inclusive method); the value itself for a single sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def corrected_times(phase: dict, nominal_chunk_s: float) -> list:
    """Job seconds on a machine where one probe chunk takes ``nominal_chunk_s`` (see speed.py)."""
    return [t * nominal_chunk_s / c for t, c in zip(phase["times_s"], phase["chunk_s"])]


def end_to_end(raw: dict, setups: list) -> dict:
    timed = raw["timed"]
    times = corrected_times(timed, raw["context"]["probe_nominal_chunk_s"])
    return {
        "setup_s": statistics.median(setups),
        "rounds_per_s": timed["rounds"] / sum(times),
        "job_ms_p50": statistics.median(times) * 1e3,
        "job_ms_p90": quantile(times, 9) * 1e3,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "ok_frac": (raw["attempted"] - raw["failed"]) / raw["attempted"],
    }


def wall_clock(phase: dict) -> dict:
    """The uncorrected figures of a phase, for the run context.

    ``phase_s`` is the phase's whole wall time, with the probe's chunks and
    the output checks.
    """
    times = phase["times_s"]
    return {"phase_s": phase["wall_s"], "rounds_per_s": phase["rounds"] / sum(times),
            "job_ms_p50": statistics.median(times) * 1e3,
            "job_ms_p90": quantile(times, 9) * 1e3,
            "probe_chunk_ms_p50": statistics.median(phase["chunk_s"]) * 1e3}


def per_layer(raw: dict, names: list) -> dict:
    """Per-layer metrics of the traced phase, normalised per learner round.

    Times are corrected with the traced phase's probe, like the end-to-end ones.
    """
    nominal = raw["context"]["probe_nominal_chunk_s"]
    layers = raw["layers"]
    traced = raw["traced"]
    rounds = traced["rounds"]
    traced_s = sum(corrected_times(traced, nominal))
    scale = traced_s / sum(traced["times_s"])
    untraced_rps = raw["timed"]["rounds"] / sum(corrected_times(raw["timed"], nominal))
    out = {}
    for name in names:
        if name == "trace.overhead_ratio":
            out[name] = (rounds / traced_s) / untraced_rps
            continue
        if name == "geometry.project.moved_ratio":
            calls = layers.get("geometry.project", [0])[0]
            out[name] = raw["project_moved"] / calls if calls else 0.0
            continue
        layer, _, field = name.rpartition(".")
        calls, self_s, total_s = layers.get(layer, [0, 0.0, 0.0])
        value = {"calls": calls, "self_s": self_s * scale, "wall_s": total_s * scale}[field]
        out[name] = value / rounds
    return out


def silent_layers(workload: str, raw: dict) -> list:
    layers = raw["layers"]
    return [layer for layer in LARGE_ON[workload] if layers.get(layer, [0])[0] == 0]


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int,
                 max_jobs: int = 0, setup_runs: int = SETUP_RUNS) -> tuple:
    """(result, context) for one run; result is the JSON object printed last."""
    SCRATCH.mkdir(exist_ok=True)
    tmpdir = SCRATCH / f"tmp_{os.getpid()}_{workload}"
    tmpdir.mkdir()
    load_before = loadavg_1m()
    try:
        common = ["--workload", workload, "--seed", str(seed), "--tmpdir", str(tmpdir)]

        wall_setups = []

        def time_setups(count):
            """Set-up seconds of fresh interpreters, corrected by the probe like job times."""
            out = []
            for _ in range(count):
                r = run_child(common + ["--setup"])
                wall_setups.append(r["setup_s"])
                out.append(r["setup_s"] * r["nominal_chunk_s"] / r["chunk_s"])
            return out

        # Set-up is timed on both sides of the workload process, so that its
        # median spans the run rather than one moment of a shared machine.
        before = 0 if trace else (setup_runs + 1) // 2
        setups = time_setups(before)
        raw = run_child(common + ["--seconds", repr(seconds), "--trace", str(trace),
                                  "--max-jobs", str(max_jobs)])
        if not trace:
            setups += time_setups(setup_runs - before)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    failed = raw["failed"]
    correct = failed == 0
    context = dict(raw["context"])
    context.update(
        workload=workload, seed=seed, seconds=seconds, trace=trace,
        nproc=os.cpu_count(), cpus_allowed=len(os.sched_getaffinity(0)),
        cpu_model=cpu_model(), git_commit=git_commit(),
        loadavg_1m_before=load_before, loadavg_1m_after=loadavg_1m(),
        jobs=len(raw["timed"]["times_s"]), wall_clock=wall_clock(raw["timed"]),
        compared=raw["compared"], bitwise=raw["bitwise"],
        problems=raw["problems"],
    )
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = per_layer(raw, names)
        silent = silent_layers(workload, raw)
        context.update(traced_jobs=len(raw["traced"]["times_s"]), silent_layers=silent,
                       spans_path=os.path.relpath(raw["spans_path"], ROOT))
        correct = correct and not silent
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = end_to_end(raw, setups)
        context["setup_runs_s"] = setups
        context["wall_clock"]["setup_s"] = statistics.median(wall_setups)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": correct, "attempted": raw["attempted"], "failed": failed,
              "metrics": metrics}
    return result, context


def selfcheck(spec: dict) -> int:
    """Every workload with a handful of jobs, untraced and traced; non-zero on any failure."""
    bad = 0
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            result, context = run_workload(spec, name, 0, 1.0, trace,
                                           max_jobs=2, setup_runs=1)
            print(f"[{name} trace={trace}] correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric} = {m['value']:.6g} {m['unit']}")
            for problem in context["problems"] + [f"silent layer {s}" for s in
                                                  context.get("silent_layers", [])]:
                print(f"  FAIL {problem}")
            bad += not result["correct"]
    print("selfcheck:", "FAIL" if bad else "ok")
    return 1 if bad else 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true",
                   help="run every workload with a handful of jobs and check it")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not args.selfcheck and args.workload is None:
        p.error("--workload is required")
    try:
        check_checkout()
        if args.selfcheck:
            return selfcheck(spec)
        started = time.perf_counter()
        result, context = run_workload(spec, args.workload, args.seed, args.seconds,
                                       args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    context["run_wall_s"] = time.perf_counter() - started
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
