"""Workload definitions: the jobs each workload runs and how their outputs are checked.

A workload turns the benchmark's workload seed into a fixed pool of jobs.
The timed loop runs the pool round-robin, one job after another (a closed
loop with one caller), so every job of a run has a known identity and can
be compared against stored reference outputs or against its own first
execution in the same run.

Every stream seed is derived from the workload seed by ``stream_seed``.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from regretforge import cli, concentration, harness

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: the default workload seed and the held-out seed whose outputs are stored
REFERENCE_SEEDS = (0, 1)

# Regret at the origin may exceed the declared budget by at most this much
# per round (summation error), the tolerance the acceptance checks use.
ORIGIN_SLACK_PER_ROUND = 1e-9
DOMAIN_TOL = 1e-9
# Outputs that are not bitwise equal to the reference must agree to this
# relative tolerance; magnitudes below 1 are compared as if they were 1.
REL_TOL = 1e-12

BERNSTEIN_DELTA = 0.05
BERNSTEIN_T = 1024
BERNSTEIN_TRIALS = 60
BERNSTEIN_DIM = 4


def stream_seed(workload_seed: int, index: int) -> int:
    """Seed of pool entry ``index``; blocks of 100 leave room for per-trial seeds."""
    return workload_seed * 1000 + index * 100


@dataclass
class Output:
    """Comparable job output: named columns and rows of str/float values."""

    columns: list
    rows: list

    def to_json(self) -> dict:
        return {"columns": self.columns, "rows": self.rows}


@dataclass
class Job:
    key: str
    rounds: int
    run: Callable[[], tuple]                  # -> (Output, extra)
    check: Callable[[Output, object], list]   # (Output, extra) -> problems


def _rows_output(rows: list) -> Output:
    columns = [c for c in rows[0] if c != "wallclock_ms"]
    return Output(columns, [[_plain(r[c]) for c in columns] for r in rows])


def _plain(v):
    if isinstance(v, str):
        return v
    return float(v)


def _csv_output(path) -> Output:
    with open(path, newline="", encoding="utf-8") as fh:
        records = list(csv.DictReader(fh))
    columns = [c for c in records[0] if c != "wallclock_ms"]
    rows = []
    for r in records:
        row = []
        for c in columns:
            try:
                row.append(float(r[c]))
            except ValueError:
                row.append(r[c])
        rows.append(row)
    return Output(columns, rows)


def compare(got: Output, ref: Output) -> tuple:
    """(problems, bitwise) comparing ``got`` with ``ref``."""
    if got.columns != ref.columns:
        return [f"columns {got.columns} != reference {ref.columns}"], False
    if len(got.rows) != len(ref.rows):
        return [f"{len(got.rows)} rows != reference {len(ref.rows)}"], False
    bitwise = True
    for i, (a_row, b_row) in enumerate(zip(got.rows, ref.rows)):
        for col, a, b in zip(got.columns, a_row, b_row):
            if a == b:
                continue
            bitwise = False
            if isinstance(a, str) or isinstance(b, str):
                return [f"row {i} {col}: {a!r} != reference {b!r}"], False
            if abs(a - b) > REL_TOL * max(1.0, abs(a), abs(b)):
                return [f"row {i} {col}: {a!r} != reference {b!r}"], False
    return [], bitwise


def _origin_regret_problems(out: Output, epsilon: Optional[float]) -> list:
    """Regret at the origin is the cumulative loss; it must stay within epsilon."""
    if epsilon is None:
        return ["root declares no origin budget"]
    t_col = out.columns.index("T")
    loss_col = out.columns.index("cum_loss")
    for row in out.rows:
        T, cum_loss = row[t_col], row[loss_col]
        if not cum_loss <= epsilon + ORIGIN_SLACK_PER_ROUND * T:
            return [f"regret at origin {cum_loss!r} > epsilon {epsilon} at T={T:g}"]
    return []


def _domain_problems(domain: dict, iterates: np.ndarray) -> list:
    if domain["kind"] == "ball":
        center = np.asarray(domain.get("center", np.zeros(iterates.shape[1])), dtype=float)
        dist = np.linalg.norm(iterates - center, axis=1) - float(domain["radius"])
    else:
        lo = np.asarray(domain["lo"], dtype=float)
        hi = np.asarray(domain["hi"], dtype=float)
        dist = np.maximum(lo - iterates, iterates - hi).max(axis=1)
    worst = float(dist.max())
    if not worst <= DOMAIN_TOL:
        return [f"iterate {int(dist.argmax())} lies {worst:.3g} outside the domain"]
    return []


def _declared_epsilon(cfg: dict) -> Optional[float]:
    stream = cfg["stream"]
    dim, T = int(stream["dim"]), int(stream["T"])
    # a zero stream stands in for "perfect" hints; only the root's budget is read
    built = harness.build_learner(cfg["learner"], dim, stream=np.zeros((T, dim)))
    return built.learner.epsilon


def _experiment_job(key: str, cfg: dict, keep_record: bool) -> Job:
    epsilon = _declared_epsilon(cfg)
    domain = cfg["learner"].get("domain") if cfg["learner"]["kind"] == "constrained" else None

    def run():
        if keep_record:
            rows, record = harness.run_experiment(cfg, keep_record=True)
            return _rows_output(rows), record.iterates
        return _rows_output(harness.run_experiment(cfg)), None

    def check(out, iterates):
        problems = _origin_regret_problems(out, epsilon)
        if domain is not None:
            problems += _domain_problems(domain, iterates)
        return problems

    return Job(key, int(cfg["stream"]["T"]), run, check)


def _load_config(name: str) -> dict:
    with open(ROOT / "configs" / name, encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg.pop("output", None)
    return cfg


class Workload:
    name = ""
    #: jobs per cycle of distinct job shapes; every phase ends on a cycle boundary
    cycle = 1
    #: when the speed probe runs in the timed phase: "during" jobs that run in
    #: this process, "after" jobs whose work runs in child processes
    probe_mode = "during"

    def pool(self, seed: int, tmpdir: Path) -> list:
        raise NotImplementedError

    def setup(self, seed: int, tmpdir: Path) -> None:
        """Build the first job's inputs, as the start of a job would."""
        raise NotImplementedError


def _build_first_inputs(cfg: dict) -> None:
    spec = harness.StreamSpec.from_config(cfg["stream"])
    G = harness.generate_stream(spec)
    harness.build_learner(cfg["learner"], spec.dim, stream=G)


class HintedSmallD(Workload):
    """Optimistic, multi-hint and constrained roots at small d, one stream per job."""

    name = "hinted_small_d"
    cycle = 6

    @staticmethod
    def configs(seed: int) -> list:
        optimistic = _load_config("optimistic_run.json")
        multihint = _load_config("multihint_run.json")
        constrained = {
            "experiment_id": "constrained_last_gradient",
            "learner": {
                "kind": "constrained",
                "base": {"kind": "dimfree", "epsilon": 0.25},
                "bettor_epsilon": 0.25,
                "hints": {"kind": "last_gradient"},
            },
            "stream": {"kind": "biased", "dim": 8, "T": 1024,
                       "mu": [0.3, 0.1] + [0.0] * 6, "noise": 0.5},
            "comparators": [{"kind": "origin"}, {"kind": "best_in_ball", "radius": 0.5}],
        }
        ball = {"kind": "ball", "radius": 0.5}
        box = {"kind": "box", "lo": [-0.3] * 8, "hi": [0.3] * 8}
        shapes = [optimistic, multihint, constrained, optimistic, multihint, constrained]
        out = []
        for i, base in enumerate(shapes):
            cfg = copy.deepcopy(base)
            cfg["stream"]["seed"] = stream_seed(seed, i)
            if cfg["learner"]["kind"] == "constrained":
                cfg["learner"]["domain"] = ball if i < 3 else box
            out.append(cfg)
        return out

    def pool(self, seed, tmpdir):
        return [_experiment_job(f"{c['experiment_id']}#{i}", c, keep_record=True)
                for i, c in enumerate(self.configs(seed))]

    def setup(self, seed, tmpdir):
        _build_first_inputs(self.configs(seed)[0])


class MultiNormD1024(Workload):
    """multi_norm over four grid exponents on a sparse d=1024 stream."""

    name = "multinorm_d1024"
    pool_size = 4

    @staticmethod
    def config(seed: int, index: int) -> dict:
        return {
            "experiment_id": "multi_norm_sparse",
            "learner": {"kind": "multi_norm", "epsilon": 1.0},
            "stream": {"kind": "sparse", "dim": 1024, "T": 256, "k_active": 8,
                       "seed": stream_seed(seed, index)},
            "comparators": [{"kind": "origin"}, {"kind": "best_in_ball", "radius": 1.0}],
        }

    def pool(self, seed, tmpdir):
        return [_experiment_job(f"multi_norm#{i}", self.config(seed, i), keep_record=False)
                for i in range(self.pool_size)]

    def setup(self, seed, tmpdir):
        _build_first_inputs(self.config(seed, 0))


class BernsteinMC(Workload):
    """Via-learner coverage experiments: many short streams through replay_hinted."""

    name = "bernstein_mc"

    @staticmethod
    def config(seed: int, index: int) -> "concentration.BernsteinConfig":
        presets = concentration.SAMPLER_PRESETS
        return concentration.BernsteinConfig(
            delta=BERNSTEIN_DELTA, T=BERNSTEIN_T, sampler=presets[index % len(presets)],
            trials=BERNSTEIN_TRIALS, seed=stream_seed(seed, index), dim=BERNSTEIN_DIM,
            via_learner=True,
        )

    def pool(self, seed, tmpdir):
        delta, trials = BERNSTEIN_DELTA, BERNSTEIN_TRIALS
        # the CLI's own pass rule for a coverage run
        bound = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / trials)

        def job(index):
            cfg = self.config(seed, index)

            def run():
                res = concentration.coverage_experiment(cfg)
                out = Output(["failure_rate", "mean_radius"],
                             [[float(res.failure_rate), float(res.mean_radius)]])
                return out, None

            def check(out, _):
                failure_rate, mean_radius = out.rows[0]
                problems = []
                if not failure_rate <= bound:
                    problems.append(f"failure_rate {failure_rate} > {bound:.6f}")
                if not (math.isfinite(mean_radius) and mean_radius > 0.0):
                    problems.append(f"mean_radius {mean_radius!r} is not positive")
                return problems

            return Job(f"{cfg.sampler}#{index}", cfg.trials * cfg.T, run, check)

        return [job(i) for i in range(len(concentration.SAMPLER_PRESETS))]

    def setup(self, seed, tmpdir):
        cfg = self.config(seed, 0)
        sampler = concentration.make_sampler(cfg.sampler, cfg.dim)
        sampler.draw(np.random.default_rng(cfg.seed), cfg.T)


class SweepPool(Workload):
    """``regretforge sweep`` through the CLI with a two-process pool."""

    name = "sweep_pool"
    pool_size = 2
    probe_mode = "after"

    @staticmethod
    def config(seed: int, index: int) -> dict:
        cfg = _load_config("sweep.json")
        offset = stream_seed(seed, index)
        cfg["sweep"]["seeds"] = [offset + s for s in cfg["sweep"]["seeds"]]
        cfg["stream"]["seed"] = offset
        return cfg

    @staticmethod
    def workers() -> int:
        return min(2, os.cpu_count() or 1)

    def pool(self, seed, tmpdir):
        jobs = []
        for index in range(self.pool_size):
            cfg = self.config(seed, index)
            config_path = tmpdir / f"sweep_{seed}_{index}.json"
            csv_path = tmpdir / f"sweep_{seed}_{index}.csv"
            config_path.write_text(json.dumps(cfg), encoding="utf-8")
            epsilon = _declared_epsilon(cfg)
            Ts, seeds = cfg["sweep"]["T"], cfg["sweep"]["seeds"]
            cells = {f"{cfg['experiment_id']}_T{T}_s{s}" for T in Ts for s in seeds}
            argv = ["sweep", "--config", str(config_path), "--output", str(csv_path),
                    "--workers", str(self.workers())]

            def run(argv=argv, csv_path=csv_path):
                if csv_path.exists():
                    csv_path.unlink()
                code = cli.cli_main(argv)
                if code != 0:
                    raise RuntimeError(f"regretforge sweep exited {code}")
                return _csv_output(csv_path), None

            def check(out, _, epsilon=epsilon, cells=cells):
                problems = _origin_regret_problems(out, epsilon)
                got = {row[0] for row in out.rows}
                if got != cells:
                    problems.append(f"cells {sorted(got)} != expected {sorted(cells)}")
                return problems

            jobs.append(Job(f"sweep#{index}", sum(Ts) * len(seeds), run, check))
        return jobs

    def setup(self, seed, tmpdir):
        cfg = self.config(seed, 0)
        cfg["stream"]["T"] = cfg["sweep"]["T"][0]
        _build_first_inputs(cfg)


WORKLOADS = {w.name: w for w in (HintedSmallD(), MultiNormD1024(), BernsteinMC(), SweepPool())}


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    """{seed: [Output per pool entry]} for the stored reference seeds."""
    with open(reference_path(workload), encoding="utf-8") as fh:
        raw = json.load(fh)
    return {int(seed): [Output(o["columns"], o["rows"]) for o in outs]
            for seed, outs in raw.items()}
