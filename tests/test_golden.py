"""Golden output: `run` on every shipped config and `sweep` keep their rows.

``tests/golden/config_rows.json`` holds the rows (every column but
``wallclock_ms``) that ``regretforge run --config configs/<name>`` and
``regretforge sweep --config configs/sweep.json`` wrote before the stream
check moved ahead of the round loop. A fresh row must equal its golden row
bitwise: each float by its repr, which round-trips exactly and keeps the
sign of a zero.

``tests/golden/multi_norm_rows.json`` holds the rows of ``run_experiment`` for
``multi_norm`` on sparse d = 1024 rows (two seeds) and on dense d = 64 rows,
each with a sha256 of the run's (T, d) iterates, from before the p < 2 grid
step updated only g's nonzero columns. No shipped config runs ``multi_norm``.

``tests/golden/constrained_rows.json`` holds the rows of ``run_experiment`` for the
constrained root over a centred and an off-centre ``Ball``, a ``Box`` and ``WholeSpace``,
with ``last_gradient`` and ``running_average`` hints on a ``biased`` and a ``sparse`` stream
(and ``adversarial_negate`` on the sparse one, whose hints hold -0.0), each with a sha256 of
the run's iterates and of its per-round losses, and how many rounds took each ``tilde_hint``
branch, from before the constrained round read a plan of its stream-only values.

``tests/golden/bernstein_learner.txt`` holds the standard output of
``regretforge bernstein --via-learner --delta 0.05 --T 256 --trials 40
--seed 3`` (all three samplers) from before via-learner blocks grew to
1 MiB; a fresh run must print it byte for byte.
"""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from regretforge import combinators

from regretforge.cli import cli_main
from regretforge.harness import run_experiment

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).resolve().parent / "golden" / "config_rows.json")
                   .read_text(encoding="utf-8"))


def _rows(path):
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
    return {"columns": columns, "rows": rows}


def _assert_matches(got, ref):
    assert got["columns"] == ref["columns"]
    assert len(got["rows"]) == len(ref["rows"])
    for i, (a_row, b_row) in enumerate(zip(got["rows"], ref["rows"])):
        for col, a, b in zip(got["columns"], a_row, b_row):
            assert repr(a) == repr(b), (i, col, a, b)


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "configs").glob("*.json")))
def test_run_rows_match_golden(tmp_path, name):
    out = tmp_path / "rows.csv"
    assert cli_main(["run", "--config", str(ROOT / "configs" / name), "--output", str(out)]) == 0
    _assert_matches(_rows(out), GOLDEN[f"run/{name}"])


def test_sweep_rows_match_golden_with_one_and_two_workers(tmp_path):
    got = {}
    for workers in (1, 2):
        out = tmp_path / f"sweep{workers}.csv"
        argv = ["sweep", "--config", str(ROOT / "configs" / "sweep.json"),
                "--output", str(out), "--workers", str(workers)]
        assert cli_main(argv) == 0
        got[workers] = _rows(out)
    assert got[1] == got[2]
    _assert_matches(got[1], GOLDEN["sweep/sweep.json"])


def test_every_shipped_config_has_golden_rows():
    names = {f"run/{p.name}" for p in (ROOT / "configs").glob("*.json")}
    assert names | {"sweep/sweep.json"} == set(GOLDEN)


def test_bernstein_via_learner_output_matches_golden(monkeypatch, capsys):
    monkeypatch.delenv("REGRETFORGE_SEED", raising=False)
    argv = ["bernstein", "--via-learner", "--delta", "0.05", "--T", "256",
            "--trials", "40", "--seed", "3"]
    assert cli_main(argv) == 0
    golden = (Path(__file__).resolve().parent / "golden" / "bernstein_learner.txt").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == golden


MULTI_NORM_CASES = {
    f"sparse_d1024_seed{seed}": {"kind": "sparse", "dim": 1024, "T": 256, "k_active": 8,
                                 "seed": seed} for seed in (11, 12)
}
MULTI_NORM_CASES["gaussian_clipped_d64"] = {"kind": "gaussian_clipped", "dim": 64, "T": 400,
                                            "seed": 13}


def _multi_norm_rows(stream):
    config = {"experiment_id": "multi_norm", "learner": {"kind": "multi_norm", "epsilon": 1.0},
              "stream": stream,
              "comparators": [{"kind": "origin"}, {"kind": "best_in_ball", "radius": 1.0}]}
    rows, record = run_experiment(config, keep_record=True)
    columns = [c for c in rows[0] if c != "wallclock_ms"]
    return {"columns": columns, "rows": [[r[c] for c in columns] for r in rows],
            "iterates_sha256": hashlib.sha256(record.iterates.tobytes()).hexdigest()}


@pytest.mark.parametrize("case", sorted(MULTI_NORM_CASES))
def test_multi_norm_rows_match_golden(case):
    golden = json.loads((Path(__file__).resolve().parent / "golden" / "multi_norm_rows.json")
                        .read_text(encoding="utf-8"))
    got = _multi_norm_rows(MULTI_NORM_CASES[case])
    _assert_matches(got, golden[case])
    assert got["iterates_sha256"] == golden[case]["iterates_sha256"]


CONSTRAINED_STREAMS = {
    "biased": {"kind": "biased", "dim": 8, "T": 300, "mu": [0.3, 0.1] + [0.0] * 6,
               "noise": 0.5, "seed": 21},
    "sparse": {"kind": "sparse", "dim": 8, "T": 300, "k_active": 2, "seed": 22},
}
CONSTRAINED_DOMAINS = {
    "ball": {"kind": "ball", "radius": 0.5},
    "ball_off_centre": {"kind": "ball", "center": [0.2, -0.1, 0.05, 0.0, 0.0, 0.1, 0.0, -0.2],
                        "radius": 0.3},
    "box": {"kind": "box", "lo": [-0.3, -0.1, -0.2, -0.3, -0.05, -0.3, -0.3, -0.3],
            "hi": [0.3, 0.2, 0.1, 0.3, 0.3, 0.05, 0.3, 0.3]},
    "whole_space": {"kind": "whole_space"},
}
CONSTRAINED_CASES = {
    f"{stream}_{hint}_{domain}": (stream, hint, domain)
    for stream in CONSTRAINED_STREAMS for hint in ("last_gradient", "running_average")
    for domain in CONSTRAINED_DOMAINS}
CONSTRAINED_CASES.update({f"sparse_adversarial_negate_{domain}": ("sparse", "adversarial_negate",
                                                                  domain)
                          for domain in CONSTRAINED_DOMAINS})


def _constrained_rows(monkeypatch, stream, hint, domain):
    """The run's rows and hashes, and how many rounds took each tilde_hint branch: inside
    (distance 0), rescale (the hinted move overshoots the distance) or outside (neither)."""
    branches = {"inside": 0, "outside": 0, "rescale": 0}
    original = combinators.tilde_hint

    def counted(dom, x, y, h, *rest, **kwargs):
        dist = dom.distance(x - 0.5 * y * h)
        yh = y * float(np.linalg.norm(h))
        branches["inside" if dist == 0.0 else "rescale" if yh > 1e-12 and 0.5 * yh > dist
                 else "outside"] += 1
        return original(dom, x, y, h, *rest, **kwargs)

    monkeypatch.setattr(combinators, "tilde_hint", counted)
    config = {"experiment_id": "constrained",
              "learner": {"kind": "constrained", "base": {"kind": "dimfree", "epsilon": 0.25},
                          "bettor_epsilon": 0.25, "hints": {"kind": hint},
                          "domain": CONSTRAINED_DOMAINS[domain]},
              "stream": CONSTRAINED_STREAMS[stream],
              "comparators": [{"kind": "origin"}, {"kind": "best_in_ball", "radius": 0.5}]}
    rows, record = run_experiment(config, keep_record=True)
    columns = [c for c in rows[0] if c != "wallclock_ms"]
    # the bettor columns are NumPy floats; float() keeps their bits
    rows = [[float(v) if isinstance(v, np.floating) else v for v in map(r.get, columns)]
            for r in rows]
    return {"columns": columns, "rows": rows,
            "iterates_sha256": hashlib.sha256(record.iterates.tobytes()).hexdigest(),
            "losses_sha256": hashlib.sha256(record.losses.tobytes()).hexdigest(),
            "branches": branches}


@pytest.mark.parametrize("case", sorted(CONSTRAINED_CASES))
def test_constrained_rows_match_golden(monkeypatch, case):
    golden = json.loads((Path(__file__).resolve().parent / "golden" / "constrained_rows.json")
                        .read_text(encoding="utf-8"))
    got = _constrained_rows(monkeypatch, *CONSTRAINED_CASES[case])
    _assert_matches(got, golden[case])
    for key in ("iterates_sha256", "losses_sha256", "branches"):
        assert got[key] == golden[case][key], key


def test_constrained_golden_reaches_every_tilde_hint_branch():
    golden = json.loads((Path(__file__).resolve().parent / "golden" / "constrained_rows.json")
                        .read_text(encoding="utf-8"))
    assert set(golden) == set(CONSTRAINED_CASES)
    for branch in ("inside", "outside", "rescale"):
        assert sum(case["branches"][branch] for case in golden.values()) > 0, branch
