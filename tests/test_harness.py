"""Streams, composition building, the experiment runner, CSV, and the CLI."""

import concurrent.futures
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from regretforge import (
    CoinBettor,
    CompositionError,
    PerCoordinateLearner,
    StreamSpec,
    fit_slope,
    generate_stream,
)
from regretforge.cli import cli_main
from regretforge.harness import (
    build_learner,
    capped_bettors,
    checkpoints,
    comparator_id,
    dump_ledger,
    run_experiment,
    run_sweep,
    write_csv,
)
from conftest import read_csv, resolve_comparator


def spec(kind, dim=4, T=64, seed=0, **params):
    return StreamSpec(kind, dim, T, seed, params)


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,params", [
    ("rademacher_iid", {}),
    ("gaussian_clipped", {"sigma": 0.7}),
    ("slowly_varying", {"step_size": 0.1}),
    ("sparse", {"k_active": 2}),
    ("biased", {"mu": [0.2, 0, 0, 0], "noise": 0.4}),
    ("zero", {}),
])
def test_streams_unit_bounded_and_deterministic(kind, params):
    a = generate_stream(spec(kind, **params))
    b = generate_stream(spec(kind, **params))
    assert np.array_equal(a, b)
    assert a.shape == (64, 4)
    assert np.all(np.linalg.norm(a, axis=1) <= 1.0 + 1e-12)
    c = generate_stream(spec(kind, seed=1, **params))
    if kind != "zero":
        assert not np.array_equal(a, c)


@pytest.mark.parametrize("step_size", [None, 0.1])
def test_every_stream_kind_is_empty_at_T_0(step_size):
    from regretforge.harness import TABLE

    for kind in TABLE["stream"]:
        params = {} if step_size is None or kind != "slowly_varying" else {"step_size": step_size}
        assert generate_stream(spec(kind, T=0, **params)).shape == (0, 4)


def test_slowly_varying_steps_are_small():
    G = generate_stream(spec("slowly_varying", T=256, step_size=0.01))
    diffs = np.linalg.norm(np.diff(G, axis=0), axis=1)
    assert np.median(diffs) < 0.05


def test_stream_config_errors():
    with pytest.raises(CompositionError):
        StreamSpec.from_config({"kind": "rademacher_iid", "dim": 4})
    with pytest.raises(CompositionError):
        StreamSpec.from_config({"kind": "levy", "dim": 4, "T": 10})


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_build_plain_learners():
    for cfg in (
        {"kind": "dimfree", "epsilon": 0.5},
        {"kind": "percoord"},
        {"kind": "multi_norm"},
        {"kind": "add", "children": [{"kind": "dimfree"}, {"kind": "percoord"}]},
        {"kind": "apd", "domain": {"kind": "ball", "radius": 1.0}},
    ):
        built = build_learner(cfg, dim=8)
        assert built.learner.dim == 8
        assert built.hint_sources is None


def test_build_hinted_learners():
    stream = np.zeros((16, 4))
    opt = build_learner(
        {"kind": "optimistic", "hints": {"kind": "last_gradient"}}, 4, stream
    )
    assert opt.hint_sources is not None
    assert len(opt.bettors) == 1
    mh = build_learner(
        {"kind": "multi_hint", "hints": [{"kind": "zero"}, {"kind": "perfect"}]},
        4,
        stream,
    )
    assert isinstance(mh.hint_sources, list) and len(mh.hint_sources) == 2
    assert len(mh.bettors) == 2


def test_composition_errors_name_the_path():
    with pytest.raises(CompositionError, match="learner.children\\[1\\]"):
        build_learner(
            {"kind": "add", "children": [{"kind": "dimfree"}, {"kind": "what"}]}, 4
        )
    with pytest.raises(CompositionError, match="optimistic learner requires a hint"):
        build_learner({"kind": "optimistic"}, 4)
    with pytest.raises(CompositionError, match="constrained learner requires a domain"):
        build_learner({"kind": "constrained", "hints": {"kind": "zero"}}, 4)
    with pytest.raises(CompositionError, match="root"):
        build_learner(
            {"kind": "add", "children": [{"kind": "dimfree"},
                                         {"kind": "optimistic", "hints": {"kind": "zero"}}]},
            4,
        )
    with pytest.raises(CompositionError, match="1-D"):
        build_learner({"kind": "coin"}, 4)
    with pytest.raises(CompositionError, match="bounded"):
        build_learner({"kind": "apd", "domain": {"kind": "whole_space"}}, 4)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def test_checkpoints():
    assert checkpoints(8) == [1, 2, 4, 8]
    assert checkpoints(12) == [1, 2, 4, 8, 12]


def test_run_experiment_zero_stream():
    rows = run_experiment({
        "experiment_id": "zero",
        "learner": {"kind": "dimfree"},
        "stream": {"kind": "zero", "dim": 3, "T": 16},
        "comparators": [{"kind": "origin"}],
    })
    assert all(r["regret"] == 0.0 for r in rows)
    assert [r["T"] for r in rows] == [1, 2, 4, 8, 16]


def test_run_experiment_origin_budget():
    rows = run_experiment({
        "learner": {"kind": "dimfree", "epsilon": 1.0},
        "stream": {"kind": "rademacher_iid", "dim": 4, "T": 256, "seed": 2},
        "comparators": [{"kind": "origin"}],
    })
    assert all(r["regret"] <= 1.0 + 1e-6 for r in rows)


def test_best_in_ball_closed_form():
    gsum = np.array([3.0, 4.0])
    u = resolve_comparator({"kind": "best_in_ball", "radius": 2.0}, 2, gsum, "c")
    assert np.allclose(u, [-1.2, -1.6])
    assert resolve_comparator({"kind": "best_in_ball"}, 2, np.zeros(2), "c").tolist() == [0.0, 0.0]
    u2 = resolve_comparator({"kind": "scaled_unit", "r": 2.0, "direction": [0, 3]}, 2, gsum, "c")
    assert np.allclose(u2, [0.0, 2.0])
    assert comparator_id({"kind": "best_in_ball", "radius": 2.0}, 0) == "best_in_ball_r2.0"


def test_best_in_ball_maximizes_regret(rng):
    rows, record = run_experiment({
        "learner": {"kind": "percoord"},
        "stream": {"kind": "rademacher_iid", "dim": 4, "T": 64, "seed": 5},
        "comparators": [{"kind": "best_in_ball", "radius": 1.0}],
    }, keep_record=True)
    final = [r for r in rows if r["T"] == 64][0]
    gsum = record.gradients.sum(axis=0)
    for _ in range(50):
        u = rng.standard_normal(4)
        u /= max(1.0, np.linalg.norm(u))
        manual = final["cum_loss"] - float(gsum @ u)
        assert manual <= final["regret"] + 1e-9


def test_hint_columns_and_bettor_columns():
    rows = run_experiment({
        "learner": {
            "kind": "multi_hint",
            "base": {"kind": "dimfree", "epsilon": 0.25},
            "bettor_epsilon": 0.25,
            "hints": [{"kind": "perfect"}, {"kind": "adversarial_negate"},
                      {"kind": "running_average"}],
        },
        "stream": {"kind": "rademacher_iid", "dim": 4, "T": 128, "seed": 1},
        "comparators": [{"kind": "origin"}],
    })
    for i in range(3):
        assert f"bettor{i}_regret_at0" in rows[0]
    # bettor columns are per-checkpoint running values and stay within budget
    assert all(r["bettor1_regret_at0"] <= 0.25 + 1e-6 for r in rows)
    by_T = {r["T"]: r for r in rows}
    assert by_T[1]["bettor0_regret_at0"] != by_T[128]["bettor0_regret_at0"]
    # perfect hints in slot 0: sum ||g-h||^2 is 0 at every checkpoint, and
    # sum ||g-h||^2 - ||h||^2 collapses to -sum ||g||^2
    assert all(abs(r["sum_gh_sq"]) < 1e-12 for r in rows)
    G = generate_stream(StreamSpec("rademacher_iid", 4, 128, 1))
    for r in rows:
        T = r["T"]
        assert r["sum_gh_sq_minus_h_sq"] == pytest.approx(
            -math.fsum(np.einsum("td,td->t", G[:T], G[:T])), abs=1e-9
        )


def test_csv_round_trip_and_ledger_dump(tmp_path):
    config = {
        "experiment_id": "roundtrip",
        "learner": {"kind": "optimistic", "base": {"kind": "dimfree", "epsilon": 0.5},
                     "bettor_epsilon": 0.5, "hints": {"kind": "running_average"}},
        "stream": {"kind": "gaussian_clipped", "dim": 3, "T": 64, "seed": 9},
        "comparators": [{"kind": "origin"}, {"kind": "best_in_ball", "radius": 1.0}],
    }
    rows, record = run_experiment(config, keep_record=True)
    csv_path = tmp_path / "out.csv"
    ledger_path = tmp_path / "ledger.jsonl"
    write_csv(rows, csv_path)
    dump_ledger(record, ledger_path)

    parsed = read_csv(csv_path)
    entries = [json.loads(line) for line in open(ledger_path, encoding="utf-8")]
    W = np.array([e["w"] for e in entries])
    G = np.array([e["g"] for e in entries])
    H = np.array([e["h"] for e in entries])
    for row in parsed:
        T = int(row["T"])
        cum = math.fsum(np.einsum("td,td->t", G[:T], W[:T]))
        assert cum == pytest.approx(float(row["cum_loss"]), rel=1e-6, abs=1e-9)
        if row["comparator_id"] == "origin":
            assert float(row["regret"]) == pytest.approx(cum, rel=1e-6, abs=1e-9)
        ghs = math.fsum(np.einsum("td,td->t", G[:T] - H[:T], G[:T] - H[:T]))
        assert ghs == pytest.approx(float(row["sum_gh_sq"]), rel=1e-6, abs=1e-9)


def test_seed_isolation_stream_independent_of_learner():
    base = {"stream": {"kind": "rademacher_iid", "dim": 4, "T": 32, "seed": 11},
            "comparators": [{"kind": "origin"}]}
    _, rec_a = run_experiment({**base, "learner": {"kind": "dimfree"}}, keep_record=True)
    _, rec_b = run_experiment({**base, "learner": {"kind": "percoord"}}, keep_record=True)
    assert np.array_equal(rec_a.gradients, rec_b.gradients)


def test_seed_override_changes_stream():
    base = {"learner": {"kind": "dimfree"},
            "stream": {"kind": "rademacher_iid", "dim": 4, "T": 32, "seed": 11},
            "comparators": [{"kind": "origin"}]}
    _, rec_a = run_experiment(base, keep_record=True)
    _, rec_b = run_experiment(base, seed_override=99, keep_record=True)
    assert not np.array_equal(rec_a.gradients, rec_b.gradients)


# ---------------------------------------------------------------------------
# slope fitting
# ---------------------------------------------------------------------------

def test_fit_slope_sqrt_regime():
    rows = [{"comparator_id": "c", "T": 2 ** k, "regret": math.sqrt(2 ** k)}
            for k in range(10, 17)]
    assert fit_slope(rows, "c") == pytest.approx(0.5, abs=1e-12)


def test_fit_slope_log_regime():
    # oracle: least squares of log2(log 2^k) = log2(k) + const on k = 10..16
    # gives 0.11255...; shrinks toward 0 as the grid moves right
    rows = [{"comparator_id": "c", "T": 2 ** k, "regret": math.log(2 ** k)}
            for k in range(10, 17)]
    ks = np.arange(10, 17)
    oracle = np.polyfit(ks, np.log2(np.log(2.0 ** ks)), 1)[0]
    assert fit_slope(rows, "c") == pytest.approx(oracle, abs=1e-12)
    assert fit_slope(rows, "c") <= 0.15
    later = [{"comparator_id": "c", "T": 2 ** k, "regret": math.log(2 ** k)}
             for k in range(20, 27)]
    assert fit_slope(later, "c") < fit_slope(rows, "c")


def test_fit_slope_constant_and_floor():
    rows = [{"comparator_id": "c", "T": 2 ** k, "regret": 7.0} for k in range(10, 17)]
    assert fit_slope(rows, "c") == pytest.approx(0.0, abs=1e-12)
    floored = [{"comparator_id": "c", "T": 2 ** k, "regret": -5.0} for k in range(10, 17)]
    assert fit_slope(floored, "c") == 0.0
    with pytest.raises(ValueError):
        fit_slope(rows[:3], "c")


# ---------------------------------------------------------------------------
# sweep and CLI
# ---------------------------------------------------------------------------

def test_sweep_merges_cells(tmp_path):
    config = json.load(open("configs/sweep.json", encoding="utf-8"))
    config["sweep"] = {"T": [32, 64], "seeds": [0, 1]}
    config["stream"]["T"] = 32
    rows = run_sweep(config)
    ids = {r["experiment_id"] for r in rows}
    assert ids == {
        "percoord_vs_T_T32_s0", "percoord_vs_T_T32_s1",
        "percoord_vs_T_T64_s0", "percoord_vs_T_T64_s1",
    }


def test_import_loads_no_process_pool():
    # only a sweep with more than one worker starts a pool; harness imports it then
    code = "import sys, regretforge; print('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == ["False"]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    seen = []

    def __init__(self, max_workers):
        self.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


@pytest.mark.parametrize("workers, cpus, expected", [
    (1000, 8, 4),   # capped by the 4 tasks, one block of seeds per T
    (1000, 3, 3),   # capped by the CPUs
    (2, 8, 2),      # as asked
])
def test_sweep_workers_clamped(monkeypatch, workers, cpus, expected):
    from regretforge import harness

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    _RecordingPool.seen = []
    config = json.load(open("configs/sweep.json", encoding="utf-8"))
    config["sweep"] = {"T": [16, 32, 48, 64], "seeds": [0, 1]}
    rows = run_sweep(config, workers=workers)
    assert _RecordingPool.seen == [expected]
    assert len({r["experiment_id"] for r in rows}) == 8


def test_sweep_one_usable_worker_runs_in_process(monkeypatch):
    from regretforge import harness

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 1)
    _RecordingPool.seen = []
    config = json.load(open("configs/sweep.json", encoding="utf-8"))
    config["sweep"] = {"T": [16], "seeds": [0, 1]}
    run_sweep(config, workers=64)
    assert _RecordingPool.seen == []


@pytest.mark.parametrize("learner, bad_path", [
    ({"kind": "dimfree", "epsilon": 0}, "learner.epsilon"),
    ({"kind": "percoord", "epsilon": -1}, "learner.epsilon"),
    ({"kind": "multi_norm", "epsilon": 0.0}, "learner.epsilon"),
    ({"kind": "add", "children": [{"kind": "dimfree"}, {"kind": "percoord", "epsilon": -0.5}]},
     "learner.children[1].epsilon"),
    ({"kind": "optimistic", "base": {"kind": "dimfree", "epsilon": float("nan")},
      "hints": {"kind": "zero"}}, "learner.base.epsilon"),
    ({"kind": "optimistic", "bettor_epsilon": 0, "hints": {"kind": "zero"}},
     "learner.bettor_epsilon"),
    ({"kind": "constrained", "bettor_epsilon": -2, "hints": {"kind": "zero"},
      "domain": {"kind": "ball", "radius": 1.0}}, "learner.bettor_epsilon"),
    ({"kind": "multi_hint", "bettor_epsilon": 0, "hints": [{"kind": "zero"}]},
     "learner.bettor_epsilon"),
])
def test_nonpositive_budget_is_a_config_error(tmp_path, capsys, learner, bad_path):
    with pytest.raises(CompositionError) as err:
        build_learner(learner, 4)
    assert err.value.path == bad_path
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "learner": learner, "stream": {"kind": "rademacher_iid", "dim": 4, "T": 8}}))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["path"] == bad_path


@pytest.mark.parametrize("learner, bad_path", [
    ({"kind": "dimfree", "p": 3}, "learner.p"),
    ({"kind": "dimfree", "p": 1}, "learner.p"),
    ({"kind": "dimfree", "p": "two"}, "learner.p"),
    ({"kind": "add", "children": [{"kind": "dimfree", "p": 0.5}, {"kind": "percoord"}]},
     "learner.children[0].p"),
    ({"kind": "apd", "domain": {"kind": "ball", "radius": -1}}, "learner.domain.radius"),
    ({"kind": "apd", "domain": {"kind": "ball", "radius": 0}}, "learner.domain.radius"),
    ({"kind": "apd", "domain": {"kind": "ball", "center": [0.0, 0.0]}},
     "learner.domain.center"),
    ({"kind": "constrained", "hints": {"kind": "zero"},
      "domain": {"kind": "ball", "radius": -1}}, "learner.domain.radius"),
    ({"kind": "constrained", "hints": {"kind": "zero"},
      "domain": {"kind": "ball", "radius": float("inf")}}, "learner.domain.radius"),
    ({"kind": "apd", "domain": {"kind": "box", "lo": [0, 0, 2, 0], "hi": [1, 1, 1, 1]}},
     "learner.domain.lo"),
    ({"kind": "constrained", "hints": {"kind": "zero"},
      "domain": {"kind": "box", "lo": [-1, -1], "hi": [1, 1, 1, 1]}}, "learner.domain.lo"),
    ({"kind": "constrained", "hints": {"kind": "zero"},
      "domain": {"kind": "box", "lo": [-1] * 4, "hi": [1] * 5}}, "learner.domain.hi"),
    ({"kind": "constrained", "hints": {"kind": "zero"}, "base": {"kind": "dimfree", "p": 2.5},
      "domain": {"kind": "ball", "radius": 1.0}}, "learner.base.p"),
    ({"kind": "optimistic", "hints": {"kind": "constant", "vector": [0.1, 0.2]}},
     "learner.hints.vector"),
    ({"kind": "optimistic", "hints": {"kind": "constant", "vector": [2.0, 0, 0, 0]}},
     "learner.hints.vector"),
    ({"kind": "optimistic", "hints": {"kind": "constant", "vector": "abc"}},
     "learner.hints.vector"),
    ({"kind": "optimistic", "hints": {"kind": "constant"}}, "learner.hints"),
    # past the magnitude bound, or not a list
    ({"kind": "add", "children": True}, "learner.children"),
    ({"kind": "add", "children": -1}, "learner.children"),
    ({"kind": "add", "children": 1e308}, "learner.children"),
    ({"kind": "apd", "domain": {"kind": "box", "lo": [-1e308] * 4, "hi": [1e308] * 4}},
     "learner.domain.lo"),
    ({"kind": "apd", "domain": {"kind": "ball", "radius": 1e308}}, "learner.domain.radius"),
    ({"kind": "dimfree", "epsilon": 1e308}, "learner.epsilon"),
    ({"kind": "dimfree", "epsilon": True}, "learner.epsilon"),
    # a value the library constructor refuses: an add child without a budget
    ({"kind": "add", "children": [{"kind": "dimfree"},
                                  {"kind": "apd", "domain": {"kind": "ball"}}]}, "learner"),
    # JSON booleans are not vector entries either
    ({"kind": "apd", "domain": {"kind": "box", "lo": [True, 0, 0, 0], "hi": [1] * 4}},
     "learner.domain.lo"),
    ({"kind": "optimistic", "hints": {"kind": "constant", "vector": [0, False, 0, 0]}},
     "learner.hints.vector"),
])
def test_out_of_range_value_is_a_config_error(tmp_path, capsys, learner, bad_path):
    with pytest.raises(CompositionError) as err:
        build_learner(learner, 4)
    assert err.value.path == bad_path
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "learner": learner, "stream": {"kind": "rademacher_iid", "dim": 4, "T": 8}}))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["path"] == bad_path


@pytest.mark.parametrize("learner", [
    {"kind": "dimfree", "p": 2},
    {"kind": "dimfree", "p": 1.01},
    {"kind": "apd", "domain": {"kind": "box", "lo": [0.5] * 4, "hi": [0.5] * 4}},
    {"kind": "constrained", "hints": {"kind": "zero"},
     "domain": {"kind": "ball", "center": [0.1] * 4, "radius": 0.5}},
])
def test_edge_values_in_range_still_build(learner):
    build_learner(learner, 4)


def test_coin_budget_checked_at_build():
    with pytest.raises(CompositionError, match="epsilon"):
        build_learner({"kind": "coin", "epsilon": 0}, 1)


def test_short_external_hint_file_is_a_config_error(tmp_path, capsys):
    hint_path = tmp_path / "hints.txt"
    config = {
        "learner": {"kind": "optimistic", "hints": {"kind": "external", "path": str(hint_path)}},
        "stream": {"kind": "rademacher_iid", "dim": 3, "T": 32, "seed": 4},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    # one row for T = 32, then an empty file, which loadtxt would warn about
    for text, message, bad_path in [("0.1 0.1 0.1\n", "1 rows, stream has T=32", "learner.hints"),
                                    ("", "has no rows", "learner.hints.path")]:
        hint_path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CompositionError, match=message):
                run_experiment(config)
            assert cli_main(["run", "--config", str(cfg_path)]) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["path"] == bad_path


@pytest.mark.parametrize("bad, bad_path", [
    ({"kind": "vector"}, "comparators[1]"),
    ({"kind": "scaled_unit"}, "comparators[1]"),
    ({"kind": "vector", "entries": [1.0, 0.0]}, "comparators[1].entries"),
    ({"kind": "vector", "entries": [0.0, float("nan"), 0.0, 0.0]}, "comparators[1].entries"),
    ({"kind": "scaled_unit", "direction": [1, 0, 0]}, "comparators[1].direction"),
    ({"kind": "scaled_unit", "direction": [0, 0, 0, 0]}, "comparators[1]"),
    ({"kind": "scaled_unit", "direction": [1, 0, 0, 0], "r": "one"}, "comparators[1].r"),
    ({"kind": "best_in_ball", "radius": [1.0]}, "comparators[1].radius"),
    ({"kind": "no_such_kind"}, "comparators[1]"),
    ("origin", "comparators[1]"),
    # past the magnitude bound
    ({"kind": "vector", "entries": [1e308, 0, 0, 0]}, "comparators[1].entries"),
    ({"kind": "scaled_unit", "direction": [1e308, 0, 0, 0]}, "comparators[1].direction"),
    ({"kind": "best_in_ball", "radius": 1e308}, "comparators[1].radius"),
    # JSON booleans are not vector entries
    ({"kind": "vector", "entries": [True, False, 0, 0]}, "comparators[1].entries"),
    ({"kind": "scaled_unit", "direction": [True, 0, 0, 0]}, "comparators[1].direction"),
])
def test_bad_comparator_fails_before_round_0(monkeypatch, tmp_path, capsys, bad, bad_path):
    from regretforge import harness

    def no_rounds(*args, **kwargs):
        raise AssertionError("the run started before its comparators were checked")

    monkeypatch.setattr(harness, "_drive", no_rounds)
    config = {"learner": {"kind": "dimfree"},
              "stream": {"kind": "rademacher_iid", "dim": 4, "T": 8},
              "comparators": [{"kind": "origin"}, bad]}
    with pytest.raises(CompositionError) as err:
        run_experiment(config)
    assert err.value.path == bad_path
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    for command in ("run", "sweep"):
        assert cli_main([command, "--config", str(cfg_path)]) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["path"] == bad_path


@pytest.mark.parametrize("comparators", [[], {"kind": "origin"}])
def test_comparators_must_be_a_nonempty_list(comparators):
    config = {"learner": {"kind": "dimfree"},
              "stream": {"kind": "rademacher_iid", "dim": 4, "T": 8},
              "comparators": comparators}
    with pytest.raises(CompositionError) as err:
        run_experiment(config)
    assert err.value.path == "comparators"


# the ROADMAP case: perfect hints on a slowly varying stream drive the
# bettor's wealth to the cap, and the regret column reads about -7.6e83
_CAPPED = {"experiment_id": "perfect_slow",
           "learner": {"kind": "optimistic", "hints": {"kind": "perfect"}},
           "stream": {"kind": "slowly_varying", "dim": 4, "T": 4096, "seed": 0},
           "comparators": [{"kind": "origin"}]}


def _warning(err: str) -> dict:
    lines = [json.loads(line) for line in err.strip().splitlines()]
    warnings = [line for line in lines if "warning" in line]
    assert len(warnings) == 1
    return warnings[0]


def test_wealth_cap_is_reported_by_run(tmp_path, capsys):
    rows, record = run_experiment(_CAPPED, keep_record=True)
    assert rows[-1]["regret"] < -1e83
    assert set(record.capped) == {"learner.bettor", "learner.base.magnitude"}
    assert all(0 < n < 4096 for n in record.capped.values())
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg_path.write_text(json.dumps(_CAPPED))
    assert cli_main(["run", "--config", str(cfg_path), "--output", str(out)]) == 0
    warning = _warning(capsys.readouterr().err)
    assert warning["capped"] == {"perfect_slow": record.capped}
    # the CSV columns stay as they are
    assert list(read_csv(out)[0]) == [
        "experiment_id", "T", "comparator_id", "regret", "cum_loss", "sum_gh_sq",
        "sum_gh_sq_minus_h_sq", "wallclock_ms", "bettor0_regret_at0"]


def test_wealth_cap_is_reported_by_sweep(tmp_path, capsys):
    config = dict(_CAPPED, sweep={"T": [4096], "seeds": [0, 1]})
    capped = {}
    run_sweep(config, capped=capped)
    assert set(capped) == {"perfect_slow_T4096_s0", "perfect_slow_T4096_s1"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert cli_main(["sweep", "--config", str(cfg_path), "--output",
                     str(tmp_path / "out.csv")]) == 0
    assert _warning(capsys.readouterr().err)["capped"] == capped


def test_uncapped_run_prints_no_warning(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(_CAPPED, stream={"kind": "zero", "dim": 4, "T": 64})))
    assert cli_main(["run", "--config", str(cfg_path), "--output",
                     str(tmp_path / "out.csv")]) == 0
    assert capsys.readouterr().err == ""


def _bettors_in(node, found, seen):
    """Every CoinBettor and PerCoordinateLearner reachable through any attribute."""
    if id(node) in seen:
        return
    seen.add(id(node))
    if isinstance(node, (list, tuple)):
        for item in node:
            _bettors_in(item, found, seen)
        return
    if not type(node).__module__.startswith("regretforge"):
        return
    if isinstance(node, (CoinBettor, PerCoordinateLearner)):
        found.append(node)
    slots = [name for cls in type(node).__mro__ for name in getattr(cls, "__slots__", ())]
    values = list(getattr(node, "__dict__", {}).values())
    values += [getattr(node, name) for name in slots if hasattr(node, name)]
    for value in values:
        _bettors_in(value, found, seen)


_PLAIN = [{"kind": "dimfree"}, {"kind": "dimfree", "p": 1.5}, {"kind": "percoord"},
          {"kind": "apd", "domain": {"kind": "ball", "radius": 1.0}}, {"kind": "zero"},
          {"kind": "multi_norm"},
          {"kind": "add", "children": [{"kind": "dimfree"}, {"kind": "percoord"},
                                       {"kind": "add", "children": [{"kind": "percoord"},
                                                                    {"kind": "multi_norm"}]}]}]
_ROOTS = [(1, {"kind": "coin"})] + [(4, cfg) for cfg in _PLAIN] + [
    (4, {"kind": root, "base": base, "hints": hints, "domain": {"kind": "ball"}})
    for base in _PLAIN
    for root, hints in [("optimistic", {"kind": "zero"}), ("constrained", {"kind": "zero"}),
                        ("multi_hint", [{"kind": "zero"}, {"kind": "last_gradient"}])]]


@pytest.mark.parametrize("dim,cfg", _ROOTS, ids=[
    f"{cfg['kind']}-{cfg.get('base', {}).get('kind', '')}-{i}" for i, (_, cfg) in enumerate(_ROOTS)])
def test_capped_bettors_reaches_every_bettor(dim, cfg):
    learner = build_learner(cfg, dim).learner
    found = []
    _bettors_in(learner, found, set())
    # give each bettor its own count, so a bettor missed or reached twice shows
    for i, bettor in enumerate(found):
        bettor.capped_rounds = i + 1
    assert sorted(capped_bettors(learner).values()) == list(range(1, len(found) + 1))


def test_cli_run_and_outputs(tmp_path):
    config = {
        "experiment_id": "cli",
        "learner": {"kind": "multi_hint", "base": {"kind": "dimfree", "epsilon": 0.25},
                     "bettor_epsilon": 0.25,
                     "hints": [{"kind": "perfect"}, {"kind": "adversarial_negate"},
                               {"kind": "running_average"}]},
        "stream": {"kind": "rademacher_iid", "dim": 4, "T": 64, "seed": 1},
        "comparators": [{"kind": "origin"}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_path = tmp_path / "out.csv"
    ledger_path = tmp_path / "ledger.jsonl"
    code = cli_main(["run", "--config", str(cfg_path), "--output", str(out_path),
                     "--dump-ledger", str(ledger_path)])
    assert code == 0
    rows = read_csv(out_path)
    assert "bettor2_regret_at0" in rows[0]
    assert rows[0]["experiment_id"] == "cli"
    entries = [json.loads(line) for line in open(ledger_path, encoding="utf-8")]
    assert len(entries) == 64 and "h" in entries[0]


def test_external_hint_file_via_config(tmp_path):
    hints = np.full((32, 3), 0.1)
    hint_path = tmp_path / "hints.txt"
    np.savetxt(hint_path, hints)
    rows = run_experiment({
        "learner": {"kind": "optimistic", "base": {"kind": "dimfree", "epsilon": 0.5},
                     "bettor_epsilon": 0.5,
                     "hints": {"kind": "external", "path": str(hint_path)}},
        "stream": {"kind": "rademacher_iid", "dim": 3, "T": 32, "seed": 4},
        "comparators": [{"kind": "origin"}],
    })
    assert len(rows) == len(checkpoints(32))


def test_cli_bernstein_via_learner(capsys):
    code = cli_main(["bernstein", "--delta", "0.1", "--T", "64", "--trials", "40",
                     "--sampler", "rademacher", "--via-learner"])
    out = capsys.readouterr().out
    assert code == 0
    assert "mode=learner" in out


@pytest.mark.parametrize("argv", [
    ["bernstein", "--delta", "0.1", "--T", "8", "--trials", "2", "--seed", "-1"],
    ["bernstein", "--delta", "0.1", "--T", "8", "--trials", "2", "--sampler", "nope"],
    ["run"],
    ["selftest"],
    ["sweep", "--config", "configs/sweep.json", "--workers", "0"],
    ["sweep", "--config", "configs/sweep.json", "--workers", "-2"],
], ids=["bad-seed", "bad-sampler", "run-without-config", "selftest", "zero-workers",
        "negative-workers"])
def test_usage_error_is_one_json_line(capsys, argv):
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in json.loads(captured.err.strip().splitlines()[-1])


def test_cli_help_exits_0(capsys):
    assert cli_main(["--help"]) == 0
    assert "usage: regretforge" in capsys.readouterr().out


def test_cli_env_seed_override(tmp_path, monkeypatch):
    config = {
        "learner": {"kind": "dimfree"},
        "stream": {"kind": "rademacher_iid", "dim": 3, "T": 32, "seed": 1},
        "comparators": [{"kind": "origin"}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli_main(["run", "--config", str(cfg_path), "--output", str(out_a)]) == 0
    monkeypatch.setenv("REGRETFORGE_SEED", "77")
    assert cli_main(["run", "--config", str(cfg_path), "--output", str(out_b)]) == 0
    a = [r["regret"] for r in read_csv(out_a)]
    b = [r["regret"] for r in read_csv(out_b)]
    assert a != b


def test_cli_bad_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({
        "learner": {"kind": "optimistic"},
        "stream": {"kind": "rademacher_iid", "dim": 3, "T": 8},
    }))
    code = cli_main(["run", "--config", str(cfg_path)])
    assert code == 2
    err = capsys.readouterr().err.strip()
    payload = json.loads(err.splitlines()[-1])
    assert "error" in payload


def test_cli_bad_flags_exit_2(capsys):
    assert cli_main(["bernstein", "--delta", "0.05"]) == 2


def test_cli_bernstein_quick(capsys):
    code = cli_main(["bernstein", "--delta", "0.1", "--T", "128",
                     "--trials", "200", "--sampler", "rademacher"])
    out = capsys.readouterr().out
    assert code == 0
    assert "failure_rate=" in out and "ok" in out


def test_cli_missing_config_exits_2():
    assert cli_main(["run", "--config", "/nonexistent/cfg.json"]) == 2


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_runtime_failure_exits_1(tmp_path, capsys, command):
    # the config is good; writing its CSV into a missing directory fails after the run
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"learner": {"kind": "dimfree"},
                                    "stream": {"kind": "rademacher_iid", "dim": 4, "T": 8}}))
    out = str(tmp_path / "missing" / "out.csv")
    assert cli_main([command, "--config", str(cfg_path), "--output", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and list(json.loads(lines[0])) == ["error"]


def test_module_entry_point_writes_the_cli_csv(tmp_path):
    # `python -m regretforge.cli` runs main(), which exits with cli_main's code
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"), os.environ.get("PYTHONPATH", "")]))
    config, via_module, in_process = ("configs/optimistic_run.json", tmp_path / "module.csv",
                                      tmp_path / "in_process.csv")
    proc = subprocess.run([sys.executable, "-m", "regretforge.cli", "run", "--config", config,
                           "--output", str(via_module)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert cli_main(["run", "--config", config, "--output", str(in_process)]) == 0
    rows = [read_csv(path) for path in (via_module, in_process)]
    for table in rows:
        for row in table:
            del row["wallclock_ms"]
    assert rows[0] == rows[1] and len(rows[0]) == 2 * len(checkpoints(4096))


# ---------------------------------------------------------------------------
# stream generators: the vectorized draws keep the bits of the per-round loops
# ---------------------------------------------------------------------------

def _slowly_varying_loop(seed, T, d, step):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    G = np.empty((T, d))
    for t in range(T):
        G[t] = v
        v = v + step * rng.standard_normal(d) / math.sqrt(d)
        v /= np.linalg.norm(v)
    return G


def _sparse_loop(seed, T, d, k):
    rng = np.random.default_rng(seed)
    G = np.zeros((T, d))
    scale = 1.0 / math.sqrt(k)
    for t in range(T):
        idx = rng.choice(d, size=k, replace=False)
        G[t, idx] = scale * (rng.integers(0, 2, size=k) * 2.0 - 1.0)
    return G


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("T, d", [(1, 1), (257, 4), (1024, 16)])
def test_slowly_varying_and_sparse_match_their_loops(seed, T, d):
    got = generate_stream(StreamSpec("slowly_varying", d, T, seed))
    assert np.array_equal(got, _slowly_varying_loop(seed, T, d, 1.0 / math.sqrt(T)))
    got = generate_stream(StreamSpec("slowly_varying", d, T, seed, {"step_size": 0.3}))
    assert np.array_equal(got, _slowly_varying_loop(seed, T, d, 0.3))
    for k in sorted({1, max(1, d // 8), d}):
        got = generate_stream(StreamSpec("sparse", d, T, seed, {"k_active": k}))
        assert np.array_equal(got, _sparse_loop(seed, T, d, k))


@pytest.mark.parametrize("d, k, T, seeds", [
    (1024, 8, 256, range(4)),  # the multinorm_d1024 stream
    (6, 6, 64, range(3)),      # k == d: the first Floyd draw takes no word
    (2000, 1000, 400, [26]),   # a word NumPy redraws (Lemire rejection)
    (10001, 300, 3, range(2)), # NumPy's tail shuffle (d > 10000, k > d // 50)
])
def test_sparse_matches_its_loop_on_every_branch(d, k, T, seeds):
    from regretforge.harness import _sparse_replay

    for seed in seeds:
        got = generate_stream(StreamSpec("sparse", d, T, seed, {"k_active": k}))
        assert np.array_equal(got, _sparse_loop(seed, T, d, k))
    if d == 2000:  # the case still reaches a redraw, so the loop runs
        assert _sparse_replay(np.random.default_rng(seeds[0]), np.zeros((T, d)), k) is None


@pytest.mark.parametrize("k, error", [(0, ZeroDivisionError), (5, ValueError)])
def test_sparse_bad_k_active_raises_as_the_loop_does(k, error):
    with pytest.raises(error):
        generate_stream(StreamSpec("sparse", 4, 8, 0, {"k_active": k}))


class _OrderPool(_RecordingPool):
    """Also records the order in which tasks, (T, seeds), reach the pool."""

    cells = []

    def map(self, fn, items):
        items = list(items)
        self.cells.extend((T, seeds) for _, T, seeds in items)
        return super().map(fn, items)


def test_sweep_hands_longest_cells_first_and_keeps_row_order(monkeypatch):
    from regretforge import harness

    config = dict(_CAPPED, experiment_id="order",
                  sweep={"T": [300, 700, 500], "seeds": [1, 0]})
    serial_capped = {}
    serial = run_sweep(config, workers=1, capped=serial_capped)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _OrderPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    _OrderPool.cells = []
    pooled_capped = {}
    pooled = run_sweep(config, workers=2, capped=pooled_capped)
    # an optimistic root takes no trial axis: one task per cell
    assert _OrderPool.cells == [(700, [1]), (700, [0]), (500, [1]), (500, [0]), (300, [1]),
                                (300, [0])]
    strip = [{k: v for k, v in r.items() if k != "wallclock_ms"} for r in pooled]
    assert strip == [{k: v for k, v in r.items() if k != "wallclock_ms"} for r in serial]
    by_cell = [f"order_T{T}_s{s}" for T in (300, 500, 700) for s in (0, 1)]
    assert list(dict.fromkeys(r["experiment_id"] for r in pooled)) == by_cell
    assert list(pooled_capped) == list(serial_capped) == by_cell


# ---------------------------------------------------------------------------
# config values checked before round 0: exit 2 with the field's path
# ---------------------------------------------------------------------------

_IID = {"kind": "rademacher_iid", "dim": 4, "T": 8}


@pytest.mark.parametrize("command,stream,sweep,seed_env,path", [
    ("run", {"kind": "sparse", "dim": 4, "T": 8, "k_active": 9}, None, None, "stream.k_active"),
    ("run", {"kind": "sparse", "dim": 4, "T": 8, "k_active": 0}, None, None, "stream.k_active"),
    ("run", {"kind": "biased", "dim": 4, "T": 8, "mu": [0.1, 0.2]}, None, None, "stream.mu"),
    ("run", {"kind": "biased", "dim": 4, "T": 8, "noise": "x"}, None, None, "stream.noise"),
    ("run", {"kind": "gaussian_clipped", "dim": 4, "T": 8, "sigma": "x"}, None, None,
     "stream.sigma"),
    ("run", dict(_IID, dim="four"), None, None, "stream.dim"),
    ("run", dict(_IID, dim=2.5), None, None, "stream.dim"),
    ("run", dict(_IID, T=0), None, None, "stream.T"),
    ("run", dict(_IID, seed=-1), None, None, "stream.seed"),
    ("run", {"kind": "slowly_varying", "dim": 4, "T": 8, "step_size": "nan"}, None, None,
     "stream.step_size"),
    ("run", _IID, None, "abc", "REGRETFORGE_SEED"),
    ("sweep", _IID, None, "abc", "REGRETFORGE_SEED"),
    ("sweep", _IID, {"T": []}, None, "sweep.T"),
    ("sweep", _IID, {"T": ["x"]}, None, "sweep.T"),
    ("sweep", _IID, {"T": [8, 0]}, None, "sweep.T"),
    ("sweep", _IID, {"seeds": 0}, None, "sweep.seeds"),
    ("sweep", _IID, {"seeds": [0, -1]}, None, "sweep.seeds"),
    # JSON booleans are not integers
    ("run", {"kind": "sparse", "dim": 4, "T": 8, "k_active": True}, None, None,
     "stream.k_active"),
    ("run", dict(_IID, T=True), None, None, "stream.T"),
    ("run", dict(_IID, dim=True), None, None, "stream.dim"),
    ("run", dict(_IID, seed=False), None, None, "stream.seed"),
    ("sweep", _IID, {"T": [8, True]}, None, "sweep.T"),
    ("sweep", _IID, {"seeds": [False]}, None, "sweep.seeds"),
    # past the magnitude bound
    ("run", dict(_IID, dim=1e308), None, None, "stream.dim"),
    ("run", dict(_IID, T=1e308), None, None, "stream.T"),
    ("sweep", _IID, {"T": [1e308]}, None, "sweep.T"),
    ("run", dict(_IID, seed=1e308), None, None, "stream.seed"),
    ("run", {"kind": "slowly_varying", "dim": 4, "T": 8, "step_size": 1e308}, None, None,
     "stream.step_size"),
    ("run", {"kind": "gaussian_clipped", "dim": 4, "T": 8, "sigma": 1e308}, None, None,
     "stream.sigma"),
    ("run", {"kind": "biased", "dim": 4, "T": 8, "noise": 1e308}, None, None, "stream.noise"),
    ("run", {"kind": "biased", "dim": 2, "T": 8, "mu": [1e200, 0]}, None, None, "stream.mu"),
    ("run", dict(_IID, kind=["sparse"]), None, None, "stream"),
    # JSON booleans are not vector entries either
    ("run", {"kind": "biased", "dim": 2, "T": 8, "mu": [True, 0]}, None, None, "stream.mu"),
])
def test_bad_config_values_exit_2(tmp_path, capsys, monkeypatch, command, stream, sweep,
                                  seed_env, path):
    config = {"learner": {"kind": "dimfree"}, "stream": stream}
    if sweep is not None:
        config["sweep"] = sweep
    if seed_env is not None:
        monkeypatch.setenv("REGRETFORGE_SEED", seed_env)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert cli_main([command, "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip().splitlines()[-1])["path"] == path


_DIMFREE = {"kind": "dimfree"}


@pytest.mark.parametrize("command,config,seed_env,path", [
    ("run", [1], None, "config"),
    ("sweep", [1], None, "config"),
    ("sweep", [1], "3", "config"),
    ("run", {"learner": _DIMFREE, "stream": [1]}, None, "stream"),
    ("sweep", {"learner": _DIMFREE, "stream": [1]}, None, "stream"),
    ("run", {"learner": [1], "stream": _IID}, None, "learner"),
    ("sweep", {"learner": [1], "stream": _IID}, None, "learner"),
    ("sweep", {"learner": _DIMFREE, "stream": _IID, "sweep": [8, 16]}, None, "sweep"),
    ("sweep", {"learner": _DIMFREE, "stream": _IID, "sweep": [8, 16]}, "3", "sweep"),
    ("run", {"learner": {"kind": "optimistic", "base": [1], "hints": {"kind": "zero"}},
             "stream": _IID}, None, "learner.base"),
    ("run", {"learner": {"kind": "add", "children": [_DIMFREE, "percoord"]},
             "stream": _IID}, None, "learner.children[1]"),
    ("run", {"learner": {"kind": "apd", "domain": "ball"}, "stream": _IID}, None,
     "learner.domain"),
    ("run", {"learner": {"kind": "constrained", "domain": [1], "hints": {"kind": "zero"}},
             "stream": _IID}, None, "learner.domain"),
    ("run", {"learner": {"kind": "optimistic", "hints": "zero"}, "stream": _IID}, None,
     "learner.hints"),
    ("run", {"learner": {"kind": "multi_hint", "hints": [{"kind": "zero"}, 3]},
             "stream": _IID}, None, "learner.hints[1]"),
])
def test_config_node_that_is_not_an_object_exits_2(tmp_path, capsys, monkeypatch, command,
                                                    config, seed_env, path):
    if seed_env is not None:
        monkeypatch.setenv("REGRETFORGE_SEED", seed_env)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert cli_main([command, "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err.strip().splitlines()[-1])
    assert payload["path"] == path
    assert "must be an object" in payload["error"]


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("experiment_id", [[1], 7, None])
def test_non_string_experiment_id_exits_2(tmp_path, capsys, command, experiment_id):
    config = {"experiment_id": experiment_id, "learner": _DIMFREE, "stream": _IID}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert cli_main([command, "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip().splitlines()[-1])["path"] == "experiment_id"


@pytest.mark.parametrize("hint_path", [5, None, "missing.txt", "bad.txt", "wide.txt"])
def test_bad_external_hint_path_exits_2(tmp_path, capsys, monkeypatch, hint_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.txt").write_text("0.1 x\n")
    np.savetxt(tmp_path / "wide.txt", np.zeros((8, 3)))  # a readable file of dim 3, not 4
    config = {"learner": {"kind": "optimistic", "hints": {"kind": "external", "path": hint_path}},
              "stream": _IID}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    path = "learner.hints" if hint_path == "wide.txt" else "learner.hints.path"
    assert json.loads(captured.err.strip().splitlines()[-1])["path"] == path


@pytest.mark.parametrize("sweep", [{"T": [8]}, None])
def test_sweep_without_stream_exits_2(tmp_path, capsys, sweep):
    config = {"learner": _DIMFREE}
    if sweep is not None:
        config["sweep"] = sweep
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert cli_main(["sweep", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip().splitlines()[-1]) == {
        "error": "stream: experiment config needs a 'stream'", "path": "stream"}


@pytest.mark.parametrize("seed", ["-1", "x"])
def test_bad_bernstein_seed_exits_2_before_any_trial(monkeypatch, capsys, seed):
    from regretforge import concentration

    def no_trials(cfg):
        raise AssertionError("a trial ran before --seed was checked")

    monkeypatch.setattr(concentration, "coverage_experiment", no_trials)
    assert cli_main(["bernstein", "--delta", "0.1", "--T", "8", "--trials", "2",
                     "--seed", seed]) == 2
    assert "argument --seed: must be a nonnegative integer" in capsys.readouterr().err


def test_bad_seed_env_exits_2_for_bernstein(monkeypatch):
    monkeypatch.setenv("REGRETFORGE_SEED", "abc")
    assert cli_main(["bernstein", "--delta", "0.1", "--T", "8", "--trials", "2"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["--T", "8", "--trials", "100000000000000"], "2 * trials = 200000000000000 must not"),
    (["--T", "1000000000000000", "--trials", "2", "--via-learner"],
     "T * dim = 4000000000000000 and"),
    (["--T", "1000000000000000", "--trials", "2"], "must not exceed the stream size limit"),
])
def test_oversized_bernstein_run_exits_2_before_any_trial(monkeypatch, capsys, argv, message):
    from regretforge import concentration

    def no_trials(cfg):
        raise AssertionError("a trial ran before the run's size was checked")

    monkeypatch.setattr(concentration, "coverage_experiment", no_trials)
    assert cli_main(["bernstein", "--delta", "0.1"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and message in json.loads(lines[0])["error"]


def test_bernstein_failure_that_is_not_a_value_error_exits_1(monkeypatch, capsys):
    from regretforge import concentration

    def broken(cfg):
        raise RuntimeError("sampler broke")

    monkeypatch.delenv("REGRETFORGE_SEED", raising=False)
    monkeypatch.setattr(concentration, "coverage_experiment", broken)
    assert cli_main(["bernstein", "--delta", "0.1", "--T", "8", "--trials", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [json.dumps({"error": "sampler broke"})]


def test_bernstein_size_limits_admit_the_largest_run():
    from regretforge.concentration import BernsteinConfig
    from regretforge.core import MAX_STREAM_ENTRIES

    BernsteinConfig(0.1, T=MAX_STREAM_ENTRIES // 4, trials=MAX_STREAM_ENTRIES // 2)
    with pytest.raises(ValueError, match="stream size limit"):
        BernsteinConfig(0.1, T=MAX_STREAM_ENTRIES // 4 + 1, trials=1)
    with pytest.raises(ValueError, match="trials"):
        BernsteinConfig(0.1, T=1, trials=MAX_STREAM_ENTRIES // 2 + 1)


def test_config_error_in_a_pool_worker_exits_2(tmp_path, capsys):
    # the error is raised in a worker process and must cross back intact
    config = {"learner": {"kind": "dimfree"}, "stream": dict(_IID, kind="levy"),
              "sweep": {"T": [8, 16]}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert cli_main(["sweep", "--config", str(cfg_path), "--workers", "2"]) == 2
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["path"] == "stream"


@pytest.mark.parametrize("stream", [
    {"kind": "sparse", "dim": 4, "T": 1, "k_active": 4},
    {"kind": "sparse", "dim": 4, "T": 8, "k_active": 1},
    {"kind": "biased", "dim": 4, "T": 8, "mu": [0.25, 0.0, 0.0, 0.0], "noise": 0},
    {"kind": "gaussian_clipped", "dim": 1, "T": 8, "sigma": 0},
    {"kind": "slowly_varying", "dim": 4, "T": 8, "step_size": 0.0},
    dict(_IID, dim="4", T=8.0, seed=0),
    dict(_IID, seed=2 ** 40),
    # at the magnitude bound
    {"kind": "gaussian_clipped", "dim": 4, "T": 8, "sigma": 1e15},
    {"kind": "slowly_varying", "dim": 4, "T": 8, "step_size": -1e15},
    {"kind": "biased", "dim": 2, "T": 8, "mu": [1e15, -1e15], "noise": 1e15},
])
def test_edge_config_values_still_build(stream):
    spec = StreamSpec.from_config(stream)
    G = generate_stream(spec)
    assert G.shape == (spec.T, spec.dim) and np.isfinite(G).all()


def test_stream_size_is_checked_before_the_stream_is_drawn(monkeypatch, tmp_path, capsys):
    from regretforge import harness

    def no_draw(spec):
        raise AssertionError("a stream was drawn before its size was checked")

    monkeypatch.setattr(harness, "generate_stream", no_draw)
    limit = harness.MAX_STREAM_ENTRIES
    at_limit = StreamSpec.from_config({"kind": "zero", "dim": limit // 4, "T": 4})
    assert at_limit.T * at_limit.dim == limit
    with pytest.raises(CompositionError, match="exceeds the stream size limit") as err:
        StreamSpec.from_config({"kind": "zero", "dim": limit // 4, "T": 5})
    assert err.value.path == "stream"
    cfg_path = tmp_path / "cfg.json"
    for command, stream, sweep in [("run", {"kind": "zero", "dim": 1e15, "T": 1}, None),
                                   ("sweep", {"kind": "zero", "dim": 1e15, "T": 1}, None),
                                   ("sweep", dict(_IID, dim=2 ** 20), {"T": [2 ** 20]})]:
        config = {"learner": {"kind": "dimfree"}, "stream": stream}
        cfg_path.write_text(json.dumps(config if sweep is None else dict(config, sweep=sweep)))
        assert cli_main([command, "--config", str(cfg_path)]) == 2
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["path"] == "stream"


@pytest.mark.parametrize("direction", [[1e-200, 0.0], [1e-160, 0.0], [5e-324, 0.0]])
def test_tiny_scaled_unit_direction_is_normalised_without_underflow(direction):
    # the squared norm underflows (to 0, or to a subnormal that keeps few bits)
    for r in (1.0, 2.5, -3.0):
        u = resolve_comparator({"kind": "scaled_unit", "direction": direction, "r": r},
                               2, np.zeros(2), "c")
        assert u.tolist() == [r, 0.0]
    # a direction whose squared norm is a normal float keeps the plain formula's bits
    v = np.array([3e-150, -4e-150])
    u = resolve_comparator({"kind": "scaled_unit", "direction": v.tolist(), "r": 2.0},
                           2, np.zeros(2), "c")
    assert u.tobytes() == (2.0 * v / float(np.linalg.norm(v))).tobytes()


def _without_wallclock(rows):
    return [{k: v for k, v in row.items() if k != "wallclock_ms"} for row in rows]


def test_iterates_are_kept_only_where_they_are_read(monkeypatch, tmp_path):
    from regretforge import harness
    from regretforge.core import replay
    from regretforge.learners import DimFreeLearner

    config = {"experiment_id": "kept", "learner": {"kind": "dimfree"},
              "stream": {"kind": "gaussian_clipped", "dim": 4, "T": 48, "seed": 2}}
    rows, record = run_experiment(config, keep_record=True)
    G = generate_stream(StreamSpec.from_config(config["stream"]))
    assert record.iterates.shape == (48, 4)
    assert record.iterates.tobytes() == replay(DimFreeLearner(4, 1.0), G).iterates.tobytes()
    lean_rows, lean = run_experiment(config, keep_record=True, keep_iterates=False)
    assert lean.iterates is None and lean.losses.tobytes() == record.losses.tobytes()
    assert _without_wallclock(lean_rows) == _without_wallclock(rows)

    kept, drive = [], harness._drive

    def recording_drive(composed, G, keep_iterates):
        kept.append(keep_iterates)
        return drive(composed, G, keep_iterates)

    monkeypatch.setattr(harness, "_drive", recording_drive)
    cfg_path, ledger = tmp_path / "cfg.json", tmp_path / "ledger.jsonl"
    cfg_path.write_text(json.dumps(dict(config, sweep={"T": [8], "seeds": [0, 1]})))
    out = str(tmp_path / "out.csv")
    assert cli_main(["run", "--config", str(cfg_path), "--output", out]) == 0
    assert cli_main(["run", "--config", str(cfg_path), "--output", out,
                     "--dump-ledger", str(ledger)]) == 0
    assert cli_main(["sweep", "--config", str(cfg_path), "--output", out]) == 0
    # the sweep's two seeds run as one block: one drive
    assert kept == [False, True, False]
    assert len(ledger.read_text().splitlines()) == 48


# configs/sweep.json's add(dimfree, percoord) tree, a percoord tree whose wealth cap binds at
# T = 1024 for seed 4 only, and a multi_norm tree, whose p < 2 grid child takes no trial axis
_SWEEP = {k: v for k, v in json.load(open("configs/sweep.json", encoding="utf-8")).items()
          if k in ("experiment_id", "learner", "stream", "comparators")}
_PERCOORD_CAPPED = {"experiment_id": "percoord_capped", "learner": {"kind": "percoord"},
                    "stream": {"kind": "biased", "dim": 4, "T": 1024, "mu": [0.58, 0.0, 0.0, 0.0],
                               "noise": 1.0}}
_MULTI_NORM = dict(_SWEEP, experiment_id="multi_norm", learner={"kind": "multi_norm"})


def _bits(rows):
    """Every column but wallclock_ms, each float by its repr (which keeps its bits)."""
    return [{k: repr(v) for k, v in row.items() if k != "wallclock_ms"} for row in rows]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("config, seeds, block, expect_capped", [
    (_CAPPED, [0, 3], None, {f"perfect_slow_T{T}_s{s}": {"learner.bettor", "learner.base.magnitude"}
                             for T in (512, 1024) for s in (0, 3)}),
    (_SWEEP, [0, 3], None, {}),
    (_PERCOORD_CAPPED, [0, 4], None, {"percoord_capped_T1024_s4": {"learner"}}),
    # more seeds than a block holds: T = 1024 takes blocks of 2, 2 and 1 seeds
    (_SWEEP, [0, 1, 2, 3, 4], 2, {}),
    (_MULTI_NORM, [3, 4], None, {}),
], ids=["optimistic", "add", "percoord_capped", "split_blocks", "multi_norm"])
def test_sweep_rows_and_capped_match_each_cell_run_alone(monkeypatch, workers, config, seeds,
                                                         block, expect_capped):
    # cells keep no iterates and may run as blocks of seeds; their rows and capped bettors
    # are those of a run that keeps them
    from regretforge import concentration, harness

    dim = config["stream"]["dim"]
    if block is not None:
        monkeypatch.setattr(concentration, "TRIAL_BLOCK_BYTES", block * 8 * 1024 * dim)
    tasks, run_cell = [], harness._sweep_cell  # the seeds of each task

    class Pool(concurrent.futures.ProcessPoolExecutor):  # a real pool that records its tasks
        def map(self, fn, items):
            items = list(items)
            tasks.extend(task[2] for task in items)
            return super().map(fn, items)

    def serial_cell(task):
        tasks.append(task[2])
        return run_cell(task)

    if workers > 1:  # the pool pickles _sweep_cell by name, so it stays in place
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    else:
        monkeypatch.setattr(harness, "_sweep_cell", serial_cell)
    capped = {}
    rows = run_sweep(dict(config, sweep={"T": [512, 1024], "seeds": seeds}), workers=workers,
                     capped=capped)
    # trees that take no trial axis run one seed a task; the others run blocks of seeds
    assert sorted(seed for task in tasks for seed in task) == sorted(seeds * 2)
    assert (max(map(len, tasks)) == 1) == (config in (_CAPPED, _MULTI_NORM))
    alone_rows, alone_capped = [], {}
    for T in (512, 1024):
        for seed in seeds:
            cell = dict(config, experiment_id=f"{config['experiment_id']}_T{T}_s{seed}",
                        stream=dict(config["stream"], T=T, seed=seed))
            cell_rows, record = run_experiment(cell, keep_record=True)
            assert record.iterates.shape == (T, dim)
            alone_rows += cell_rows
            if record.capped:
                alone_capped[cell["experiment_id"]] = record.capped
    assert _bits(rows) == _bits(alone_rows)
    assert capped == alone_capped
    assert {cell: set(c) for cell, c in capped.items()} == expect_capped


def test_sweep_blocks_follow_the_byte_budget(monkeypatch):
    from regretforge import concentration, harness

    monkeypatch.setattr(concentration, "TRIAL_BLOCK_BYTES", 2 * 8 * 1024 * 16)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _OrderPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    _OrderPool.cells = []
    run_sweep(dict(_SWEEP, sweep={"T": [512, 1024], "seeds": [4, 3, 2, 1, 0]}), workers=2)
    assert _OrderPool.cells == [(1024, [4, 3]), (1024, [2, 1]), (1024, [0]),
                                (512, [4, 3, 2, 1]), (512, [0])]


def test_edge_sweep_and_seed_values_still_run(tmp_path, monkeypatch):
    config = {"learner": {"kind": "dimfree"}, "stream": _IID,
              "sweep": {"T": [1, 2], "seeds": [0, "3"]}}
    rows = run_sweep(config)
    assert {r["experiment_id"] for r in rows} == {
        f"experiment_T{T}_s{s}" for T in (1, 2) for s in (0, 3)}
    monkeypatch.setenv("REGRETFORGE_SEED", "0")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert cli_main(["sweep", "--config", str(cfg_path),
                     "--output", str(tmp_path / "out.csv")]) == 0
