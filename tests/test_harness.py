"""Streams, composition building, the experiment runner, CSV, and the CLI."""

import json
import math
import os

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
    read_csv,
    resolve_comparator,
    run_experiment,
    run_sweep,
    write_csv,
)


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
    (1000, 8, 4),   # capped by the 4 cells
    (1000, 3, 3),   # capped by the CPUs
    (2, 8, 2),      # as asked
])
def test_sweep_workers_clamped(monkeypatch, workers, cpus, expected):
    from regretforge import harness

    monkeypatch.setattr(harness, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    _RecordingPool.seen = []
    config = json.load(open("configs/sweep.json", encoding="utf-8"))
    config["sweep"] = {"T": [16, 32], "seeds": [0, 1]}
    rows = run_sweep(config, workers=workers)
    assert _RecordingPool.seen == [expected]
    assert len({r["experiment_id"] for r in rows}) == 4


def test_sweep_one_usable_worker_runs_in_process(monkeypatch):
    from regretforge import harness

    monkeypatch.setattr(harness, "ProcessPoolExecutor", _RecordingPool)
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
    np.savetxt(hint_path, np.full((1, 3), 0.1))
    config = {
        "learner": {"kind": "optimistic", "hints": {"kind": "external", "path": str(hint_path)}},
        "stream": {"kind": "rademacher_iid", "dim": 3, "T": 32, "seed": 4},
    }
    with pytest.raises(CompositionError, match="1 rows, stream has T=32"):
        run_experiment(config)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["path"] == "learner.hints"


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


def test_cli_selftest_passes(capsys):
    assert cli_main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 10


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


class _OrderPool(_RecordingPool):
    """Also records the order in which cells reach the pool."""

    cells = []

    def map(self, fn, items):
        items = list(items)
        self.cells.extend((T, seed) for _, T, seed in items)
        return super().map(fn, items)


def test_sweep_hands_longest_cells_first_and_keeps_row_order(monkeypatch):
    from regretforge import harness

    config = dict(_CAPPED, experiment_id="order",
                  sweep={"T": [300, 700, 500], "seeds": [1, 0]})
    serial_capped = {}
    serial = run_sweep(config, workers=1, capped=serial_capped)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _OrderPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    _OrderPool.cells = []
    pooled_capped = {}
    pooled = run_sweep(config, workers=2, capped=pooled_capped)
    assert _OrderPool.cells == [(700, 1), (700, 0), (500, 1), (500, 0), (300, 1), (300, 0)]
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


def test_bad_seed_env_exits_2_for_bernstein(monkeypatch):
    monkeypatch.setenv("REGRETFORGE_SEED", "abc")
    assert cli_main(["bernstein", "--delta", "0.1", "--T", "8", "--trials", "2"]) == 2


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
])
def test_edge_config_values_still_build(stream):
    spec = StreamSpec.from_config(stream)
    G = generate_stream(spec)
    assert G.shape == (spec.T, spec.dim) and np.isfinite(G).all()


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
