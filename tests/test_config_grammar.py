"""The config grammar: every config exits 0 with finite numbers, or 2 with a path.

The fuzz pass takes each shipped config at a short horizon, replaces every
node and leaf in turn with each of a fixed set of wrong values, and runs the
result through the CLI. Values at the magnitude bound must still run to
finite numbers.
"""

import copy
import json
import math
import warnings
from pathlib import Path

import pytest

from regretforge import harness
from regretforge.cli import cli_main
from regretforge.harness import LIMIT

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MUTATIONS = [None, "s", [], {}, True, -1, 0, 1e308, [1.0, 2.0]]


def _short(name: str) -> dict:
    cfg = json.loads((CONFIGS / name).read_text())
    cfg["stream"]["T"] = 64
    if "sweep" in cfg:
        cfg["sweep"] = {"T": [64], "seeds": [0]}
    cfg.pop("output", None)
    return cfg


def _paths(node, path=()):
    """Every node and leaf of a JSON document, the document itself first."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _replaced(cfg, path, value):
    if not path:
        return copy.deepcopy(value)
    out = copy.deepcopy(cfg)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = copy.deepcopy(value)
    return out


def _run(command, config, tmp_path, capsys):
    """(exit code, problem): the problem is None if the CLI exits 0 with finite rows,
    or 2 with a path, and raised no warning."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli_main([command, "--config", str(cfg_path)])
    out, err = capsys.readouterr()
    if caught:
        return code, f"warning {caught[0].message}"
    if code == 2:
        last = json.loads(err.strip().splitlines()[-1])
        return code, None if "path" in last else f"no path: {last}"
    if code == 0:
        numbers = [v for line in out.splitlines() for v in json.loads(line).values()
                   if isinstance(v, float)]
        return code, None if numbers and all(map(math.isfinite, numbers)) else "non-finite rows"
    return code, err.strip()


@pytest.mark.parametrize("name", ["multihint_run.json", "optimistic_run.json", "sweep.json"])
def test_every_single_node_mutation_exits_0_or_2(tmp_path, capsys, name):
    cfg = _short(name)
    command = "sweep" if "sweep" in cfg else "run"
    assert _run(command, cfg, tmp_path, capsys) == (0, None)
    problems = []
    for path in _paths(cfg):
        for value in MUTATIONS:
            code, problem = _run(command, _replaced(cfg, path, value), tmp_path, capsys)
            if code not in (0, 2) or problem:
                problems.append((path, value, code, problem))
    assert problems == []


@pytest.mark.parametrize("learner,comparators", [
    ({"kind": "apd", "domain": {"kind": "box", "lo": [-LIMIT] * 4, "hi": [LIMIT] * 4}}, None),
    ({"kind": "apd", "domain": {"kind": "ball", "center": [LIMIT, 0, 0, 0], "radius": LIMIT}},
     None),
    ({"kind": "constrained", "base": {"kind": "dimfree", "epsilon": LIMIT},
      "bettor_epsilon": LIMIT, "hints": {"kind": "perfect"},
      "domain": {"kind": "ball", "radius": LIMIT}}, None),
    ({"kind": "multi_norm", "epsilon": LIMIT}, None),
    ({"kind": "dimfree"}, [
        {"kind": "vector", "entries": [LIMIT, -LIMIT, 0, 0]},
        {"kind": "scaled_unit", "r": -LIMIT, "direction": [LIMIT, 1, 0, 0]},
        {"kind": "best_in_ball", "radius": LIMIT}]),
])
def test_values_at_the_bound_run_with_finite_numbers(tmp_path, capsys, learner, comparators):
    config = {"learner": learner, "stream": {"kind": "rademacher_iid", "dim": 4, "T": 256},
              "comparators": comparators or [{"kind": "origin"}]}
    assert _run("run", config, tmp_path, capsys) == (0, None)


def test_every_grammar_kind_has_a_shipped_config(monkeypatch):
    # each (node, kind) row of harness.TABLE is read by a run of some configs/*.json, and the
    # wealth cap binds only in the two shipped configs known to be capped (see test_scan)
    seen, walk = set(), harness._walk

    def recording(what, cfg, *rest):
        seen.add((what, cfg["kind"]))
        return walk(what, cfg, *rest)

    monkeypatch.setattr(harness, "_walk", recording)
    capped = {}
    for path in sorted(CONFIGS.glob("*.json")):
        _, record = harness.run_experiment(json.loads(path.read_text()), keep_record=True,
                                           keep_iterates=False)
        if record.capped:
            capped[path.name] = record.capped
    assert {(what, kind) for what in harness.TABLE for kind in harness.TABLE[what]} - seen == set()
    assert set(capped) == {"optimistic_run.json", "multihint_run.json"}
