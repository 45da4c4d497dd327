"""Per-layer tracing by wrapping the library's public callables from outside.

``install`` replaces each layer's entry points with a wrapper that records
a span (name, start, end, parent, job id). Spans are folded into per-layer
totals as they close (calls, self time, total time); the full span records
of the first traced job are also kept in memory and written at the end.
Self time is a span's duration minus the time its child spans cover.

A function imported with ``from .core import as_vector`` is a separate
binding in every importing module, so each binding is wrapped there; class
methods are wrapped on the class that defines them.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from regretforge import cli, combinators, concentration, core, geometry, harness, hints, learners

MODULES = {
    "core": core, "learners": learners, "geometry": geometry, "combinators": combinators,
    "hints": hints, "concentration": concentration, "harness": harness, "cli": cli,
}

#: layer -> module-level bindings (module, attribute)
FUNCTIONS = {
    "core.validate": [("core", "as_vector"), ("learners", "as_vector"), ("hints", "as_vector"),
                      ("geometry", "as_vector"), ("harness", "as_vector"),
                      ("core", "check_unit_norm"), ("combinators", "check_unit_norm"),
                      ("hints", "check_unit_norm")],
    "core.replay": [("core", "replay"), ("core", "replay_hinted"), ("core", "replay_multi_hint"),
                    ("concentration", "replay_hinted")],
    "geometry.p_norm": [("geometry", "p_norm"), ("learners", "p_norm")],
    "combinators.tilde_hint": [("combinators", "tilde_hint")],
    "concentration.coverage": [("concentration", "coverage_experiment")],
    "concentration.learner_radius": [("concentration", "learner_radius")],
    "harness.generate_stream": [("harness", "generate_stream")],
    "harness.build_learner": [("harness", "build_learner")],
    "harness.drive": [("harness", "_drive")],
    # run_experiment's self time is the checkpoint report after the drive
    "harness.report": [("harness", "run_experiment")],
    "harness.run_sweep": [("harness", "run_sweep")],
    "harness.write_csv": [("harness", "write_csv")],
    "cli": [("cli", "cli_main")],
}

#: layer -> methods (module, class, attribute), wrapped on the defining class
METHODS = {
    "learners.bettor": [("learners", "CoinBettor", "predict"),
                        ("learners", "CoinBettor", "observe")],
    "learners.direction": [("learners", "PNormBallDescent", "observe")],
    "learners.learner": [("core", "Learner", "predict"), ("core", "Learner", "observe")],
    "combinators.hinted": [
        ("core", "HintedLearner", "predict"),
        ("combinators", "MultiHintLearner", "predict"),
        ("combinators", "OptimisticLearner", "_update"),
        ("combinators", "ConstrainedOptimisticLearner", "_update"),
        ("combinators", "MultiHintLearner", "_update"),
    ],
    "combinators.add": [("combinators", "AddCombiner", "_prediction"),
                        ("combinators", "AddCombiner", "_update")],
    "geometry.project": [("geometry", cls.__name__, "project")
                         for cls in (geometry.WholeSpace, geometry.Ball, geometry.Box)],
    "hints.source": [("hints", cls.__name__, attr)
                     for cls in vars(hints).values()
                     if isinstance(cls, type) and issubclass(cls, hints.HintSource)
                     for attr in ("next_hint", "feed") if attr in vars(cls)],
    "concentration.draw": [("concentration", "Sampler", "draw")],
}

#: at most this many span records are kept for the span dump
MAX_SPANS = 20_000


class Tracer:
    """Span recorder folding closed spans into per-layer totals."""

    def __init__(self):
        self.stats = {}          # layer -> [calls, self_s, total_s]
        self.project_moved = 0
        self.stack = []          # open spans: [layer, child_s]
        self.spans = []          # (layer, start, end, parent, job)
        self.keep_spans = False
        self.job = None
        self._restore = []

    def reset(self):
        self.stats = {}
        self.project_moved = 0
        self.stack = []
        self.spans = []
        self.keep_spans = False

    def merge(self, stats: dict, project_moved: int) -> None:
        for layer, (calls, self_s, total_s) in stats.items():
            acc = self.stats.setdefault(layer, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += self_s
            acc[2] += total_s
        self.project_moved += project_moved

    def wrap(self, layer: str, fn, moved_check: bool = False):
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                acc = tracer.stats.get(layer)
                if acc is None:
                    acc = tracer.stats[layer] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += dur - frame[1]
                acc[2] += dur
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                if tracer.keep_spans and len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append(
                        (layer, start, end, parent[0] if parent else None, tracer.job))
            if moved_check and not np.array_equal(out, np.asarray(args[-1])):
                tracer.project_moved += 1
            return out

        wrapper.__name__ = getattr(fn, "__name__", layer)
        wrapper.__qualname__ = getattr(fn, "__qualname__", layer)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> None:
        for layer, bindings in FUNCTIONS.items():
            for mod, attr in bindings:
                self._replace(MODULES[mod], attr, self.wrap(layer, getattr(MODULES[mod], attr)))
        for layer, bindings in METHODS.items():
            for mod, cls_name, attr in bindings:
                cls = getattr(MODULES[mod], cls_name)
                self._replace(cls, attr, self.wrap(layer, vars(cls)[attr],
                                                   moved_check=layer == "geometry.project"))
        # sweep cells run in pool workers; traced_cell ships their totals back
        self._replace(harness, "_sweep_cell", traced_cell)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _replace(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for layer, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": layer, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


# State of the traced run in this process, inherited by forked pool workers.
_ACTIVE = {"tracer": None, "cell_dir": None, "pid": None,
           "original_cell": harness._sweep_cell}


def activate(tracer: Tracer, cell_dir: Path) -> None:
    _ACTIVE.update(tracer=tracer, cell_dir=cell_dir, pid=os.getpid())


def deactivate() -> None:
    _ACTIVE.update(tracer=None, cell_dir=None, pid=None)


def traced_cell(args):
    """Sweep cell run in a pool worker: trace it and write its layer totals to a file."""
    tracer = _ACTIVE["tracer"]
    if tracer is None or os.getpid() == _ACTIVE["pid"]:
        # untraced, or a one-worker sweep running its cells in this process
        return _ACTIVE["original_cell"](args)
    tracer.reset()
    tracer.stack = [["harness.sweep_cell", 0.0]]
    try:
        return _ACTIVE["original_cell"](args)
    finally:
        _, T, seed = args
        name = f"cell_{os.getpid()}_{time.perf_counter_ns()}_{T}_{seed}.json"
        path = Path(_ACTIVE["cell_dir"]) / name
        path.write_text(json.dumps({"stats": tracer.stats,
                                    "project_moved": tracer.project_moved}),
                        encoding="utf-8")


def collect_cells(tracer: Tracer, cell_dir: Path) -> None:
    """Fold the totals written by pool workers into ``tracer`` and delete the files."""
    for path in sorted(Path(cell_dir).glob("cell_*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        tracer.merge(data["stats"], data["project_moved"])
        path.unlink()
