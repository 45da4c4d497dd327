"""Experiment front-end: streams, configs, replay with checkpoints, CSV.

Configs are single JSON documents. A composition expression is a nested
object with a "kind" discriminator; hint-consuming learners may appear only
at the root (their sources travel with them). Results are rows, one per
(checkpoint, comparator), with checkpoints at powers of two.

CSV columns, fixed: experiment_id, T, comparator_id, regret, cum_loss,
sum_gh_sq, sum_gh_sq_minus_h_sq, wallclock_ms. Runs whose learner carries
scalar bettors append one bettor{i}_regret_at0 column per bettor. Runs
without hints report the hint columns under the convention h_t = 0.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .combinators import (
    AddCombiner,
    ConstrainedOptimisticLearner,
    MultiHintLearner,
    OptimisticLearner,
)
from .core import (MAX_STREAM_ENTRIES, Learner, ZeroLearner, as_vector, check_stream, drive,
                   norm, row_dot)
from .geometry import Ball, Box, NormSpec, WholeSpace
from .hints import (
    AdversarialNegate,
    ConstantHint,
    ExternalHints,
    HintSource,
    LastGradient,
    RunningAverage,
    UnitBallDescent,
    ZeroHint,
)
from .learners import (
    AdaptiveProjectedDescent,
    CoinBettor,
    DimFreeLearner,
    PerCoordinateLearner,
)
from . import combinators
from .concentration import trial_block

#: the learner kinds that consume hints: roots only, and without a trial axis
HINTED_KINDS = ("optimistic", "constrained", "multi_hint")

SEED_ENV_VAR = "REGRETFORGE_SEED"

CSV_COLUMNS = [
    "experiment_id",
    "T",
    "comparator_id",
    "regret",
    "cum_loss",
    "sum_gh_sq",
    "sum_gh_sq_minus_h_sq",
    "wallclock_ms",
]


class CompositionError(ValueError):
    """Invalid experiment composition; the message names the offending node."""

    def __init__(self, path: str, message: str):
        super().__init__(path, message)  # both, so the error of a sweep's pool worker unpickles
        self.path = path

    def __str__(self) -> str:
        return f"{self.path}: {self.args[1]}"


# ---------------------------------------------------------------------------
# gradient streams
# ---------------------------------------------------------------------------

@dataclass
class StreamSpec:
    kind: str
    dim: int
    T: int
    seed: int = 0
    params: dict = field(default_factory=dict)

    @classmethod
    def from_config(cls, cfg: dict, path: str = "stream") -> "StreamSpec":
        """The spec of a stream config, read against its kind's row of TABLE."""
        return _walk("stream", cfg, path)


def _clip_rows_to_unit(G: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(G, axis=1)
    over = norms > 1.0
    if np.any(over):
        G[over] /= norms[over, None]
    return G


def _sparse_replay(rng, G: np.ndarray, k: int):
    """The (indices, signs) that rows of ``rng.choice(d, k, replace=False)`` then
    ``rng.integers(0, 2, k)`` draw, decoded from one block of raw words.

    NumPy draws a value in [0, r] as the high word of next_uint32() * (r + 1)
    and redraws while the low word is below (2**32 - r - 1) % (r + 1) (Lemire).
    A row takes k Floyd draws (r = d - k .. d - 1), k - 1 shuffle draws
    (r = k - 1 .. 1) and k sign draws (r = 1). Floyd's taken set is marked in
    the zero (T, d) array G. None where the replay does not hold: k == d (the
    first Floyd draw takes no word), NumPy's tail shuffle, a redrawn word, a bad k.
    """
    T, d = G.shape
    if not 0 < k < d or (d > 10000 and k > d // 50):
        return None
    n = np.concatenate([np.arange(d - k + 1, d + 1), np.arange(k, 1, -1),
                        np.full(k, 2)]).astype(np.uint64)
    m = rng.integers(0, 2**32, size=(T, 3 * k - 1), dtype=np.uint32) * n
    if np.any((m & 0xFFFFFFFF) < (2**32 - n) % n):
        return None
    v = (m >> 32).astype(np.intp)
    rows, idx = np.arange(T), v[:, :k]
    for c in range(k):  # Floyd: a value already taken gives way to d - k + c
        idx[G[rows, idx[:, c]] != 0, c] = d - k + c
        G[rows, idx[:, c]] = 1.0
    for c, i in enumerate(range(k - 1, 0, -1)):  # swap slot i with the drawn slot in [0, i]
        j = v[:, k + c]
        idx[rows, j], idx[:, i] = idx[:, i], idx[rows, j]
    return idx, v[:, 2 * k - 1:]


def generate_stream(spec: StreamSpec) -> np.ndarray:
    """Deterministic (T, d) gradient stream with every row norm <= 1."""
    rng = np.random.default_rng(spec.seed)
    T, d = spec.T, spec.dim
    if spec.kind == "zero":
        return np.zeros((T, d))
    if spec.kind == "rademacher_iid":
        signs = rng.integers(0, 2, size=(T, d)) * 2.0 - 1.0
        return signs / math.sqrt(d)
    if spec.kind == "gaussian_clipped":
        sigma = float(spec.params.get("sigma", 0.5))
        G = sigma * rng.standard_normal((T, d)) / math.sqrt(d)
        return _clip_rows_to_unit(G)
    if spec.kind == "slowly_varying":
        step = float(spec.params.get("step_size", 1.0 / math.sqrt(max(T, 1))))  # T = 0: no steps
        v = rng.standard_normal(d)
        v /= norm(v)
        S = rng.standard_normal((T, d))  # T draws of size d, in order
        S *= step
        S /= math.sqrt(d)
        G = np.empty((T, d))
        G[:1] = v
        for prev, s, row in zip(G, S, G[1:]):  # row t: row t - 1 plus step t - 1, normalized
            np.add(prev, s, row)
            row /= math.sqrt(row.dot(row))  # norm(row): a C-contiguous row ravels to itself
        return G
    if spec.kind == "sparse":
        k = int(spec.params.get("k_active", max(1, d // 8)))
        G = np.zeros((T, d))
        drawn = _sparse_replay(rng, G, k)
        if drawn is None:  # the per-row loop, from the same seed
            rng = np.random.default_rng(spec.seed)
            idx, signs = np.empty((T, k), dtype=np.int64), np.empty((T, k))
            for t in range(T):
                idx[t] = rng.choice(d, size=k, replace=False)
                signs[t] = rng.integers(0, 2, size=k)
        else:
            idx, signs = drawn
        G[np.arange(T)[:, None], idx] = (signs * 2.0 - 1.0) * (1.0 / math.sqrt(k))
        return G
    if spec.kind == "biased":
        mu = as_vector(spec.params.get("mu", [0.25] + [0.0] * (d - 1)), d, "mu")
        noise = float(spec.params.get("noise", 0.5))
        G = mu + noise * rng.standard_normal((T, d)) / math.sqrt(d)
        return _clip_rows_to_unit(G)
    raise ValueError(f"unknown stream kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# the config grammar: one table of kinds, read and built by one walker
# ---------------------------------------------------------------------------

#: the bound on the magnitude of every config number: below 2**53, so an
#: integer up to it is exact as a JSON float and fits an array dimension, and
#: the squares of such entries sum to a finite norm in any stream
LIMIT = 1e15
REQUIRED = object()  # the default of a field that must be given


def config_object(node, path: str) -> dict:
    """``node`` if it is a JSON object; a CompositionError at ``path`` otherwise."""
    if not isinstance(node, dict):
        raise CompositionError(path, f"must be an object, got {node!r}")
    return node


# A reader maps (raw value, its path, the node read so far: "dim", "stream" and
# the fields before) to the value, or raises CompositionError at the path.

def _number(low: float = -math.inf, high: float = LIMIT, integer: bool = False):
    """A number in (low, high] of magnitude at most LIMIT, or such an integer; JSON
    booleans are neither."""
    lower = f"[{low + 1:g}" if integer else f"({low:g}" if low > -LIMIT else f"[{-LIMIT:g}"
    what = f"{'an integer' if integer else 'a number'} in {lower}, {high:g}]"

    def read(raw, path: str, node=None):
        try:
            value = math.nan if isinstance(raw, bool) else (int if integer else float)(raw)
        except (TypeError, ValueError, OverflowError):
            value = math.nan
        if not (low < value <= high and abs(value) <= LIMIT) or (
                isinstance(raw, float) and value != raw):  # an integer from 2.5
            raise CompositionError(path, f"must be {what}, got {raw!r}")
        return value
    return read


def _vector(raw, path: str, node) -> np.ndarray:
    """A length-dim vector of numbers in [-LIMIT, LIMIT]; JSON booleans are not numbers."""
    for i, x in enumerate(raw if isinstance(raw, list) else ()):
        if isinstance(x, bool):
            raise CompositionError(path, f"entry [{i}] must be a number, got {x!r}")
    try:
        v = as_vector(raw, node["dim"], path.rsplit(".", 1)[-1])
    except (TypeError, ValueError, OverflowError) as exc:
        raise CompositionError(path, str(exc)) from None
    if np.any(np.abs(v) > LIMIT):
        raise CompositionError(path, f"entries must lie in [{-LIMIT:g}, {LIMIT:g}]")
    return v


def _string(raw, path: str, node) -> str:
    if not isinstance(raw, str):
        raise CompositionError(path, f"must be a string, got {raw!r}")
    return raw


def _node(what: str):
    """An object, read and built against its kind's row of TABLE[what]."""
    return lambda raw, path, node: _walk(what, raw, path, node["dim"], node.get("stream"))


def _plain(raw, path: str, node):
    """A learner that consumes no hints: those kinds may only be the root."""
    if isinstance(raw, dict) and raw.get("kind") in HINTED_KINDS:
        raise CompositionError(path, f"{raw['kind']} consumes hints and may only appear at "
                                     "the root")
    return _walk("learner", raw, path, node["dim"], node.get("stream"))


def _list(read, least: int):
    """A list of at least ``least`` entries, entry i read by ``read`` at ``path[i]``."""
    def read_all(raw, path: str, node) -> list:
        if not isinstance(raw, list) or len(raw) < least:
            raise CompositionError(path, f"must be a list of length >= {least}, got {raw!r}")
        return [read(item, f"{path}[{i}]", node) for i, item in enumerate(raw)]
    return read_all


def _then(read, make):
    """``make`` of the value ``read`` gives; a value ``make`` refuses fails at the field."""
    def read_then(raw, path: str, node):
        value = read(raw, path, node)
        try:
            return make(value)
        except (OSError, ValueError) as exc:
            raise CompositionError(path, str(exc)) from None
    return read_then


def _walk(what: str, cfg, path: str, dim: Optional[int] = None,
          stream: Optional[np.ndarray] = None):
    """Read the config node ``cfg`` against its kind's row of TABLE[what] and build it.

    An absent field takes its default, read like a given value (None stays
    None). A bad field raises CompositionError at its path; a missing
    required field, and values a library constructor refuses, at the node's.
    """
    kind = config_object(cfg, path).get("kind")
    row = TABLE[what].get(kind) if isinstance(kind, str) else None
    if row is None:
        raise CompositionError(path, f"unknown {what} kind {kind!r}")
    fields, build = row
    node = {"kind": kind, "dim": dim, "stream": stream}
    for name, read, default in fields:
        if name in cfg:
            node[name] = read(cfg[name], f"{path}.{name}", node)
        elif default is REQUIRED:
            raise CompositionError(path, f"{kind} {what} requires a {name} field")
        else:
            node[name] = None if default is None else read(default, f"{path}.{name}", node)
    try:
        return build(node, path)
    except CompositionError:
        raise
    except ValueError as exc:  # an add child without a budget, multi_norm below d = 3
        raise CompositionError(path, str(exc)) from None


# Builders map (node, path) to the built object; cross-field rules live here.

def _stream_spec(node, path: str) -> StreamSpec:
    if node["T"] * node["dim"] > MAX_STREAM_ENTRIES:
        raise CompositionError(path, f"T * dim = {node['T'] * node['dim']} exceeds the "
                                     f"stream size limit of {MAX_STREAM_ENTRIES} entries")
    if (node.get("k_active") or 0) > node["dim"]:
        raise CompositionError(f"{path}.k_active", f"k_active must be at most dim = {node['dim']}")
    params = {k: node[k] for k in ("sigma", "step_size", "k_active", "mu", "noise")
              if node.get(k) is not None}
    return StreamSpec(node["kind"], node["dim"], node["T"], node["seed"], params)


def _coin(node, path: str) -> Learner:
    if node["dim"] != 1:
        raise CompositionError(path, "coin learner is 1-D; stream dim must be 1")
    return PerCoordinateLearner(1, node["epsilon"])


def _apd(node, path: str) -> Learner:
    if not node["domain"].bounded:
        raise CompositionError(path + ".domain", "apd needs a bounded domain")
    return AdaptiveProjectedDescent(node["domain"])


def _hinted(make):
    """The builder of a hinted root whose learner is ``make(node, new_bettor)``."""
    return lambda node, path: ComposedLearner(
        make(node, lambda: CoinBettor(node["bettor_epsilon"])), node["hints"])


def _external(node, path: str) -> HintSource:
    src, stream = node["path"], node["stream"]
    if src.dim != node["dim"]:
        raise CompositionError(path, f"hint file dim {src.dim} != stream dim {node['dim']}")
    if stream is not None and src.rows.shape[0] < stream.shape[0]:
        raise CompositionError(
            path, f"hint file has {src.rows.shape[0]} rows, stream has T={stream.shape[0]}")
    return src


def _perfect(node, path: str) -> HintSource:
    # oracle sugar: external hints equal to the upcoming gradients
    if node["stream"] is None:
        raise CompositionError(path, "perfect hints need the stream at build time")
    return ExternalHints(node["stream"])


def _box(node, path: str) -> Box:
    lo, hi = node["lo"], node["hi"]
    if np.any(lo > hi):
        i = int(np.argmax(lo > hi))
        raise CompositionError(path + ".lo", f"lo[{i}] = {lo[i]!r} exceeds hi[{i}] = {hi[i]!r}")
    return Box(lo, hi)


def _scaled_unit(node, path: str):
    v = node["direction"]
    if v.dot(v) < np.finfo(float).tiny:  # the squares underflow: scale by the largest entry
        top = np.abs(v).max()
        if top == 0.0:
            raise CompositionError(path, "scaled_unit direction must be nonzero")
        v = v / top
    u = node["r"] * v / float(np.linalg.norm(v))
    return lambda gsum: u


def _best_in_ball(node, path: str):
    r = node["radius"]

    def resolve(gsum):  # the minimizer of <sum g, u> over the ball: -r * sum g / ||sum g||
        size = float(np.linalg.norm(gsum))
        return np.zeros(gsum.shape[0]) if size == 0.0 else -r * gsum / size
    return resolve


_REAL, _POSITIVE = _number(), _number(0.0)
_COUNT, _SEED = _number(0, integer=True), _number(-1, integer=True)  # >= 1, >= 0
_STREAM = (("dim", _COUNT, REQUIRED), ("T", _COUNT, REQUIRED), ("seed", _SEED, 0))
_EPSILON = (("epsilon", _POSITIVE, 1.0),)
_HINTED = (("base", _plain, {"kind": "dimfree"}), ("bettor_epsilon", _POSITIVE, 1.0))
_HINT = (("hints", _node("hint"), REQUIRED),)
_DOMAIN = (("domain", _node("domain"), REQUIRED),)

#: node type -> kind -> (fields, build); a field is (name, reader, default).
#: An absent stream parameter takes generate_stream's default, and a
#: comparator builds to a function from the checkpoint's gradient sum to u.
TABLE = {
    "stream": {
        "rademacher_iid": (_STREAM, _stream_spec),
        "gaussian_clipped": (_STREAM + (("sigma", _REAL, None),), _stream_spec),
        "slowly_varying": (_STREAM + (("step_size", _REAL, None),), _stream_spec),
        "sparse": (_STREAM + (("k_active", _COUNT, None),), _stream_spec),
        "biased": (_STREAM + (("mu", _vector, None), ("noise", _REAL, None)), _stream_spec),
        "zero": (_STREAM, _stream_spec),
    },
    "learner": {
        "coin": (_EPSILON, _coin),
        "dimfree": (_EPSILON + (("p", _then(_number(1.0, 2.0), NormSpec.from_p), None),),
                    lambda n, path: DimFreeLearner(n["dim"], n["epsilon"], spec=n["p"])),
        "percoord": (_EPSILON, lambda n, path: PerCoordinateLearner(n["dim"], n["epsilon"])),
        "apd": (_DOMAIN, _apd),
        "add": ((("children", _list(_plain, 2), REQUIRED),),
                lambda n, path: AddCombiner(n["children"])),
        "multi_norm": (_EPSILON, lambda n, path: combinators.multi_norm(n["dim"], n["epsilon"])),
        "zero": ((), lambda n, path: ZeroLearner(n["dim"])),
        "optimistic": (_HINTED + _HINT, _hinted(
            lambda n, bettor: OptimisticLearner(n["base"], bettor()))),
        "constrained": (_HINTED + _HINT + _DOMAIN, _hinted(
            lambda n, bettor: ConstrainedOptimisticLearner(n["base"], n["domain"], bettor()))),
        "multi_hint": (_HINTED + (("hints", _list(_node("hint"), 1), REQUIRED),), _hinted(
            lambda n, bettor: MultiHintLearner(n["base"], [bettor() for _ in n["hints"]]))),
    },
    "hint": {
        **{kind: ((), lambda n, path, cls=cls: cls(n["dim"])) for kind, cls in (
            ("zero", ZeroHint), ("last_gradient", LastGradient),
            ("running_average", RunningAverage), ("unit_ball_descent", UnitBallDescent),
            ("adversarial_negate", AdversarialNegate))},
        "constant": ((("vector", _then(_vector, ConstantHint), REQUIRED),),
                     lambda n, path: n["vector"]),
        "external": ((("path", _then(_string, ExternalHints.from_file), REQUIRED),), _external),
        "perfect": ((), _perfect),
    },
    "domain": {
        "whole_space": ((), lambda n, path: WholeSpace()),
        "ball": ((("center", _vector, None), ("radius", _POSITIVE, 1.0)), lambda n, path: Ball(
            np.zeros(n["dim"]) if n["center"] is None else n["center"], n["radius"])),
        "box": ((("lo", _vector, REQUIRED), ("hi", _vector, REQUIRED)), _box),
    },
    "comparator": {
        "origin": ((), lambda n, path: lambda gsum: np.zeros(n["dim"])),
        "vector": ((("entries", _vector, REQUIRED),), lambda n, path: lambda gsum: n["entries"]),
        "scaled_unit": ((("direction", _vector, REQUIRED), ("r", _REAL, 1.0)), _scaled_unit),
        "best_in_ball": ((("radius", _REAL, 1.0),), _best_in_ball),
    },
}


@dataclass
class ComposedLearner:
    """A built learner plus its hint plan (None, one source, or k sources)."""

    learner: Learner
    hint_sources: object = None  # None | HintSource | list[HintSource]

    @property
    def bettors(self) -> list:
        out = []
        node = self.learner
        if isinstance(node, (OptimisticLearner, ConstrainedOptimisticLearner)):
            out.append(node.bettor)
        elif isinstance(node, MultiHintLearner):
            out.extend(node.bettors)
        return out


def build_learner(cfg: dict, dim: int, stream: Optional[np.ndarray] = None,
                  path: str = "learner") -> ComposedLearner:
    """Build a composition expression; hinted kinds are root-only."""
    built = _walk("learner", cfg, path, dim, stream)
    return built if isinstance(built, ComposedLearner) else ComposedLearner(built)


def resolve_comparator(cfg: dict, dim: int, gsum: np.ndarray, path: str) -> np.ndarray:
    """Comparator vector at a checkpoint; best_in_ball uses the gradient sum."""
    return _walk("comparator", cfg, path, dim)(gsum)


def comparator_id(cfg: dict, index: int) -> str:
    kind = cfg.get("kind", "vector")
    if kind == "scaled_unit":
        return f"scaled_unit_r{cfg.get('r', 1.0)}"
    if kind == "best_in_ball":
        return f"best_in_ball_r{cfg.get('radius', 1.0)}"
    if kind == "vector":
        return f"vector_{index}"
    return kind


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------

def checkpoints(T: int) -> list:
    """Powers of two up to T, always including T itself."""
    pts = [1 << k for k in range(T.bit_length()) if (1 << k) <= T]
    if pts[-1] != T:
        pts.append(T)
    return pts


@dataclass
class RunRecord:
    """Raw per-round material kept by the runner for checkpoint reporting."""

    losses: np.ndarray
    gradients: np.ndarray
    iterates: Optional[np.ndarray]
    hints: Optional[np.ndarray]
    gh_sq: np.ndarray        # per-round ||g - h||^2 (h = 0 when no hints)
    gh_sq_minus: np.ndarray  # per-round ||g - h||^2 - ||h||^2
    bettor_regrets: Optional[np.ndarray] = None  # (checkpoints, k) regret at 0
    capped: dict = field(default_factory=dict)   # bettor path -> rounds the wealth cap bound


def capped_bettors(learner, path: str = "learner", trial: Optional[int] = None) -> dict:
    """{path: rounds} for every bettor in the tree whose wealth cap has bound.

    Paths follow the learner's attributes (``learner.base.magnitude``,
    ``learner.children[1]``, ``learner.bettors[0]``). Once the cap binds,
    that bettor's regret figures are an artefact of the cap. In a tree with
    a trial axis, ``trial`` picks one trial's counts.
    """
    out = {}
    counts = getattr(learner, "capped_rounds", None)
    rounds = 0 if counts is None else int(np.sum(counts if trial is None else counts[trial]))
    if rounds:
        out[path] = rounds
    for attr in ("bettor", "magnitude", "base"):
        child = getattr(learner, attr, None)
        if child is not None:
            out.update(capped_bettors(child, f"{path}.{attr}", trial))
    for attr in ("bettors", "children"):
        for i, child in enumerate(getattr(learner, attr, ())):
            out.update(capped_bettors(child, f"{path}.{attr}[{i}]", trial))
    return out


def _with_trials(learner: Learner, batch: int) -> Optional[Learner]:
    """A fresh copy of a built learner with a trial axis of ``batch`` trials, or None where its
    tree takes none: only p = 2 DimFreeLearners, PerCoordinateLearners and sums of them do."""
    kind = type(learner)
    if kind is AddCombiner:
        children = [_with_trials(c, batch) for c in learner.children]
        return None if None in children else AddCombiner(children)
    if kind is PerCoordinateLearner:
        return PerCoordinateLearner(learner.dim, learner.epsilon, batch)
    if kind is DimFreeLearner and learner.direction.theta is None:  # one p = 2 direction
        return DimFreeLearner(learner.dim, learner.epsilon, learner.direction.specs[0], batch)
    return None


def _drive(composed: ComposedLearner, G: np.ndarray, keep_iterates: bool):
    # the whole stream is checked before round 0, so a bad one raises
    # ValueError with no round run; core.drive then runs one checkpoint
    # segment at a time, and the bettors are read at checkpoints only.
    # A (T, B, d) block of a trial-axis learner gives one record per trial.
    learner = composed.learner
    G = check_stream(G, learner.dim, learner.batch)
    bettors = composed.bettors
    parts, bettor_regrets, start = [], [], 0
    for stop in checkpoints(len(G)):
        parts.append(drive(learner, G[start:stop], composed.hint_sources, keep_iterates))
        bettor_regrets.append([b.regret_at_zero() for b in bettors])
        start = stop
    losses, iterates, hints = (None if part[0] is None else np.concatenate(part)
                               for part in zip(*parts))
    if hints is None:
        gh_sq = row_dot(G, G)
        gh_minus = gh_sq
    else:
        H = hints if hints.ndim == 2 else hints[:, 0]  # reported columns track the first slot
        diff = G - H
        gh_sq = row_dot(diff, diff)
        gh_minus = gh_sq - row_dot(H, H)
    if G.ndim == 3:  # a block: no hints and no bettor columns
        return [RunRecord(losses[:, i], G[:, i], None, None, sq, sq,
                          capped=capped_bettors(learner, trial=i)) for i, sq in enumerate(gh_sq.T)]
    return RunRecord(losses, G, iterates, hints, gh_sq, gh_minus,
                     np.array(bettor_regrets) if bettors else None, capped_bettors(learner))


def _check_parts(config) -> None:
    """A config must be an object with a 'stream', a 'learner' and a string experiment_id."""
    config_object(config, "config")
    for key in ("stream", "learner"):
        if key not in config:
            raise CompositionError(key, f"experiment config needs a '{key}'")
    _string(config.get("experiment_id", ""), "experiment_id", None)


def run_experiment(config: dict, seed_override: Optional[int] = None,
                   keep_record: bool = False, keep_iterates: bool = True):
    """Run one experiment config; returns result rows (and the record if asked).

    Rows appear per (checkpoint, comparator) with measured regret, cumulative
    loss, and the optimism statistics; bettor columns are appended when the
    learner carries scalar bettors. The whole config, comparators included,
    is checked before round 0. The record's ``capped`` names the bettors
    whose wealth cap bound during the run. The record holds the (T, d)
    iterates unless ``keep_iterates`` is False; without ``keep_record`` no
    iterate is kept.
    """
    _check_parts(config)
    stream_cfg = dict(config_object(config["stream"], "stream"))
    if seed_override is not None:
        stream_cfg["seed"] = int(seed_override)
    spec = StreamSpec.from_config(stream_cfg)
    G = generate_stream(spec)
    composed = build_learner(config["learner"], spec.dim, stream=G)
    comparators = _comparators(config, spec.dim)

    start = time.perf_counter()
    record = _drive(composed, G, keep_iterates=keep_record and keep_iterates)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    rows = _report(config.get("experiment_id", "experiment"), record, comparators, elapsed_ms)
    if keep_record:
        return rows, record
    return rows


def _comparators(config: dict, dim: int) -> list:
    """(comparator_id, resolve) for each of a config's comparators, all checked."""
    cfgs = config.get("comparators", [{"kind": "origin"}])
    resolvers = _list(_node("comparator"), 1)(cfgs, "comparators", {"dim": dim})
    return [(comparator_id(c, i), resolve) for i, (c, resolve) in enumerate(zip(cfgs, resolvers))]


def _report(experiment_id: str, record: RunRecord, comparators: list, elapsed_ms: float) -> list:
    """The checkpoint rows of one run's record, one per (checkpoint, comparator)."""
    # fsum of a list slice: the same exact sums, at less cost than of NumPy slices
    losses, gh_sq = record.losses.tolist(), record.gh_sq.tolist()
    gh_minus = gh_sq if record.gh_sq_minus is record.gh_sq else record.gh_sq_minus.tolist()
    # a block trial's (T, d) column, copied: its sums then add as its own stream's do
    G = np.ascontiguousarray(record.gradients)
    rows = []
    for j, T_prime in enumerate(checkpoints(len(G))):
        cum_loss = math.fsum(losses[:T_prime])
        # bitwise row T' - 1 of np.cumsum(G, axis=0): both add the rows in order
        gsum = G[:T_prime].sum(axis=0)
        sum_gh_sq = math.fsum(gh_sq[:T_prime])
        hint_sums = {"sum_gh_sq": sum_gh_sq, "sum_gh_sq_minus_h_sq":
                     sum_gh_sq if gh_minus is gh_sq else math.fsum(gh_minus[:T_prime])}
        for cid, resolve in comparators:
            regret = cum_loss - float(np.dot(gsum, resolve(gsum)))
            row = {
                "experiment_id": experiment_id,
                "T": T_prime,
                "comparator_id": cid,
                "regret": regret,
                "cum_loss": cum_loss,
                **hint_sums,
                "wallclock_ms": elapsed_ms,
            }
            if record.bettor_regrets is not None:
                for i in range(record.bettor_regrets.shape[1]):
                    row[f"bettor{i}_regret_at0"] = record.bettor_regrets[j, i]
            rows.append(row)
    return rows


def write_csv(rows, path) -> None:
    if not rows:
        raise ValueError("no rows to write")
    columns = list(CSV_COLUMNS)
    for key in rows[0]:
        if key not in columns:
            columns.append(key)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def read_csv(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def dump_ledger(record: RunRecord, path) -> None:
    """One JSON object per round: iterate, gradient, and hint if present."""
    with open(path, "w", encoding="utf-8") as fh:
        for t in range(len(record.losses)):
            entry = {
                "t": t,
                "w": record.iterates[t].tolist(),
                "g": record.gradients[t].tolist(),
            }
            if record.hints is not None:
                entry["h"] = record.hints[t].tolist()
            fh.write(json.dumps(entry) + "\n")


def fit_slope(rows, comparator_id_value: str) -> float:
    """Least-squares slope of log2(regret) vs log2(T) over the checkpoints.

    Regret values at or below zero are floored at 1 before taking logs.
    Needs at least 4 checkpoints.
    """
    pts = sorted(
        (int(r["T"]), float(r["regret"]))
        for r in rows
        if r["comparator_id"] == comparator_id_value
    )
    if len(pts) < 4:
        raise ValueError(f"need >= 4 checkpoints to fit a slope, got {len(pts)}")
    x = np.log2([p[0] for p in pts])
    y = np.log2([max(p[1], 1.0) for p in pts])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _cell(config: dict, T: int, seed: int) -> dict:
    """The config of one sweep cell: a deep copy with its T, seed and experiment_id."""
    cfg = json.loads(json.dumps(config))
    cfg["stream"]["T"] = T
    cfg["stream"]["seed"] = seed
    cfg["experiment_id"] = f"{cfg.get('experiment_id', 'experiment')}_T{T}_s{seed}"
    return cfg


def _run_block(cells: list) -> list:
    """(rows, capped) of each of the same-T cell configs ``cells``, run as one (T, B, d)
    block of a trial-axis learner: each seed's stream is drawn into its column, one drive
    replays them all, and each trial is reported as run_experiment reports a run."""
    specs = [StreamSpec.from_config(cfg["stream"]) for cfg in cells]
    T, dim = specs[0].T, specs[0].dim
    G = np.empty((T, len(cells), dim))  # C-contiguous: check_stream keeps it
    for i, spec in enumerate(specs):
        G[:, i] = generate_stream(spec)
    learner = _with_trials(build_learner(cells[0]["learner"], dim).learner, len(cells))
    comparators = _comparators(cells[0], dim)
    start = time.perf_counter()
    records = _drive(ComposedLearner(learner), G, keep_iterates=False)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return [(_report(cfg["experiment_id"], record, comparators, elapsed_ms), record.capped)
            for cfg, record in zip(cells, records)]


def _sweep_cell(args):
    """One pool task, ``(config, T, seeds)``: a block of seeds, or one cell by run_experiment.
    Returns ((T, seed), rows, {experiment_id: capped bettors} or {}) for each seed."""
    config, T, seeds = args
    cells = [_cell(config, T, seed) for seed in seeds]
    if len(cells) > 1:
        done = _run_block(cells)
    else:
        rows, record = run_experiment(cells[0], keep_record=True, keep_iterates=False)
        done = [(rows, record.capped)]
    return [((T, seed), rows, {cfg["experiment_id"]: capped} if capped else {})
            for seed, cfg, (rows, capped) in zip(seeds, cells, done)]


def _axis(sweep: dict, key: str, default, read) -> list:
    """The sweep axis ``sweep[key]`` as integers; a missing axis is ``[default]``."""
    values = sweep.get(key, [default])
    if not isinstance(values, list) or not values:
        raise CompositionError(f"sweep.{key}", f"must be a non-empty list, got {values!r}")
    return [read(v, f"sweep.{key}") for v in values]


def _block_dim(config: dict, T: int, seed: int) -> Optional[int]:
    """The stream dim of a sweep whose learner tree takes a trial axis, else None. The stream
    and learner of its cell (T, seed) are checked first, as run_experiment checks them; a
    hinted root takes no trial axis and is left to its cells to check."""
    cfg = _cell(config, T, seed)
    dim = StreamSpec.from_config(cfg["stream"]).dim
    if config_object(cfg["learner"], "learner").get("kind") in HINTED_KINDS:
        return None
    return None if _with_trials(build_learner(cfg["learner"], dim).learner, 1) is None else dim


def run_sweep(config: dict, workers: int = 1, capped: Optional[dict] = None):
    """Grid over T and/or seeds; cells are independent and merged by key.

    Where the learner tree takes a trial axis (only p = 2 dimfree, percoord
    and add of those), the seeds of one T run as (T, B, d) blocks of at most
    ``concentration.trial_block(T, dim)`` seeds, each one task; any other
    sweep runs each cell as its own task, by run_experiment. Either way a
    cell's rows and capped bettors are those of its run alone, bit for bit.
    Tasks run longest T first, rows come out by (T, seed), and the pool gets
    at most one worker per task and per CPU. A ``capped`` dict receives
    {cell experiment_id: {bettor path: rounds}} for every cell where a
    wealth cap bound.
    """
    _check_parts(config)
    sweep, stream = (config_object(config.get(key, {}), key) for key in ("sweep", "stream"))
    Ts = sorted(_axis(sweep, "T", stream.get("T"), _COUNT), reverse=True)
    seeds = _axis(sweep, "seeds", stream.get("seed", 0), _SEED)
    dim = _block_dim(config, Ts[0], seeds[0]) if len(seeds) > 1 else None
    tasks = []
    for T in Ts:
        size = 1 if dim is None else trial_block(T, dim)
        tasks += [(config, T, seeds[i:i + size]) for i in range(0, len(seeds), size)]
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here: it loads multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, tasks))
    else:
        results = [_sweep_cell(task) for task in tasks]
    cells = sorted((cell for task in results for cell in task), key=lambda kv: kv[0])
    rows = []
    for _, cell_rows, cell_capped in cells:
        rows.extend(cell_rows)
        if capped is not None:
            capped.update(cell_capped)
    return rows


def env_seed_override() -> Optional[int]:
    raw = os.environ.get(SEED_ENV_VAR)
    return None if raw is None else _SEED(raw, SEED_ENV_VAR)
