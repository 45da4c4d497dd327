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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .combinators import (
    AddCombiner,
    ConstrainedOptimisticLearner,
    MultiHintLearner,
    OptimisticLearner,
)
from .core import DimensionMismatch, Learner, as_vector, check_stream, drive, norm, row_dot
from .geometry import Ball, Box, ConvexDomain, WholeSpace
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
from .geometry import NormSpec

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

STREAM_KINDS = (
    "rademacher_iid",
    "gaussian_clipped",
    "slowly_varying",
    "sparse",
    "biased",
    "zero",
)


@dataclass
class StreamSpec:
    kind: str
    dim: int
    T: int
    seed: int = 0
    params: dict = field(default_factory=dict)

    @classmethod
    def from_config(cls, cfg: dict, path: str = "stream") -> "StreamSpec":
        """The spec of a stream config, every field and parameter checked."""
        for key in ("kind", "dim", "T"):
            if key not in cfg:
                raise CompositionError(path, f"missing field {key!r}")
        if cfg["kind"] not in STREAM_KINDS:
            raise CompositionError(path, f"unknown stream kind {cfg['kind']!r}")
        dim, T = _integer(cfg["dim"], f"{path}.dim"), _integer(cfg["T"], f"{path}.T")
        for key in ("sigma", "step_size", "noise"):
            if key in cfg:
                _number(cfg, key, 0.0, path)
        if "mu" in cfg:
            _vector(cfg, "mu", dim, path)
        if "k_active" in cfg and _integer(cfg["k_active"], f"{path}.k_active") > dim:
            raise CompositionError(f"{path}.k_active", f"k_active must be at most dim = {dim}")
        extra = {k: v for k, v in cfg.items() if k not in ("kind", "dim", "T", "seed")}
        return cls(cfg["kind"], dim, T, _integer(cfg.get("seed", 0), f"{path}.seed", 0), extra)


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
        step = float(spec.params.get("step_size", 1.0 / math.sqrt(T)))
        v = rng.standard_normal(d)
        v /= norm(v)
        S = rng.standard_normal((T, d))  # T draws of size d, in order
        S *= step
        S /= math.sqrt(d)
        G = np.empty((T, d))
        for t in range(T):
            G[t] = v
            v = v + S[t]
            v /= norm(v)
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
        mu = np.asarray(spec.params.get("mu", [0.25] + [0.0] * (d - 1)), dtype=np.float64)
        mu = as_vector(mu, d, "mu")
        noise = float(spec.params.get("noise", 0.5))
        G = mu + noise * rng.standard_normal((T, d)) / math.sqrt(d)
        return _clip_rows_to_unit(G)
    raise ValueError(f"unknown stream kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# composition expressions
# ---------------------------------------------------------------------------

def config_object(node, path: str) -> dict:
    """``node`` if it is a JSON object; a CompositionError at ``path`` otherwise."""
    if not isinstance(node, dict):
        raise CompositionError(path, f"must be an object, got {node!r}")
    return node


def _integer(raw, path: str, least: int = 1) -> int:
    """``raw`` as a non-bool integer >= ``least``; a CompositionError at ``path`` otherwise."""
    try:
        value = None if isinstance(raw, bool) else int(raw)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or value < least or (isinstance(raw, float) and value != raw):
        raise CompositionError(path, f"must be an integer >= {least}, got {raw!r}")
    return value


def _number(cfg: dict, key: str, default: float, path: str) -> float:
    """The finite number ``cfg[key]`` (``default`` when absent)."""
    try:
        value = float(cfg.get(key, default))
    except (TypeError, ValueError):
        raise CompositionError(f"{path}.{key}", f"{key} must be a number") from None
    if not math.isfinite(value):
        raise CompositionError(f"{path}.{key}", f"{key} must be finite, got {value!r}")
    return value


def _vector(cfg: dict, key: str, dim: int, path: str) -> np.ndarray:
    """The finite length-``dim`` vector ``cfg[key]``."""
    if key not in cfg:
        raise CompositionError(path, f"{cfg.get('kind')} needs field {key!r}")
    try:
        return as_vector(cfg[key], dim, key)
    except (TypeError, ValueError) as exc:
        raise CompositionError(f"{path}.{key}", str(exc)) from None


def _build_domain(cfg: dict, dim: int, path: str) -> ConvexDomain:
    kind = config_object(cfg, path).get("kind")
    if kind == "whole_space":
        return WholeSpace()
    if kind == "ball":
        center = _vector(cfg, "center", dim, path) if "center" in cfg else np.zeros(dim)
        radius = _number(cfg, "radius", 1.0, path)
        if radius <= 0.0:
            raise CompositionError(path + ".radius", f"radius must be positive, got {radius!r}")
        return Ball(center, radius)
    if kind == "box":
        lo = _vector(cfg, "lo", dim, path)
        hi = _vector(cfg, "hi", dim, path)
        if np.any(lo > hi):
            i = int(np.argmax(lo > hi))
            raise CompositionError(path + ".lo", f"lo[{i}] = {lo[i]!r} exceeds hi[{i}] = {hi[i]!r}")
        return Box(lo, hi)
    raise CompositionError(path, f"unknown domain kind {kind!r}")


def _build_hint_source(cfg: dict, dim: int, stream: Optional[np.ndarray],
                       path: str) -> HintSource:
    kind = config_object(cfg, path).get("kind")
    if kind == "zero":
        return ZeroHint(dim)
    if kind == "last_gradient":
        return LastGradient(dim)
    if kind == "running_average":
        return RunningAverage(dim)
    if kind == "unit_ball_descent":
        return UnitBallDescent(dim)
    if kind == "adversarial_negate":
        return AdversarialNegate(dim)
    if kind == "constant":
        vector = _vector(cfg, "vector", dim, path)
        try:
            return ConstantHint(vector)
        except ValueError as exc:  # norm above 1
            raise CompositionError(f"{path}.vector", str(exc)) from None
    if kind == "external":
        if not isinstance(cfg.get("path"), str):
            raise CompositionError(f"{path}.path", "external hints need a 'path' string")
        try:
            src = ExternalHints.from_file(cfg["path"])
        except (OSError, ValueError) as exc:  # unreadable, malformed, or a row norm above 1
            raise CompositionError(f"{path}.path", str(exc)) from None
        if src.dim != dim:
            raise CompositionError(path, f"hint file dim {src.dim} != stream dim {dim}")
        if stream is not None and src.rows.shape[0] < stream.shape[0]:
            raise CompositionError(
                path, f"hint file has {src.rows.shape[0]} rows, stream has T={stream.shape[0]}"
            )
        return src
    if kind == "perfect":
        # oracle sugar: external hints equal to the upcoming gradients
        if stream is None:
            raise CompositionError(path, "perfect hints need the stream at build time")
        return ExternalHints(stream)
    raise CompositionError(path, f"unknown hint kind {kind!r}")


_PLAIN_KINDS = ("coin", "dimfree", "percoord", "apd", "add", "multi_norm", "zero")
_HINTED_KINDS = ("optimistic", "constrained", "multi_hint")


def _budget(cfg: dict, key: str, path: str) -> float:
    """The positive origin budget ``cfg[key]`` (default 1.0)."""
    value = _number(cfg, key, 1.0, path)
    if value <= 0.0:
        raise CompositionError(f"{path}.{key}", f"{key} must be positive, got {value!r}")
    return value


def _build_plain(cfg: dict, dim: int, path: str) -> Learner:
    kind = config_object(cfg, path).get("kind")
    if kind in _HINTED_KINDS:
        raise CompositionError(
            path, f"{kind} consumes hints and may only appear at the root"
        )
    eps = _budget(cfg, "epsilon", path)
    if kind == "coin":
        if dim != 1:
            raise CompositionError(path, "coin learner is 1-D; stream dim must be 1")
        return PerCoordinateLearner(1, eps)
    if kind == "dimfree":
        spec = None
        if "p" in cfg:
            p = _number(cfg, "p", 2.0, path)
            if not 1.0 < p <= 2.0:
                raise CompositionError(path + ".p", f"p must lie in (1, 2], got {p!r}")
            spec = NormSpec.from_p(p)
        return DimFreeLearner(dim, epsilon=eps, spec=spec)
    if kind == "percoord":
        return PerCoordinateLearner(dim, epsilon=eps)
    if kind == "zero":
        from .core import ZeroLearner

        return ZeroLearner(dim)
    if kind == "apd":
        if "domain" not in cfg:
            raise CompositionError(path, "apd needs a bounded 'domain'")
        dom = _build_domain(cfg["domain"], dim, path + ".domain")
        if not dom.bounded:
            raise CompositionError(path + ".domain", "apd needs a bounded domain")
        return AdaptiveProjectedDescent(dom)
    if kind == "add":
        children_cfg = cfg.get("children")
        if not children_cfg or len(children_cfg) < 2:
            raise CompositionError(path, "add needs at least two children")
        children = [
            _build_plain(c, dim, f"{path}.children[{i}]")
            for i, c in enumerate(children_cfg)
        ]
        try:
            return AddCombiner(children)
        except (ValueError, DimensionMismatch) as exc:
            raise CompositionError(path, str(exc)) from exc
    if kind == "multi_norm":
        try:
            return combinators.multi_norm(dim, eps)
        except ValueError as exc:
            raise CompositionError(path, str(exc)) from exc
    raise CompositionError(path, f"unknown learner kind {cfg.get('kind')!r}")


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
    kind = config_object(cfg, path).get("kind")
    if kind == "optimistic":
        if "hints" not in cfg:
            raise CompositionError(path, "optimistic learner requires a hint source")
        base = _build_plain(cfg.get("base", {"kind": "dimfree"}), dim, path + ".base")
        eps_b = _budget(cfg, "bettor_epsilon", path)
        learner = OptimisticLearner(base, CoinBettor(eps_b))
        src = _build_hint_source(cfg["hints"], dim, stream, path + ".hints")
        return ComposedLearner(learner, src)
    if kind == "constrained":
        if "hints" not in cfg:
            raise CompositionError(path, "constrained learner requires a hint source")
        if "domain" not in cfg:
            raise CompositionError(path, "constrained learner requires a domain")
        base = _build_plain(cfg.get("base", {"kind": "dimfree"}), dim, path + ".base")
        dom = _build_domain(cfg["domain"], dim, path + ".domain")
        eps_b = _budget(cfg, "bettor_epsilon", path)
        learner = ConstrainedOptimisticLearner(base, dom, CoinBettor(eps_b))
        src = _build_hint_source(cfg["hints"], dim, stream, path + ".hints")
        return ComposedLearner(learner, src)
    if kind == "multi_hint":
        hints_cfg = cfg.get("hints")
        if not hints_cfg or not isinstance(hints_cfg, list):
            raise CompositionError(path, "multi_hint requires a list of hint sources")
        base = _build_plain(cfg.get("base", {"kind": "dimfree"}), dim, path + ".base")
        eps_b = _budget(cfg, "bettor_epsilon", path)
        learner = MultiHintLearner(base, [CoinBettor(eps_b) for _ in hints_cfg])
        sources = [
            _build_hint_source(h, dim, stream, f"{path}.hints[{i}]")
            for i, h in enumerate(hints_cfg)
        ]
        return ComposedLearner(learner, sources)
    return ComposedLearner(_build_plain(cfg, dim, path))


# ---------------------------------------------------------------------------
# comparators
# ---------------------------------------------------------------------------

def resolve_comparator(cfg: dict, dim: int, gsum: np.ndarray, path: str) -> np.ndarray:
    """Comparator vector at a checkpoint; best_in_ball uses the gradient sum.

    A malformed comparator config is a CompositionError naming ``path``.
    """
    if not isinstance(cfg, dict):
        raise CompositionError(path, f"comparator must be an object, got {cfg!r}")
    kind = cfg.get("kind")
    if kind == "origin":
        return np.zeros(dim)
    if kind == "vector":
        return _vector(cfg, "entries", dim, path)
    if kind == "scaled_unit":
        direction = _vector(cfg, "direction", dim, path)
        r = _number(cfg, "r", 1.0, path)
        n = float(np.linalg.norm(direction))
        if n == 0.0:
            raise CompositionError(path, "scaled_unit direction must be nonzero")
        return r * direction / n
    if kind == "best_in_ball":
        # minimizer of <sum g, u> over the ball: u* = -r * sum g / ||sum g||
        r = _number(cfg, "radius", 1.0, path)
        n = float(np.linalg.norm(gsum))
        if n == 0.0:
            return np.zeros(dim)
        return -r * gsum / n
    raise CompositionError(path, f"unknown comparator kind {kind!r}")


def check_comparators(cfgs, dim: int) -> None:
    """Resolve every comparator config once, so a bad one fails before round 0."""
    if not isinstance(cfgs, list) or not cfgs:
        raise CompositionError("comparators", "comparators must be a non-empty list")
    for idx, ccfg in enumerate(cfgs):
        resolve_comparator(ccfg, dim, np.zeros(dim), f"comparators[{idx}]")


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


def capped_bettors(learner, path: str = "learner") -> dict:
    """{path: rounds} for every bettor in the tree whose wealth cap has bound.

    Paths follow the learner's attributes (``learner.base.magnitude``,
    ``learner.children[1]``, ``learner.bettors[0]``). Once the cap binds,
    that bettor's regret figures are an artefact of the cap.
    """
    out = {}
    rounds = int(np.sum(getattr(learner, "capped_rounds", 0)))
    if rounds:
        out[path] = rounds
    for attr in ("bettor", "magnitude", "base"):
        child = getattr(learner, attr, None)
        if child is not None:
            out.update(capped_bettors(child, f"{path}.{attr}"))
    for attr in ("bettors", "children"):
        for i, child in enumerate(getattr(learner, attr, ())):
            out.update(capped_bettors(child, f"{path}.{attr}[{i}]"))
    return out


def _drive(composed: ComposedLearner, G: np.ndarray,
           keep_iterates: bool) -> RunRecord:
    # the whole stream is checked before round 0, so a bad one raises
    # ValueError with no round run; core.drive then runs one checkpoint
    # segment at a time, and the bettors are read at checkpoints only
    learner = composed.learner
    G = check_stream(G, learner.dim, unit=learner.unit_gradient_bound)
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
    return RunRecord(losses, G, iterates, hints, gh_sq, gh_minus,
                     np.array(bettor_regrets) if bettors else None, capped_bettors(learner))


def _check_parts(config) -> None:
    """A config must be an object with a 'stream', a 'learner' and a string experiment_id."""
    config_object(config, "config")
    for key in ("stream", "learner"):
        if key not in config:
            raise CompositionError(key, f"experiment config needs a '{key}'")
    if not isinstance(config.get("experiment_id", ""), str):
        raise CompositionError("experiment_id",
                               f"must be a string, got {config['experiment_id']!r}")


def run_experiment(config: dict, seed_override: Optional[int] = None,
                   keep_record: bool = False):
    """Run one experiment config; returns result rows (and the record if asked).

    Rows appear per (checkpoint, comparator) with measured regret, cumulative
    loss, and the optimism statistics; bettor columns are appended when the
    learner carries scalar bettors. The whole config, comparators included,
    is checked before round 0. The record's ``capped`` names the bettors
    whose wealth cap bound during the run.
    """
    _check_parts(config)
    stream_cfg = dict(config_object(config["stream"], "stream"))
    if seed_override is not None:
        stream_cfg["seed"] = int(seed_override)
    spec = StreamSpec.from_config(stream_cfg)
    G = generate_stream(spec)
    composed = build_learner(config["learner"], spec.dim, stream=G)
    comparator_cfgs = config.get("comparators", [{"kind": "origin"}])
    check_comparators(comparator_cfgs, spec.dim)

    start = time.perf_counter()
    record = _drive(composed, G, keep_iterates=keep_record or bool(config.get("dump_ledger")))

    experiment_id = config.get("experiment_id", "experiment")
    rows = []
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    for j, T_prime in enumerate(checkpoints(spec.T)):
        cum_loss = math.fsum(record.losses[:T_prime])
        # bitwise row T' - 1 of np.cumsum(G, axis=0): both add the rows in order
        gsum = G[:T_prime].sum(axis=0)
        for idx, ccfg in enumerate(comparator_cfgs):
            u = resolve_comparator(ccfg, spec.dim, gsum, f"comparators[{idx}]")
            regret = cum_loss - float(np.dot(gsum, u))
            row = {
                "experiment_id": experiment_id,
                "T": T_prime,
                "comparator_id": comparator_id(ccfg, idx),
                "regret": regret,
                "cum_loss": cum_loss,
                "sum_gh_sq": math.fsum(record.gh_sq[:T_prime]),
                "sum_gh_sq_minus_h_sq": math.fsum(record.gh_sq_minus[:T_prime]),
                "wallclock_ms": elapsed_ms,
            }
            if record.bettor_regrets is not None:
                for i in range(record.bettor_regrets.shape[1]):
                    row[f"bettor{i}_regret_at0"] = record.bettor_regrets[j, i]
            rows.append(row)
    if keep_record:
        return rows, record
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

def _sweep_cell(args):
    base_config, T, seed = args
    cfg = json.loads(json.dumps(base_config))  # deep copy
    cfg["stream"]["T"] = T
    cfg["stream"]["seed"] = seed
    cfg["experiment_id"] = f"{cfg.get('experiment_id', 'experiment')}_T{T}_s{seed}"
    rows, record = run_experiment(cfg, keep_record=True)
    return (T, seed), rows, {cfg["experiment_id"]: record.capped} if record.capped else {}


def _axis(sweep: dict, key: str, default, least: int) -> list:
    """The sweep axis ``sweep[key]`` as integers; a missing axis is ``[default]``."""
    values = sweep.get(key, [default])
    if not isinstance(values, list) or not values:
        raise CompositionError(f"sweep.{key}", f"must be a non-empty list, got {values!r}")
    return [_integer(v, f"sweep.{key}", least) for v in values]


def run_sweep(config: dict, workers: int = 1, capped: Optional[dict] = None):
    """Grid over T and/or seeds; cells are independent and merged by key.

    Cells run longest T first, rows come out by (T, seed), and the pool gets
    at most one worker per cell and per CPU. A ``capped`` dict
    receives {cell experiment_id: {bettor path: rounds}} for every cell where
    a wealth cap bound.
    """
    _check_parts(config)
    sweep, stream = (config_object(config.get(key, {}), key) for key in ("sweep", "stream"))
    Ts = _axis(sweep, "T", stream.get("T"), 1)
    seeds = _axis(sweep, "seeds", stream.get("seed", 0), 0)
    cells = sorted(((config, T, s) for T in Ts for s in seeds), key=lambda c: -c[1])
    workers = min(workers, len(cells), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, cells))
    else:
        results = [_sweep_cell(c) for c in cells]
    results.sort(key=lambda kv: kv[0])
    rows = []
    for _, cell_rows, cell_capped in results:
        rows.extend(cell_rows)
        if capped is not None:
            capped.update(cell_capped)
    return rows


def env_seed_override() -> Optional[int]:
    raw = os.environ.get(SEED_ENV_VAR)
    return None if raw is None else _integer(raw, SEED_ENV_VAR, 0)
