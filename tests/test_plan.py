"""Segment plans: drive hands each C-contiguous segment of rows (and its hints) to the root's
_plan(G, H, settle=True), and steps the rounds of a tree that does not settle. The planned
rounds of add, multi_norm, optimistic and multi-hint trees, on (T, d) streams and (T, B, d)
blocks, must give the bits of the round-by-round public API (predict, observe, next_hint,
feed) and leave every component as it leaves them; subclasses, strided segments and
constrained roots keep the round. Over trees that harness.build_learner builds, settled or
planned or neither, drive must be the public rounds bitwise.
"""

import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, note, settings, strategies as st

from regretforge import combinators, harness, learners
from regretforge.combinators import (
    AddCombiner,
    ConstrainedOptimisticLearner,
    MultiHintLearner,
    OptimisticLearner,
    multi_norm,
)
from regretforge.core import Accumulator, Learner, ReplayError, drive, row_dot
from regretforge.geometry import Ball, NormSpec
from regretforge.hints import ExternalHints, HintSource, LastGradient, RunningAverage
from regretforge.learners import (
    PLAN_ROWS,
    CoinBettor,
    DimFreeLearner,
    PerCoordinateLearner,
    PNormBallDescent,
)

GRID = (NormSpec.from_p(1.5), NormSpec.from_p(1.25))


class _BlockHints(HintSource):
    """Replays fixed (T, B, d) hint rows, one (B, d) row per round: a block's perfect hints."""

    def __init__(self, rows):
        super().__init__(rows.shape[2], rows.shape[1])
        self.rows, self._next = rows, 0

    def next_hint(self):
        self._next += 1
        return self.rows[self._next - 1].copy()


class _SubAdd(AddCombiner):
    pass


class _SubDimFree(DimFreeLearner):
    pass


class _SubOptimistic(OptimisticLearner):
    pass


class _SubMultiHint(MultiHintLearner):
    pass


class _SubBettor(CoinBettor):
    pass


def _add(d, eps, add=AddCombiner, dimfree=DimFreeLearner):
    return add([dimfree(d, eps), PerCoordinateLearner(d, eps)])


def _hints(kind, G):
    if kind == "perfect":  # the stream itself: hint bettors gain every round, so caps bind
        return ExternalHints(G) if G.ndim == 2 else _BlockHints(G)
    if kind == "running_average":
        return RunningAverage(G.shape[-1], None if G.ndim == 2 else G.shape[1])
    return LastGradient(G.shape[-1])


def _make(tree, G, eps=0.5, hint="running_average", **sub):
    """(learner, hints) for a tree name on the rows of G; ``sub`` swaps a class for a subclass."""
    d, B = G.shape[-1], None if G.ndim == 2 else G.shape[1]
    root = sub.get("root")
    if tree == "optimistic_dimfree":
        sub.setdefault("bettor", _SubBettor)
    if tree == "add":
        return _add(d, eps, sub.get("add", AddCombiner), sub.get("dimfree", DimFreeLearner)), None
    if tree == "multi_norm":
        return multi_norm(d, eps), None
    if tree == "dimfree_block":
        return sub.get("dimfree", DimFreeLearner)(d, eps, batch=B), None
    if tree == "optimistic_block":
        base = sub.get("dimfree", DimFreeLearner)(d, eps, batch=B)
        return (root or OptimisticLearner)(base, sub.get("bettor", CoinBettor)(eps, B)), \
            _hints(hint, G)
    base = {"add": lambda: _add(d, eps, sub.get("add", AddCombiner),
                                sub.get("dimfree", DimFreeLearner)),
            "grid": lambda: DimFreeLearner(d, eps, spec=GRID),
            "dimfree": lambda: sub.get("dimfree", DimFreeLearner)(d, eps)}[tree.split("_")[1]]()
    bettor = sub.get("bettor", CoinBettor)
    if tree.startswith("optimistic"):
        return (root or OptimisticLearner)(base, bettor(eps)), _hints(hint, G)
    return (root or MultiHintLearner)(base, [bettor(eps), CoinBettor(eps)]), \
        [_hints(hint, G), LastGradient(d)]


#: trees whose (T, d) replay runs the planned round loop: none of them settles, and
#: "optimistic_dimfree" here has a subclass hint bettor (settling wants exact CoinBettors)
TREES = ["add", "multi_norm", "optimistic_add", "multi_add", "optimistic_grid", "multi_grid",
         "optimistic_dimfree"]
BLOCK_TREES = ["dimfree_block", "optimistic_block"]


def _rounds(learner, G, hints):
    """The public round-by-round replay of rows G: (losses, iterates, hints played), the last two
    None for a block, as drive returns them."""
    sources = [] if hints is None else hints if isinstance(hints, list) else [hints]
    losses, W, H = [], [], []
    for g in G:
        if hints is None:
            w = learner.predict()
        else:
            h = [s.next_hint() for s in sources]
            H.append(np.array(h) if isinstance(hints, list) else h[0])
            w = learner.predict(H[-1])
        losses.append(row_dot(g, w))
        W.append(w)
        learner.observe(g)
        for s in sources:
            s.feed(g)
    if G.ndim == 3:
        return np.array(losses), None, None
    slots = (len(sources),) if isinstance(hints, list) else ()
    return (np.array(losses), np.array(W).reshape(G.shape),
            None if hints is None else np.array(H).reshape((len(G),) + slots + G.shape[1:]))


def _state(obj):
    """Every number a later round reads in a learner tree, as bytes and reprs. A component
    left planned fails here: drive drops every plan when it returns or raises."""
    if isinstance(obj, np.ndarray):
        return obj.shape, obj.dtype.str, obj.tobytes()
    if isinstance(obj, (list, tuple)):
        return [_state(x) for x in obj]
    if isinstance(obj, Accumulator):
        return _state(obj._fold())
    if isinstance(obj, (Learner, CoinBettor, PNormBallDescent, HintSource)):
        assert getattr(obj, "_planned", None) is None
        return {k: _state(v) for k, v in vars(obj).items() if k not in ("_planned", "domain")}
    return repr(obj)


def _walk(node):
    """The bettors of a learner tree."""
    if isinstance(node, (CoinBettor, PerCoordinateLearner)):
        yield node
    for attr in ("bettor", "magnitude", "base"):
        if getattr(node, attr, None) is not None:
            yield from _walk(getattr(node, attr))
    for attr in ("bettors", "children"):
        for child in getattr(node, attr, ()):
            yield from _walk(child)


def _bettors(learner):
    """Capped rounds by bettor path, and every bettor's regrets at 0 and 0.3."""
    return harness.capped_bettors(learner), [_state([b.regret_at_zero(), b.regret_at(0.3)])
                                             for b in _walk(learner) if isinstance(b, CoinBettor)]


def _same(a, b):
    for x, y in zip(a, b):
        assert (x is None) == (y is None)
        if x is not None:
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


def _check(make, G, cuts):
    """drive over the chunks of G between cuts, against the public rounds over the same chunks:
    the same losses and iterates, and the same state and bettor figures after every chunk."""
    planned, hints = make(G)
    ref, ref_hints = make(G)
    bounds = [0, *cuts, len(G)]
    for a, b in zip(bounds, bounds[1:]):
        got = drive(planned, G[a:b], hints)
        _same(got[:2], _rounds(ref, G[a:b], ref_hints))
        assert _state(planned) == _state(ref)
        assert _bettors(planned) == _bettors(ref)
    return planned


def _steady(shape, seed):
    """Rows of norm 0.9 around one direction (each trial its own): bettors on them gain fast."""
    rng = np.random.default_rng(seed)
    V = rng.standard_normal(shape[1:]) + 0.3 * rng.standard_normal(shape)
    return 0.9 * V / np.linalg.norm(V, axis=-1, keepdims=True)


def _stream(shape, seed, zero_rows=3):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal(shape)
    G *= rng.uniform(0.0, 1.0, shape[:-1] + (1,)) / np.linalg.norm(G, axis=-1, keepdims=True)
    G[:zero_rows] = 0.0  # the direction's no-evidence rounds
    return G


@pytest.mark.parametrize("tree, d", [(t, d) for t in TREES for d in (1, 3, 8)
                                     if t != "multi_norm" or d == 8])  # its grid starts at d = 8
def test_planned_drive_is_the_public_rounds_bitwise(tree, d):
    for i, hint in enumerate(["running_average", "last_gradient", "perfect"]):
        G = _stream((150, d), seed=10 * d + i)
        _check(lambda G: _make(tree, G, hint=hint), G, cuts=[1, 40 + 13 * i])


@pytest.mark.parametrize("tree", BLOCK_TREES)
@pytest.mark.parametrize("B, d", [(1, 1), (3, 4), (60, 4)])
def test_planned_block_is_the_public_rounds_bitwise(tree, B, d):
    # 200 rounds: hint segments of 64, cut at 1 and 97 so chunks end mid-segment
    for hint in ("running_average", "perfect"):
        _check(lambda G: _make(tree, G, hint=hint), _stream((200, B, d), seed=B + d), [1, 97])


@pytest.mark.parametrize("tree", TREES[1:] + BLOCK_TREES)
def test_planned_drive_with_wealth_caps_binding_mid_segment(tree):
    # budgets near the cap: bettors on a steady stream with perfect hints cap within rounds
    shape = (300, 8) if not tree.endswith("block") else (300, 5, 4)
    G = _steady(shape, seed=len(tree))
    learner = _check(lambda G: _make(tree, G, eps=1e78, hint="perfect"), G, cuts=[50, 171])
    assert harness.capped_bettors(learner)
    copies = [r for b in _walk(learner) for r in np.atleast_1d(b.capped_rounds).tolist()]
    # a copy steady to the end caps from its first capped round on: one inside a segment
    assert any(0 < r < 300 and (300 - r) % 64 and 300 - r not in (50, 171) for r in copies)


def _path_rows(monkeypatch):
    """The rows of every p = 2 direction path planned from here on."""
    rows = []

    def spy(self, G):
        rows.append(len(G))
        return path(self, G)
    path = PNormBallDescent._path
    monkeypatch.setattr(PNormBallDescent, "_path", spy)
    return rows


@pytest.mark.parametrize("tree", ["add", "optimistic_dimfree", "multi_norm"])
def test_a_plan_holds_a_chunk_of_direction_points_at_a_time(monkeypatch, tree):
    # a segment longer than PLAN_ROWS plans its p = 2 path a chunk at a time, from the state
    # the last chunk left; cuts land a row before, on and after a chunk's edge
    rows = _path_rows(monkeypatch)
    T = 3 * PLAN_ROWS + 2
    G = _stream((T, 8), seed=11)
    cuts = [PLAN_ROWS - 1, 2 * PLAN_ROWS - 1, 2 * PLAN_ROWS + 1]
    _check(lambda G: _make(tree, G), G, cuts)
    assert rows == [PLAN_ROWS - 1, PLAN_ROWS, 2, PLAN_ROWS, 1]


@pytest.mark.parametrize("B", [1, 5])
def test_a_block_plan_holds_a_chunk_of_direction_points_at_a_time(monkeypatch, B):
    # drive plans a block's HINT_SEGMENT rows at a time; a longer block plans in chunks
    T, d = 2 * PLAN_ROWS + 3, 4
    G = _stream((T, B, d), seed=B)
    ref = DimFreeLearner(d, 0.5, batch=B)
    plays = []
    for g in G:
        plays.append(ref.predict())
        ref.observe(g)
    rows = _path_rows(monkeypatch)
    learner = DimFreeLearner(d, 0.5, batch=B)
    learner._plan(G, None)
    try:
        for g, want in zip(G, plays):
            assert learner.predict().tobytes() == want.tobytes()
            learner._step(g)
    finally:
        learner._plan(None, None)
    assert _state(learner) == _state(ref)
    assert rows == [PLAN_ROWS, PLAN_ROWS, 3]


def _counts(monkeypatch):
    """Calls of the per-round work a plan replaces: direction steps and bettor outcomes."""
    counts = {"direction": 0, "outcomes": 0}

    def spy(fn, key):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(PNormBallDescent, "observe", spy(PNormBallDescent.observe, "direction"))
    monkeypatch.setattr(learners, "row_dot", spy(learners.row_dot, "outcomes"))
    monkeypatch.setattr(combinators, "row_dot", spy(combinators.row_dot, "outcomes"))
    return counts


def _calls_and_bits(monkeypatch, make, G):
    """(calls in drive, calls in the public rounds), after checking their bits and states."""
    counts = _counts(monkeypatch)
    learner, hints = make(G)
    got = drive(learner, G, hints)
    in_drive = dict(counts)
    counts.update(direction=0, outcomes=0)
    ref, ref_hints = make(G)
    _same(got[:2], _rounds(ref, G, ref_hints))
    assert _state(learner) == _state(ref)
    return in_drive, dict(counts)


UNPLANNED = {
    "add_subclass": ("add", {"add": _SubAdd}),
    "add_dimfree_subclass": ("add", {"dimfree": _SubDimFree}),
    "optimistic_subclass": ("optimistic_add", {"root": _SubOptimistic}),
    "multi_hint_subclass": ("multi_grid", {"root": _SubMultiHint}),
    "block_dimfree_subclass": ("dimfree_block", {"dimfree": _SubDimFree}),
    "block_optimistic_subclass": ("optimistic_block", {"root": _SubOptimistic}),
}


@pytest.mark.parametrize("name", sorted(UNPLANNED))
def test_a_subclass_keeps_the_round(monkeypatch, name):
    tree, sub = UNPLANNED[name]
    G = _stream((120, 5) if "block" not in name else (120, 3, 5), seed=4)
    in_drive, by_hand = _calls_and_bits(monkeypatch, lambda G: _make(tree, G, **sub), G)
    assert in_drive == by_hand and by_hand["direction"] + by_hand["outcomes"] >= 120
    in_drive, by_hand = _calls_and_bits(monkeypatch, lambda G: _make(tree, G), G)
    assert in_drive["direction"] + in_drive["outcomes"] < by_hand["direction"] + by_hand["outcomes"]


@pytest.mark.parametrize("tree, shape", [("add", (120, 6)), ("multi_add", (120, 6)),
                                         ("optimistic_block", (120, 4, 6))])
@pytest.mark.parametrize("layout", ["fortran", "columns"])
def test_a_strided_segment_keeps_the_round(monkeypatch, tree, shape, layout):
    G = _stream(shape, seed=6)
    if layout == "fortran":
        G = np.asfortranarray(G)
    else:  # every other column of a wider array, as a view
        G = np.concatenate([G, G], axis=-2)[..., ::2, :] if G.ndim == 3 else \
            np.stack([G, G], axis=-1)[..., 0]
    assert not G.flags.c_contiguous
    in_drive, by_hand = _calls_and_bits(monkeypatch, lambda G: _make(tree, G), G)
    assert in_drive == by_hand


def test_a_constrained_root_keeps_the_round(monkeypatch):
    d = 4
    G = _stream((120, d), seed=8)

    def make(G):
        base = DimFreeLearner(d, 0.25)
        return ConstrainedOptimisticLearner(base, Ball(np.zeros(d), 0.5), CoinBettor(0.25)), \
            LastGradient(d)
    in_drive, by_hand = _calls_and_bits(monkeypatch, make, G)
    assert in_drive == by_hand and by_hand["direction"] == 120


class _NaNAt(Learner):
    """A user learner whose play turns NaN at one round."""

    def __init__(self, dim, bad):
        super().__init__(dim, epsilon=0.0)
        self.bad = bad

    def _prediction(self):
        return np.full(self.dim, np.nan if self.round_index == self.bad else 0.0)

    def _update(self, g):
        pass


class _InfAt(CoinBettor):
    """A hint bettor whose bets turn infinite at one round."""

    bad = 37

    def predict(self):
        bet = super().predict()
        return np.full_like(bet, np.inf) if self.round == self.bad else bet


@pytest.mark.parametrize("tree", ["add", "optimistic_dimfree", "optimistic_block"])
def test_a_non_finite_play_mid_segment_names_its_round(tree):
    # round 37 of 100 fails; the planned learner stops where the round loop stops
    shape = (100, 3) if tree != "optimistic_block" else (100, 4, 3)
    G = _stream(shape, seed=9)

    def make(G):
        if tree == "add":
            return AddCombiner([DimFreeLearner(3, 0.5), _NaNAt(3, 37)]), None
        return _make(tree, G, bettor=_InfAt)
    learner, hints = make(G)
    ref, ref_hints = make(G)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ReplayError, match="^round 37: iterate contains non-finite entries$"):
            drive(learner, G, hints)
        _rounds(ref, G[:37], ref_hints)
        sources = [] if ref_hints is None else [ref_hints]
        ref.predict(*[s.next_hint() for s in sources])  # the round that fails
    assert _state(learner) == _state(ref)


class _HalfBettor(CoinBettor):
    """A user bettor that bets half the KT bet: a subclass, so no tree settles over it."""

    def predict(self):
        self._bet = 0.5 * super().predict()
        return self._bet


BUDGETS = [0.25, 1.0]


def _base(pick, dim, depth=0):
    """A plain learner config drawn by ``pick`` (a random.Random): dimfree (p = 2 and p < 2),
    percoord, zero, multi_norm, or add over them. Half the top-level ones are a p = 2 dimfree,
    the one base that settles."""
    kinds = ["dimfree", "dimfree_p", "percoord", "zero"] + ["multi_norm"] * (dim >= 3)
    kind = pick.choice(kinds + ["add"] * (depth < 2))  # the grid needs d >= 3
    if depth == 0 and pick.random() < 0.5:
        kind = "dimfree"
    if kind == "add":
        return {"kind": kind, "children": [_base(pick, dim, depth + 1)
                                           for _ in range(pick.randint(2, 3))]}
    if kind == "zero":
        return {"kind": kind}
    cfg = {"kind": kind, "epsilon": pick.choice(BUDGETS)}
    if kind == "dimfree_p":
        cfg.update(kind="dimfree", p=pick.choice([2.0, 1.5, 1.25]))
    return cfg


def _hint(kind, G, rng, folder):
    """A hint config of a kind of the hint table for the rows of G; "external" writes a file."""
    if kind == "constant":
        v = rng.standard_normal(G.shape[1])
        return {"kind": kind, "vector": (rng.uniform() * v / np.linalg.norm(v)).tolist()}
    if kind == "external":
        path = folder / f"hints{rng.integers(2 ** 30)}.txt"
        np.savetxt(path, _stream((max(len(G), 1), G.shape[1]), seed=rng.integers(2 ** 30)))
        return {"kind": kind, "path": str(path)}
    return {"kind": kind}


def _built(cfg, G, sub, rich):
    """(learner, hint sources) of a config; ``sub`` picks one CoinBettor to make a _HalfBettor,
    and ``rich`` starts every bettor near the wealth cap, past the grammar's budget limit."""
    built = harness.build_learner(cfg, G.shape[1], stream=G)
    for b in _walk(built.learner) if rich else ():
        b.wealth = b.wealth * 4e79  # bettors on good hints or steady rows cap within rounds
    exact = [b for b in _walk(built.learner) if type(b) is CoinBettor]
    if sub is not None and exact:
        exact[sub % len(exact)].__class__ = _HalfBettor
    return built.learner, built.hint_sources


#: the paths of a split's two parts: drive (settled or planned) and the public rounds
SPLITS = [(drive, _rounds), (_rounds, drive), (drive, drive)]


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from(range(1, 10)), T=st.sampled_from(range(49)),
       seed=st.integers(0, 2 ** 16), stream=st.sampled_from(sorted(harness.TABLE["stream"])),
       zero_rows=st.integers(0, 4), root=st.sampled_from(["plain", "optimistic", "multi_hint"]),
       sub=st.sampled_from(range(8)), rich=st.booleans(), paths=st.sampled_from(SPLITS),
       data=st.data())
def test_drive_is_the_public_rounds_over_the_composition_grammar(dim, T, seed, stream, zero_rows,
                                                                 root, sub, rich, paths, data):
    """Trees from harness.build_learner, on every stream and hint kind, as built and with one
    bettor a subclass: drive, and a split whose parts take two paths, give the public rounds'
    losses, iterates and hints, and leave every component (hint sources included) and every
    bettor's figures as the rounds leave them."""
    G = harness.generate_stream(harness.StreamSpec(stream, dim, max(T, 1), seed))[:T]
    G[:zero_rows] = 0.0  # the direction's no-evidence rounds
    # the trees' shapes come from the seed: hypothesis's own draws cluster on a few shapes
    pick, rng = random.Random(seed), np.random.default_rng(seed)
    bases = [_base(pick, dim), {"kind": "add", "children": [_base(pick, dim, 1),
                                                            {"kind": "dimfree"}]}]
    cut = data.draw(st.integers(0, T))
    with tempfile.TemporaryDirectory() as folder:
        if root != "plain":
            kinds = pick.choices(sorted(harness.TABLE["hint"]),
                                 k=1 if root == "optimistic" else pick.randint(1, 3))
            hints = [_hint(kind, G, rng, Path(folder)) for kind in kinds]
            bases = [{"kind": root, "base": base, "bettor_epsilon": pick.choice(BUDGETS),
                      "hints": hints if root == "multi_hint" else hints[0]} for base in bases]
        note(bases)
        trees = [[_built(cfg, G, s, rich) for _ in range(3)] for cfg in bases for s in (None, sub)]
    for (whole, whole_hints), (split, split_hints), (ref, ref_hints) in trees:
        expected = _rounds(ref, G, ref_hints)
        _same(drive(whole, G, whole_hints), expected)
        head, tail = paths[0](split, G[:cut], split_hints), paths[1](split, G[cut:], split_hints)
        _same([None if x is None else np.concatenate([x, y]) for x, y in zip(head, tail)],
              expected)
        for learner, hints in ((whole, whole_hints), (split, split_hints)):
            assert _state([learner, hints]) == _state([ref, ref_hints])
            assert _bettors(learner) == _bettors(ref)
