"""Segment plans: drive hands each C-contiguous segment of rows (and its hints) to the root's
_plan(G, H, settle=True), and steps the rounds of a tree that does not settle. The planned
rounds of add, multi_norm, optimistic and multi-hint trees, on (T, d) streams and (T, B, d)
blocks, must give the bits of the round-by-round public API (predict, observe, next_hint,
feed) and leave every component as it leaves them; subclasses and constrained roots keep the
round, and a strided stream replays as its C copy. Over trees that harness.build_learner builds, settled or
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
    WEALTH_CAP,
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
    # drive plans a block's HINT_SEGMENT rows at a time; a longer block plans in chunks, the
    # direction path and the magnitude's KT rounds alike
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
            assert learner.magnitude._planned is not None  # a spent chunk plans the next
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


def _layouts(G):
    """G's values in three layouts that are not C-contiguous: Fortran order, the transpose of a
    C copy of its transpose, and every other column of a wider array (a view)."""
    return {"fortran": np.asfortranarray(G), "transposed": np.ascontiguousarray(G.T).T,
            "columns": np.repeat(G, 2, axis=-1)[..., ::2]}


@pytest.mark.parametrize("tree, shape", [("add", (120, 6)), ("multi_add", (120, 6)),
                                         ("optimistic_block", (120, 4, 6))])
@pytest.mark.parametrize("layout", ["fortran", "transposed", "columns"])
def test_a_strided_stream_replays_as_its_c_copy(monkeypatch, tree, shape, layout):
    # check_stream hands drive a C-contiguous copy: a plain, a hinted and a block replay give
    # the C copy's bits, leave the same state and are planned the same, whatever the layout
    G = _stream(shape, seed=6)
    strided = _layouts(G)[layout]
    assert not strided.flags.c_contiguous and np.array_equal(strided, G)
    counts, runs = _counts(monkeypatch), []
    for rows in (G, strided):
        learner, hints = _make(tree, rows)
        runs.append((drive(learner, rows, hints), _state([learner, hints]), dict(counts)))
        counts.update(direction=0, outcomes=0)
    (c_out, c_state, c_calls), (out, state, calls) = runs
    _same(out, c_out)
    assert state == c_state and calls == c_calls


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


def _kt_spy(monkeypatch):
    """For each chunk of rows the array KT kernel is asked to plan from here on, whether it did."""
    planned = []

    def spy(Z, *args):
        out = kt(Z, *args)
        if len(Z):
            planned.append(out is not None)
        return out
    kt = learners._kt
    monkeypatch.setattr(learners, "_kt", spy)
    return planned


def _bettor_rounds(bettor, Z, planned=None):
    """Each round's bet of a bettor on the rewards Z: public rounds, or, if ``planned`` says
    whether _plan takes Z, the rounds after _plan(Z)."""
    if planned is not None:
        bettor._plan(Z)
    bets = []
    try:
        for z in Z:
            assert (bettor._planned is not None) == bool(planned)  # a spent chunk plans the next
            bets.append(bettor.predict().tobytes())
            bettor.observe(z, checked=planned is not None)
    finally:
        bettor._plan(None)
    return bets


@pytest.mark.parametrize("width", [1, 60, 16])
@pytest.mark.parametrize("n", [1, PLAN_ROWS - 1, PLAN_ROWS, PLAN_ROWS + 1])
def test_kt_plans_are_the_public_bettor_rounds(monkeypatch, width, n):
    # a bettor with width copies, 5 public rounds in (pending loss rows, round > 0), plans n
    # rewards a chunk at a time: each bet, its state and its figures are the rounds' own
    rng = np.random.default_rng(width + n)
    Z = rng.uniform(-1.0, 1.0, (5 + n, width))
    Z[5] = 0.0
    spy = _kt_spy(monkeypatch)
    planned, ref = CoinBettor(0.5, width), CoinBettor(0.5, width)
    assert _bettor_rounds(planned, Z[:5]) == _bettor_rounds(ref, Z[:5])
    assert _bettor_rounds(planned, Z[5:], planned=True) == _bettor_rounds(ref, Z[5:])
    assert spy == [True] * -(-n // PLAN_ROWS)
    assert _state(planned) == _state(ref) and _bettors(planned) == _bettors(ref)


@pytest.mark.parametrize("d", [1, 16])
@pytest.mark.parametrize("n", [1, PLAN_ROWS - 1, PLAN_ROWS, PLAN_ROWS + 1])
def test_a_percoord_plan_is_its_public_rounds(monkeypatch, d, n):
    # drive plans a segment of n rows, then one of n + 3, a chunk at a time
    spy = _kt_spy(monkeypatch)
    _check(lambda G: (PerCoordinateLearner(d, 0.5), None), _stream((2 * n + 3, d), seed=n),
           cuts=[n])
    assert spy == [True] * (-(-n // PLAN_ROWS) - (-(n + 3) // PLAN_ROWS))


@pytest.mark.parametrize("above", [False, True])
def test_a_chunk_is_planned_only_where_no_row_can_reach_the_cap(monkeypatch, above):
    # wealth at the headroom bound WEALTH_CAP / 4**n plans the chunk, an ulp above does not;
    # one near the cap on steady rewards caps within rounds, so its chunks take the rounds
    Z = np.full((PLAN_ROWS, 3), 0.9)
    bound = WEALTH_CAP * 0.25 ** PLAN_ROWS
    for wealth, capped in [(np.nextafter(bound, np.inf) if above else bound, False),
                           (WEALTH_CAP / 16, True)]:
        spy = _kt_spy(monkeypatch)
        planned, ref = CoinBettor(0.5, 3), CoinBettor(0.5, 3)
        planned.wealth = ref.wealth = np.array([1.0, wealth, 2.0])
        assert _bettor_rounds(planned, Z, planned=not above and not capped) == \
            _bettor_rounds(ref, Z)
        assert _state(planned) == _state(ref) and _bettors(planned) == _bettors(ref)
        assert bool(_bettors(ref)[0]) == capped
        assert spy == [not above and not capped]


class _NaNBlock(DimFreeLearner):
    """A trial-axis base whose play turns NaN at one round: a subclass, so it keeps the round."""

    bad = 37

    def _prediction(self):
        w = super()._prediction()
        return w * np.nan if self.round_index == self.bad else w


@pytest.mark.parametrize("tree", ["percoord", "optimistic_block"])
def test_a_kt_plan_dropped_mid_chunk_leaves_the_rounds_state(monkeypatch, tree):
    # round 37 of a 64-row chunk fails; the plan drops with 37 rows run, and the bettor's loss
    # sum, cap counts, wealth, signed sum, round and kept bet are the 37 rounds' and a predict's
    spy = _kt_spy(monkeypatch)
    shape = (100, 3) if tree == "percoord" else (100, 4, 3)
    G = _stream(shape, seed=12)

    def make(G):
        if tree == "percoord":
            return AddCombiner([PerCoordinateLearner(3, 0.5), _NaNAt(3, 37)]), None
        return _make(tree, G, dimfree=_NaNBlock)
    learner, hints = make(G)
    ref, ref_hints = make(G)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ReplayError, match="^round 37: iterate contains non-finite entries$"):
            drive(learner, G, hints)
        _rounds(ref, G[:37], ref_hints)
        ref.predict(*[ref_hints.next_hint()] if ref_hints else [])  # the round that fails
    assert spy == [True]
    assert _state(learner) == _state(ref)
    assert _bettors(learner) == _bettors(ref)
    if hints is not None:  # drive drew the segment's hints first: its sources fed all 64 rows
        ahead = _hints("running_average", G)
        for g in G[:PLAN_ROWS]:
            ahead.next_hint()
            ahead.feed(g)
        assert _state(hints) == _state(ahead)


@pytest.mark.parametrize("tree", ["percoord", "optimistic_block"])
def test_kt_plans_hand_a_capping_run_to_the_rounds(monkeypatch, tree):
    # a steady stream (perfect hints) grows wealth until a chunk may reach the cap: chunks
    # are planned until then, the rest take the rounds, and the cap binds in them
    spy = _kt_spy(monkeypatch)
    if tree == "percoord":
        make, G = (lambda G: (PerCoordinateLearner(2, 0.5), None)), _steady((900, 2), seed=3)
    else:
        make, G = (lambda G: _make(tree, G, hint="perfect")), _steady((400, 5, 4), seed=3)
    learner = _check(make, G, cuts=[100, 250])
    assert harness.capped_bettors(learner)
    assert True in spy and spy[-1] is False


def _play_spy(monkeypatch):
    """For each block segment a trial-axis hinted root plans from here on, whether it fixed
    its plays."""
    fixed = []

    def spy(root, G, H, Z):
        plan_block(root, G, H, Z)
        if G is not None:
            fixed.append(root._planned[2] is not None)
    plan_block = combinators._plan_block
    monkeypatch.setattr(combinators, "_plan_block", spy)
    return fixed


@pytest.mark.parametrize("B", [1, 60])
@pytest.mark.parametrize("hint", ["running_average", "perfect"])
def test_a_block_plans_both_bettors_in_one_kt_call_and_fixes_its_plays(monkeypatch, B, hint):
    # T = 100: segments of 64 and 36 rows; each plans the magnitude and the hint bettor in one
    # _kt call and fixes its plays, bitwise the public rounds'
    kt, fixed = _kt_spy(monkeypatch), _play_spy(monkeypatch)
    _check(lambda G: _make("optimistic_block", G, hint=hint), _stream((100, B, 4), seed=B), [])
    assert kt == [True, True] and fixed == [True, True]


@pytest.mark.parametrize("rich", ["magnitude", "hint"])
def test_a_block_plans_its_plays_only_where_both_bettors_plan(monkeypatch, rich):
    # one trial of one bettor starts above the 64-row headroom bound: the joint _kt call is
    # refused, each bettor plans alone and only the other one plans, and the rounds compute
    # their plays from it
    kt, fixed = _kt_spy(monkeypatch), _play_spy(monkeypatch)

    def make(G):
        learner, hints = _make("optimistic_block", G)
        bettor = learner.base.magnitude if rich == "magnitude" else learner.bettor
        bettor.wealth[2] = WEALTH_CAP * 0.25 ** 40
        return learner, hints
    _check(make, _stream((100, 5, 4), seed=13), [])
    assert kt[:3] == [False, rich == "hint", rich == "magnitude"] and not fixed[0]


def test_a_replay_error_mid_segment_leaves_no_planned_play(monkeypatch):
    # round 37 of a 64-row segment fails in the root's step with its plays and both bettors
    # planned; the rounds after it, on another stream, compute their own plays
    fixed = _play_spy(monkeypatch)
    G, later = _stream((100, 4, 3), seed=14), _stream((80, 4, 3), seed=15)
    learner, hints = _make("optimistic_block", G)
    ref, ref_hints = _make("optimistic_block", G)
    update, failed = OptimisticLearner._update, []

    def fail_once(self, g):
        if self is learner and self.round_index == 37 and not failed:
            failed.append(True)
            raise ValueError("a failing step")
        update(self, g)
    monkeypatch.setattr(OptimisticLearner, "_update", fail_once)
    with pytest.raises(ReplayError, match="^round 37: a failing step$"):
        drive(learner, G, hints)
    assert fixed == [True]
    _rounds(ref, G[:37], ref_hints)
    ref.predict(ref_hints.next_hint())  # the round that fails
    for root in (learner, ref):
        root.observe(G[37])
    _same(_rounds(learner, later, _hints("running_average", later)),
          _rounds(ref, later, _hints("running_average", later)))
    assert _state(learner) == _state(ref) and _bettors(learner) == _bettors(ref)


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
@given(dim=st.sampled_from(range(1, 10)), T=st.sampled_from([*range(49), 63, 64, 65, 130]),
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
