"""Settled segments: on a (T, d) stream, drive's one per-segment hook,
Learner._plan(G, H, settle=True), runs each component of a p = 2 dimfree,
optimistic or multi-hint root once over the stream, and must give the bits of
the round-by-round public API (predict, observe, next_hint, feed).
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regretforge import harness
from regretforge.combinators import MultiHintLearner, OptimisticLearner
from regretforge.core import ReplayError, drive
from regretforge.hints import (
    AdversarialNegate,
    ConstantHint,
    ExternalHints,
    LastGradient,
    RunningAverage,
    UnitBallDescent,
    ZeroHint,
)
from regretforge.learners import CoinBettor, DimFreeLearner

ROOT = Path(__file__).resolve().parent.parent
STREAMS = sorted(harness.TABLE["stream"])
HINTS = ["zero", "constant", "last_gradient", "running_average", "unit_ball_descent",
         "adversarial_negate", "external"]
TREES = ["dimfree", "optimistic", "multi1", "multi2", "multi3"]


def _stream(kind, dim, T, seed=0, zero_rows=0):
    G = harness.generate_stream(harness.StreamSpec(kind, dim, max(T, 1), seed))[:T]
    G[:zero_rows] = 0.0  # the direction's no-evidence rounds
    return G


def _source(kind, dim, G):
    if kind == "constant":
        return ConstantHint(np.full(dim, 0.5 / np.sqrt(dim)))
    if kind == "external":  # the "perfect" hints of a config
        return ExternalHints(G if len(G) else np.zeros((1, dim)))
    return {"zero": ZeroHint, "last_gradient": LastGradient, "running_average": RunningAverage,
            "unit_ball_descent": UnitBallDescent, "adversarial_negate": AdversarialNegate}[kind](dim)


def _tree(name, dim, G, hint_kinds):
    """(learner, hints) for a tree name; the k sources of a multi-hint root cycle the kinds."""
    if name == "dimfree":
        return DimFreeLearner(dim, 0.5), None
    if name == "optimistic":
        return (OptimisticLearner(DimFreeLearner(dim, 0.5), CoinBettor(0.5)),
                _source(hint_kinds[0], dim, G))
    k = int(name[-1])
    share = 1.0 / (k + 1)
    return (MultiHintLearner(DimFreeLearner(dim, share), [CoinBettor(share) for _ in range(k)]),
            [_source(hint_kinds[i % len(hint_kinds)], dim, G) for i in range(k)])


def _hand_rounds(learner, G, hints):
    """The public round-by-round replay: (losses, iterates, hints played)."""
    sources = [] if hints is None else hints if isinstance(hints, list) else [hints]
    losses, W, H = [], [], []
    for g in G:
        if hints is None:
            w = learner.predict()
        else:
            h = [s.next_hint() for s in sources]
            h = np.array(h) if isinstance(hints, list) else h[0]
            H.append(h)
            w = learner.predict(h)
        losses.append(g.dot(w))
        W.append(w)
        learner.observe(g)
        for s in sources:
            s.feed(g)
    d = G.shape[1]
    shape = (0, len(sources), d) if isinstance(hints, list) else (0, d)
    return (np.array(losses), np.array(W).reshape(-1, d),
            None if hints is None else np.array(H).reshape((-1,) + shape[1:]))


def _state(learner):
    """Every number a later round reads, as bytes: counters, direction, bettors."""
    base = getattr(learner, "base", learner)
    bettors = [base.magnitude] + [getattr(learner, "bettor", None)] + getattr(learner, "bettors", [])
    out = [learner.round_index, base.round_index, learner._awaiting_predict,
           base.direction.point.tobytes(), repr(base.direction.dual_sq_sum)]
    for b in bettors:
        if b is not None:
            out += [repr(b.wealth), repr(b.signed_sum), repr(b._losses),
                    b.capped_rounds, b.round, b._bet]
    return out


def _same(a, b):
    """Bitwise equality of replay outputs (tuples of arrays or None)."""
    for x, y in zip(a, b):
        if x is None or y is None:
            assert x is None and y is None
            continue
        assert x.shape == y.shape and x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()


def _check_scan(tree, G, hint_kinds, split=None):
    dim = G.shape[1]
    learner, hints = _tree(tree, dim, G, hint_kinds)
    H = None if hints is None else _peek(hints, G)
    assert len(G) == 0 or learner._plan(G, H, True) is not None
    learner, hints = _tree(tree, dim, G, hint_kinds)
    scanned = drive(learner, G, hints)
    ref_learner, ref_hints = _tree(tree, dim, G, hint_kinds)
    _same(scanned, _hand_rounds(ref_learner, G, ref_hints))
    assert _state(learner) == _state(ref_learner)
    if split is None:
        return
    for first, then in ((drive, _hand_rounds), (_hand_rounds, drive), (drive, drive)):
        # scan then rounds, rounds then scan, two scans: each continues from the state left
        part, part_hints = _tree(tree, dim, G, hint_kinds)
        head = first(part, G[:split], part_hints)
        tail = then(part, G[split:], part_hints)
        _same(scanned, [None if x is None else np.concatenate([x, y]) for x, y in zip(head, tail)])
        assert _state(part) == _state(learner)


def _peek(hints, G):
    """Hints of the right shape for a dry settling _plan call on fresh objects."""
    if isinstance(hints, list):
        return np.zeros((len(G), len(hints), G.shape[1]))
    return np.zeros(G.shape)


@pytest.mark.parametrize("tree", TREES)
@pytest.mark.parametrize("stream", STREAMS)
def test_scan_equals_the_public_rounds_on_every_stream_and_hint_kind(tree, stream):
    for i, hint in enumerate(HINTS if tree != "dimfree" else HINTS[:1]):
        G = _stream(stream, 5, 70, seed=i, zero_rows=i % 3)
        _check_scan(tree, G, HINTS[i:] + HINTS[:i], split=(11 * i) % 71)


@pytest.mark.parametrize("tree", TREES)
@pytest.mark.parametrize("T", [0, 1])
def test_scan_of_empty_and_one_row_streams(tree, T):
    for dim in (1, 3):
        _check_scan(tree, _stream("rademacher_iid", dim, T, seed=dim), HINTS, split=T)
        _check_scan(tree, _stream("zero", dim, T), HINTS[2:], split=0)


@settings(max_examples=150, deadline=None)
@given(tree=st.sampled_from(TREES), stream=st.sampled_from(STREAMS),
       dim=st.integers(1, 9), T=st.integers(0, 48), seed=st.integers(0, 2 ** 16),
       zero_rows=st.integers(0, 6), hint_kinds=st.permutations(HINTS), data=st.data())
def test_scan_equals_the_public_rounds_hypothesis(tree, stream, dim, T, seed, zero_rows,
                                                  hint_kinds, data):
    G = _stream(stream, dim, T, seed, zero_rows)
    _check_scan(tree, G, hint_kinds, split=data.draw(st.integers(0, T)))


@pytest.mark.parametrize("name", ["optimistic_run.json", "multihint_run.json"])
def test_scan_of_the_capped_shipped_configs(name):
    cfg = json.loads((ROOT / "configs" / name).read_text(encoding="utf-8"))
    G = harness.generate_stream(harness.StreamSpec.from_config(cfg["stream"]))
    built = harness.build_learner(cfg["learner"], G.shape[1], stream=G)
    ref = harness.build_learner(cfg["learner"], G.shape[1], stream=G)
    _same(drive(built.learner, G, built.hint_sources),
          _hand_rounds(ref.learner, G, ref.hint_sources))
    assert _state(built.learner) == _state(ref.learner)
    capped = harness.capped_bettors(built.learner)
    assert capped == harness.capped_bettors(ref.learner)
    assert capped == ({"learner.bettor": 3821, "learner.base.magnitude": 3820}
                      if name == "optimistic_run.json" else {"learner.bettors[0]": 752})


class _SubDimFree(DimFreeLearner):
    pass


class _SubOptimistic(OptimisticLearner):
    pass


class _SubMultiHint(MultiHintLearner):
    pass


class _SubBettor(CoinBettor):
    pass


def _optimistic(d, root=OptimisticLearner, base=DimFreeLearner, bettor=CoinBettor, spec=None):
    return root(base(d, 0.5, spec=spec), bettor(0.5)), LastGradient(d)


def _multi_hint(d, root=MultiHintLearner, bettor=CoinBettor):
    return root(DimFreeLearner(d, 0.25), [bettor(0.25), CoinBettor(0.25)]), [
        LastGradient(d), RunningAverage(d)]


@pytest.mark.parametrize("make, sub", [
    (lambda d, **kw: (kw.get("root", DimFreeLearner)(d, 0.5), None), {"root": _SubDimFree}),
    (_optimistic, {"root": _SubOptimistic}),
    (_multi_hint, {"root": _SubMultiHint}),
    (_optimistic, {"base": _SubDimFree}),
    (_optimistic, {"bettor": _SubBettor}),
    (_multi_hint, {"bettor": _SubBettor}),
], ids=["dimfree", "optimistic", "multi_hint", "base", "bettor", "multi_hint_bettor"])
def test_a_subclass_takes_the_round_loop_with_the_same_bits(make, sub):
    d = 4
    G = _stream("slowly_varying", d, 200, seed=5, zero_rows=2)
    learner, hints = make(d, **sub)
    H = None if hints is None else _peek(hints, G)
    assert learner._plan(G, H, True) is None and make(d)[0]._plan(G, H, True) is not None
    looped = drive(learner, G, hints)
    ref, ref_hints = make(d, **sub)
    _same(looped, _hand_rounds(ref, G, ref_hints))
    scan, scan_hints = make(d)
    _same(looped, drive(scan, G, scan_hints))
    assert _state(learner) == _state(ref) == _state(scan)


def test_a_p_grid_base_takes_the_round_loop():
    d = 4
    G = _stream("sparse", d, 100, seed=3)
    grid = (harness.NormSpec.from_p(1.5),)
    learner, hints = _optimistic(d, spec=grid)
    assert learner._plan(G, _peek(hints, G), True) is None
    ref, ref_hints = _optimistic(d, spec=grid)
    _same(drive(learner, G, hints), _hand_rounds(ref, G, ref_hints))


@pytest.mark.parametrize("d", [4, 6])
def test_a_strided_stream_settles_as_its_c_copy(d):
    # a Fortran-ordered stream is copied to C order before its segment settles: the rounds on
    # the C copy's rows give its bits (a strided row's dot may add in another order)
    G = _stream("gaussian_clipped", d, 90, seed=2)
    learner, hints = OptimisticLearner(DimFreeLearner(d, 0.5), CoinBettor(0.5)), LastGradient(d)
    ref, ref_hints = OptimisticLearner(DimFreeLearner(d, 0.5), CoinBettor(0.5)), LastGradient(d)
    _same(drive(learner, np.asfortranarray(G), hints), _hand_rounds(ref, G, ref_hints))
    assert _state(learner) == _state(ref)


@pytest.mark.parametrize("tree", ["dimfree", "optimistic", "multi2"])
def test_a_non_finite_play_names_its_first_round(tree):
    G = _stream("rademacher_iid", 3, 20, seed=1)
    messages = []
    for loop in (False, True):
        learner, hints = _tree(tree, 3, G, ["running_average"])
        drive(learner, G[:5], hints)
        base = getattr(learner, "base", learner)
        base.magnitude.wealth = np.inf  # the next bet is infinite or NaN
        if loop:  # a subclass replays round by round
            learner.__class__ = type("Sub", (type(learner),), {})
        with pytest.raises(ReplayError) as err, np.errstate(invalid="ignore"):
            drive(learner, G[5:], hints)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == "round 5: iterate contains non-finite entries"
