"""The validation boundary: a stream is checked once, before round 0, then trusted.

Drivers (``harness._drive`` and the ``replay*`` functions) check the whole
gradient stream with ``check_stream`` and step the learner and its hint
sources through the trusted ``_step``/``_feed``; public ``observe``/``feed``
still validate. ``core.norm`` replaces ``np.linalg.norm`` on the per-round
paths and must agree with it bit for bit.
"""

import inspect

import numpy as np
import pytest

from regretforge import (
    CoinBettor,
    ConstrainedOptimisticLearner,
    DimFreeLearner,
    MultiHintLearner,
    OptimisticLearner,
    ReplayError,
    replay,
    replay_hinted,
    replay_multi_hint,
)
from regretforge import core, combinators, geometry, harness, hints, learners
from regretforge.core import DimensionMismatch, check_stream, norm
from regretforge.geometry import Ball
from regretforge.hints import (
    AdversarialNegate,
    LastGradient,
    RunningAverage,
    UnitBallDescent,
    ZeroHint,
)
from conftest import unit_stream


# ---------------------------------------------------------------------------
# core.norm
# ---------------------------------------------------------------------------

def _same(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def test_norm_bitwise_equals_linalg_norm_for_every_dim():
    rng = np.random.default_rng(5)
    for d in range(1, 1025):
        base = rng.standard_normal((d, 3))
        views = [
            np.ascontiguousarray(base[:, 0]),  # contiguous
            base[:, 1],                        # strided column
            base[::-1, 2],                     # negative stride
            base[::2, 0],                      # every other row of a column
        ]
        for v in views:
            assert _same(norm(v), np.linalg.norm(v)), (d, v.strides)


@pytest.mark.parametrize("scale", [0.0, 1e-300, 1e-160, 1e-9, 1.0, 1e150, 1e200])
def test_norm_bitwise_on_zero_tiny_and_huge(scale):
    rng = np.random.default_rng(6)
    for d in (1, 2, 7, 64, 1024):
        block = scale * rng.standard_normal((d, 2))
        for v in (np.ascontiguousarray(block[:, 0]), block[:, 1]):
            with np.errstate(over="ignore"):  # 1e200 squared is inf in both
                assert _same(norm(v), np.linalg.norm(v))


# ---------------------------------------------------------------------------
# one check before round 0
# ---------------------------------------------------------------------------

def _bad_stream(kind, T=12, d=3, bad_round=4):
    G = unit_stream(np.random.default_rng(9), T, d, scale=0.9)
    if kind == "nan":
        G[bad_round, 1] = np.nan
    else:
        G[bad_round] = [1.0] * d  # norm sqrt(d) > 1
    return G


_MESSAGES = {"nan": "gradient contains non-finite entries", "long": "gradient has norm"}


@pytest.mark.parametrize("kind", ["nan", "long"])
def test_check_stream_names_first_bad_round(kind):
    G = _bad_stream(kind, bad_round=4)
    G[7] = G[4]
    with pytest.raises(ValueError, match=f"^round 4: {_MESSAGES[kind]}"):
        check_stream(G, 3)
    with pytest.raises(DimensionMismatch, match="round 0"):
        check_stream(G, 4)


def test_check_stream_passes_rows_at_the_tolerance():
    G = np.zeros((3, 2))
    G[1] = [1.0 + 0.9 * core.GRAD_TOL, 0.0]  # re-checked one by one, and accepted
    assert check_stream(G, 2) is G
    G[2] = [1.0 + 1.1 * core.GRAD_TOL, 0.0]
    with pytest.raises(ValueError, match="round 2"):
        check_stream(G, 2)


def test_gradients_and_hints_at_the_tolerance_replay_cleanly():
    # a gradient and a hint each of norm 1 + 9e-10 pass their checks, and
    # their inner product, about 1 + 1.8e-9, is a bettor outcome in contract
    edge = 1.0 + 9e-10
    G = np.zeros((3, 4))
    G[:, 0] = edge
    assert check_stream(G, 4) is G
    for source in (LastGradient(4), hints.ExternalHints(G)):
        ledger = replay_hinted(_optimistic(4), G, source)
        assert np.isfinite(ledger.cumulative_loss)
    learner = MultiHintLearner(DimFreeLearner(4, 1 / 3), [CoinBettor(1 / 3) for _ in range(2)])
    replay_multi_hint(learner, G, [hints.ExternalHints(G), hints.ExternalHints(-G)])
    for domain in (Ball(np.zeros(4), 0.5), geometry.Box(np.full(4, -0.3), np.full(4, 0.3))):
        learner = ConstrainedOptimisticLearner(DimFreeLearner(4, 0.25), domain, CoinBettor(0.25))
        replay_hinted(learner, G, hints.ExternalHints(G))
    block = np.repeat(G[:, None, :], 2, axis=1)
    learner = OptimisticLearner(DimFreeLearner(4, 0.5, batch=2), CoinBettor(0.5, batch=2))
    ledger = replay_hinted(learner, block, RunningAverage(4, batch=2))
    assert np.isfinite(ledger.cumulative_loss).all()
    assert (learner.bettor.wealth > 0).all()
    with pytest.raises(ValueError, match="outside"):
        CoinBettor(1.0).observe(1.0 + 1e-6)


def test_check_stream_block_names_round_and_trial():
    G = np.zeros((5, 3, 2))
    G[3, 1] = [1.0, 1.0]
    with pytest.raises(ValueError, match=r"^round 3: gradient of trial 1 has norm"):
        check_stream(G, 2, batch=3)
    G[2, 2, 0] = np.inf
    with pytest.raises(ValueError, match="^round 2: gradient contains non-finite"):
        check_stream(G, 2, batch=3)


@pytest.mark.parametrize("kind", ["nan", "long"])
def test_drive_rejects_stream_before_any_round(kind):
    cfg = {"kind": "optimistic", "hints": {"kind": "last_gradient"}}
    composed = harness.build_learner(cfg, 3)
    with pytest.raises(ValueError, match=f"round 4: {_MESSAGES[kind]}"):
        harness._drive(composed, _bad_stream(kind), keep_iterates=False)
    assert composed.learner.round_index == 0
    assert composed.learner.base.round_index == 0


def _optimistic(d, batch=None):
    return OptimisticLearner(DimFreeLearner(d, 0.5, batch=batch), CoinBettor(0.5, batch))


@pytest.mark.parametrize("kind", ["nan", "long"])
@pytest.mark.parametrize("driver", ["replay", "replay_hinted", "replay_hinted_block",
                                    "replay_multi_hint"])
def test_replays_reject_stream_before_any_round(driver, kind):
    G = _bad_stream(kind)
    if driver == "replay":
        learner = DimFreeLearner(3, 1.0)
        run = lambda: replay(learner, G)  # noqa: E731
    elif driver == "replay_hinted":
        learner = _optimistic(3)
        run = lambda: replay_hinted(learner, G, LastGradient(3))  # noqa: E731
    elif driver == "replay_hinted_block":
        learner = _optimistic(3, batch=2)
        block = np.stack([np.zeros_like(G), G], axis=1)
        run = lambda: replay_hinted(learner, block, RunningAverage(3, 2))  # noqa: E731
    else:
        learner = MultiHintLearner(DimFreeLearner(3, 0.5), [CoinBettor(0.5)] * 2)
        run = lambda: replay_multi_hint(learner, G, [ZeroHint(3), LastGradient(3)])  # noqa: E731
    with pytest.raises(ReplayError, match="round 4"):
        run()
    assert learner.round_index == 0


# ---------------------------------------------------------------------------
# custom hint sources
# ---------------------------------------------------------------------------

def test_hint_source_overriding_only_feed_is_rejected():
    with pytest.raises(TypeError, match="override _feed"):
        class _FeedOnly(hints.HintSource):
            def next_hint(self):
                return np.zeros(self.dim)

            def feed(self, g):
                pass
    with pytest.raises(TypeError, match="override _feed"):
        class _LoggingLast(LastGradient):
            def feed(self, g):
                super().feed(g)


def test_custom_hint_source_is_fed_by_the_drivers():
    class _HalfLast(hints.HintSource):
        def __init__(self, dim):
            super().__init__(dim)
            self.fed = []

        def next_hint(self):
            return 0.5 * self.fed[-1] if self.fed else np.zeros(self.dim)

        def _feed(self, g):
            self.fed.append(g.copy())

    G = unit_stream(np.random.default_rng(3), 12, 3)
    src = _HalfLast(3)
    ledger = replay_hinted(_optimistic(3), G, src)
    np.testing.assert_array_equal(np.array(src.fed), G)
    np.testing.assert_array_equal(ledger.hints[1:], 0.5 * G[:-1])
    with pytest.raises(ValueError, match="non-finite"):
        src.feed([np.nan, 0.0, 0.0])


# ---------------------------------------------------------------------------
# no per-round gradient checks inside the harness loop
# ---------------------------------------------------------------------------

_MODULES = (core, combinators, geometry, harness, hints, learners)


def _count_checks(monkeypatch):
    """Count as_vector / check_unit_norm / check_hints calls by the name they check.

    A call that leaves ``name`` at its default counts under None.
    """
    counts = {}

    def counting(fn):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            key = (fn.__name__, sig.bind(*args, **kwargs).arguments.get("name"))
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for mod in _MODULES:
        for attr in ("as_vector", "check_unit_norm", "check_hints"):
            if attr in vars(mod):
                monkeypatch.setattr(mod, attr, counting(getattr(mod, attr)))
    return counts


_HINTED_CONFIGS = {
    "optimistic": {"kind": "optimistic", "hints": {"kind": "last_gradient"}},
    "multi_hint": {"kind": "multi_hint", "hints": [
        {"kind": "perfect"}, {"kind": "adversarial_negate"}, {"kind": "running_average"},
        {"kind": "unit_ball_descent"}]},
    "constrained": {"kind": "constrained", "hints": {"kind": "last_gradient"},
                    "domain": {"kind": "ball", "radius": 0.5}},
}


@pytest.mark.parametrize("name", sorted(_HINTED_CONFIGS))
def test_run_experiment_checks_no_gradient_per_round(monkeypatch, name):
    T = 40
    config = {"learner": _HINTED_CONFIGS[name],
              "stream": {"kind": "gaussian_clipped", "dim": 4, "T": T, "seed": 2}}
    counts = _count_checks(monkeypatch)
    hint_rows = []

    def checking_stream(G, *args, **kwargs):
        bound = inspect.signature(check_stream).bind(G, *args, **kwargs).arguments
        if bound.get("name") == "hint":
            hint_rows.append((bound["first_round"], len(G)))
        return check_stream(G, *args, **kwargs)

    monkeypatch.setattr(core, "check_stream", checking_stream)
    harness.run_experiment(config)
    assert counts.get(("as_vector", "gradient"), 0) == 0
    assert counts.get(("check_unit_norm", "gradient"), 0) == 0
    # hints are checked by check_stream, one segment of rounds at a time, and
    # no hint is checked round by round: the segments tile the T rounds, so
    # every hint row is checked exactly once. Every hint here is inside the
    # unit ball by a margin, so the squared-norm pass clears it and the full
    # check (which decides any hint that pass does not clear) never runs.
    assert counts.get(("check_hints", "hints" if name == "multi_hint" else None), 0) == 0
    starts = [start for start, _ in hint_rows]
    assert starts == [0] + list(np.cumsum([n for _, n in hint_rows]))[:-1]
    assert sum(n for _, n in hint_rows) == T
    assert counts.get(("as_vector", "hint"), 0) == 0
    assert counts.get(("check_unit_norm", "hint"), 0) == 0


# ---------------------------------------------------------------------------
# direct feed / observe still validate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: ZeroHint(3), lambda: LastGradient(3), lambda: AdversarialNegate(3),
    lambda: RunningAverage(3), lambda: UnitBallDescent(3),
], ids=["zero", "last_gradient", "adversarial_negate", "running_average",
        "unit_ball_descent"])
def test_direct_feed_still_validates(make):
    src = make()
    with pytest.raises(ValueError, match="gradient contains non-finite entries"):
        src.feed([0.0, np.nan, 0.0])
    with pytest.raises(DimensionMismatch):
        src.feed(np.zeros(4))
    before = src.next_hint()
    src.feed([0.5, 0.0, 0.0])
    assert src.next_hint().shape == before.shape


def test_direct_observe_still_validates():
    learner = ConstrainedOptimisticLearner(DimFreeLearner(3, 0.5), Ball(np.zeros(3), 0.5),
                                           CoinBettor(0.5))
    learner.predict(np.zeros(3))
    with pytest.raises(ValueError, match="gradient contains non-finite entries"):
        learner.observe([np.nan, 0.0, 0.0])
    with pytest.raises(ValueError, match="gradient has norm"):
        learner.observe([1.0, 1.0, 0.0])
    with pytest.raises(DimensionMismatch):
        learner.observe(np.zeros(2))
    assert learner.round_index == 0
    learner.observe([0.5, 0.0, 0.0])
    assert learner.round_index == 1 and learner.base.round_index == 1


def test_multi_hint_predict_names_the_slot():
    learner = MultiHintLearner(DimFreeLearner(2, 0.5), [CoinBettor(0.5)] * 3)
    H = np.zeros((3, 2))
    H[2] = [1.0, 1.0]
    with pytest.raises(ValueError, match=r"^hint of slot 2 has norm"):
        learner.predict(H)
    H[2] = [np.nan, 0.0]
    with pytest.raises(ValueError, match="non-finite"):
        learner.predict(H)
    with pytest.raises(DimensionMismatch):
        learner.predict(np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# core.drive: the one round loop
# ---------------------------------------------------------------------------

class _LongHint(hints.HintSource):
    def next_hint(self):
        return np.ones(self.dim)


class _NaNAtRound(core.Learner):
    def __init__(self, dim, bad_round):
        super().__init__(dim)
        self.bad_round = bad_round

    def _prediction(self):
        return np.full(self.dim, np.nan if self.round_index == self.bad_round else 0.0)

    def _update(self, g):
        pass


def test_drive_names_the_absolute_round():
    G = unit_stream(np.random.default_rng(4), 12, 3)
    learner = _optimistic(3)
    src = LastGradient(3)
    core.drive(learner, G[:5], src)
    bad = G[5:].copy()
    bad[2, 0] = np.nan
    with pytest.raises(ReplayError, match="^round 7: gradient contains non-finite"):
        core.drive(learner, bad, src)
    with pytest.raises(ReplayError, match="^round 5: gradient has shape"):
        core.drive(learner, np.zeros((3, 4)), src)
    assert learner.round_index == 5
    nan_learner = _NaNAtRound(3, bad_round=6)
    core.drive(nan_learner, G[:4])
    with pytest.raises(ReplayError, match="^round 6: iterate contains non-finite"):
        core.drive(nan_learner, G[4:])
    assert nan_learner.round_index == 6
    with pytest.raises(ReplayError, match="^round 0: hint has norm"):
        core.drive(_optimistic(3), G, _LongHint(3))


def test_drive_rejects_a_misshapen_iterate():
    class _Short(core.Learner):
        def _prediction(self):
            return [0.0] * (self.dim - 1)

        def _update(self, g):
            pass

    class _AsList(_Short):
        def _prediction(self):
            return [0.5] * self.dim

    with pytest.raises(ReplayError, match=r"^round 0: iterate has shape \(2,\), expected \(3,\)"):
        core.drive(_Short(3), np.zeros((4, 3)))
    losses, W, H = core.drive(_AsList(3), np.full((4, 3), 0.5))
    assert W.tolist() == [[0.5] * 3] * 4 and losses.tolist() == [0.75] * 4 and H is None


def test_drive_keeps_what_it_is_asked_to():
    G = unit_stream(np.random.default_rng(8), 16, 3)
    losses, W, H = core.drive(DimFreeLearner(3, 1.0), G, keep_iterates=False)
    assert losses.shape == (16,) and W is None and H is None
    losses, W, H = core.drive(_optimistic(3), G, LastGradient(3))
    assert W.shape == (16, 3) and H.shape == (16, 3)
    np.testing.assert_array_equal(H[1:], G[:-1])
    assert [losses[t].tobytes() for t in range(16)] == [
        np.dot(G[t], W[t]).tobytes() for t in range(16)]
    learner = MultiHintLearner(DimFreeLearner(3, 0.5), [CoinBettor(0.5)] * 2)
    _, _, H = core.drive(learner, G, [ZeroHint(3), LastGradient(3)], keep_iterates=False)
    assert H.shape == (16, 2, 3)
    np.testing.assert_array_equal(H[:, 0], 0.0)
    np.testing.assert_array_equal(H[1:, 1], G[:-1])
    block = np.stack([G, G[::-1]], axis=1)
    losses, W, H = core.drive(_optimistic(3, batch=2), block, RunningAverage(3, 2))
    assert losses.shape == (16, 2) and W is None and H is None


_ORACLE_CONFIGS = {
    **_HINTED_CONFIGS,
    "constrained_box": {"kind": "constrained", "hints": {"kind": "running_average"},
                        "domain": {"kind": "box", "lo": [-0.2, -0.1, -0.3, 0.0],
                                   "hi": [0.2, 0.3, 0.1, 0.2]}},
    "multi_hint_3": {"kind": "multi_hint", "hints": [
        {"kind": "last_gradient"}, {"kind": "adversarial_negate"}, {"kind": "running_average"}]},
    "plain": {"kind": "add", "children": [{"kind": "dimfree"}, {"kind": "percoord"}]},
}


@pytest.mark.parametrize("name", sorted(_ORACLE_CONFIGS))
def test_harness_segments_match_one_drive(name):
    """The harness's one drive of a run plays exactly the rounds of core.drive, and its
    bettors' regrets at 0 at each checkpoint are those a round-by-round run reads there."""
    cfg = _ORACLE_CONFIGS[name]
    G = unit_stream(np.random.default_rng(11), 100, 4)
    record = harness._drive(harness.build_learner(cfg, 4, stream=G), G, keep_iterates=True)
    composed = harness.build_learner(cfg, 4, stream=G)
    losses, W, H = core.drive(composed.learner, G, composed.hint_sources)
    assert record.losses.tobytes() == losses.tobytes()
    assert record.iterates.tobytes() == W.tobytes()
    assert (record.hints is None and H is None) or record.hints.tobytes() == H.tobytes()
    # the bettors' regret at 0, read at each checkpoint, as a round-by-round run reads it
    composed = harness.build_learner(cfg, 4, stream=G)
    per_round = []
    for t in range(len(G)):
        core.drive(composed.learner, G[t:t + 1], composed.hint_sources)
        per_round.append([b.regret_at_zero() for b in composed.bettors])
    ends = [T - 1 for T in harness.checkpoints(len(G))]
    if composed.bettors:  # bitwise, each a Python float
        assert all(type(x) is float for row in per_round for x in row)
        assert [[x.hex() for x in row] for row in record.bettor_regrets.tolist()] == [
            [x.hex() for x in per_round[t]] for t in ends]
    else:
        assert record.bettor_regrets is None


@pytest.mark.parametrize("name", ["optimistic", "constrained", "block"])
def test_harness_drives_a_run_once(monkeypatch, name):
    """One core.drive call a run, whatever its checkpoints: a (T, d) stream and a (T, B, d)
    block of a trial-axis learner alike."""
    calls = []

    def counted(learner, G, *args, **kwargs):
        calls.append(len(G))
        return core.drive(learner, G, *args, **kwargs)

    monkeypatch.setattr(harness, "drive", counted)
    G = unit_stream(np.random.default_rng(12), 300, 4)
    if name == "block":
        block = np.ascontiguousarray(np.stack([G, G[::-1], -G], axis=1))
        learner = harness._with_trials(harness.build_learner({"kind": "dimfree"}, 4).learner, 3)
        records = harness._drive(harness.ComposedLearner(learner), block, keep_iterates=False)
        assert len(records) == 3
    else:
        record = harness._drive(harness.build_learner(_HINTED_CONFIGS[name], 4, stream=G), G,
                                keep_iterates=True)
        assert record.bettor_regrets.shape == (len(harness.checkpoints(300)), 1)
    assert calls == [300]


# ---------------------------------------------------------------------------
# hints drawn a segment ahead: predictable, checked before the segment runs
# ---------------------------------------------------------------------------

_SOURCES = {
    "zero": ZeroHint, "last_gradient": LastGradient, "adversarial_negate": AdversarialNegate,
    "running_average": RunningAverage, "unit_ball_descent": UnitBallDescent,
    "constant": lambda d: hints.ConstantHint(np.full(d, 0.5 / np.sqrt(d))),
    "external": lambda d: hints.ExternalHints(unit_stream(np.random.default_rng(1), 150, d)),
}
_DATA_DRIVEN = {"last_gradient", "adversarial_negate", "running_average", "unit_ball_descent"}


class _Recorder(core.HintedLearner):
    """Plays the origin and keeps a copy of every hint it is played."""

    def __init__(self, dim, batch=None):
        super().__init__(dim, batch=batch)
        self.played = []

    def _hinted_prediction(self, h):
        self.played.append(h.copy())
        return np.zeros(self.dim if self.batch is None else (self.batch, self.dim))

    def _update(self, g):
        pass


@pytest.mark.parametrize("kind", sorted(_SOURCES))
def test_hints_depend_only_on_earlier_gradients(kind):
    # The hint for round t is fixed before g_t: changing g_t leaves the hints
    # of rounds 0..t bitwise as they were, though drive draws them all first.
    T, d = 150, 3
    make = _SOURCES[kind]
    G = unit_stream(np.random.default_rng(6), T, d)
    _, _, H = core.drive(_optimistic(d), G, make(d))
    multi = MultiHintLearner(DimFreeLearner(d, 1 / 3), [CoinBettor(1 / 3) for _ in range(2)])
    _, _, HK = core.drive(multi, G, [make(d), LastGradient(d)])
    for t in (0, 1, 77, T - 1):
        P = G.copy()
        P[t] = -P[t]
        _, _, H2 = core.drive(_optimistic(d), P, make(d))
        multi = MultiHintLearner(DimFreeLearner(d, 1 / 3), [CoinBettor(1 / 3) for _ in range(2)])
        _, _, HK2 = core.drive(multi, P, [make(d), LastGradient(d)])
        assert H2[:t + 1].tobytes() == H[:t + 1].tobytes()
        assert HK2[:t + 1].tobytes() == HK[:t + 1].tobytes()
        if kind in _DATA_DRIVEN and t + 1 < T:
            assert H2[t + 1].tobytes() != H[t + 1].tobytes()


def test_block_hints_depend_only_on_earlier_gradients():
    T, B, d = 150, 3, 2
    X = np.stack([unit_stream(np.random.default_rng(20 + i), T, d) for i in range(B)], axis=1)
    first = _Recorder(d, B)
    core.drive(first, X, RunningAverage(d, B))
    for t in (0, core.HINT_SEGMENT - 1, core.HINT_SEGMENT, T - 1):
        P = X.copy()
        P[t, 1] = -P[t, 1]
        again = _Recorder(d, B)
        core.drive(again, P, RunningAverage(d, B))
        assert np.array(again.played[:t + 1]).tobytes() == np.array(first.played[:t + 1]).tobytes()
        if t + 1 < T:
            assert again.played[t + 1][1].tobytes() != first.played[t + 1][1].tobytes()


class _LongAt(hints.HintSource):
    """Zero hints, except one of norm 2 at round ``bad`` (in trial ``trial`` of a block)."""

    def __init__(self, dim, bad, batch=None, trial=0):
        super().__init__(dim, batch)
        self.bad, self.trial, self.round = bad, trial, 0

    def next_hint(self):
        h = np.zeros(self.dim if self.batch is None else (self.batch, self.dim))
        if self.round == self.bad:
            (h if self.batch is None else h[self.trial])[0] = 2.0
        self.round += 1
        return h


def test_bad_hint_fails_before_its_segment_runs():
    G = unit_stream(np.random.default_rng(9), 20, 3)
    learner = _optimistic(3)
    with pytest.raises(ReplayError, match=r"^round 7: hint has norm 2 > 1"):
        core.drive(learner, G, _LongAt(3, 7))
    assert learner.round_index == 0 and learner.base.round_index == 0
    learner = MultiHintLearner(DimFreeLearner(3, 0.25), [CoinBettor(0.25) for _ in range(3)])
    with pytest.raises(ReplayError, match=r"^round 7: hint of slot 2 has norm 2 > 1"):
        core.drive(learner, G, [ZeroHint(3), ZeroHint(3), _LongAt(3, 7)])
    assert learner.round_index == 0
    # a block runs HINT_SEGMENT rounds a segment; round 70 sits in the second
    B = 4
    X = np.stack([unit_stream(np.random.default_rng(30 + i), 150, 3) for i in range(B)], axis=1)
    learner = _optimistic(3, batch=B)
    with pytest.raises(ReplayError, match=r"^round 70: hint of trial 2 has norm 2 > 1"):
        core.drive(learner, X, _LongAt(3, 70, batch=B, trial=2))
    assert learner.round_index == core.HINT_SEGMENT
    # an exhausted external sequence fails, naming its round, before the rounds it cannot serve
    learner = _optimistic(3)
    with pytest.raises(ReplayError, match="^round 5: hint sequence exhausted after 5 rounds"):
        core.drive(learner, G, hints.ExternalHints(G[:5]))
    assert learner.round_index == 0


def test_sources_that_do_not_fit_the_learner_fail_at_round_0():
    # the hints are checked against what the learner plays, not what the sources gave
    G = unit_stream(np.random.default_rng(10), 6, 3)
    for learner, sources, shape in [
            (MultiHintLearner(DimFreeLearner(3, 1 / 3), [CoinBettor(1 / 3) for _ in range(2)]),
             LastGradient(3), r"\(3,\), expected \(2, 3\)"),
            (MultiHintLearner(DimFreeLearner(3, 0.25), [CoinBettor(0.25) for _ in range(3)]),
             [ZeroHint(3)] * 2, r"\(2, 3\), expected \(3, 3\)"),
            (_optimistic(3), [ZeroHint(3)], r"\(1, 3\), expected \(3,\)")]:
        with pytest.raises(ReplayError, match=f"^round 0: hint has shape {shape}"):
            core.drive(learner, G, sources)
    with pytest.raises(ReplayError, match="^round 0: hint has dim 4, expected 3"):
        core.drive(_optimistic(3), G, ZeroHint(4))


@pytest.mark.parametrize("kind", ["optimistic", "multi_hint"])
def test_public_predict_copies_the_hint(kind):
    g = np.array([0.6, 0.0, 0.8])
    h = np.array([0.5, 0.1, -0.2]) if kind == "optimistic" else np.array([[0.5, 0.1, -0.2]])
    learner = (_optimistic(3) if kind == "optimistic"
               else MultiHintLearner(DimFreeLearner(3, 0.5), [CoinBettor(0.5)]))
    played = h.copy()
    learner.predict(played)
    played[...] = 0.0  # a write after predict must not reach this round's bettor outcome
    learner.observe(g)
    bettor = learner.bettor if kind == "optimistic" else learner.bettors[0]
    assert bettor.signed_sum == float(np.dot(g, h.ravel())) != 0.0
