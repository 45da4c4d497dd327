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


class _UnboundedSum(core.Learner):
    """A learner that takes gradients of any length; it plays the origin."""

    unit_gradient_bound = False

    def __init__(self, dim):
        super().__init__(dim)
        self.total = np.zeros(dim)

    def _prediction(self):
        return np.zeros(self.dim)

    def _update(self, g):
        self.total = self.total + g


def test_unbounded_learner_stream_is_checked_for_finiteness_only():
    G = np.zeros((6, 2))
    G[1] = [3.0, 4.0]
    G[3] = [0.0, -2.0]
    assert check_stream(G, 2, unit=False) is G
    learner = _UnboundedSum(2)
    replay(learner, G)
    assert learner.round_index == 6
    np.testing.assert_array_equal(learner.total, [3.0, 2.0])
    record = harness._drive(harness.ComposedLearner(_UnboundedSum(2)), G, keep_iterates=False)
    np.testing.assert_array_equal(record.gh_sq, [0.0, 25.0, 0.0, 4.0, 0.0, 0.0])
    G[4, 1] = np.nan
    learner = _UnboundedSum(2)
    with pytest.raises(ReplayError, match="round 4: gradient contains non-finite"):
        replay(learner, G)
    assert learner.round_index == 0
    composed = harness.ComposedLearner(_UnboundedSum(2))
    with pytest.raises(ValueError, match="round 4: gradient contains non-finite"):
        harness._drive(composed, G, keep_iterates=False)
    assert composed.learner.round_index == 0


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
    harness.run_experiment(config)
    assert counts.get(("as_vector", "gradient"), 0) == 0
    assert counts.get(("check_unit_norm", "gradient"), 0) == 0
    # hints are still checked every round, by check_hints; every hint here is
    # inside the unit ball by a margin, so its squared-norm pass clears it and
    # the full check (which decides any hint that pass does not clear) never runs
    assert counts[("check_hints", "hints" if name == "multi_hint" else None)] == T
    assert counts.get(("as_vector", "hints" if name == "multi_hint" else "hint"), 0) == 0
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


@pytest.mark.parametrize("name", sorted(_HINTED_CONFIGS) + ["plain"])
def test_harness_segments_match_one_drive(name):
    """Driving checkpoint segments plays exactly the rounds of one drive."""
    cfg = _HINTED_CONFIGS.get(name, {"kind": "add", "children": [{"kind": "dimfree"},
                                                                 {"kind": "percoord"}]})
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
    if composed.bettors:
        assert record.bettor_regrets.tolist() == [per_round[t] for t in ends]
    else:
        assert record.bettor_regrets is None
