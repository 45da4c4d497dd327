"""Hint sources: running average, unit-ball descent, and the FTL gap."""

import math

import numpy as np
import pytest

from regretforge import (
    AdversarialNegate,
    Ball,
    Box,
    CoinBettor,
    ConstantHint,
    ConstrainedOptimisticLearner,
    DimFreeLearner,
    ExternalHints,
    LastGradient,
    MultiHintLearner,
    OptimisticLearner,
    ReplayError,
    RunningAverage,
    UnitBallDescent,
    ZeroHint,
)
from regretforge.core import drive
from regretforge.harness import StreamSpec, generate_stream
from conftest import (
    descent_regret,
    drawn_hints,
    ftl_gap,
    rademacher_stream,
    running_average_hints,
    unit_stream,
)


def ftl_gap_oracle(G):
    """Direct enumeration: replay the running mean by hand."""
    G = np.asarray(G, dtype=float)
    T = G.shape[0]
    played = 0.0
    for t in range(T):
        h = G[:t].mean(axis=0) if t > 0 else np.zeros(G.shape[1])
        played += float(np.dot(G[t] - h, G[t] - h))
    gbar = G.mean(axis=0)
    best = sum(float(np.dot(g - gbar, g - gbar)) for g in G)
    return played - best


def test_running_average_examples():
    src = RunningAverage(2)
    assert np.array_equal(src.next_hint(), np.zeros(2))
    src.feed(np.array([1.0, 0.0]))
    src.feed(np.array([0.0, 1.0]))
    assert np.allclose(src.next_hint(), [0.5, 0.5])


def test_running_average_constant_stream():
    src = RunningAverage(2)
    g = np.array([0.3, -0.4])
    for _ in range(7):
        src.feed(g)
    assert np.allclose(src.next_hint(), g, atol=1e-15)


def test_last_gradient_and_negate():
    last = LastGradient(2)
    neg = AdversarialNegate(2)
    assert np.array_equal(last.next_hint(), np.zeros(2))
    g = np.array([0.2, -0.5])
    last.feed(g)
    neg.feed(g)
    assert np.array_equal(last.next_hint(), g)
    assert np.array_equal(neg.next_hint(), -g)


def test_constant_hint_validation():
    ConstantHint([0.6, 0.8])
    with pytest.raises(ValueError):
        ConstantHint([1.0, 1.0])


def test_external_hints(tmp_path):
    rows = np.array([[0.1, 0.2], [0.3, -0.4]])
    path = tmp_path / "hints.txt"
    np.savetxt(path, rows)
    src = ExternalHints.from_file(path)
    assert np.allclose(src.next_hint(), rows[0])
    assert np.allclose(src.next_hint(), rows[1])
    with pytest.raises(IndexError):
        src.next_hint()
    with pytest.raises(ValueError):
        ExternalHints(np.array([[2.0, 0.0]]))
    for rows in (np.zeros(4), np.zeros((2, 2, 2))):  # a 1-D sequence is not read as d = 1
        with pytest.raises(ValueError, match=r"must be a \(T, d\) array"):
            ExternalHints(rows)


def test_all_sources_emit_unit_bounded_hints(rng):
    G = unit_stream(rng, 300, 3)
    sources = [
        ZeroHint(3),
        LastGradient(3),
        AdversarialNegate(3),
        RunningAverage(3),
        UnitBallDescent(3),
        ConstantHint([0.5, 0.0, 0.0]),
        ExternalHints(G),
    ]
    for src in sources:
        for g in G:
            assert np.linalg.norm(src.next_hint()) <= 1.0 + 1e-9
            src.feed(g)


def test_unit_ball_descent_zero_gradients():
    src = UnitBallDescent(2)
    for _ in range(5):
        assert np.array_equal(src.next_hint(), np.zeros(2))
        src.feed(np.zeros(2))


def test_unit_ball_descent_tracks_constant_gradient():
    # minimizing <g, g - 2h> over the unit ball drives h toward g/||g||
    src = UnitBallDescent(2)
    g = np.array([0.6, -0.3])
    for _ in range(4096):
        src.next_hint()
        src.feed(g)
    target = g / np.linalg.norm(g)
    assert np.linalg.norm(src.next_hint() - target) <= 0.1


def test_hint_learner_regret_bound(rng):
    for _ in range(5):
        G = rademacher_stream(rng, 2048, 8)
        reg = descent_regret(G)
        assert reg <= 4.0 * math.sqrt(float(np.sum(G * G)))


def running_average_gap(G):
    """The FTL gap of the running-average source's hints as core.drive draws them."""
    return ftl_gap(G, drawn_hints(G, RunningAverage(G.shape[1])))


def test_ftl_gap_constant_stream():
    g = np.array([0.6, 0.0])
    G = np.tile(g, (9, 1))
    # only round 1 contributes: ||g - 0||^2, and the mean equals g
    assert running_average_gap(G) == pytest.approx(float(np.dot(g, g)), abs=1e-12)


def test_ftl_gap_two_round_oracle():
    g = np.array([0.6, 0.0])
    G = np.stack([g, -g])
    oracle = ftl_gap_oracle(G)
    # hand enumeration: ||g||^2 + ||-g - g||^2 - 2||g||^2 = 3 ||g||^2
    assert oracle == pytest.approx(3 * float(np.dot(g, g)), abs=1e-12)
    assert running_average_gap(G) == pytest.approx(oracle, abs=1e-12)


def test_ftl_gap_matches_oracle_random(rng):
    G = unit_stream(rng, 200, 3)
    assert running_average_gap(G) == pytest.approx(ftl_gap_oracle(G), abs=1e-9)


def test_ftl_gap_nonnegative_and_logarithmic(rng):
    for _ in range(5):
        G = rademacher_stream(rng, 4096, 4)
        gaps = []
        H = drawn_hints(G, RunningAverage(4))  # a prefix's hints are the stream's first rows
        for T in (16, 64, 256, 1024, 4096):
            gap = ftl_gap(G[:T], H[:T])
            assert gap >= -1e-12
            assert gap <= 8.0 * math.log(T)
            gaps.append(gap)
        # fitted slope of gap against ln T stays in [0, 8]
        slope = np.polyfit(np.log([16, 64, 256, 1024, 4096]), gaps, 1)[0]
        assert -0.05 <= slope <= 8.0


@pytest.mark.parametrize("kind", ["zero", "rademacher_iid", "gaussian_clipped",
                                  "slowly_varying", "sparse", "biased"])
def test_running_average_drawn_hints_are_the_closed_form_bitwise(kind):
    # the closed form adds the rows from a +0.0 start, as the source does: a stream whose
    # first rows are -0.0 would give -0.0 hints from a cumsum that starts at row 0
    G = generate_stream(StreamSpec(kind, 5, 300, 7))
    G[:2] = -0.0
    G[40, :3] = -0.0
    H = drawn_hints(G, RunningAverage(5))
    assert H.tobytes() == running_average_hints(G).tobytes()


def test_running_average_block_hints_are_the_closed_form_bitwise():
    G = unit_stream(np.random.default_rng(19), 1024 * 60, 4).reshape(1024, 60, 4)
    G[:3, 0] = -0.0
    G[:, 1] = -0.0  # a trial of zero gradients
    src, H = RunningAverage(4, 60), np.empty_like(G)
    for t, g in enumerate(G):
        H[t] = src.next_hint()
        src.feed(g)
    assert H.tobytes() == running_average_hints(G).tobytes()


def test_running_average_matches_constant_oracle_on_biased_streams():
    # on a biased i.i.d. stream the running-average source behaves like the
    # constant oracle hint mu/max(1, ||mu||): regret growth slopes agree
    from regretforge import (
        CoinBettor, ConstantHint, DimFreeLearner, OptimisticLearner, fit_slope,
        replay_hinted,
    )
    from regretforge.harness import StreamSpec, generate_stream

    d = 4
    mu = np.array([0.3, 0.0, 0.0, 0.0])
    T = 2 ** 14
    grid = [2 ** k for k in range(10, 15)]
    G = generate_stream(StreamSpec("biased", d, T, 21, {"mu": mu.tolist(), "noise": 0.4}))

    def slope_with(source):
        learner = OptimisticLearner(DimFreeLearner(d, 0.5), CoinBettor(0.5))
        ledger = replay_hinted(learner, G, source)
        losses = ledger.per_round_losses()
        gsum = np.cumsum(G, axis=0)
        rows = []
        for Tp in grid:
            cum = math.fsum(losses[:Tp])
            rows.append({"comparator_id": "env", "T": Tp,
                         "regret": cum + float(np.linalg.norm(gsum[Tp - 1]))})
        return fit_slope(rows, "env")

    oracle_hint = mu / max(1.0, float(np.linalg.norm(mu)))
    s_avg = slope_with(RunningAverage(d))
    s_oracle = slope_with(ConstantHint(oracle_hint))
    assert abs(s_avg - s_oracle) <= 0.05


# ---------------------------------------------------------------------------
# segment draws (HintSource._draw) against the row loop they replace
# ---------------------------------------------------------------------------

_D, _T = 3, 33
_CLOSED = {
    "last_gradient": lambda G: LastGradient(_D),
    "adversarial_negate": lambda G: AdversarialNegate(_D),
    "perfect": lambda G: ExternalHints(G),
    "external": lambda G: ExternalHints(unit_stream(np.random.default_rng(5), 2 * _T, _D)),
}
_ROOTS = {
    "optimistic": lambda: OptimisticLearner(DimFreeLearner(_D, 0.5), CoinBettor(0.5)),
    "multi_hint": lambda: MultiHintLearner(DimFreeLearner(_D, 0.25),
                                           [CoinBettor(0.25) for _ in range(3)]),
    "constrained_ball": lambda: ConstrainedOptimisticLearner(
        DimFreeLearner(_D, 0.25), Ball(np.zeros(_D), 0.5), CoinBettor(0.25)),
    "constrained_box": lambda: ConstrainedOptimisticLearner(
        DimFreeLearner(_D, 0.25), Box([-0.3] * _D, [0.3] * _D), CoinBettor(0.25)),
}


def _hand_hints(sources, G):
    """Each source's next_hint(), then feed(g) to each, row by row: (n, k, d) hints and
    (round, message) of the IndexError that ended them, or None."""
    H = []
    for t, g in enumerate(G):
        try:
            H.append([np.asarray(s.next_hint()) for s in sources])
        except IndexError as exc:
            return np.array(H).reshape(-1, len(sources), G.shape[1]), (t, str(exc))
        for s in sources:
            s.feed(g)
    return np.array(H).reshape(len(G), len(sources), G.shape[1]), None


def _after(src):
    """What next_hint() gives now: the hint's bytes, or an exhausted sequence's message."""
    try:
        return src.next_hint().tobytes()
    except IndexError as exc:
        return str(exc)


def _sources(root, kind, G):
    make = _CLOSED[kind]
    # a multi-hint root mixes two closed-form sources with one the row loop runs
    return [make(G), RunningAverage(_D), make(G)] if root == "multi_hint" else [make(G)]


@pytest.mark.parametrize("root", sorted(_ROOTS))
@pytest.mark.parametrize("kind", sorted(_CLOSED))
@pytest.mark.parametrize("bounds", [(0, _T), (0, 1, 7, 7, 20, _T)], ids=["whole", "segments"])
def test_closed_form_hints_match_the_row_loop(root, kind, bounds):
    G = unit_stream(np.random.default_rng(4), _T, _D)
    learner, sources = _ROOTS[root](), _sources(root, kind, G)
    hints = sources if root == "multi_hint" else sources[0]
    # drive called once per segment, as the checkpoints split it; (7, 7) is empty
    runs = [drive(learner, G[a:b], hints) for a, b in zip(bounds, bounds[1:])]
    oracle = _sources(root, kind, G)
    ref, err = _hand_hints(oracle, G)
    assert err is None
    ref = ref if root == "multi_hint" else ref[:, 0]
    assert np.concatenate([H for _, _, H in runs]).tobytes() == ref.tobytes()
    # each source is left as the rows leave it: next_hint() continues the sequence
    for src, twin in zip(sources, oracle):
        assert _after(src) == _after(twin)
    # the plays are those of the public per-round API fed the hand-drawn hints
    twin = _ROOTS[root]()
    W = []
    for h, g in zip(ref, G):
        W.append(twin.predict(h))
        twin.observe(g)
    assert np.concatenate([W for _, W, _ in runs]).tobytes() == np.array(W).tobytes()


@pytest.mark.parametrize("make", [lambda G: LastGradient(_D), lambda G: AdversarialNegate(_D),
                                  lambda G: ExternalHints(np.vstack([G, G[::-1]]))],
                         ids=["last_gradient", "adversarial_negate", "external"])
def test_a_source_named_twice_is_fed_once_per_slot(make):
    # the row loop asks the one object for two hints and feeds it twice a round
    G = unit_stream(np.random.default_rng(6), _T, _D)
    src, twin = make(G), make(G)
    learner = MultiHintLearner(DimFreeLearner(_D, 1 / 3), [CoinBettor(1 / 3) for _ in range(2)])
    _, _, H = drive(learner, G, [src] * 2)
    ref, err = _hand_hints([twin] * 2, G)
    assert err is None and H.tobytes() == ref.tobytes()
    assert _after(src) == _after(twin)


def test_exhausted_external_hints_fail_at_the_round_the_loop_does():
    G = unit_stream(np.random.default_rng(7), 10, _D)
    # one source, a source named twice, and a second slot: the loop's round and message
    for make in [lambda: ExternalHints(G[:5]), lambda: [ExternalHints(G)] * 2,
                 lambda: [LastGradient(_D), ExternalHints(G[:7])]]:
        hints, twin = make(), make()
        _, (t, message) = _hand_hints(twin if isinstance(twin, list) else [twin], G)
        if isinstance(hints, list):
            learner = MultiHintLearner(DimFreeLearner(_D, 1 / 3),
                                       [CoinBettor(1 / 3) for _ in range(2)])
        else:
            learner = OptimisticLearner(DimFreeLearner(_D, 0.5), CoinBettor(0.5))
        with pytest.raises(ReplayError, match=f"^round {t}: {message}$"):
            drive(learner, G, hints)
        assert learner.round_index == 0
    # split at a checkpoint, the round counts from the learner's first
    learner, src = OptimisticLearner(DimFreeLearner(_D, 0.5), CoinBettor(0.5)), ExternalHints(G[:5])
    drive(learner, G[:3], src)
    with pytest.raises(ReplayError, match="^round 5: hint sequence exhausted after 5 rounds$"):
        drive(learner, G[3:], src)
    assert learner.round_index == 3
    # a short sequence leaves the segment draw unwritten and itself unchanged
    out = np.zeros((6, _D))
    assert src._draw(G[:6], out) is False and not out.any() and src._next == 5


def test_closed_form_sources_that_do_not_fit_keep_the_loop_and_its_errors():
    G = unit_stream(np.random.default_rng(8), 6, _D)
    for src in [LastGradient(_D + 1), AdversarialNegate(_D + 1), ExternalHints(np.zeros((6, 4)))]:
        with pytest.raises(ReplayError, match=f"^round 0: hint has dim 4, expected {_D}"):
            drive(OptimisticLearner(DimFreeLearner(_D, 0.5), CoinBettor(0.5)), G, src)

    class Halved(LastGradient):  # a subclass loops: its own _feed holds
        def _feed(self, g):
            self._prev = 0.5 * g

    _, _, H = drive(OptimisticLearner(DimFreeLearner(_D, 0.5), CoinBettor(0.5)), G, Halved(_D))
    assert np.array_equal(H[1:], 0.5 * G[:-1]) and not H[0].any()
