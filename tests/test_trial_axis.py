"""A leading trial axis B: batched replays must equal single-trial replays, trial by trial.

Also: via-learner radii do not depend on the block size or on drive's hint
segments, the batched bettor decides as it did before its cheaper fast
path, and the public predict(h) decides hints as as_vector/check_unit_norm do.
"""

import numpy as np
import pytest

from regretforge import (
    BernsteinConfig,
    CoinBettor,
    DimFreeLearner,
    OptimisticLearner,
    coverage_experiment,
    learner_radius,
    make_sampler,
    replay_hinted,
)
from regretforge import concentration
from regretforge import harness
from regretforge.combinators import AddCombiner, ConstrainedOptimisticLearner, MultiHintLearner
from regretforge.concentration import SAMPLER_PRESETS, trial_block
from regretforge.core import (
    GRAD_TOL,
    HINT_SEGMENT,
    DimensionMismatch,
    ReplayError,
    as_vector,
    check_unit_norm,
    drive,
    replay,
)
from regretforge.geometry import Ball, NormSpec
from regretforge.hints import HintSource, RunningAverage
from regretforge.learners import WEALTH_CAP, PerCoordinateLearner, PNormBallDescent


def _optimistic(dim, batch=None, eps=0.05):
    return OptimisticLearner(
        DimFreeLearner(dim, epsilon=eps / 2.0, batch=batch), CoinBettor(eps / 2.0, batch)
    )


def _run_both(trials):
    """Replay each (T, d) trial alone and all of them as one (T, B, d) block."""
    T, d = trials[0].shape
    B = len(trials)
    singles = []
    for X in trials:
        learner = _optimistic(d)
        singles.append((learner, replay_hinted(learner, X, RunningAverage(d))))
    batched = _optimistic(d, B)
    ledger = replay_hinted(batched, np.stack(trials, axis=1), RunningAverage(d, B))
    return singles, batched, ledger


def _assert_trials_equal(singles, batched, ledger):
    for i, (learner, single) in enumerate(singles):
        assert np.array_equal(ledger.per_round_losses()[:, i], single.per_round_losses())
        assert batched.bettor.wealth[i] == learner.bettor.wealth
        assert batched.bettor.regret_at_zero()[i] == learner.bettor.regret_at_zero()
        assert batched.base.magnitude.wealth[i] == learner.base.magnitude.wealth
        assert np.array_equal(batched.base.direction.point[i], learner.base.direction.point)
    assert np.array_equal(ledger.cumulative_loss,
                          [single.cumulative_loss for _, single in singles])


def _dense_trials(rng, B, T, d):
    out = []
    for _ in range(B):
        V = rng.standard_normal((T, d))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        out.append(V * rng.uniform(0.05, 1.0, size=(T, 1)))
    return out


@pytest.mark.parametrize("name", SAMPLER_PRESETS)
def test_shipped_samplers_bitwise(name):
    sampler = make_sampler(name)
    trials = [sampler.draw(np.random.default_rng(50 + i), 256) for i in range(5)]
    _assert_trials_equal(*_run_both(trials))
    radii = learner_radius(np.stack(trials, axis=1), 0.05)
    assert np.array_equal(radii, [learner_radius(X, 0.05) for X in trials])


def test_dense_held_out_stream(rng):
    trials = _dense_trials(rng, 6, 300, 7)
    assert all(np.all(X != 0.0) for X in trials)
    radii = learner_radius(np.stack(trials, axis=1), 0.05)
    expected = np.array([learner_radius(X, 0.05) for X in trials])
    assert np.allclose(radii, expected, rtol=1e-12, atol=0.0)
    singles, batched, ledger = _run_both(trials)
    for i, (_, single) in enumerate(singles):
        assert np.allclose(ledger.per_round_losses()[:, i], single.per_round_losses(),
                           rtol=1e-12, atol=1e-15)


def test_block_mixing_zero_and_live_trials():
    live = make_sampler("rademacher_half")
    zero = make_sampler("zero")
    trials = [zero.draw(np.random.default_rng(0), 128),
              live.draw(np.random.default_rng(1), 128),
              zero.draw(np.random.default_rng(2), 128),
              live.draw(np.random.default_rng(3), 128)]
    singles, batched, ledger = _run_both(trials)
    _assert_trials_equal(singles, batched, ledger)
    assert np.all(batched.base.direction.point[[0, 2]] == 0.0)
    radii = learner_radius(np.stack(trials, axis=1), 0.05)
    assert np.array_equal(radii, [learner_radius(X, 0.05) for X in trials])


def test_wealth_cap_applies_per_trial():
    # a constant stream makes the running-average hint perfect, so the hint
    # bettor's wealth roughly doubles each round and reaches the cap
    T, d = 512, 4
    steady = np.tile([0.6, 0.0, 0.8, 0.0], (T, 1))
    noisy = make_sampler("rademacher").draw(np.random.default_rng(9), T)
    singles, batched, ledger = _run_both([steady, noisy])
    _assert_trials_equal(singles, batched, ledger)
    assert batched.bettor.wealth[0] == WEALTH_CAP
    assert batched.bettor.wealth[1] < 1e6


@pytest.mark.parametrize("T", [0, 5, HINT_SEGMENT, 2 * HINT_SEGMENT + 7])
def test_hint_segments_leave_every_trial_bitwise(T):
    # a block's hints are drawn and checked HINT_SEGMENT rounds at a time: no
    # segment, one short one, whole ones and a ragged last one
    sampler = make_sampler("rademacher_half")
    trials = [sampler.draw(np.random.default_rng(60 + i), T) for i in range(4)]
    _assert_trials_equal(*_run_both(trials))
    radii = learner_radius(np.stack(trials, axis=1), 0.05)
    assert np.array_equal(radii, [learner_radius(X, 0.05) for X in trials])


def test_radii_do_not_depend_on_block_boundaries():
    T, dim = 1024, 4
    block = trial_block(T, dim)
    assert block >= 2

    def run(trials):
        return coverage_experiment(BernsteinConfig(
            delta=0.05, T=T, sampler="rademacher", trials=trials, seed=7, dim=dim,
            via_learner=True))

    one, below, above = run(1), run(block - 1), run(block + 1)
    assert np.array_equal(above.radii[:1], one.radii)
    assert np.array_equal(above.radii[:block - 1], below.radii)
    assert np.array_equal(above.deviations[:block - 1], below.deviations)
    sampler = make_sampler("rademacher", dim)
    last = sampler.draw(np.random.default_rng(7 + block), T)
    assert above.radii[block] == learner_radius(last, 0.05)


def test_wrong_shaped_rows_raise_dimension_mismatch():
    B, d = 3, 4
    learner = _optimistic(d, B)
    for bad in (np.zeros((B + 1, d)), np.zeros((B, d + 1)), np.zeros(d)):
        with pytest.raises(DimensionMismatch):
            learner.predict(bad)
    learner.predict(np.zeros((B, d)))
    for bad in (np.zeros((B - 1, d)), np.zeros((B, d - 1)), np.zeros((1, B, d))):
        with pytest.raises(DimensionMismatch):
            learner.observe(bad)
    with pytest.raises(DimensionMismatch):
        RunningAverage(d, B).feed(np.zeros((B, d + 1)))
    with pytest.raises(DimensionMismatch):
        CoinBettor(1.0, B).observe(np.zeros(B + 1))
    with pytest.raises(DimensionMismatch):
        OptimisticLearner(DimFreeLearner(d, batch=B), CoinBettor(1.0, B + 1))
    with pytest.raises(ReplayError, match="round 0"):
        replay_hinted(_optimistic(d, B), np.zeros((8, B + 1, d)), RunningAverage(d, B))


@pytest.mark.parametrize("make", [
    lambda: MultiHintLearner(DimFreeLearner(3, 0.5), [CoinBettor(0.5, batch=3)]),
    lambda: MultiHintLearner(DimFreeLearner(3, 0.5, batch=2), [CoinBettor(0.5)]),
    lambda: ConstrainedOptimisticLearner(DimFreeLearner(3, 0.5), Ball(np.zeros(3), 1.0),
                                         CoinBettor(0.5, batch=3)),
    lambda: ConstrainedOptimisticLearner(DimFreeLearner(3, 0.5, batch=2), Ball(np.zeros(3), 1.0),
                                         CoinBettor(0.5, batch=2)),
], ids=["multi_hint_bettor", "multi_hint_base", "constrained_bettor", "constrained_base"])
def test_roots_without_a_trial_axis_reject_a_batched_part(make):
    # before: the (3,) bet multiplied the hint entry by entry, or a round failed inside NumPy
    with pytest.raises(DimensionMismatch, match="takes no batched base or bettor"):
        make()


@pytest.mark.parametrize("batches", [(2, None), (None, 2), (2, 3)])
def test_add_rejects_children_of_mixed_trial_axes(batches):
    # before: with (2, None) it built with no trial axis, broadcast the (3,) per-coordinate
    # bet across both trials to a (2, 3) play, and drive failed at round 0
    first, second = batches
    with pytest.raises(DimensionMismatch, match="one trial axis"):
        AddCombiner([DimFreeLearner(3, 0.5, batch=first),
                     PerCoordinateLearner(3, 0.5, batch=second)])


def test_out_of_contract_values_are_rejected():
    B, d = 3, 2
    learner = _optimistic(d, B)
    hints = np.zeros((B, d))
    hints[1] = [1.0, 1.0]
    with pytest.raises(ValueError, match="trial 1"):
        learner.predict(hints)
    with pytest.raises(ValueError, match="non-finite"):
        CoinBettor(1.0, B).observe([0.0, 0.5, np.nan])
    with pytest.raises(ValueError, match="outside"):
        CoinBettor(1.0, B).observe([0.0, 1.5, 0.0])


def test_trial_axis_needs_p2_direction():
    with pytest.raises(ValueError, match="p = 2"):
        PNormBallDescent(8, NormSpec.from_p(1.5), batch=4)


@pytest.mark.parametrize("block", [1, 7, 20])
def test_radii_bitwise_whatever_the_block_size(monkeypatch, block):
    T, dim, trials = 128, 4, 20
    cfg = BernsteinConfig(delta=0.05, T=T, sampler="rademacher_half", trials=trials,
                          seed=11, dim=dim, via_learner=True)
    default = coverage_experiment(cfg)
    sizes = []

    def counting_radius(X, delta):
        sizes.append(X.shape[1])
        return learner_radius(X, delta)

    monkeypatch.setattr(concentration, "TRIAL_BLOCK_BYTES", block * 8 * T * dim)
    monkeypatch.setattr(concentration, "learner_radius", counting_radius)
    res = coverage_experiment(cfg)
    assert sizes == [min(block, trials - start) for start in range(0, trials, block)]
    assert np.array_equal(res.radii, default.radii)
    assert np.array_equal(res.deviations, default.deviations)
    assert (res.failure_rate, res.mean_radius) == (default.failure_rate, default.mean_radius)


def _block_shapes(monkeypatch, trials):
    """Shapes of the blocks a T = 1024, d = 4 via-learner job hands learner_radius."""
    shapes = []

    def recording_radius(X, delta):
        shapes.append(X.shape)
        return np.zeros(X.shape[1])

    monkeypatch.setattr(concentration, "learner_radius", recording_radius)
    coverage_experiment(BernsteinConfig(delta=0.05, T=1024, trials=trials, seed=3, dim=4,
                                        via_learner=True))
    return shapes


def test_sixty_trial_job_is_one_block(monkeypatch):
    # the shape of a bernstein_mc job and of acceptance line C10
    assert _block_shapes(monkeypatch, 60) == [(1024, 60, 4)]


def test_block_sizes_follow_the_byte_budget(monkeypatch):
    assert trial_block(1024, 4) == concentration.TRIAL_BLOCK_BYTES // (8 * 1024 * 4) == 256
    shapes = _block_shapes(monkeypatch, 2000)
    assert [B for _, B, _ in shapes] == [256] * 7 + [208]
    assert {(T, d) for T, _, d in shapes} == {(1024, 4)}
    assert trial_block(1 << 22, 4) == 1


def test_batched_bettor_rejects_what_it_rejected_before():
    B = 3
    for bad, exc, match in ((np.nan, ValueError, "non-finite"),
                            (np.inf, ValueError, "non-finite"),
                            (-np.inf, ValueError, "non-finite"),
                            (1.0 + 2 * GRAD_TOL, ValueError, "outside"),
                            (-1.0 - 2 * GRAD_TOL, ValueError, "outside")):
        z = np.array([0.0, bad, 0.5])
        bettor = CoinBettor(1.0, B)
        with pytest.raises(exc, match=match):
            bettor.observe(z)
        assert bettor.round == 0
    for shape in ((B + 1,), (B - 1,), (1, B), (B, 1), ()):
        with pytest.raises(DimensionMismatch):
            CoinBettor(1.0, B).observe(np.zeros(shape))
    edge = CoinBettor(1.0, B)
    edge.observe([1.0 + GRAD_TOL, -1.0 - GRAD_TOL, 0.0])
    assert edge.round == 1


def _old_hint_check(h, dim, batch, as_name, row):
    """The hint check of the public predict(h): as_vector then check_unit_norm."""
    v = as_vector(h, dim, as_name, batch)
    check_unit_norm(v, "hint", row=row)


def _outcome(fn):
    try:
        fn()
    except ValueError as exc:
        return type(exc), str(exc)
    return None


class _Fixed(HintSource):
    """Emits the same hint every round."""

    def __init__(self, h):
        super().__init__(h.shape[-1])
        self.h = h

    def next_hint(self):
        return self.h.copy()


def _drive_outcome(learner, G, source):
    """None, or drive's ReplayError message."""
    try:
        drive(learner, G, source)
    except ReplayError as exc:
        return str(exc)
    return None


def _at_round_0(expected):
    return None if expected is None else f"round 0: {expected[1]}"


# norms around the segment check's margin (1 + GRAD_TOL/2) and the tolerance
_EDGE_NORMS = [1.0, 1.0 + 0.4 * GRAD_TOL, 1.0 + 0.5 * GRAD_TOL, 1.0 + 0.6 * GRAD_TOL,
               1.0 + GRAD_TOL, 1.0 + 1.01 * GRAD_TOL, 1.0 + 1.1 * GRAD_TOL, 2.0,
               np.nan, np.inf, 1e200]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("n", _EDGE_NORMS)
def test_hint_edges_decided_as_before(n):
    d, B = 3, 4
    h = np.array([n, 0.0, 0.0]) if np.isfinite(n) else np.array([0.5, n, 0.0])
    expected = _outcome(lambda: _old_hint_check(h, d, None, "hint", "trial"))
    assert _outcome(lambda: _optimistic(d).predict(h)) == expected
    assert _drive_outcome(_optimistic(d), np.zeros((2, d)), _Fixed(h)) == _at_round_0(expected)
    if np.isfinite(n) and 1.0 < n <= 1.0 + GRAD_TOL:
        assert expected is None
    if np.isfinite(n) and n > 1.0 + GRAD_TOL:
        assert "hint has norm" in expected[1]
    H = np.zeros((B, d))
    H[2] = h
    expected = _outcome(lambda: _old_hint_check(H, d, B, "hint", "trial"))
    assert _outcome(lambda: _optimistic(d, B).predict(H)) == expected
    assert _drive_outcome(_optimistic(d, B), np.zeros((2, B, d)), _Fixed(H)) == _at_round_0(
        expected)
    # drive checks the k stacked hints of a multi-hint round under the name "hint"
    share = 1.0 / (B + 1)  # B hint slots
    multi = MultiHintLearner(DimFreeLearner(d, share), [CoinBettor(share) for _ in range(B)])
    assert _drive_outcome(multi, np.zeros((2, d)), [_Fixed(r) for r in H]) == (
        _at_round_0(_outcome(lambda: _old_hint_check(H, d, B, "hint", "slot"))))
    expected = _outcome(lambda: _old_hint_check(H, d, B, "hints", "slot"))
    multi = MultiHintLearner(DimFreeLearner(d, share), [CoinBettor(share) for _ in range(B)])
    assert _outcome(lambda: multi.predict(H)) == expected
    if np.isfinite(n) and n > 1.0 + GRAD_TOL:
        assert "hint of slot 2 has norm" in expected[1]


def test_hint_of_wrong_shape_is_rejected_as_before():
    d, B = 3, 4
    for shape in ((d + 1,), (1, d), ()):
        with pytest.raises(DimensionMismatch, match="hint"):
            _optimistic(d).predict(np.zeros(shape))
    for shape in ((B, d + 1), (B + 1, d), (d,)):
        with pytest.raises(DimensionMismatch, match="hint"):
            _optimistic(d, B).predict(np.zeros(shape))
        with pytest.raises(DimensionMismatch, match="hints"):
            MultiHintLearner(DimFreeLearner(d, 1.0 / (B + 1)),
                             [CoinBettor(1.0 / (B + 1)) for _ in range(B)]).predict(np.zeros(shape))


def test_sixty_trial_block_is_each_trials_own_replay_bitwise():
    # the bernstein_mc block width, over a ragged number of 64-row folds, with zero,
    # steady (capped) and shipped-sampler trials side by side
    T, d = 450, 4
    trials = [make_sampler(SAMPLER_PRESETS[i % 3]).draw(np.random.default_rng(70 + i), T)
              for i in range(57)]
    trials += [np.zeros((T, d)), np.tile([0.6, 0.0, 0.8, 0.0], (T, 1)),
               np.tile([0.0, -1.0, 0.0, 0.0], (T, 1))]
    singles, batched, ledger = _run_both(trials)
    _assert_trials_equal(singles, batched, ledger)
    for name in ("bettor", "base.magnitude"):
        block = batched.bettor if name == "bettor" else batched.base.magnitude
        alone = [l.bettor if name == "bettor" else l.base.magnitude for l, _ in singles]
        assert block.capped_rounds.tolist() == [b.capped_rounds for b in alone]
        assert block.signed_sum.tolist() == [b.signed_sum for b in alone]
        assert block.regret_at(-0.7).tolist() == [b.regret_at(-0.7) for b in alone]
    assert batched.bettor.capped_rounds[-2:].min() > 0 == batched.bettor.capped_rounds[:-2].max()
    assert batched.base.direction.dual_sq_sum.tolist() == [
        l.base.direction.dual_sq_sum for l, _ in singles]
    radii = learner_radius(np.stack(trials, axis=1), 0.05)
    assert np.array_equal(radii, [learner_radius(X, 0.05) for X in trials])


_PLAIN_TREES = {
    "percoord": lambda d, batch=None: PerCoordinateLearner(d, 0.5, batch=batch),
    "add": lambda d, batch=None: AddCombiner([DimFreeLearner(d, 0.5, batch=batch),
                                              PerCoordinateLearner(d, 0.5, batch=batch)]),
}


def _kt_parts(learner):
    """The parts of a plain tree that keep wealth and signed sums."""
    if isinstance(learner, PerCoordinateLearner):
        return [learner]
    return [learner.children[0].magnitude, learner.children[1]]


@pytest.mark.parametrize("kind", sorted(_PLAIN_TREES))
def test_trial_axis_plain_trees_are_their_single_trial_replays_bitwise(kind, rng):
    # a ragged number of 64-row plans, with zero, random and steady trials side by side;
    # only the steady one drives coordinate 0's wealth to the cap
    T, d = 450, 3
    trials = [rng.uniform(-1.0, 1.0, (T, d)) / np.sqrt(d), np.zeros((T, d)),
              np.tile([-1.0, 0.0, 0.0], (T, 1)), make_sampler("rademacher").draw(rng, T)[:, :d]]
    make = _PLAIN_TREES[kind]
    batched = make(d, len(trials))
    assert batched.batch == len(trials)
    ledger = replay(batched, np.stack(trials, axis=1))
    singles = []
    for i, X in enumerate(trials):
        alone = make(d)
        losses = replay(alone, X).per_round_losses()
        assert ledger.per_round_losses()[:, i].tobytes() == losses.tobytes()
        for part, single in zip(_kt_parts(batched), _kt_parts(alone)):
            assert part.wealth[i].tobytes() == np.asarray(single.wealth).tobytes()
            assert part.signed_sum[i].tobytes() == np.asarray(single.signed_sum).tobytes()
            assert part.capped_rounds[i] == single.capped_rounds
        assert harness.capped_bettors(batched, trial=i) == harness.capped_bettors(alone)
        singles.append(alone)
    capped = [bool(harness.capped_bettors(alone)) for alone in singles]
    assert capped == [False, False, True, False]


@pytest.mark.parametrize("batch", [0, -1])
@pytest.mark.parametrize("make", [
    lambda B: DimFreeLearner(3, batch=B), lambda B: PerCoordinateLearner(3, batch=B),
    lambda B: CoinBettor(1.0, batch=B), lambda B: PNormBallDescent(3, batch=B),
    lambda B: RunningAverage(3, B)],
    ids=["dimfree", "percoord", "bettor", "direction", "running_average"])
def test_a_trial_count_below_one_is_rejected(make, batch):
    with pytest.raises(ValueError, match="^batch must be >= 1$"):
        make(batch)
