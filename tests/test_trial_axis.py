"""A leading trial axis B: batched replays must equal single-trial replays, trial by trial.

Also: via-learner radii do not depend on the block size, and the batched
bettor and the per-round hint checks decide as they did before their
cheaper fast paths.
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
from regretforge.combinators import multi_hint
from regretforge.concentration import SAMPLER_PRESETS, trial_block
from regretforge.core import (
    GRAD_TOL,
    DimensionMismatch,
    ReplayError,
    as_vector,
    check_unit_norm,
)
from regretforge.geometry import NormSpec
from regretforge.hints import RunningAverage
from regretforge.learners import WEALTH_CAP, PNormBallDescent


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
    """The per-round hint check before the pre-check: as_vector then check_unit_norm."""
    v = as_vector(h, dim, as_name, batch)
    check_unit_norm(v, "hint", row=row)


def _outcome(fn):
    try:
        fn()
    except ValueError as exc:
        return type(exc), str(exc)
    return None


# norms around the pre-check's margin (1 + GRAD_TOL/2) and the tolerance
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
    if np.isfinite(n) and 1.0 < n <= 1.0 + GRAD_TOL:
        assert expected is None
    if np.isfinite(n) and n > 1.0 + GRAD_TOL:
        assert "hint has norm" in expected[1]
    H = np.zeros((B, d))
    H[2] = h
    expected = _outcome(lambda: _old_hint_check(H, d, B, "hint", "trial"))
    assert _outcome(lambda: _optimistic(d, B).predict(H)) == expected
    expected = _outcome(lambda: _old_hint_check(H, d, B, "hints", "slot"))
    assert _outcome(lambda: multi_hint(d, B).predict(H)) == expected
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
            multi_hint(d, B).predict(np.zeros(shape))
