"""Coin bettor, dimension-free learner, per-coordinate learner, projected descent."""

import math

import numpy as np
import pytest

from regretforge import (
    AdaptiveProjectedDescent,
    Ball,
    Box,
    CoinBettor,
    DimFreeLearner,
    PerCoordinateLearner,
    PNormBallDescent,
    WholeSpace,
    p_norm,
    pnorm_grid,
    replay,
)
from regretforge.learners import WEALTH_CAP
from conftest import rademacher_stream, unit_stream


def bettor_oracle(zs, epsilon=1.0):
    """Hand recursion: fraction sum(z)/(t+1), wealth += y*z."""
    wealth, ssum = epsilon, 0.0
    ys = []
    for t, z in enumerate(zs):
        y = ssum / (t + 1) * wealth
        ys.append(y)
        wealth += y * z
        ssum += z
    return ys, wealth


def test_coin_predict_examples():
    b = CoinBettor(1.0)
    assert b.predict() == 0.0
    b.observe(1.0)
    assert b.predict() == 0.5  # fraction 1/2 of wealth 1
    b.observe(1.0)
    assert b.predict() == 1.0  # fraction 2/3 of wealth 1.5
    assert b.wealth == 1.5


def test_coin_observe_neutral_cases():
    b = CoinBettor(1.0)
    b.observe(1.0)  # y was 0, wealth unchanged
    assert b.wealth == 1.0
    before = (b.wealth, b.signed_sum)
    b.observe(0.0)
    assert (b.wealth, b.signed_sum) == before


def test_coin_alternating_oracle_value():
    # simulation oracle: wealth after 100 alternating outcomes equals
    # C(100,50)/2^100; balanced coins drain KT wealth like 1/sqrt(T), so
    # only the oracle value (not some constant floor) is the right freeze
    zs = [1.0 if t % 2 == 0 else -1.0 for t in range(100)]
    _, oracle_wealth = bettor_oracle(zs)
    assert oracle_wealth == math.comb(100, 50) / 2**100
    b = CoinBettor(1.0)
    for z in zs:
        b.observe(z)
    assert b.wealth == pytest.approx(oracle_wealth, rel=1e-12)
    assert b.wealth > 0.0
    assert b.regret_at_zero() <= 1.0


def test_coin_outcome_bound():
    b = CoinBettor(1.0)
    with pytest.raises(ValueError):
        b.observe(1.0 + 1e-6)
    with pytest.raises(ValueError):
        CoinBettor(0.0)


def test_coin_wealth_nonnegative(rng):
    for _ in range(20):
        b = CoinBettor(1.0)
        for z in rng.uniform(-1, 1, size=500):
            b.observe(float(z))
            assert b.wealth >= 0.0


def test_coin_regret_at_origin(rng):
    for _ in range(30):
        G = rng.uniform(-1, 1, size=(2048, 1))
        ledger = replay(PerCoordinateLearner(1, 1.0), G)
        assert ledger.regret_at(np.zeros(1)) <= 1.0 + 1e-6


def test_coin_regret_at_matches_ledger(rng):
    # the 1-D learner is a coin bettor fed z = -g: same bets, same regrets
    G = rng.uniform(-1, 1, size=(300, 1))
    ledger = replay(PerCoordinateLearner(1, 1.0), G)
    bettor = CoinBettor(1.0)
    for t in range(G.shape[0]):
        assert ledger.iterates[t, 0] == bettor.predict()
        bettor.observe(-G[t, 0])
    for u in (-2.0, 0.0, 0.7):
        assert bettor.regret_at(u) == pytest.approx(
            ledger.regret_at(np.array([u])), abs=1e-9
        )


def test_dimfree_zero_gradients_stay_zero():
    learner = DimFreeLearner(3, 1.0)
    for _ in range(10):
        assert np.array_equal(learner.predict(), np.zeros(3))
        learner.observe(np.zeros(3))


def test_dimfree_constant_gradient_sign():
    # constant g = (-1, 0): the iterate's first coordinate turns positive
    # and keeps growing once the learner locks on
    learner = DimFreeLearner(2, 1.0)
    g = np.array([-1.0, 0.0])
    firsts = []
    for _ in range(200):
        firsts.append(learner.predict()[0])
        learner.observe(g)
    assert firsts[-1] > 0
    tail = firsts[50:]
    assert all(b >= a - 1e-12 for a, b in zip(tail, tail[1:]))


def test_dimfree_regret_at_origin(rng):
    for _ in range(20):
        G = unit_stream(rng, 1024, 4)
        ledger = replay(DimFreeLearner(4, 1.0), G)
        assert ledger.regret_at(np.zeros(4)) <= 1.0 + 1e-6


def test_dimfree_pnorm_variant_runs(rng):
    from regretforge import NormSpec

    G = unit_stream(rng, 256, 6)
    ledger = replay(DimFreeLearner(6, 1.0, spec=NormSpec.from_p(1.3)), G)
    assert ledger.regret_at(np.zeros(6)) <= 1.0 + 1e-6


def _grad_half_norm_sq(x, p):
    """Gradient of 0.5*||x||_p^2, computed directly from x."""
    if p == 2.0:
        return x.copy()
    n = p_norm(x, p)
    if n == 0.0:
        return np.zeros_like(x)
    return n ** (2.0 - p) * np.sign(x) * np.abs(x) ** (p - 1.0)


def primal_step_oracle(point, dual_sq_sum, g, spec):
    """The mirror-descent step recomputed in the primal from the point.

    Returns (new point, new squared dual-norm sum, whether it rescaled).
    """
    gq = p_norm(g, spec.q)
    dual_sq_sum += gq * gq
    if dual_sq_sum <= 0.0:
        return point, dual_sq_sum, False
    eta = math.sqrt(spec.lam) / math.sqrt(dual_sq_sum)
    theta = _grad_half_norm_sq(point, spec.p) - eta * g
    u = _grad_half_norm_sq(theta, spec.q)
    n = p_norm(u, spec.p)
    if n > 1.0:
        return u / n, dual_sq_sum, True
    return u, dual_sq_sum, False


def _oracle_streams(d):
    """A drifting dense stream and a sparse sign stream, both with zero rounds."""
    rng = np.random.default_rng(d)
    T = 1500 if d < 1024 else 200
    dense = unit_stream(rng, T, d, scale=0.5)
    dense[:, 0] += 0.5
    sparse = np.zeros((T, d))
    k = max(1, d // 8)
    for t in range(T):
        idx = rng.choice(d, size=k, replace=False)
        sparse[t, idx] = (rng.integers(0, 2, size=k) * 2.0 - 1.0) / math.sqrt(k)
    for G in (dense, sparse):
        G[:3] = 0.0   # zero rounds before any evidence
        G[::7] = 0.0  # and zero rounds in between
    return {"dense": dense, "sparse": sparse}


@pytest.mark.parametrize("d", [16, 64, 1024])
def test_direction_dual_step_matches_primal_oracle(d):
    # Each round the oracle steps from the learner's own point and squared
    # sum, so this checks the dual step against the primal one round by
    # round. Over a whole trajectory the primal form drifts by itself: at
    # q ~ 52 it loses up to ~1e-11 over a few thousand interior rounds,
    # where the dual form stays within ~4e-14 of a 40-digit reference.
    for spec in pnorm_grid(d):
        rescaled = 0
        for name, G in _oracle_streams(d).items():
            learner = PNormBallDescent(d, spec)
            trajectory = np.zeros(d)
            trajectory_sq = 0.0
            for t, g in enumerate(G):
                want, _, hit = primal_step_oracle(learner.point, learner.dual_sq_sum, g, spec)
                rescaled += hit
                learner.observe(g)
                got = learner.point
                scale = float(np.abs(want).max())
                where = f"q={spec.q:.3g} {name} round {t}"
                assert np.abs(got - want).max() <= 1e-12 * scale, where
                assert p_norm(got, spec.p) <= 1.0 + 1e-12, where
                if spec.p == 2.0:
                    # the p = 2 step is unchanged: bitwise the oracle's own trajectory
                    trajectory, trajectory_sq, _ = primal_step_oracle(
                        trajectory, trajectory_sq, g, spec)
                    assert np.array_equal(got, trajectory), where
        assert rescaled > 0, f"q={spec.q:.3g} never took the rescale branch"


def test_percoordinate_equals_independent_bettors(rng):
    # coordinate-wise ledger identity against d genuine CoinBettor instances
    d, T = 5, 400
    G = unit_stream(rng, T, d)
    learner = PerCoordinateLearner(d, epsilon=1.0)
    bettors = [CoinBettor(1.0 / d) for _ in range(d)]
    for t in range(T):
        w = learner.predict()
        expected = np.array([b.predict() for b in bettors])
        assert np.array_equal(w, expected)
        learner.observe(G[t])
        for i, b in enumerate(bettors):
            b.observe(-float(G[t, i]))


def test_percoordinate_rejects_nonpositive_epsilon():
    for eps in (0.0, -1.0):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            PerCoordinateLearner(4, epsilon=eps)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_percoordinate_rejects_non_finite_epsilon(eps):
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        PerCoordinateLearner(4, epsilon=eps)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("batch", [None, 3])
def test_coin_bettor_rejects_budget_that_is_not_finite_and_positive(eps, batch):
    # an infinite budget used to reach a NaN wealth after one round
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        CoinBettor(eps, batch)


def test_percoordinate_regret_at_origin(rng):
    for _ in range(10):
        G = unit_stream(rng, 1024, 8)
        ledger = replay(PerCoordinateLearner(8, 1.0), G)
        assert ledger.regret_at(np.zeros(8)) <= 1.0 + 1e-6


def test_apd_zero_gradients_keep_initial_point():
    dom = Box([-1.0, -1.0], [1.0, 1.0])
    learner = AdaptiveProjectedDescent(dom)
    for _ in range(5):
        assert np.array_equal(learner.predict(), np.zeros(2))
        learner.observe(np.zeros(2))


def test_apd_converges_to_boundary():
    dom = Box([-1.0], [1.0])
    learner = AdaptiveProjectedDescent(dom)
    for _ in range(4096):
        learner.predict()
        learner.observe(np.array([1.0]))
    assert learner.predict()[0] == pytest.approx(-1.0, abs=1e-3)


def test_apd_iterates_stay_inside(rng):
    dom = Ball(np.array([0.3, -0.2]), 0.6)
    learner = AdaptiveProjectedDescent(dom)
    G = unit_stream(rng, 500, 2)
    for g in G:
        w = learner.predict()
        assert dom.contains(w, 1e-12)
        learner.observe(g)


def test_apd_regret_bound_on_signs(rng):
    # 1-D domain [-1, 1]: measured regret against the best point stays
    # under 2 B sqrt(2 T) on an i.i.d. sign stream
    T = 4096
    dom = Box([-1.0], [1.0])
    G = (rng.integers(0, 2, size=(T, 1)) * 2.0 - 1.0)
    ledger = replay(AdaptiveProjectedDescent(dom), G)
    total = float(ledger.gradient_sum()[0])
    best = np.array([-1.0 if total > 0 else 1.0])  # linear loss: best endpoint
    assert ledger.regret_at(best) <= 2.0 * dom.diameter * math.sqrt(2.0 * T)


def test_apd_rejects_unbounded_domain():
    with pytest.raises(ValueError):
        AdaptiveProjectedDescent(WholeSpace())


def _capped_by_oracle(zs, epsilon=1.0):
    """Rounds whose wealth update the cap clipped, by the hand recursion."""
    wealth, ssum, capped = epsilon, 0.0, 0
    for t, z in enumerate(zs):
        wealth = wealth + ssum / (t + 1) * wealth * z
        if wealth > WEALTH_CAP:
            wealth, capped = WEALTH_CAP, capped + 1
        ssum += z
    return capped


def test_coin_counts_capped_rounds():
    zs = [1.0] * 400 + [-1.0] * 5 + [1.0] * 20
    bettor = CoinBettor(1.0)
    for z in zs:
        bettor.observe(z)
    assert 0 < bettor.capped_rounds == _capped_by_oracle(zs) < len(zs)
    batched = CoinBettor(1.0, batch=3)
    for t, z in enumerate(zs):
        batched.observe([z, 0.0, 0.5 * (-1) ** t])  # trial 2 alternates: no wealth
    assert batched.capped_rounds.tolist() == [bettor.capped_rounds, 0, 0]


def test_percoordinate_counts_capped_rounds():
    learner = PerCoordinateLearner(3, 1.0)
    g = np.array([-1.0, 0.0, 0.0])  # coordinate 0 wins every round
    for _ in range(400):
        learner.predict()
        learner.observe(g)
    assert 0 < learner.capped_rounds < 400
    assert learner.wealth[0] == WEALTH_CAP and learner.wealth[1] < 1.0
    quiet = PerCoordinateLearner(3, 1.0)
    replay(quiet, unit_stream(np.random.default_rng(3), 400, 3))
    assert quiet.capped_rounds == 0
