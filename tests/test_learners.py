"""Coin bettor, dimension-free learner, per-coordinate learner, projected descent."""

import math

import numpy as np
import pytest

from regretforge import (
    AdaptiveProjectedDescent,
    NormSpec,
    AddCombiner,
    Ball,
    Box,
    CoinBettor,
    DimFreeLearner,
    PerCoordinateLearner,
    PNormBallDescent,
    WholeSpace,
    multi_norm,
    p_norm,
    pnorm_grid,
    replay,
)
from regretforge.harness import capped_bettors
from regretforge.core import row_norm
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
    # A p < 2 spec runs as a one-row grid: its state is row 0.
    def state(learner):
        if learner.theta is None:
            return learner.point, learner.dual_sq_sum
        return learner.point[0], float(learner.dual_sq_sum[0])

    for spec in pnorm_grid(d):
        rescaled = 0
        for name, G in _oracle_streams(d).items():
            learner = PNormBallDescent(d, spec)
            trajectory = np.zeros(d)
            trajectory_sq = 0.0
            for t, g in enumerate(G):
                want, _, hit = primal_step_oracle(*state(learner), g, spec)
                rescaled += hit
                learner.observe(g)
                got = state(learner)[0]
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


@pytest.mark.parametrize("d", [16, 64, 1024])
def test_multi_norm_grid_rows_match_one_learner_per_norm(d):
    # multi_norm steps its p < 2 norms as the rows of one grid learner; the
    # reference is the sum of one DimFreeLearner per grid norm, stepped apart.
    grid = pnorm_grid(d)
    share = 1.0 / len(grid)
    rescaled = [0] * (len(grid) - 1)
    for name, G in _oracle_streams(d).items():
        learner = multi_norm(d, 1.0)
        stacked = learner.children[1]
        apart = AddCombiner([DimFreeLearner(d, share, spec) for spec in grid])
        assert learner.epsilon == apart.epsilon
        for t, g in enumerate(G):
            w, want = learner.predict(), apart.predict()
            where = f"{name} round {t}"
            assert np.abs(w - want).max() <= 1e-12 * np.abs(want).max(), where
            for i, (spec, row) in enumerate(zip(grid[1:], apart.children[1:])):
                assert stacked.magnitude.predict()[i] == row.magnitude.predict()[0], where
                assert np.array_equal(stacked.direction.point[i], row.direction.point[0]), where
                rescaled[i] += primal_step_oracle(
                    row.direction.point[0], float(row.direction.dual_sq_sum[0]), g, spec)[2]
            learner.observe(g)
            apart.observe(g)
    assert all(rescaled), f"rows that never took the rescale branch: {rescaled}"


def dense_grid_step(theta, point, sums, g, specs):
    """The grid step with every row raised at full length, as one learner per round took it
    before the step kept r and r^(q-1): (theta, point, sums, per-row max |theta|, rescaled)."""
    q = np.array([s.q for s in specs])
    a = np.abs(g)
    top = float(a.max())
    gq = np.array([top * float(np.sum((a / top) ** x)) ** (1.0 / x) if top else 0.0 for x in q])
    sums = sums + gq * gq
    if max(sums.tolist()) <= 0.0:
        return theta, point, sums, None, [False] * len(specs)
    eta = [math.sqrt(s.lam) / math.sqrt(t) if t else 0.0 for s, t in zip(specs, sums.tolist())]
    theta = theta - np.array(eta)[:, None] * g
    a = np.abs(theta)
    m = a.max(axis=1)
    ms = m.tolist()
    m[m == 0.0] = 1.0
    r = a / m[:, None]
    rq1 = r ** (q - 1.0)[:, None]
    rows = [(m_i, float(np.dot(x, y)), q_i) for m_i, x, y, q_i in zip(ms, rq1, r, q.tolist())]
    scale = [m_i * S ** (2.0 / q_i - 1.0) if m_i else 0.0 for m_i, S, q_i in rows]
    n = [max(m_i * S ** (1.0 / q_i), 1.0) if m_i else 1.0 for m_i, S, q_i in rows]
    u = np.copysign(rq1, theta) * np.array(scale)[:, None]
    if max(n) > 1.0:
        u, theta = u / np.array(n)[:, None], theta / np.array(n)[:, None]
    return theta, u, sums, ms, [n_i > 1.0 for n_i in n]


GRID_SPECS = tuple(NormSpec.from_p(p) for p in (1.9, 1.6, 1.25, 1.1))


def _grid_stream(d, T=400, seed=0):
    """Sparse rows of 1 to 4 entries, with zero rows, dense rows and -0.0 entries."""
    rng = np.random.default_rng(seed)
    G = np.zeros((T, d))
    for t in range(T):
        k = rng.integers(1, 5)
        G[t, rng.choice(d, k, replace=False)] = rng.standard_normal(k) / (2.0 * math.sqrt(k))
    G[:3] = 0.0  # before any evidence
    G[40::37] = 0.0  # after it
    G[25::29] = rng.standard_normal((len(G[25::29]), d)) / (2.0 * math.sqrt(d))  # dense
    G[G == 0.0] = -0.0
    G[::2][G[::2] == 0.0] = 0.0  # every other row's zeros unsigned
    return G


@pytest.mark.parametrize("specs", [GRID_SPECS, GRID_SPECS[1:] + (NormSpec.from_p(1.5),)],
                         ids=["grid", "shortcut-exponent"])
@pytest.mark.parametrize("d", [8, 64, 300])
def test_grid_step_is_the_dense_step_bitwise(d, specs):
    # One learner steps round by round, one reads segment plans of its dual norms and moved
    # columns; both must take the dense step's bits every round, and theta never holds -0.0.
    # The rows' rounds cover both theta steps (only the moved columns, and the dense one) and
    # every branch of the kept r and r^(q-1): rescales, the round after one, a max that moves
    # under a sparse g, a max that stays, dense and zero gradients. p = 1.5 raises r to the
    # power 2.0, which NumPy may compute as r * r (see learners.POWER_SHORTCUTS).
    G = _grid_stream(d, seed=d)
    rounds, planned = PNormBallDescent(d, specs), PNormBallDescent(d, specs)
    k = len(specs)
    theta, point, sums = np.zeros((k, d)), np.zeros((k, d)), np.zeros(k)
    prev_m, prev_resc = [0.0] * k, [False] * k
    seen = {"rescale": 0, "after_rescale": 0, "max_moved": 0, "kept": 0, "dense": 0,
            "moved_step": 0, "dense_step": 0}
    cuts = [0, 1, 50, 64, 200, 333, len(G)]
    ends = dict(zip(cuts, cuts[1:]))
    for t, g in enumerate(G):
        if t in ends:  # a new segment's plan
            steps = iter(planned._grid_plan(G[t:ends[t]]))
        row = next(steps)
        moved_step = row[2] is not None  # theta steps only at g's moved columns
        assert (rounds._round_plan(g)[2] is not None) == moved_step, t
        theta, point, sums, ms, resc = dense_grid_step(theta, point, sums, g, specs)
        rounds.observe(g)
        planned.observe(g, row)
        for learner in (rounds, planned):
            assert learner.theta.tobytes() == theta.tobytes(), t
            assert learner.point.tobytes() == point.tobytes(), t
            assert learner.dual_sq_sum.tobytes() == sums.tobytes(), t
            assert not np.signbit(learner.theta[learner.theta == 0.0]).any(), t
        if ms is None:
            continue
        seen["moved_step" if moved_step else "dense_step"] += 1
        sparse = np.count_nonzero(g) <= 0.5 * d
        seen["dense"] += not sparse
        for i in range(k):
            seen["rescale"] += resc[i]
            seen["after_rescale"] += prev_resc[i] and sparse
            seen["max_moved"] += ms[i] != prev_m[i] and sparse and not prev_resc[i]
            seen["kept"] += ms[i] == prev_m[i] and sparse and not prev_resc[i]
        prev_m, prev_resc = ms, resc
    assert all(seen.values()), seen


def test_grid_play_is_the_rows_sum_bitwise_on_an_all_negative_zero_column():
    # sum(axis=0) adds the rows to +0.0, so a column whose every product y_i * point_i is -0.0
    # sums to +0.0; adding the products alone, from the first, would leave -0.0
    d = 64
    learner = DimFreeLearner(d, 1.0, spec=GRID_SPECS)
    for g in _grid_stream(d, T=30, seed=5):
        learner.predict()
        learner.observe(g)
    y = learner.magnitude.predict()
    assert np.all(y != 0.0)
    point = learner.direction.point.copy()
    point[:, 0] = np.copysign(0.0, -y)  # y * point is -0.0 in every row
    point[:, 1] = np.copysign(0.0, y)  # y * point is +0.0 in every row
    point[0, 2], point[1:, 2] = np.copysign(0.0, y[0]), np.copysign(0.0, -y[1:])  # one +0.0
    learner.direction.point = point
    want = (y[:, None] * point).sum(axis=0)
    assert learner.predict().tobytes() == want.tobytes()
    assert not np.signbit(want[:3]).any()
    alone = y[0] * point[0]
    for y_i, row in zip(y[1:], point[1:]):
        alone += y_i * row
    assert np.signbit(alone[0])


def test_grid_row_whose_max_returns_after_a_rescale_is_raised_in_full():
    # After a rescale every |theta| shrinks, so a row's max is bitwise its last one only when
    # a gradient puts it back exactly: build that round and check its bits against the dense
    # step. The row's other columns moved with the rescale and must be raised again.
    d, spec = 16, NormSpec.from_p(1.4)
    learner = PNormBallDescent(d, [spec])
    state = np.zeros((1, d)), np.zeros((1, d)), np.zeros(1)
    rng = np.random.default_rng(3)
    G = [rng.standard_normal(d) * 0.05] + [np.eye(d)[0] * 0.9] * 40
    for g in G:
        *state, ms, resc = dense_grid_step(*state, g, [spec])
        learner.observe(g)
        if resc[0]:
            break
    assert resc[0]
    target, theta = ms[0], learner.theta[0]
    j = int(np.abs(theta).argmax())

    def eta(gamma):  # the step a round of gradient gamma * e_j takes
        return float(learner._steps(p_norm(np.eye(d)[j][None] * gamma, learner.q))[1][0, 0])
    gamma = (theta[j] - math.copysign(target, theta[j])) / eta(0.5)
    for _ in range(10):  # the step size depends on gamma itself: iterate, then walk ulps
        gamma = (theta[j] - math.copysign(target, theta[j])) / eta(gamma)
    near = gamma
    for k in sorted(range(-2000, 2001), key=abs):
        gamma = near + k * math.ulp(near)
        if abs(theta[j] - eta(gamma) * gamma) == target:
            break
    g = np.eye(d)[j] * gamma
    *want, ms, resc = dense_grid_step(*state, g, [spec])
    assert ms[0] == target
    learner.observe(g)
    assert learner.theta.tobytes() == want[0].tobytes()
    assert learner.point.tobytes() == want[1].tobytes()


def test_multi_norm_grid_cap_is_one_bettor_summed_over_rows():
    # a fixed gradient is perfectly predictable: every magnitude bettor's
    # wealth doubles each round until the cap binds
    d, T = 1024, 400
    G = np.zeros((T, d))
    G[:, 0] = -1.0
    grid = pnorm_grid(d)
    learner = multi_norm(d, 1.0)
    apart = [DimFreeLearner(d, 1.0 / len(grid), spec) for spec in grid]
    replay(learner, G)
    for row in apart:
        replay(row, G)
    capped = capped_bettors(learner)
    assert set(capped) == {"learner.children[0].magnitude", "learner.children[1].magnitude"}
    assert capped["learner.children[0].magnitude"] == apart[0].magnitude.capped_rounds > 0
    rows = [int(row.magnitude.capped_rounds[0]) for row in apart[1:]]
    assert min(rows) > 0
    assert capped["learner.children[1].magnitude"] == sum(rows)


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


def _bits(*values) -> bytes:
    return b"".join(np.asarray(v, dtype=np.float64).tobytes() for v in values)


def test_percoordinate_state_is_bitwise_that_of_scalar_bettors(rng):
    # the docstring's claim, through core.drive's _step path: bets, wealth,
    # signed sums and the capped-round count of d CoinBettor(epsilon / d)
    # fed z = -g_i, also after the cap binds (coordinates 0 and 1 win 900 rounds)
    d = 4
    lock = np.tile([-0.7, -0.7, 0.0, 0.0], (900, 1))
    G = np.concatenate([unit_stream(rng, 150, d), lock, -lock[:5], unit_stream(rng, 150, d)])
    learner = PerCoordinateLearner(d, epsilon=1.0)
    bettors = [CoinBettor(1.0 / d) for _ in range(d)]
    ledger = replay(learner, G)
    capped = 0
    for t, g in enumerate(G):
        assert _bits(ledger.iterates[t]) == _bits([b.predict() for b in bettors])
        before = [b.capped_rounds for b in bettors]
        for b, gi in zip(bettors, g.tolist()):
            b.observe(-gi)
        capped += [b.capped_rounds for b in bettors] != before
    assert _bits(learner.wealth, learner.signed_sum) == _bits(
        [b.wealth for b in bettors], [b.signed_sum for b in bettors])
    assert 0 < learner.capped_rounds == capped < len(G)
    assert learner.round_index == bettors[0].round == len(G)


def _outcomes(rng, batch):
    """Outcomes that reach the wealth cap, turn, and sit at the outcome bound of 1."""
    shape = (1,) if batch is None else (batch,)
    zs = np.concatenate([rng.uniform(-1, 1, (40,) + shape), np.full((400,) + shape, 0.9),
                         np.full((5,) + shape, -1.0), rng.uniform(-1, 1, (40,) + shape)])
    if batch is not None:
        zs[:, 1] *= -0.5  # one copy loses its bets, one copy draws its own path
        zs[:, -1] = rng.uniform(-1, 1, len(zs))
    return zs if batch is not None else zs[:, 0]


@pytest.mark.parametrize("batch", [None, 3], ids=["scalar", "batch"])
def test_coin_observe_is_bitwise_the_same_however_often_predict_ran(rng, batch):
    # predict() twice, once or not at all before observe(), also mixed round by
    # round: the bet observe() settles is always the one of the bettor's state
    zs = _outcomes(rng, batch)
    states, bets = {}, {}
    for name, schedule in [("once", [1]), ("twice", [2]), ("never", [0]),
                           ("mixed", [1, 0, 2, 0, 0, 1])]:
        b, bets[name] = CoinBettor(0.5, batch), []
        for t, z in enumerate(zs):
            for _ in range(schedule[t % len(schedule)]):
                bets[name].append(_bits(b.predict()))
            b.observe(z)
        states[name] = (_bits(b.wealth, b.signed_sum, b.regret_at_zero(), b.regret_at(0.3)),
                        b.round, np.asarray(b.capped_rounds).tolist())
    assert all(state == states["once"] for state in states.values())
    assert bets["twice"] == [bet for bet in bets["once"] for _ in range(2)]
    assert np.max(states["once"][2]) > 0  # the cap bound on the way


@pytest.mark.parametrize("make", [
    lambda: DimFreeLearner(4, 1.0),                              # scalar magnitude bettor
    lambda: DimFreeLearner(4, 1.0, batch=3),                     # trial axis
    lambda: DimFreeLearner(16, 1.0, spec=pnorm_grid(16)[1:]),    # grid rows
    lambda: AddCombiner([DimFreeLearner(4, 0.5), PerCoordinateLearner(4, 0.5)]),
], ids=["scalar", "trial", "row", "add"])
def test_learner_play_is_the_same_with_one_or_two_predicts(rng, make):
    once, twice = make(), make()
    shape = (once.dim,) if once.batch is None else (once.batch, once.dim)
    G = unit_stream(rng, 300 * (once.batch or 1), once.dim).reshape((300,) + shape)
    for g in G:
        w = once.predict()
        twice.predict()
        assert _bits(twice.predict()) == _bits(w)
        once.observe(g)
        twice.observe(g)
    assert _bits(once.predict()) == _bits(twice.predict())


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
        assert dom.distance(w) <= 1e-12
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


@pytest.mark.parametrize("B", [1, 3, 4, 60], ids=["width-1", "width-3", "width-4", "array"])
def test_batched_bettor_capped_mid_fold_is_its_scalar_bettors_bitwise(B):
    # trial i turns steady at round 20 + i % 50 and its cap binds rounds later, inside
    # a 64-row fold of the loss sum; every copy must stay its own scalar bettor
    T, rng = 200, np.random.default_rng(B)
    Z = rng.uniform(-1.0, 1.0, (T, B))
    for i in range(B):
        Z[20 + i % 50:, i] = 1.0
    batched, singles = CoinBettor(1e78, B), [CoinBettor(1e78) for _ in range(B)]
    for t, z in enumerate(Z):
        if t % 3:
            batched.predict()
        batched.observe(z, checked=t % 2 == 0)
        for b, zi in zip(singles, z.tolist()):
            b.predict()
            b.observe(zi)
    first = [T - b.capped_rounds for b in singles]  # steady to the end, so capped from there
    assert all(0 < b.capped_rounds < T - 20 for b in singles)
    assert any(r % 64 for r in first) and (B == 1 or len(set(first)) > 1)
    assert batched.capped_rounds.tolist() == [b.capped_rounds for b in singles]
    for attr in ("wealth", "signed_sum"):
        assert _bits(*getattr(batched, attr)) == _bits(*[getattr(b, attr) for b in singles])
    assert _bits(*batched.regret_at_zero()) == _bits(*[b.regret_at_zero() for b in singles])
    assert _bits(*batched.regret_at(0.3)) == _bits(*[b.regret_at(0.3) for b in singles])


def _masked_trial_step(point, dual_sq_sum, g, sqrt_lam):
    """The p = 2 trial step as written with masked divides."""
    gq = row_norm(g)
    dual_sq_sum = dual_sq_sum + gq * gq
    eta = np.sqrt(dual_sq_sum)
    np.divide(sqrt_lam, eta, out=eta, where=eta > 0.0)
    u = point - eta[:, None] * g
    np_u = row_norm(u)[:, None]
    return np.divide(u, np_u, out=u, where=np_u > 1.0), dual_sq_sum


def test_trial_step_is_the_masked_divide_bitwise():
    up, down = math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)
    rng = np.random.default_rng(8)
    point, dual, g = rng.uniform(-0.5, 0.5, (3, 9, 4))
    dual = np.abs(dual[:, 0])
    point[0], dual[0], g[0] = 0.0, 0.0, 0.0           # zero gradients so far: stays at 0
    point[1], dual[1], g[1] = 0.0, 0.0, [0.5, 0, 0, 0]  # u = (-1, 0, 0, 0): norm exactly 1.0
    point[2], dual[2], g[2] = [up, 0, 0, 0], 1.0, 0.0   # u = point: norm one ulp above 1
    point[3], dual[3], g[3] = [down, 0, 0, 0], 1.0, 0.0  # and one ulp below
    g[4] = 0.0                                          # a zero gradient after evidence
    direction = PNormBallDescent(4, batch=9)
    direction.point, direction.dual_sq_sum = point.copy(), dual.copy()
    direction.observe(g)
    expected, expected_dual = _masked_trial_step(point, dual, g, direction.sqrt_lam)
    assert direction.point.tobytes() == expected.tobytes()
    assert direction.dual_sq_sum.tobytes() == expected_dual.tobytes()
    u = point[:4] - np.array([0.0, 2.0, 0.0, 0.0])[:, None] * g[:4]  # the edge rows' u
    assert row_norm(u[1:4]).tolist() == [1.0, up, down]
    assert direction.point[0].tolist() == [0.0] * 4 and direction.point[1].tolist() == [-1, 0, 0, 0]
    assert direction.point[2, 0] == 1.0 and direction.point[3, 0] == down
