"""Ledger, regret evaluation, and the predict/observe contract."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regretforge import (
    ContractViolation,
    DimensionMismatch,
    Learner,
    RegretLedger,
    ReplayError,
    ZeroLearner,
    PerCoordinateLearner,
    replay,
)
from regretforge import core
from regretforge.core import Accumulator, prefix_sums
from conftest import ConstantLearner, unit_stream


def summation_oracle(ws, gs, u):
    """Independent regret oracle: plain nested loops, no ledger machinery."""
    total = 0.0
    for w, g in zip(ws, gs):
        inner_w = sum(gi * wi for gi, wi in zip(g, w))
        inner_u = sum(gi * ui for gi, ui in zip(g, u))
        total += inner_w - inner_u
    return total


def test_regret_single_round():
    ledger = RegretLedger(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
    assert ledger.regret_at(np.zeros(2)) == 1.0


def test_regret_zero_when_comparator_equals_iterates(rng):
    u = np.array([0.3, -0.7, 0.1])
    W = np.tile(u, (5, 1))
    G = unit_stream(rng, 5, 3)
    ledger = RegretLedger(W, G)
    assert abs(ledger.regret_at(u)) < 1e-15


def test_regret_three_round_oracle_value():
    # oracle gives 0.0 here: both loss sums are 0.5 + 0.5 + 0.2
    ws = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    gs = [(0.5, 0.0), (0.0, 0.5), (0.1, 0.1)]
    u = (1.0, 1.0)
    expected = summation_oracle(ws, gs, u)
    assert expected == 0.0
    ledger = RegretLedger(np.array(ws), np.array(gs))
    assert ledger.regret_at(np.array(u)) == pytest.approx(expected, abs=1e-15)


def test_regret_dimension_mismatch_rejected():
    ledger = RegretLedger(np.ones((2, 3)), np.ones((2, 3)) / 3)
    with pytest.raises(DimensionMismatch):
        ledger.regret_at(np.zeros(2))


def test_replay_zero_learner_zero_loss(rng):
    G = unit_stream(rng, 64, 4)
    ledger = replay(ZeroLearner(4), G)
    assert len(ledger) == 64
    assert ledger.cumulative_loss == 0.0


def test_replay_constant_learner_cancellation():
    G = np.array([[1.0, 0.0], [-1.0, 0.0]])
    ledger = replay(ConstantLearner([1.0, 0.0]), G)
    assert ledger.cumulative_loss == 0.0


def test_replay_coin_betting_matches_hand_simulation():
    # all-ones 1-D stream of length 8, hand-run betting recursion (exact
    # dyadic values): y_{t+1} = wealth_t * sum(z)/(t+1) with z = -1 each round
    G = np.ones((8, 1))
    ledger = replay(PerCoordinateLearner(1, 1.0), G)
    expected = [0.0, -0.5, -1.0, -1.875, -3.5, -6.5625, -12.375, -23.4609375]
    assert ledger.per_round_losses().tolist() == expected


def test_replay_determinism(rng):
    G = unit_stream(rng, 200, 3)
    from regretforge import DimFreeLearner

    a = replay(DimFreeLearner(3, 1.0), G)
    b = replay(DimFreeLearner(3, 1.0), G)
    assert np.array_equal(a.iterates, b.iterates)
    assert np.array_equal(a.gradients, b.gradients)


def test_regret_identity_random(rng):
    from regretforge import DimFreeLearner

    for _ in range(10):
        T = int(rng.integers(10, 300))
        d = int(rng.integers(1, 6))
        G = unit_stream(rng, T, d)
        ledger = replay(DimFreeLearner(d, 1.0), G)
        u = rng.standard_normal(d)
        lhs = ledger.regret_at(u)
        rhs = ledger.cumulative_loss - float(ledger.gradient_sum() @ u)
        assert abs(lhs - rhs) <= 1e-9 * T


def test_regret_difference_independent_of_comparator(rng):
    from regretforge import DimFreeLearner, PerCoordinateLearner

    G = unit_stream(rng, 128, 4)
    a = replay(DimFreeLearner(4, 1.0), G)
    b = replay(PerCoordinateLearner(4, 1.0), G)
    diffs = []
    for _ in range(6):
        u = rng.standard_normal(4) * 3
        diffs.append(a.regret_at(u) - b.regret_at(u))
    assert max(diffs) - min(diffs) <= 1e-9 * len(a)


def test_gradient_norm_contract(rng):
    learner = PerCoordinateLearner(1, 1.0)
    learner.predict()
    with pytest.raises(ValueError):
        learner.observe(np.array([1.0 + 1e-6]))


def test_nan_gradient_rejected():
    learner = ZeroLearner(2)
    learner.predict()
    with pytest.raises(ValueError):
        learner.observe(np.array([np.nan, 0.0]))


def test_double_observe_is_contract_violation():
    learner = ZeroLearner(2)
    learner.predict()
    learner.observe(np.zeros(2))
    with pytest.raises(ContractViolation):
        learner.observe(np.zeros(2))


def test_predict_is_pure(rng):
    from regretforge import DimFreeLearner

    learner = DimFreeLearner(3, 1.0)
    G = unit_stream(rng, 20, 3)
    for g in G:
        w1 = learner.predict()
        w2 = learner.predict()
        assert np.array_equal(w1, w2)
        learner.observe(g)


@pytest.mark.parametrize("path", ["vecdot", "matmul"])
@pytest.mark.parametrize("shape", [(7, 5), (6, 3, 5)])
def test_row_dot_and_row_norm_are_each_rows_dot_and_norm_bitwise(monkeypatch, path, shape):
    # np.vecdot, and the stacked matmul that NumPy < 2.0 takes, on C-contiguous and strided
    # rows; np.linalg.norm dots a strided row's contiguous copy, which may round otherwise
    if path == "matmul":
        monkeypatch.setattr(core, "_vecdot", None)
    rng = np.random.default_rng(len(shape))
    strided = rng.standard_normal(shape[:-1] + (2 * shape[-1],))[..., ::2]
    dense = rng.standard_normal(shape)
    for a, b in ((strided, dense), (dense, strided), (dense, dense)):
        dots, norms = core.row_dot(a, b), core.row_norm(a)
        assert dots.shape == norms.shape == shape[:-1]
        for i in np.ndindex(shape[:-1]):
            assert dots[i].tobytes() == np.dot(a[i], b[i]).tobytes()
            assert norms[i] == math.sqrt(np.dot(a[i], a[i]))
            if a is dense:
                assert norms[i].tobytes() == np.linalg.norm(a[i]).tobytes()


@pytest.mark.parametrize("path", ["vecdot", "matmul"])
def test_row_dot_of_length_one_rows_gives_positive_zero_for_a_negative_zero_product(
        monkeypatch, path):
    if path == "matmul":
        monkeypatch.setattr(core, "_vecdot", None)
    a, b = np.array([[-0.0], [2.0], [-3.0]]), np.array([[1.0], [-0.0], [0.5]])
    assert np.copysign(1.0, np.dot(a[0], b[0])) == -1.0  # np.dot keeps the sign
    assert core.row_dot(a, b).tobytes() == np.array([0.0, 0.0, -1.5]).tobytes()
    stacked = np.array([[0.0], [0.0], [-1.5]])
    assert core.row_dot(a[:, None], b[:, None]).tobytes() == stacked.tobytes()


class _NaNAtRound(Learner):
    def __init__(self, dim, bad_round):
        super().__init__(dim)
        self.bad_round = bad_round

    def _prediction(self):
        if self.round_index == self.bad_round:
            return np.full(self.dim, np.nan)
        return np.zeros(self.dim)

    def _update(self, g):
        pass


def test_replay_abort_names_round(rng):
    G = unit_stream(rng, 10, 2)
    with pytest.raises(ReplayError, match="round 3"):
        replay(_NaNAtRound(2, bad_round=3), G)


def test_learner_epsilon_is_its_origin_budget():
    assert PerCoordinateLearner(1, 0.25).epsilon == 0.25


# ---------------------------------------------------------------------------
# compensated sums: TwoSum gives the bits of the Neumaier branch
# ---------------------------------------------------------------------------

_TERMS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda m, neg: -m if neg else m,
              st.floats(min_value=1e-300, max_value=1e300), st.booleans()),
)


def _neumaier(terms):
    """The accumulator's former formula, branching on |s| >= |x|."""
    s = c = 0.0
    for x in terms:
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
    return s, c


def _bits(*xs):
    return [float(x).hex() for x in xs]


@settings(max_examples=300, deadline=None)
@given(st.lists(_TERMS, max_size=40))
def test_accumulator_matches_neumaier_bitwise(terms):
    # a scalar sum (a scalar bettor's loss terms) is prefix_sums over its terms: every prefix
    S, E = prefix_sums(np.array(terms, dtype=np.float64))
    for k in range(len(terms) + 1):
        assert _bits(S[k], E[k]) == _bits(*_neumaier(terms[:k]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(_TERMS, min_size=3, max_size=3), max_size=30))
def test_batch_accumulator_entries_match_scalar_runs(rows):
    batch = Accumulator(3)
    for row in rows:
        batch.add(np.array(row))
    for i in range(3):
        S, E = prefix_sums(np.array([row[i] for row in rows], dtype=np.float64))
        s, c = batch._fold()
        assert _bits(s[i], c[i]) == _bits(S[-1], E[-1])
        assert _bits(s[i], c[i]) == _bits(*_neumaier([r[i] for r in rows]))


def _wide_terms(rng, shape):
    """Terms over forty decades, with zeros of both signs: their sums need the compensation."""
    X = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, size=shape)
    X.flat[::7] = -0.0
    X.flat[3::11] = 0.0
    return X


@pytest.mark.parametrize("width", [None, 3, 60], ids=["scalar", "3", "60"])
@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 200])
def test_fold_is_the_per_term_twosum_bitwise(width, n):
    # an array sum keeps its rows and folds them after 64 and at each total read;
    # extend folds a whole segment. Each entry must be the one-term-at-a-time sum.
    # A scalar sum (a scalar bettor's loss terms) is one prefix_sums fold, read at every prefix.
    rng = np.random.default_rng(n)
    shape = (n,) if width is None else (n, width)
    X, tail = _wide_terms(rng, shape), _wide_terms(rng, (9,) + shape[1:])
    if width is None:
        terms = np.concatenate([X, tail])
        S, E = prefix_sums(terms)
        for k in range(n + 10):
            ref = _neumaier(terms[:k].tolist())
            assert _bits(S[k], E[k]) == _bits(*ref)
            assert _bits(S[k] + E[k]) == _bits(ref[0] + ref[1])
        return
    acc = Accumulator(width)
    for k, x in enumerate(X):
        acc.add(x)
        if k % 50 == 17:
            total = acc.total  # folds what is pending mid-way
            assert _bits(*np.ravel(total)) == _bits(*np.ravel(np.add(*acc._fold())))
    acc.extend(list(tail))
    s, c = acc._fold()
    terms = np.concatenate([X, tail]).reshape(n + 9, -1)
    for i in range(terms.shape[1]):
        ref = _neumaier(terms[:, i].tolist())
        assert _bits(np.ravel(s)[i], np.ravel(c)[i]) == _bits(*ref)
        assert _bits(np.ravel(acc.total)[i]) == _bits(ref[0] + ref[1])
