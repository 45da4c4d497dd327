"""Add-iterates, multi-norm, optimistic, constrained, and multi-hint reductions."""

import math

import numpy as np
import pytest

from regretforge import (
    AddCombiner,
    Ball,
    Box,
    CoinBettor,
    ConstrainedOptimisticLearner,
    ContractViolation,
    DimFreeLearner,
    DimensionMismatch,
    Learner,
    MultiHintLearner,
    OptimisticLearner,
    PerCoordinateLearner,
    WholeSpace,
    ZeroLearner,
    add_iterates,
    multi_norm,
    replay,
    replay_hinted,
    replay_multi_hint,
    tilde_hint,
)
from regretforge.hints import AdversarialNegate, ExternalHints, LastGradient, ZeroHint
from conftest import ConstantLearner, rademacher_stream, unit_stream


class RecordingLearner(Learner):
    """Plays the origin and records every gradient it is fed."""

    def __init__(self, dim):
        super().__init__(dim, epsilon=0.0)
        self.seen = []

    def _prediction(self):
        return np.zeros(self.dim)

    def _update(self, g):
        self.seen.append(g.copy())


def bettor_with_prediction(y):
    """CoinBettor whose next predict() returns exactly y."""
    b = CoinBettor(1.0)
    b.wealth = float(y) if y != 0 else 1.0
    b.signed_sum = 1.0 if y != 0 else 0.0
    return b


# ---------------------------------------------------------------------------
# add_iterates
# ---------------------------------------------------------------------------

def test_add_plays_exact_sum_of_children(rng):
    a, b = DimFreeLearner(3, 0.5), PerCoordinateLearner(3, 0.5)
    combiner = AddCombiner([a, b])
    for g in unit_stream(rng, 5, 3):
        assert np.array_equal(combiner.predict(), a.predict() + b.predict())
        combiner.observe(g)
    assert np.array_equal(combiner.predict(), a.predict() + b.predict())


@pytest.mark.parametrize("kinds", [("percoord", "dimfree"), ("dimfree", "percoord", "percoord")])
def test_add_plays_bitwise_the_sum_of_its_children_run_alone(rng, kinds):
    # the sum is first + second (+= the rest) and writes into no child's
    # prediction, so each child steps as it would alone; a PerCoordinateLearner
    # settles the very bet it played
    make = {"percoord": lambda: PerCoordinateLearner(4, 0.5),
            "dimfree": lambda: DimFreeLearner(4, 0.5)}
    G = rademacher_stream(rng, 400, 4)
    played = replay(AddCombiner([make[k]() for k in kinds]), G).iterates
    first, second, *rest = [replay(make[k](), G).iterates for k in kinds]
    expected = first + second
    for W in rest:
        expected += W
    assert played.tobytes() == expected.tobytes()


def test_add_zero_learner_is_identity(rng):
    G = unit_stream(rng, 256, 3)
    combined = replay(add_iterates([ZeroLearner(3), DimFreeLearner(3, 1.0)]), G)
    alone = replay(DimFreeLearner(3, 1.0), G)
    assert np.array_equal(combined.iterates, alone.iterates)


def test_add_construction_errors():
    with pytest.raises(ValueError):
        add_iterates([DimFreeLearner(2, 1.0)])
    with pytest.raises(DimensionMismatch):
        add_iterates([DimFreeLearner(2, 1.0), DimFreeLearner(3, 1.0)])
    with pytest.raises(ValueError):
        add_iterates([DimFreeLearner(2, 1.0), ConstantLearner([1.0, 0.0])])


def test_add_budget_is_sum():
    combiner = add_iterates([DimFreeLearner(2, 0.25), PerCoordinateLearner(2, 0.5)])
    assert combiner.epsilon == 0.75


def test_add_per_round_decomposition_and_split(rng):
    G = unit_stream(rng, 512, 4)
    kids = [DimFreeLearner(4, 0.5), PerCoordinateLearner(4, 0.5)]
    shadows = [DimFreeLearner(4, 0.5), PerCoordinateLearner(4, 0.5)]
    combined = replay(add_iterates(kids), G)
    parts = [replay(s, G) for s in shadows]
    # exact per-round loss decomposition
    dev = combined.per_round_losses() - sum(p.per_round_losses() for p in parts)
    assert np.abs(dev).sum() <= 1e-9 * len(combined)
    # regret additivity for random splits u = x + y
    for _ in range(5):
        u = rng.standard_normal(4)
        x = rng.standard_normal(4)
        y = u - x
        lhs = combined.regret_at(u)
        rhs = parts[0].regret_at(x) + parts[1].regret_at(y)
        assert abs(lhs - rhs) <= 1e-9 * len(combined)


def test_add_regret_vs_child_plus_budget(rng):
    # measured regret_combined(u) = regret_child1(u) + regret_child2(0) exactly
    G = unit_stream(rng, 512, 4)
    kids = [DimFreeLearner(4, 0.5), PerCoordinateLearner(4, 0.5)]
    shadows = [DimFreeLearner(4, 0.5), PerCoordinateLearner(4, 0.5)]
    combined = replay(add_iterates(kids), G)
    parts = [replay(s, G) for s in shadows]
    u = rng.standard_normal(4)
    lhs = combined.regret_at(u)
    rhs = parts[0].regret_at(u) + parts[1].regret_at(np.zeros(4))
    assert abs(lhs - rhs) <= 1e-9 * len(combined)


# ---------------------------------------------------------------------------
# multi_norm
# ---------------------------------------------------------------------------

def test_multi_norm_child_count():
    learner = multi_norm(16, epsilon=1.0)
    assert isinstance(learner, AddCombiner)
    assert len(learner.children) == 2
    assert learner.epsilon == pytest.approx(1.0)
    # degenerate grid: a single child is returned bare
    single = multi_norm(3, epsilon=1.0)
    assert isinstance(single, DimFreeLearner)


def test_multi_norm_zero_stream():
    learner = multi_norm(8, epsilon=1.0)
    for _ in range(10):
        assert np.array_equal(learner.predict(), np.zeros(8))
        learner.observe(np.zeros(8))


def test_multi_norm_sparse_comparator(rng):
    # additivity instantiated at one child: regret of the combination at e1
    # is at most the 2-norm child's regret plus the total budget
    d, T = 16, 1024
    G = np.zeros((T, d))
    idx = rng.integers(0, 2, size=T)
    G[np.arange(T), idx] = rng.integers(0, 2, size=T) * 2.0 - 1.0
    learner = multi_norm(d, epsilon=1.0)
    share = learner.children[0].epsilon
    shadow = DimFreeLearner(d, epsilon=share)
    combined = replay(learner, G)
    child = replay(shadow, G)
    e1 = np.zeros(d)
    e1[0] = 1.0
    assert combined.regret_at(e1) <= child.regret_at(e1) + 1.0 + 1e-6


# ---------------------------------------------------------------------------
# optimistic reduction
# ---------------------------------------------------------------------------

def test_optimistic_prediction_arithmetic():
    learner = OptimisticLearner(
        ConstantLearner([0.5, 0.0]), bettor_with_prediction(2.0)
    )
    w = learner.predict(np.array([0.1, -0.3]))
    assert np.allclose(w, [0.3, 0.6])


def test_optimistic_zero_hint_returns_base_iterate():
    learner = OptimisticLearner(ConstantLearner([0.4, -0.2]), bettor_with_prediction(3.0))
    assert np.allclose(learner.predict(np.zeros(2)), [0.4, -0.2])


def test_optimistic_fresh_learner_plays_zero():
    learner = OptimisticLearner(DimFreeLearner(2, 0.5), CoinBettor(0.5))
    assert np.array_equal(learner.predict(np.array([0.3, 0.1])), np.zeros(2))


def test_optimistic_hint_norm_rejected():
    learner = OptimisticLearner(DimFreeLearner(2, 0.5), CoinBettor(0.5))
    with pytest.raises(ValueError):
        learner.predict(np.array([1.0, 1.0]))


def test_optimistic_observe_requires_hint():
    learner = OptimisticLearner(DimFreeLearner(2, 0.5), CoinBettor(0.5))
    learner.predict(np.zeros(2))
    learner.observe(np.zeros(2))
    learner._awaiting_predict = False  # bypass alternation to isolate the hint check
    with pytest.raises(ContractViolation):
        learner.observe(np.zeros(2))


def test_optimistic_bettor_loss_routing():
    # perfect hint: the bettor's outcome is +1 (loss -1); orthogonal: 0
    learner = OptimisticLearner(DimFreeLearner(2, 0.5), CoinBettor(0.5))
    learner.predict(np.array([0.6, 0.8]))
    learner.observe(np.array([0.6, 0.8]))
    assert learner.bettor.signed_sum == pytest.approx(1.0)
    learner.predict(np.array([0.0, 1.0]))
    learner.observe(np.array([1.0, 0.0]))
    assert learner.bettor.signed_sum == pytest.approx(1.0)


def test_optimistic_adversarial_hints_bettor_budget(rng):
    G = rademacher_stream(rng, 1024, 4)
    learner = OptimisticLearner(DimFreeLearner(4, 0.5), CoinBettor(0.5))
    replay_hinted(learner, G, AdversarialNegate(4))
    assert learner.bettor.regret_at_zero() <= 0.5 + 1e-6


def test_optimistic_safety_decomposition(rng):
    # regret_opt(u) = regret_A(u) + regret_B(0), with regret_B(0) <= eps_B
    G = unit_stream(rng, 512, 3)
    opt = OptimisticLearner(DimFreeLearner(3, 0.5), CoinBettor(0.5))
    ledger = replay_hinted(opt, G, AdversarialNegate(3))
    base = replay(DimFreeLearner(3, 0.5), G)
    for _ in range(5):
        u = rng.standard_normal(3)
        lhs = ledger.regret_at(u)
        rhs = base.regret_at(u) + opt.bettor.regret_at_zero()
        assert abs(lhs - rhs) <= 1e-9 * len(ledger)
        assert lhs <= base.regret_at(u) + 0.5 + 1e-6


# ---------------------------------------------------------------------------
# tilde_hint and the constrained reduction
# ---------------------------------------------------------------------------

def test_tilde_hint_hand_example():
    dom = Ball(np.zeros(2), 1.0)
    h_tilde, z = tilde_hint(dom, np.array([3.0, 0.0]), 2.0, np.array([1.0, 0.0]))
    assert np.allclose(h_tilde, [1.0, 0.0])
    assert np.allclose(z, [1.0, 0.0])
    w_tilde = np.array([3.0, 0.0]) - 2.0 * h_tilde
    assert np.allclose(w_tilde, [1.0, 0.0])  # lands on the boundary


def test_tilde_hint_zero_hint():
    dom = Ball(np.zeros(2), 1.0)
    x = np.array([2.0, 0.0])
    h_tilde, z = tilde_hint(dom, x, 1.5, np.zeros(2))
    assert np.array_equal(h_tilde, np.zeros(2))
    assert np.allclose(z, dom.distance_subgradient(x))


def test_tilde_hint_whole_space():
    h = np.array([0.2, -0.4])
    h_tilde, z = tilde_hint(WholeSpace(), np.array([1.0, 1.0]), 2.0, h)
    assert np.array_equal(z, np.zeros(2))
    assert np.allclose(h_tilde, h / 2)


def test_tilde_hint_rescale_branch():
    # anchor just outside, hinted move overshooting: z shrinks so the final
    # point sits on the boundary and the subgradient inequality still holds
    dom = Ball(np.zeros(2), 1.0)
    x = np.array([1.5, 0.0])
    y, h = 2.0, np.array([0.4, 0.0])
    anchor = x - 0.5 * y * h
    s = dom.distance(anchor)
    assert 0.5 * y * np.linalg.norm(h) > s
    h_tilde, z = tilde_hint(dom, x, y, h)
    a = 2.0 * s / (y * np.linalg.norm(h))
    assert np.allclose(z, a * np.array([1.0, 0.0]))
    w_tilde = x - y * h_tilde
    # rescaled z is a subgradient of the distance at w_tilde
    for v in (np.array([2.0, 1.0]), np.array([-1.0, 0.3]), np.array([0.5, 0.0])):
        assert dom.distance(v) >= dom.distance(w_tilde) + float(z @ (v - w_tilde)) - 1e-9


def test_constrained_surrogate_gradient_formula():
    # domain forcing z = (0, 1): box above the anchor point
    dom = Box([-1.0, 2.0], [1.0, 3.0])
    base = RecordingLearner(2)
    learner = ConstrainedOptimisticLearner(base, dom, CoinBettor(1.0))
    learner.predict(np.zeros(2))  # fresh bettor: y = 0, anchor = x = origin...
    # anchor is the base iterate (origin), which lies below the box
    assert np.allclose(learner.last_z, [0.0, -1.0])
    learner.observe(np.array([1.0, 0.0]))
    g_tilde = base.seen[0]
    assert np.allclose(g_tilde, [0.5, -0.5])
    assert np.linalg.norm(g_tilde) <= 1.0 + 1e-9


def test_constrained_whole_space_equals_half_hint_optimistic(rng):
    # with no constraint the reduction is the optimistic learner on h/2, g/2
    G = unit_stream(rng, 256, 3)
    con = ConstrainedOptimisticLearner(DimFreeLearner(3, 0.5), WholeSpace(), CoinBettor(0.5))
    opt = OptimisticLearner(DimFreeLearner(3, 0.5), CoinBettor(0.5))
    src = LastGradient(3)
    for t in range(G.shape[0]):
        h = src.next_hint()
        w_con = con.predict(h)
        w_opt = opt.predict(0.5 * h)
        assert np.allclose(w_con, w_opt, atol=1e-15)
        con.observe(G[t])
        opt.observe(0.5 * G[t])
        src.feed(G[t])


def test_constrained_round_invariants(rng):
    for dom in (Ball(np.array([0.1, -0.1, 0.0]), 0.7), Box([-0.5] * 3, [0.5] * 3)):
        learner = ConstrainedOptimisticLearner(
            DimFreeLearner(3, 0.5), dom, CoinBettor(0.5)
        )
        src = LastGradient(3)
        G = unit_stream(rng, 300, 3)
        for t in range(G.shape[0]):
            h = src.next_hint()
            w = learner.predict(h)
            assert dom.distance(w) <= 1e-9
            g = G[t]
            g_tilde = 0.5 * g + 0.5 * np.linalg.norm(g) * learner.last_z
            h_tilde = learner.last_tilde_hint
            assert np.linalg.norm(g_tilde) <= np.linalg.norm(g) + 1e-9
            assert np.linalg.norm(h_tilde - g_tilde) <= np.linalg.norm(h - g) + 1e-9
            learner.observe(g)
            src.feed(g)


def test_constrained_inside_domain_projection_identity():
    dom = Ball(np.zeros(2), 5.0)
    learner = ConstrainedOptimisticLearner(
        ConstantLearner([0.5, 0.5]), dom, bettor_with_prediction(1.0)
    )
    h = np.array([0.2, 0.0])
    w = learner.predict(h)
    assert np.allclose(w, learner.last_tilde_iterate)


# ---------------------------------------------------------------------------
# multi-hint reduction
# ---------------------------------------------------------------------------

def test_multi_hint_k1_matches_optimistic(rng):
    G = unit_stream(rng, 256, 3)
    hints = rademacher_stream(np.random.default_rng(5), 256, 3)
    multi = MultiHintLearner(DimFreeLearner(3, 0.5), [CoinBettor(0.5)])
    single = OptimisticLearner(DimFreeLearner(3, 0.5), CoinBettor(0.5))
    led_multi = replay_multi_hint(multi, G, [ExternalHints(hints)])
    led_single = replay_hinted(single, G, ExternalHints(hints))
    assert np.array_equal(led_multi.iterates, led_single.iterates)


def test_multi_hint_zero_hints_match_base(rng):
    G = unit_stream(rng, 256, 3)
    multi = MultiHintLearner(DimFreeLearner(3, 0.5), [CoinBettor(0.5), CoinBettor(0.5)])
    base = DimFreeLearner(3, 0.5)
    led_multi = replay_multi_hint(multi, G, [ZeroHint(3), ZeroHint(3)])
    led_base = replay(base, G)
    assert np.array_equal(led_multi.iterates, led_base.iterates)


def test_multi_hint_count_mismatch_rejected():
    learner = MultiHintLearner(DimFreeLearner(2, 0.5), [CoinBettor(0.5)] * 3)
    with pytest.raises(DimensionMismatch):
        learner.predict(np.zeros((2, 2)))


def test_multi_hint_budget_sum(rng):
    # joint budget: sum of the bettors' measured regrets at 0 <= k * eps
    G = rademacher_stream(rng, 512, 4, scale=0.5)
    k = 3
    learner = MultiHintLearner(DimFreeLearner(4, 1.0), [CoinBettor(1.0) for _ in range(k)])
    sources = [ExternalHints(G), AdversarialNegate(4), AdversarialNegate(4)]
    replay_multi_hint(learner, G, sources)
    total = sum(b.regret_at_zero() for b in learner.bettors)
    assert total <= k * 1.0 + 1e-6


# ---------------------------------------------------------------------------
# validation happens once, at the outermost observe
# ---------------------------------------------------------------------------

def _count_gradient_checks(monkeypatch):
    """Count as_vector / check_unit_norm calls on gradients in the core module."""
    from regretforge import core

    counts = {"as_vector": 0, "check_unit_norm": 0}

    def counting(fn):
        def wrapper(x, *args, **kwargs):
            if "gradient" in args or kwargs.get("name") == "gradient":
                counts[fn.__name__] += 1
            return fn(x, *args, **kwargs)
        return wrapper

    for attr in counts:
        monkeypatch.setattr(core, attr, counting(getattr(core, attr)))
    return counts


@pytest.mark.parametrize("build, hinted", [
    (lambda: multi_norm(1024), False),
    (lambda: AddCombiner([DimFreeLearner(1024, 0.5), PerCoordinateLearner(1024, 0.5)]), False),
    (lambda: OptimisticLearner(DimFreeLearner(1024, 0.5), CoinBettor(0.5)), True),
], ids=["multi_norm", "add", "optimistic"])
def test_gradient_validated_once_per_round(monkeypatch, rng, build, hinted):
    learner = build()
    T = 6
    G = unit_stream(rng, T, 1024)
    counts = _count_gradient_checks(monkeypatch)
    for t in range(T):
        if hinted:
            learner.predict(0.5 * G[t - 1] if t else np.zeros(1024))
        else:
            learner.predict()
        learner.observe(G[t])
    assert counts == {"as_vector": T, "check_unit_norm": T}


@pytest.mark.parametrize("build, predict", [
    (lambda: multi_norm(16), lambda lr: lr.predict()),
    (lambda: OptimisticLearner(DimFreeLearner(16, 0.5), CoinBettor(0.5)),
     lambda lr: lr.predict(np.zeros(16))),
], ids=["add", "optimistic"])
def test_root_still_rejects_bad_gradients(build, predict):
    learner = build()
    predict(learner)
    bad_norm = np.full(16, 0.5)
    with pytest.raises(ValueError, match="gradient contains non-finite entries"):
        learner.observe(np.full(16, np.nan))
    with pytest.raises(ValueError, match=r"gradient has norm 2 > 1 \+ 1e-09"):
        learner.observe(bad_norm)
    assert learner.round_index == 0
    learner.observe(np.zeros(16))
    assert learner.round_index == 1


def test_child_observe_still_validates():
    learner = multi_norm(16)
    learner.predict()
    child = learner.children[1]
    with pytest.raises(ValueError, match="non-finite"):
        child.observe(np.full(16, np.inf))
    with pytest.raises(ValueError, match="norm"):
        child.observe(np.ones(16))
    with pytest.raises(DimensionMismatch):
        child.observe(np.zeros(15))


def test_step_needs_a_preceding_predict():
    child = DimFreeLearner(4, 1.0)
    with pytest.raises(ContractViolation):
        child._step(np.zeros(4))
    learner = multi_norm(16)
    learner.predict()
    learner.observe(np.zeros(16))
    with pytest.raises(ContractViolation):
        learner._step(np.zeros(16))
    # a parent whose child missed its predict stops at the child
    learner = AddCombiner([DimFreeLearner(4, 0.5), DimFreeLearner(4, 0.5)])
    learner._awaiting_predict = False
    with pytest.raises(ContractViolation):
        learner.observe(np.zeros(4))
