"""Acceptance suite: one test per shipped guarantee, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line per
criterion. Every tolerance is pinned here; seeds are frozen so the suite is
deterministic. Expect a few minutes of wall time end to end.
"""

import math
import time

import numpy as np
import pytest

from regretforge import (
    AddCombiner,
    Ball,
    Box,
    CoinBettor,
    DimFreeLearner,
    MultiHintLearner,
    NormSpec,
    OptimisticLearner,
    PerCoordinateLearner,
    RegretLedger,
    add_iterates,
    dual_exponent,
    fit_slope,
    multi_norm,
    p_norm,
    pnorm_grid,
    replay,
    replay_hinted,
    replay_multi_hint,
    tilde_hint,
)
from regretforge.cli import cli_main
from regretforge.combinators import ConstrainedOptimisticLearner
from regretforge.concentration import BernsteinConfig, coverage_experiment
from regretforge.harness import StreamSpec, generate_stream
from regretforge.hints import AdversarialNegate, ExternalHints, LastGradient
from conftest import descent_regret, ftl_gap, grid_cover, running_average_hints, unit_stream


def report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def envelope_rows(losses, gradients, checkpoints):
    """Regret envelope over the unit ball at each checkpoint: cum_loss + ||sum g||."""
    gsum = np.cumsum(gradients, axis=0)
    rows = []
    for T in checkpoints:
        cum = math.fsum(losses[:T])
        rows.append({
            "comparator_id": "env",
            "T": T,
            "regret": cum + float(np.linalg.norm(gsum[T - 1])),
        })
    return rows


# ---------------------------------------------------------------------------
# 1. add-iterates additivity
# ---------------------------------------------------------------------------

def test_c01_additivity_exact():
    rng = np.random.default_rng(101)
    T = 4096
    worst_round = 0.0
    worst_split = 0.0
    for stream_idx in range(50):
        d = int(rng.choice([4, 8, 16, 32]))
        k = int(rng.integers(2, 5))
        G = unit_stream(rng, T, d)
        makers = [
            lambda eps: DimFreeLearner(d, eps),
            lambda eps: DimFreeLearner(d, eps, spec=NormSpec.from_p(1.5)),
            lambda eps: PerCoordinateLearner(d, eps),
            lambda eps: multi_norm(d, eps),
        ]
        picks = rng.integers(0, len(makers), size=k)
        children = [makers[j](1.0 / k) for j in picks]
        combiner = add_iterates(children)
        W = np.empty((T, d))
        W_kids = [np.empty((T, d)) for _ in children]
        for t in range(T):
            W[t] = combiner.predict()
            for i, c in enumerate(children):
                W_kids[i][t] = c.predict()  # predict is pure within the round
            combiner.observe(G[t])
        combined = RegretLedger(W, G)
        kids = [RegretLedger(Wk, G) for Wk in W_kids]
        dev = combined.per_round_losses() - sum(kid.per_round_losses() for kid in kids)
        worst_round = max(worst_round, float(np.abs(dev).sum()))
        for _ in range(20):
            u = rng.standard_normal(d)
            weights = rng.standard_normal(k)
            weights /= weights.sum() if abs(weights.sum()) > 0.1 else 1.0
            parts = [w * u for w in weights]
            parts[-1] = u - sum(parts[:-1])  # exact split
            lhs = combined.regret_at(u)
            rhs = math.fsum(kid.regret_at(p) for kid, p in zip(kids, parts))
            worst_split = max(worst_split, abs(lhs - rhs))
    tol = 1e-9 * T
    ok = worst_round <= tol and worst_split <= tol
    report("C1 add-iterates additivity", ok,
           f"max per-round dev {worst_round:.2e}, max split dev {worst_split:.2e}, tol {tol:.1e}")


# ---------------------------------------------------------------------------
# 2. epsilon at the origin
# ---------------------------------------------------------------------------

def test_c02_origin_budget():
    rng = np.random.default_rng(202)
    T, d = 2048, 8
    eps = 1.0

    def coin():
        return PerCoordinateLearner(1, eps), 1, None
    def dimfree():
        return DimFreeLearner(d, eps), d, None
    def percoord():
        return PerCoordinateLearner(d, eps), d, None
    def added():
        return add_iterates([DimFreeLearner(d, eps / 2), PerCoordinateLearner(d, eps / 2)]), d, None
    def multinorm():
        return multi_norm(d, eps), d, None
    def optim():
        return (OptimisticLearner(DimFreeLearner(d, eps / 2), CoinBettor(eps / 2)),
                d, lambda: LastGradient(d))
    def constrained():
        return (ConstrainedOptimisticLearner(
                    DimFreeLearner(d, eps / 4), Ball(np.zeros(d), 0.75),
                    CoinBettor(eps / 4)),
                d, lambda: LastGradient(d))
    def multihint():
        share = eps / 3.0
        return (MultiHintLearner(DimFreeLearner(d, share),
                                 [CoinBettor(share), CoinBettor(share)]),
                d, [lambda: LastGradient(d), lambda: AdversarialNegate(d)])

    worst = -np.inf
    worst_name = ""
    for name, factory in [("coin", coin), ("dimfree", dimfree), ("percoord", percoord),
                          ("add", added), ("multi_norm", multinorm), ("optimistic", optim),
                          ("constrained", constrained), ("multi_hint", multihint)]:
        for i in range(100):
            learner, dim, hint_makers = factory()
            G = unit_stream(rng, T, dim)
            if hint_makers is None:
                ledger = replay(learner, G)
            elif isinstance(hint_makers, list):
                ledger = replay_multi_hint(learner, G, [m() for m in hint_makers])
            else:
                ledger = replay_hinted(learner, G, hint_makers())
            r0 = ledger.regret_at(np.zeros(dim))
            assert learner.epsilon == pytest.approx(eps)
            if r0 > worst:
                worst, worst_name = r0, name
            assert r0 <= eps + 1e-6, f"{name} stream {i}: regret at 0 = {r0}"
    report("C2 epsilon at origin", worst <= eps + 1e-6,
           f"worst regret at 0 = {worst:.4f} ({worst_name}), budget 1.0 + 1e-6")


# ---------------------------------------------------------------------------
# 3. sqrt(T) regime
# ---------------------------------------------------------------------------

def test_c03_sqrt_regime():
    grid = [2 ** k for k in range(10, 17)]
    slopes = {"coin": [], "dimfree": []}
    for seed in range(10):
        G1 = generate_stream(StreamSpec("rademacher_iid", 1, grid[-1], seed))
        losses = replay(PerCoordinateLearner(1, 1.0), G1).per_round_losses()
        slopes["coin"].append(fit_slope(envelope_rows(losses, G1, grid), "env"))
        G16 = generate_stream(StreamSpec("rademacher_iid", 16, grid[-1], 100 + seed))
        losses = replay(DimFreeLearner(16, 1.0), G16).per_round_losses()
        slopes["dimfree"].append(fit_slope(envelope_rows(losses, G16, grid), "env"))
    med_coin = float(np.median(slopes["coin"]))
    med_dim = float(np.median(slopes["dimfree"]))
    ok = 0.40 <= med_coin <= 0.62 and 0.40 <= med_dim <= 0.62
    report("C3 sqrt(T) regime", ok,
           f"10-seed median slopes: coin {med_coin:.3f}, dimfree {med_dim:.3f}, band [0.40, 0.62]")


# ---------------------------------------------------------------------------
# 4. optimism payoff
# ---------------------------------------------------------------------------

def test_c04_optimism_payoff():
    grid = [2 ** k for k in range(10, 17)]
    T = grid[-1]
    # (a) perfect hints: polylog regime, slope <= 0.15
    perfect_slopes = []
    for seed in range(10):
        G = generate_stream(StreamSpec("rademacher_iid", 16, T, seed))
        learner = OptimisticLearner(DimFreeLearner(16, 0.5), CoinBettor(0.5))
        losses = replay_hinted(learner, G, ExternalHints(G)).per_round_losses()
        perfect_slopes.append(fit_slope(envelope_rows(losses, G, grid), "env"))
    med_perfect = float(np.median(perfect_slopes))

    # (b) last-gradient hints on slowly varying streams, step T^{-1/2}
    step = 1.0 / math.sqrt(T)
    opt_regrets, base_regrets = [], []
    for seed in range(10):
        G = generate_stream(StreamSpec("slowly_varying", 8, T, seed, {"step_size": step}))
        base_losses = replay(DimFreeLearner(8, 1.0), G).per_round_losses()
        opt = OptimisticLearner(DimFreeLearner(8, 0.5), CoinBettor(0.5))
        opt_losses = replay_hinted(opt, G, LastGradient(8)).per_round_losses()
        gsum = G.sum(axis=0)
        u = -gsum / np.linalg.norm(gsum)
        base_regrets.append(math.fsum(base_losses) - float(gsum @ u))
        opt_regrets.append(math.fsum(opt_losses) - float(gsum @ u))
    med_opt = float(np.median(opt_regrets))
    med_base = float(np.median(base_regrets))
    ok = med_perfect <= 0.15 and med_opt <= 0.6 * med_base
    report("C4 optimism payoff", ok,
           f"perfect-hint median slope {med_perfect:.3f} (<= 0.15); "
           f"slowly-varying median regret opt {med_opt:.3e} <= 0.6 * base {med_base:.3e}")


# ---------------------------------------------------------------------------
# 5. safety under adversarial hints
# ---------------------------------------------------------------------------

def test_c05_safety():
    rng = np.random.default_rng(505)
    T, d, eps_b = 2048, 8, 0.5
    worst_excess = -np.inf
    worst_ident = 0.0
    for stream_idx in range(20):
        G = unit_stream(rng, T, d)
        opt = OptimisticLearner(DimFreeLearner(d, 0.5), CoinBettor(eps_b))
        opt_ledger = replay_hinted(opt, G, AdversarialNegate(d))
        base_ledger = replay(DimFreeLearner(d, 0.5), G)
        b0 = opt.bettor.regret_at_zero()
        comparators = [np.zeros(d)] + [rng.standard_normal(d) for _ in range(5)]
        gsum = base_ledger.gradient_sum()
        if np.linalg.norm(gsum) > 0:
            comparators.append(-gsum / np.linalg.norm(gsum))
        for u in comparators:
            r_opt = opt_ledger.regret_at(u)
            r_base = base_ledger.regret_at(u)
            worst_ident = max(worst_ident, abs(r_opt - (r_base + b0)))
            worst_excess = max(worst_excess, r_opt - r_base)
    ok = worst_ident <= 1e-9 * T and worst_excess <= 0.5 + 1e-6
    report("C5 safety with adversarial hints", ok,
           f"max |decomposition residual| {worst_ident:.2e} (tol {1e-9*T:.1e}); "
           f"max regret excess {worst_excess:.4f} <= 0.5 + 1e-6")


# ---------------------------------------------------------------------------
# 6. p-norm grid cover and multi-norm cost
# ---------------------------------------------------------------------------

def _per_update_cost(d, rounds=400):
    learner = multi_norm(d, 1.0)
    G = generate_stream(StreamSpec("rademacher_iid", d, rounds, 0))
    for t in range(50):
        learner.predict()
        learner.observe(G[t])
    t0 = time.perf_counter()
    for t in range(50, rounds):
        learner.predict()
        learner.observe(G[t])
    return (time.perf_counter() - t0) / (rounds - 50)


def test_c06_pnorm_grid():
    rng = np.random.default_rng(606)
    violations = 0
    for d in (8, 64, 1024):
        grid = pnorm_grid(d)
        for _ in range(10_000):
            x = rng.standard_normal(d) * float(rng.uniform(0.1, 3.0))
            p = 1.0 if rng.uniform() < 0.02 else float(rng.uniform(1.0, 2.0))
            spec = grid[grid_cover(d, x, p)]
            q = dual_exponent(p)
            if p_norm(x, spec.p) > p_norm(x, p) + 1e-10:
                violations += 1
            if p_norm(x, spec.q) > math.e * p_norm(x, q) + 1e-10:
                violations += 1
    cost64, cost1024 = _per_update_cost(64), _per_update_cost(1024)
    linear = (1024 * len(pnorm_grid(1024))) / (64 * len(pnorm_grid(64)))
    measured = cost1024 / cost64
    ok = violations == 0 and measured <= 1.5 * linear
    print(f"C6 measured cost ratio d1024/d64 = {measured:.2f}")  # wall clock: varies by run
    report("C6 p-norm grid", ok,
           f"{violations} cover violations over 3x10^4 pairs; "
           f"cost ratio d1024/d64 <= 1.5 * linear {linear:.1f}")


# ---------------------------------------------------------------------------
# 7. constrained reduction invariants
# ---------------------------------------------------------------------------

def _vector_distance(dom, V):
    """Independent vectorized distance oracle for balls and boxes."""
    if isinstance(dom, Ball):
        return np.maximum(np.linalg.norm(V - dom.center, axis=1) - dom.radius, 0.0)
    proj = np.clip(V, dom.lo, dom.hi)
    return np.linalg.norm(V - proj, axis=1)


def test_c07_constrained_reduction():
    rng = np.random.default_rng(707)
    T, d = 512, 4
    domains = [Ball(np.zeros(d), 0.6), Box([-0.4] * d, [0.4] * d)]
    worst_member = 0.0
    worst_g = -np.inf
    worst_h = -np.inf
    worst_slack = np.inf
    for stream_idx in range(20):
        dom = domains[stream_idx % 2]
        G = unit_stream(rng, T, d)
        learner = ConstrainedOptimisticLearner(
            DimFreeLearner(d, 0.25), dom, CoinBettor(0.25)
        )
        src = LastGradient(d)
        sampled_rounds = set(rng.choice(T, size=32, replace=False).tolist())
        for t in range(T):
            h = src.next_hint()
            w = learner.predict(h)
            worst_member = max(worst_member, dom.distance(w))
            g = G[t]
            g_tilde = 0.5 * g + 0.5 * float(np.linalg.norm(g)) * learner.last_z
            h_tilde = learner.last_tilde_hint
            worst_g = max(worst_g,
                          float(np.linalg.norm(g_tilde)) - float(np.linalg.norm(g)))
            worst_h = max(worst_h,
                          float(np.linalg.norm(h_tilde - g_tilde))
                          - float(np.linalg.norm(h - g)))
            if t in sampled_rounds:
                w_tilde = learner.last_tilde_iterate
                z = learner.last_z
                V = rng.standard_normal((1000, d)) * 1.5
                slack = (_vector_distance(dom, V)
                         - dom.distance(w_tilde)
                         - (V - w_tilde) @ z)
                worst_slack = min(worst_slack, float(slack.min()))
            learner.observe(g)
            src.feed(g)
    ok = (worst_member <= 1e-9 and worst_g <= 1e-9 and worst_h <= 1e-9
          and worst_slack >= -1e-9)
    report("C7 constrained reduction", ok,
           f"max domain distance {worst_member:.1e}; surrogate overshoot {worst_g:.1e}; "
           f"hint-distance overshoot {worst_h:.1e}; min subgradient slack {worst_slack:.1e}")


# ---------------------------------------------------------------------------
# 8. multi-hint budget and decomposition
# ---------------------------------------------------------------------------

def test_c08_multi_hint():
    rng = np.random.default_rng(808)
    T, d, k = 2048, 8, 3
    eps = 1.0 / k  # per-bettor budget; k * eps = 1
    worst_ident = 0.0
    worst_excess = -np.inf
    worst_budget = -np.inf
    for stream_idx in range(10):
        # scale 0.25 keeps the perfectly hinted bettor's wealth moderate, so
        # the exact decomposition is checkable at 1e-9 T
        G = unit_stream(rng, T, d, scale=0.25)
        multi = MultiHintLearner(DimFreeLearner(d, eps),
                                 [CoinBettor(eps) for _ in range(k)])
        led_multi = replay_multi_hint(
            multi, G, [ExternalHints(G), AdversarialNegate(d), AdversarialNegate(d)]
        )
        single = OptimisticLearner(DimFreeLearner(d, eps), CoinBettor(eps))
        led_single = replay_hinted(single, G, ExternalHints(G))
        adversarial_loss = math.fsum(
            b.regret_at_zero() for b in multi.bettors[1:]
        )
        total_b = math.fsum(b.regret_at_zero() for b in multi.bettors)
        worst_budget = max(worst_budget, total_b)
        for _ in range(5):
            u = rng.standard_normal(d)
            r_multi = led_multi.regret_at(u)
            r_single = led_single.regret_at(u)
            worst_ident = max(worst_ident,
                              abs(r_multi - r_single - adversarial_loss))
            worst_excess = max(worst_excess, r_multi - r_single)
    ok = (worst_ident <= 1e-9 * T and worst_excess <= k * eps + 1e-6
          and worst_budget <= k * eps + 1e-6)
    report("C8 multi-hint", ok,
           f"max decomposition residual {worst_ident:.2e} (tol {1e-9*T:.1e}); "
           f"max excess over perfect single {worst_excess:.4f} <= {k*eps}+1e-6; "
           f"max joint bettor regret {worst_budget:.4f} <= {k*eps}+1e-6")


# ---------------------------------------------------------------------------
# 9. best fixed hint
# ---------------------------------------------------------------------------

def test_c09_best_fixed_hint():
    kinds = ["rademacher_iid", "gaussian_clipped", "sparse", "biased"]
    worst_gap_ratio = 0.0
    for i in range(20):
        G = generate_stream(StreamSpec(kinds[i % 4], 8, 2 ** 16, i))
        H = running_average_hints(G)  # a prefix's hints are the stream's first rows
        for k in (4, 8, 12, 16):
            T = 2 ** k
            gap = ftl_gap(G[:T], H[:T])
            worst_gap_ratio = max(worst_gap_ratio, gap / (8.0 * math.log(T)))
    worst_reg_ratio = 0.0
    for i in range(20):
        G = generate_stream(StreamSpec(kinds[i % 4], 8, 2 ** 14, 100 + i))
        reg = descent_regret(G)
        bound = 4.0 * math.sqrt(float(np.sum(G * G)))
        worst_reg_ratio = max(worst_reg_ratio, reg / bound)
    ok = worst_gap_ratio <= 1.0 and worst_reg_ratio <= 1.0
    report("C9 best fixed hint", ok,
           f"max FTL gap / (8 ln T) = {worst_gap_ratio:.3f}; "
           f"max descent regret / 4 sqrt(sum ||g||^2) = {worst_reg_ratio:.3f}")


# ---------------------------------------------------------------------------
# 10. empirical Bernstein coverage
# ---------------------------------------------------------------------------

def test_c10_bernstein():
    delta, T = 0.05, 1024
    bound = delta + 3.0 * math.sqrt(delta * (1 - delta) / 2000)  # 0.0646
    details = []
    ok = True
    for name in ("rademacher", "rademacher_half", "rademacher_tenth"):
        res = coverage_experiment(
            BernsteinConfig(delta=delta, T=T, sampler=name, trials=2000, seed=0)
        )
        via = coverage_experiment(
            BernsteinConfig(delta=delta, T=T, sampler=name, trials=60, seed=0,
                            via_learner=True)
        )
        ratio = res.mean_radius / via.mean_radius
        ok = ok and res.failure_rate <= bound and 0.25 <= ratio <= 4.0
        details.append(f"{name}: fail {res.failure_rate:.4f}, mode ratio {ratio:.2f}")
    assert cli_main(["bernstein", "--delta", "0.05", "--T", "1024",
                     "--trials", "2000", "--sampler", "rademacher"]) == 0
    report("C10 empirical Bernstein", ok,
           f"failure bound {bound:.4f}, ratio band [0.25, 4]; " + "; ".join(details))
