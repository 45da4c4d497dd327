"""Command-line front-end.

Subcommands:
  run       one experiment from a JSON config, CSV out
  sweep     grid over T and/or seeds from a JSON config, merged CSV out
  bernstein Monte Carlo coverage of the concentration bound
  selftest  quick invariant suites for every module

Exit codes: 0 success, 2 usage or config error, 1 runtime failure. Failures
print one machine-readable JSON line to stderr. A run or sweep in which the
wealth cap bound prints one JSON warning line to stderr naming the capped
bettors. The environment variable REGRETFORGE_SEED (an integer) overrides
config seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import combinators, concentration, geometry, harness, hints, learners
from .core import drive, replay, replay_hinted


def _fail(code: int, message: str, **extra) -> int:
    payload = {"error": message}
    payload.update(extra)
    print(json.dumps(payload), file=sys.stderr)
    return code


def _warn_capped(capped: dict) -> None:
    """One JSON line on stderr naming, per experiment, the bettors the wealth cap bound."""
    capped = {experiment: bettors for experiment, bettors in capped.items() if bettors}
    if capped:
        print(json.dumps({"warning": "wealth cap bound; the regret figures of these "
                                     "bettors are artefacts of the cap",
                          "capped": capped}), file=sys.stderr)


def _cmd_run(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(2, f"cannot read config: {exc}")
    try:
        seed = harness.env_seed_override()
        rows, record = harness.run_experiment(config, seed_override=seed,
                                              keep_record=True)
        out = args.output or config.get("output")
        if out:
            harness.write_csv(rows, out)
        else:
            for row in rows:
                print(json.dumps(row))
        if args.dump_ledger:
            harness.dump_ledger(record, args.dump_ledger)
        _warn_capped({config.get("experiment_id", "experiment"): record.capped})
    except harness.CompositionError as exc:
        return _fail(2, str(exc), path=exc.path)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        return _fail(1, str(exc))
    return 0


def _cmd_sweep(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(2, f"cannot read config: {exc}")
    try:
        seed = harness.env_seed_override()
        if seed is not None:
            config.setdefault("sweep", {})["seeds"] = [seed]
        capped = {}
        rows = harness.run_sweep(config, workers=args.workers, capped=capped)
        out = args.output or config.get("output")
        if out:
            harness.write_csv(rows, out)
        else:
            for row in rows:
                print(json.dumps(row))
        _warn_capped(capped)
    except harness.CompositionError as exc:
        return _fail(2, str(exc), path=exc.path)
    except Exception as exc:  # noqa: BLE001
        return _fail(1, str(exc))
    return 0


def _cmd_bernstein(args) -> int:
    try:
        seed = harness.env_seed_override()
        if seed is None:
            seed = args.seed
        samplers = [args.sampler] if args.sampler else list(concentration.SAMPLER_PRESETS)
        ok = True
        for name in samplers:
            cfg = concentration.BernsteinConfig(
                delta=args.delta, T=args.T, sampler=name, trials=args.trials,
                seed=seed, via_learner=args.via_learner,
            )
            res = concentration.coverage_experiment(cfg)
            slack = 3.0 * math.sqrt(args.delta * (1 - args.delta) / args.trials)
            passed = res.failure_rate <= args.delta + slack
            ok = ok and passed
            print(
                f"sampler={name} mode={'learner' if args.via_learner else 'formula'} "
                f"failure_rate={res.failure_rate:.6f} mean_radius={res.mean_radius:.6f} "
                f"bound={args.delta + slack:.6f} {'ok' if passed else 'FAIL'}"
            )
        return 0 if ok else 1
    except ValueError as exc:
        return _fail(2, str(exc))


def _selftest_suites():
    rng = np.random.default_rng(7)

    def bounded_stream(T, d, scale=1.0):
        v = rng.standard_normal((T, d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return v * (scale * rng.uniform(0.0, 1.0, size=(T, 1)))

    def core_identity():
        G = bounded_stream(256, 4)
        ledger = replay(learners.DimFreeLearner(4, 1.0), G)
        u = rng.standard_normal(4)
        lhs = ledger.regret_at(u)
        rhs = ledger.cumulative_loss - float(ledger.gradient_sum() @ u)
        assert abs(lhs - rhs) <= 1e-9 * len(ledger)

    def geometry_cover():
        for d in (8, 64):
            for _ in range(200):
                x = rng.standard_normal(d)
                p = float(rng.uniform(1.0, 2.0))
                i = geometry.grid_cover(d, x, p)
                spec = geometry.pnorm_grid(d)[i]
                assert spec.primal(x) <= geometry.p_norm(x, p) + 1e-10
                q = geometry.dual_exponent(p)
                assert spec.dual(x) <= math.e * geometry.p_norm(x, q) + 1e-10

    def geometry_subgradient():
        dom = geometry.Ball(np.zeros(3), 1.0)
        for _ in range(200):
            x = rng.standard_normal(3) * 2
            v = rng.standard_normal(3) * 2
            z = dom.distance_subgradient(x)
            assert dom.distance(v) >= dom.distance(x) + float(z @ (v - x)) - 1e-9

    def bettor_origin_budget():
        for _ in range(20):
            G = rng.uniform(-1, 1, size=(512, 1))
            ledger = replay(learners.PerCoordinateLearner(1, 1.0), G)
            assert ledger.regret_at(np.zeros(1)) <= 1.0 + 1e-6

    def add_decomposition():
        G = bounded_stream(512, 8)
        kids = [learners.DimFreeLearner(8, 0.5), learners.PerCoordinateLearner(8, 0.5)]
        shadow = [learners.DimFreeLearner(8, 0.5), learners.PerCoordinateLearner(8, 0.5)]
        combined = replay(combinators.add_iterates(kids), G)
        parts = [replay(s, G) for s in shadow]
        per_round = combined.per_round_losses()
        part_sum = sum(p.per_round_losses() for p in parts)
        assert np.max(np.abs(per_round - part_sum)) <= 1e-9

    def optimism_safety():
        G = bounded_stream(512, 4)
        opt = combinators.OptimisticLearner(
            learners.DimFreeLearner(4, 0.5), learners.CoinBettor(0.5)
        )
        ledger = replay_hinted(opt, G, hints.AdversarialNegate(4))
        base = replay(learners.DimFreeLearner(4, 0.5), G)
        u = rng.standard_normal(4) / 2
        assert ledger.regret_at(u) <= base.regret_at(u) + 0.5 + 1e-6

    def constrained_invariants():
        dom = geometry.Ball(np.zeros(3), 0.5)
        G = bounded_stream(256, 3)
        learner = combinators.ConstrainedOptimisticLearner(
            learners.DimFreeLearner(3, 0.5), dom, learners.CoinBettor(0.5)
        )

        class CheckedLastGradient(hints.LastGradient):
            # fed after the learner's step, while last_z is still the round's
            def _feed(self, g):
                g_tilde = 0.5 * g + 0.5 * np.linalg.norm(g) * learner.last_z
                assert np.linalg.norm(g_tilde) <= np.linalg.norm(g) + 1e-9
                super()._feed(g)

        _, W, _ = drive(learner, G, CheckedLastGradient(3))
        assert all(dom.contains(w, 1e-9) for w in W)

    def ftl_gap():
        G = bounded_stream(2048, 4)
        gap = hints.ftl_regret_check(G)
        assert 0.0 <= gap <= 8.0 * math.log(G.shape[0])

    def bernstein_coverage():
        cfg = concentration.BernsteinConfig(delta=0.1, T=256, trials=200, seed=11)
        res = concentration.coverage_experiment(cfg)
        assert res.failure_rate <= 0.1 + 3 * math.sqrt(0.1 * 0.9 / 200)

    def slope_sanity():
        rows = [
            {"comparator_id": "c", "T": 2 ** k, "regret": math.sqrt(2 ** k)}
            for k in range(4, 12)
        ]
        assert abs(harness.fit_slope(rows, "c") - 0.5) < 1e-9

    return [
        ("core regret identity", core_identity),
        ("p-norm grid cover", geometry_cover),
        ("distance subgradient inequality", geometry_subgradient),
        ("bettor origin budget", bettor_origin_budget),
        ("add-iterates decomposition", add_decomposition),
        ("optimism safety", optimism_safety),
        ("constrained invariants", constrained_invariants),
        ("ftl gap growth", ftl_gap),
        ("bernstein coverage", bernstein_coverage),
        ("slope fitting", slope_sanity),
    ]


def _cmd_selftest(_args) -> int:
    failures = 0
    for name, suite in _selftest_suites():
        try:
            suite()
            print(f"[selftest] {name}: ok")
        except AssertionError as exc:
            failures += 1
            print(f"[selftest] {name}: FAIL {exc}")
    if failures:
        return _fail(1, f"{failures} selftest suite(s) failed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regretforge",
        description="Online linear optimization experiments and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--output", help="CSV path (overrides config 'output')")
    p_run.add_argument("--dump-ledger", help="write per-round ledger JSON lines here")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid over T and/or seeds")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--output", help="CSV path (overrides config 'output')")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_b = sub.add_parser("bernstein", help="Monte Carlo coverage of the bound")
    p_b.add_argument("--delta", type=float, required=True)
    p_b.add_argument("--T", type=int, required=True)
    p_b.add_argument("--trials", type=int, required=True)
    p_b.add_argument("--via-learner", action="store_true")
    p_b.add_argument("--sampler", choices=concentration.SAMPLER_PRESETS)
    p_b.add_argument("--seed", type=int, default=0)
    p_b.set_defaults(func=_cmd_bernstein)

    p_s = sub.add_parser("selftest", help="run the invariant suites")
    p_s.set_defaults(func=_cmd_selftest)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags already; normalize other codes
        return int(exc.code) if exc.code else 0
    return args.func(args)


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
