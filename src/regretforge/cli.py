"""Command-line front-end.

Subcommands:
  run       one experiment from a JSON config, CSV out
  sweep     grid over T and/or seeds from a JSON config, merged CSV out
  bernstein Monte Carlo coverage of the concentration bound

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

from . import concentration, harness


def _fail(code: int, message: str, **extra) -> int:
    payload = {"error": message}
    payload.update(extra)
    print(json.dumps(payload), file=sys.stderr)
    return code


def _int_from(low: int, kind: str):
    """An argparse type: an integer of at least ``low``, else a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text!r}")
        return value
    return parse


def _warn_capped(capped: dict) -> None:
    """One JSON line on stderr naming, per experiment, the bettors the wealth cap bound."""
    capped = {experiment: bettors for experiment, bettors in capped.items() if bettors}
    if capped:
        print(json.dumps({"warning": "wealth cap bound; the regret figures of these "
                                     "bettors are artefacts of the cap",
                          "capped": capped}), file=sys.stderr)


def _config_command(body):
    """A run/sweep handler: read the JSON config at --config, then body(args, config).

    An unreadable config or a CompositionError exits 2, any other failure 1.
    """
    def handler(args) -> int:
        try:
            with open(args.config, encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            return _fail(2, f"cannot read config: {exc}")
        try:
            body(args, config)
        except harness.CompositionError as exc:
            return _fail(2, str(exc), path=exc.path)
        except Exception as exc:  # noqa: BLE001 - CLI boundary
            return _fail(1, str(exc))
        return 0
    return handler


def _write_rows(rows, args, config) -> None:
    """Rows to the CSV at --output (else the config's 'output'), or JSON lines on stdout."""
    out = args.output or config.get("output")
    if out:
        harness.write_csv(rows, out)
    else:
        for row in rows:
            print(json.dumps(row))


@_config_command
def _cmd_run(args, config) -> None:
    seed = harness.env_seed_override()
    rows, record = harness.run_experiment(config, seed_override=seed, keep_record=True,
                                          keep_iterates=bool(args.dump_ledger))
    _write_rows(rows, args, config)
    if args.dump_ledger:
        harness.dump_ledger(record, args.dump_ledger)
    _warn_capped({config.get("experiment_id", "experiment"): record.capped})


@_config_command
def _cmd_sweep(args, config) -> None:
    seed = harness.env_seed_override()
    if seed is not None:
        sweep = harness.config_object(config, "config").setdefault("sweep", {})
        harness.config_object(sweep, "sweep")["seeds"] = [seed]
    capped = {}
    rows = harness.run_sweep(config, workers=args.workers, capped=capped)
    _write_rows(rows, args, config)
    _warn_capped(capped)


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


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as the CLI's one JSON line on stderr, exit 2."""

    def error(self, message):
        _fail(2, message)
        self.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_sweep.add_argument("--workers", type=_int_from(1, "positive"), default=1)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_b = sub.add_parser("bernstein", help="Monte Carlo coverage of the bound")
    p_b.add_argument("--delta", type=float, required=True)
    p_b.add_argument("--T", type=int, required=True)
    p_b.add_argument("--trials", type=int, required=True)
    p_b.add_argument("--via-learner", action="store_true")
    p_b.add_argument("--sampler", choices=concentration.SAMPLER_PRESETS)
    p_b.add_argument("--seed", type=_int_from(0, "nonnegative"), default=0)
    p_b.set_defaults(func=_cmd_bernstein)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # _Parser.error exits 2 after its JSON line; --help exits 0
        return int(exc.code) if exc.code else 0
    return args.func(args)


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
