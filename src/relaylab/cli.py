"""Command-line entry point: run one experiment from a JSON config.

Exit codes: 0 success, 1 config validation error, 2 numerical failure.
"""

import argparse
import logging
import sys
from typing import Optional, Sequence

from .experiments import (
    EXPERIMENTS,
    ConfigError,
    emit,
    read_config,
    resolve_spec,
    run_experiment,
)
from .power import OptimizationError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaylab",
        description=(
            "Throughput experiments for buffer-aided multi-antenna relaying: "
            "sweeps over power ratio, SNR, relay grouping, antennas per relay, "
            "relay count, and closed-form validation."
        ),
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="experiment to run")
    parser.add_argument("--config", help="JSON config file (defaults used if omitted)")
    parser.add_argument("--output", help="CSV output path (overrides config)")
    parser.add_argument("--seed", type=int, help="override sim.seed")
    parser.add_argument("--slots", type=int, help="override sim.slots")
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--analytic-only", action="store_true",
        help="emit closed-form rows only",
    )
    group.add_argument(
        "--mc-only", action="store_true",
        help="emit Monte Carlo rows only",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log progress to stderr"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    # basicConfig leaves the level alone once the root logger has handlers.
    logging.getLogger("relaylab").setLevel(
        logging.INFO if args.verbose else logging.WARNING
    )
    try:
        raw = read_config(args.config) if args.config else {}
        configured = raw.get("experiment", args.experiment)
        if configured != args.experiment:
            raise ConfigError(
                f"config is for {configured!r}, command line asked for {args.experiment!r}"
            )
        raw["experiment"] = args.experiment
        overrides = {
            k: v for k, v in (("seed", args.seed), ("slots", args.slots)) if v is not None
        }
        if overrides and isinstance(raw.get("sim", {}), dict):
            raw["sim"] = {**raw.get("sim", {}), **overrides}
        if args.analytic_only:
            raw["methods"] = ["analytic"]
        elif args.mc_only:
            raw["methods"] = ["monte-carlo"]
        if args.output:
            raw["output_path"] = args.output
        spec = resolve_spec(raw)
    except ConfigError as exc:
        print(f"relaylab: config error: {exc}", file=sys.stderr)
        return 1

    try:
        result = run_experiment(spec)
        csv_path, summary_path = emit(result)
    except (OptimizationError, ArithmeticError) as exc:
        print(f"relaylab: numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"relaylab: cannot write output: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(result.rows)} rows to {csv_path} (summary: {summary_path})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
