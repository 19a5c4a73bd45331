"""Command-line entry point: validate configs, list experiments, run them.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import sys

from .config import EXPERIMENTS, ConfigError, validate_config
from .experiments import run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="donorpair",
        description="Deterministic four-spin donor-pair simulator and analysis runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_val = sub.add_parser("validate", help="validate a JSON config")
    p_val.add_argument("--config", required=True)

    sub.add_parser("list-experiments", help="list available experiment names")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list-experiments":
        for name in EXPERIMENTS:
            print(name)
        return 0

    try:
        config = validate_config(args.config, seed=getattr(args, "seed", None))
    except ConfigError as err:
        print(err, file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"ok: {config.experiment}")
        return 0

    try:
        manifest = run(config, args.out)
    except Exception as err:  # noqa: BLE001 - report and signal runtime failure
        print(f"runtime error: {err}", file=sys.stderr)
        return 3
    print(f"wrote {len(manifest.outputs)} outputs to {args.out}")
    for name in sorted(manifest.outputs):
        print(f"  {name}  sha256:{manifest.outputs[name][:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
