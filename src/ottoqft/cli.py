"""Command-line front end.

Subcommands:
  sweep   evaluate a parameter grid from a config file and write CSV
  verify  run the oracle cross-check suite and report pass/fail
  point   report a single cycle as key = value lines

Exit codes: 0 success, 1 validation error, 2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterable, Sequence

from .config import ConfigError, parse_config
from .oracle import QuadratureConvergenceError, TruncationError
from .sweeps import run_point, sweep_chunks
from .verification import run_verify

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route them through the
    # validation-error path instead
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ottoqft", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="evaluate a parameter grid and write CSV")
    sweep.add_argument("--config", required=True, help="path to a key=value config file")
    sweep.add_argument("--set", dest="sets", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config key")

    verify = sub.add_parser("verify", help="run the oracle cross-check suite")
    verify.add_argument("--set", dest="sets", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override seed/cases/dim or a tol_<check> threshold")

    point = sub.add_parser("point", help="report a single cycle to stdout")
    point.add_argument("--set", dest="sets", action="append", default=[],
                       metavar="KEY=VALUE", help="set one parameter (repeatable)")
    return parser


def _cmd_sweep(args: argparse.Namespace) -> int:
    text = _read(args.config)
    spec = parse_config(text, args.sets)
    _write(spec.output_path, sweep_chunks(spec))  # sweep_chunks rejects non-sweep modes
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = parse_config("mode = verify", args.sets)
    options = {key: getattr(spec, key) for key in ("seed", "cases", "dim")
               if getattr(spec, key) is not None}
    status, report = run_verify(spec.tolerance_overrides or None, **options)
    print(report)
    return status


def _cmd_point(args: argparse.Namespace) -> int:
    spec = parse_config("mode = single-point", args.sets)
    sys.stdout.write(run_point(spec))
    return 0


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8-sig") as handle:  # drops a leading byte-order mark
        return handle.read()


def _write(path: str, chunks: Iterable[str]) -> None:
    # to a new file next to path, renamed onto it once every chunk is written:
    # a failed run leaves no partial CSV and keeps an existing one
    temp = f"{path}.{os.getpid()}.tmp"
    handle = open(temp, "x", encoding="utf-8", newline="")  # O_EXCL, mode 0o666 & ~umask
    try:
        with handle:
            handle.writelines(chunks)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_point(args)
    except (ValueError, TruncationError, MemoryError) as exc:  # ConfigError; dim too small or large
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (QuadratureConvergenceError, ArithmeticError) as exc:  # the Fock oracle's lost trace
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
