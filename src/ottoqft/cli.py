"""Command-line front end.

Subcommands:
  sweep   evaluate a parameter grid from a config file and write CSV
  verify  run the oracle cross-check suite and report pass/fail
  point   report a single cycle as key = value lines

Exit codes: 0 success, 1 validation error, 2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import Iterable, Sequence

from .config import ConfigError, parse_config

# NumPy's OpenBLAS starts a spinning thread per CPU at import, and nothing here
# gains from them (sweeps call no BLAS routine; verify's matrices are small): run
# it on one unless the caller chose. This must precede the import that loads NumPy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# The import below leaves ~20,000 long-lived objects that every collection would
# walk again: dozens of young passes while NumPy loads, and full ones at
# interpreter shutdown. Load them with the collector off, then freeze them out
# of collection; the command runs with the collector back on, unless the caller
# had switched it off.
_gc_was_enabled = gc.isenabled()
gc.disable()
try:
    from .sweeps import run_point, sweep_chunks  # verify loads its own modules when it runs
    gc.freeze()
finally:
    if _gc_was_enabled:
        gc.enable()

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route them through the
    # validation-error path instead
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


def _cmd_sweep(args: argparse.Namespace) -> int:
    text = _read(args.config)
    spec = parse_config(text, args.sets)
    _write(spec.output_path, sweep_chunks(spec))  # sweep_chunks rejects non-sweep modes
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verification import run_verify

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


# name -> (its help, the help of its --set, its handler); sweep alone also takes --config
_COMMANDS = {
    "sweep": ("evaluate a parameter grid and write CSV", "override one config key", _cmd_sweep),
    "verify": ("run the oracle cross-check suite",
               "override seed/cases/dim or a tol_<check> threshold", _cmd_verify),
    "point": ("report a single cycle to stdout", "set one parameter (repeatable)", _cmd_point),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="ottoqft", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, set_help, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        if name == "sweep":
            command.add_argument("--config", required=True, help="path to a key=value config file")
        command.add_argument("--set", dest="sets", action="append", default=[],
                             metavar="KEY=VALUE", help=set_help)
    return parser


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


def _error(exc: BaseException, status: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return status


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:  # the exit code follows the exception's class
        args = parser.parse_args(argv)
        return _COMMANDS[args.command][2](args)
    except (ValueError, MemoryError) as exc:  # ConfigError, TruncationError; verify's dim too large
        return _error(exc, 1)
    except ArithmeticError as exc:  # QuadratureConvergenceError; the Fock oracle's lost trace
        return _error(exc, 2)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
