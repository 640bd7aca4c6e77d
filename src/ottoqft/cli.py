"""Command-line front end.

Subcommands:
  sweep   evaluate a parameter grid from a config file and write CSV
  verify  run the oracle cross-check suite and report pass/fail
  point   report a single cycle as key = value lines

Exit codes: 0 success, 1 validation error, 2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import os
import sys
from typing import Iterable, Iterator, Sequence

from .config import ConfigError, parse_config

__all__ = ["main"]


@contextlib.contextmanager
def _frozen():
    """Imports in the block run with the cyclic garbage collector off, and the
    objects they leave are frozen out of collection: they live as long as the
    process, yet every collection would walk them again (dozens of young passes
    while they load, and full ones at interpreter shutdown).  The command runs
    with the collector back on, unless the caller had switched it off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
        gc.freeze()
    finally:
        if enabled:
            gc.enable()


with _frozen():
    from .sweeps import _chunks, _layout, run_point  # verify loads its own modules when it runs


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route them through the
    # validation-error path instead
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


def _import(name: str):
    """importlib.import_module(name, "ottoqft") for a command that runs on NumPy
    arrays, loading NumPy as the command line does: _frozen, since NumPy leaves
    ~20,000 objects, and with OpenBLAS on one thread unless the caller chose,
    since it starts a spinning thread per CPU at import and nothing here gains
    from them (sweeps call no BLAS routine; verify's matrices are small)."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    with _frozen():
        return importlib.import_module(name, __package__)


def _parts(chunks: int) -> int:
    """The processes that render a sweep of this many chunks: one a usable CPU, at most
    one a chunk.  One where os.fork is missing, or where this process holds more than
    one OS thread or cannot tell: a forked child of a threaded process can deadlock, and
    NumPy starts threads under a caller's OPENBLAS_NUM_THREADS > 1."""
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:  # no /proc: the threads are unknown
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, chunks) if threads == 1 and hasattr(os, "fork") else 1


def _document(spec, parts: int) -> Iterator[str]:
    """The CSV text of spec in grid order.  Parts 1 to parts - 1 of its chunks are
    rendered by children forked here, each into a spill file next to the output, while
    this process renders part 0; then each child's text follows in blocks of 64 KB.  The
    part of a child that does not exit with status 0 is rendered here in its place, which
    raises the serial run's exception, or gives its bytes; on any early stop every child
    left is killed and reaped."""
    children = []  # (pid, its spill), in part order
    try:
        if parts > 1:
            import tempfile  # only a forked sweep imports it
        for part in range(1, parts):
            spill = tempfile.TemporaryFile("w+", encoding="utf-8", newline="",
                                           dir=os.path.dirname(spec.output_path) or os.curdir)
            # a child writes its part into spill and leaves through os._exit, with status 1
            # on any failure: no frame, buffer or atexit hook of the parent runs in it
            if (pid := os.fork()) == 0:
                try:
                    with spill:
                        spill.writelines(_chunks(spec, part, parts))
                    os._exit(0)
                finally:
                    os._exit(1)
            children.append((pid, spill))
        yield from _chunks(spec, 0, parts)
        for part in range(1, parts):
            pid, spill = children[0]
            with spill:
                status = os.waitpid(pid, 0)[1]
                del children[0]
                if status:
                    yield from _chunks(spec, part, parts)
                else:
                    spill.seek(0)
                    yield from iter(lambda: spill.read(1 << 16), "")
    finally:
        if children:
            import signal
        for pid, spill in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            spill.close()


def _cmd_sweep(args: argparse.Namespace) -> int:
    text = _read(args.config)
    spec = parse_config(text, args.sets)
    *_, chunks = _layout(spec)  # rejects non-sweep modes
    parts = 1
    if chunks > 1:  # on arrays: a point and a one-chunk sweep run on Python floats, in one process
        _import("numpy")
        parts = _parts(chunks)
    with contextlib.closing(_document(spec, parts)) as document:
        _write(spec.output_path, document)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    run_verify = _import(".verification").run_verify
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
