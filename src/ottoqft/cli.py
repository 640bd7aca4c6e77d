"""Command-line front end.

Subcommands:
  sweep   evaluate a parameter grid from a config file and write CSV
  verify  run the oracle cross-check suite and report pass/fail
  point   report a single cycle as key = value lines

The command word comes first.  Every command takes --set KEY=VALUE, repeatable;
sweep alone takes --config PATH, which it requires.  An option may be written
--opt=value, or cut to a unique prefix; -h or --help prints the usage of the
command line, or of the command after which it stands.

Exit codes: 0 success, 1 validation error, 2 verification failure, 3 I/O error,
129 hung up, 130 interrupted, 143 terminated.

main(argv) runs a command in the calling process and returns its exit code; run(),
the ottoqft script and python -m ottoqft.cli, ends the process with it.
"""

from __future__ import annotations

import _signal  # the C module behind signal, whose import builds enums: 0.5 ms a run
import contextlib
import gc
import importlib
import os
import re
import sys
from typing import Iterable, Iterator, Sequence

__all__ = ["main", "run"]


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
    from .config import ConfigError, parse_config  # each command loads its own modules


def _import(name: str):
    """importlib.import_module(name, "ottoqft") for a command that runs on NumPy
    arrays, loading NumPy as the command line does: _frozen, since NumPy leaves
    ~20,000 objects, and with OpenBLAS on one thread unless the caller chose,
    since it starts a spinning thread per CPU at import and nothing here gains
    from them (sweeps call no BLAS routine; verify's matrices are small)."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    with _frozen():
        return importlib.import_module(name, __package__)


def _sweeps():
    """The sweeps module, loaded under _frozen by sweep and point alone: verify never
    compiles or runs it.  It loads no NumPy; a sweep on arrays loads it through _import."""
    with _frozen():
        from . import sweeps
    return sweeps


class _Signalled(BaseException):
    """SIGTERM or SIGHUP, raised where the command is, as Python raises KeyboardInterrupt
    for SIGINT, so that the same clean-up runs for all three; its one argument is the
    signal's number."""


def _on_signal(signum: int, frame) -> None:
    raise _Signalled(signum)


def _swap_handlers(old, new) -> None:
    """Gives SIGTERM and SIGHUP, where the platform has them, the handler new where their
    handler is old.  Outside the main thread, where no handler can be set, it sets none."""
    for signum in (_signal.SIGTERM, getattr(_signal, "SIGHUP", None)):
        if signum is not None and _signal.getsignal(signum) == old:
            try:
                _signal.signal(signum, new)
            except ValueError:  # not the main thread
                return


def _parts(chunks: int) -> int:
    """The processes that render a sweep of this many chunks: one a usable CPU, at most
    one a chunk, each started on a CPU of its own (_place).  One where os.fork is
    missing, or where this process holds more than one OS thread or cannot tell: a
    forked child of a threaded process can deadlock, and NumPy starts threads under a
    caller's OPENBLAS_NUM_THREADS > 1."""
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:  # no /proc: the threads are unknown
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, chunks) if threads == 1 and hasattr(os, "fork") else 1


def _place(part: int) -> None:
    """Moves this process onto the part-th CPU of its sorted usable set, then gives the
    whole set back: Linux starts a forked child on its parent's CPU, and within a sweep
    neither moves, so unplaced parts share one CPU.  The process stays where it was put
    unless that CPU gets busy.  A placement that fails, or a platform without
    os.sched_setaffinity, leaves it where it is."""
    try:
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {sorted(mask)[part]})
        os.sched_setaffinity(0, mask)
    except (AttributeError, OSError):
        pass


def _document(spec, parts: int) -> Iterator[str]:
    """The CSV text of spec in grid order.  Parts 1 to parts - 1 of its chunks are
    rendered by children forked here, each into a spill file next to the output, while
    this process renders part 0; then each child's text follows in blocks of 64 KB.  Part
    k starts on the k-th usable CPU, each process with its whole CPU set given back
    (_place); a placement that fails is ignored.  The part of a child that does not exit
    with status 0 is rendered here in its place, which raises the serial run's exception,
    or gives its bytes; on any early stop every child left is killed and reaped.  A child
    takes SIGTERM and SIGHUP by their default action, and stops between pieces once this
    process is gone."""
    from .sweeps import _chunks

    children = []  # (pid, its spill), in part order
    parent = os.getpid()
    try:
        if parts > 1:
            import tempfile  # only a forked sweep imports it
            _place(0)
        for part in range(1, parts):
            spill = tempfile.TemporaryFile("w+", encoding="utf-8", newline="",
                                           dir=os.path.dirname(spec.output_path) or os.curdir)
            # a child writes its part into spill and leaves through os._exit, with status 1
            # on any failure: no frame, buffer or atexit hook of the parent runs in it
            if (pid := os.fork()) == 0:
                try:
                    _swap_handlers(_on_signal, _signal.SIG_DFL)
                    _place(part)
                    with spill:
                        for piece in _chunks(spec, part, parts):
                            if os.getppid() != parent:  # orphaned: no one reads the spill
                                os._exit(1)
                            spill.write(piece)
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
        for pid, spill in children:
            os.kill(pid, _signal.SIGKILL)
            os.waitpid(pid, 0)
            spill.close()


def _cmd_sweep(sets: list[str], config: str) -> int:
    spec = parse_config(_read(config), sets)
    *_, chunks = _sweeps()._layout(spec)  # rejects non-sweep modes
    parts = 1
    if chunks > 1:  # on arrays: a point and a one-chunk sweep run on Python floats, in one process
        _import("numpy")
        parts = _parts(chunks)
    with contextlib.closing(_document(spec, parts)) as document:
        _write(spec.output_path, document)
    return 0


def _cmd_verify(sets: list[str], config: None) -> int:
    spec = parse_config("mode = verify", sets)  # a bad override loads no NumPy
    run_verify = _import(".verification").run_verify
    options = {key: getattr(spec, key) for key in ("seed", "cases", "dim")
               if getattr(spec, key) is not None}
    status, report = run_verify(spec.tolerance_overrides or None, **options)
    print(report)
    return status


def _cmd_point(sets: list[str], config: None) -> int:
    spec = parse_config("mode = single-point", sets)
    sys.stdout.write(_sweeps().run_point(spec))
    return 0


# name -> (its help, the help of its --set, its handler); sweep alone also takes --config
_COMMANDS = {
    "sweep": ("evaluate a parameter grid and write CSV", "override one config key", _cmd_sweep),
    "verify": ("run the oracle cross-check suite",
               "override seed/cases/dim or a tol_<check> threshold", _cmd_verify),
    "point": ("report a single cycle to stdout", "set one parameter (repeatable)", _cmd_point),
}


# the option sweep alone takes, and requires
_CONFIG = ("--config", "CONFIG", "path to a key=value config file")


def _options(command: str) -> list[tuple[str, str, str]]:
    """(name, metavar, help) of each long option of command, in the order of its usage."""
    return [_CONFIG] * (command == "sweep") + [("--set", "KEY=VALUE", _COMMANDS[command][1])]


def _usage(command: str | None) -> str:
    """The help of command, or of the command line with command None, laid out for
    80 columns."""
    if command is None:
        names = "{" + ",".join(_COMMANDS) + "}"
        return (f"usage: ottoqft [-h] {names} ...\n\n{__doc__.splitlines()[0]}\n\n"
                f"positional arguments:\n  {names}\n"
                + "".join(f"    {name:<20}{line}\n" for name, (line, _, _) in _COMMANDS.items())
                + "\noptions:\n  -h, --help            show this help message and exit\n")
    options = _options(command)
    usage = " ".join(f"{name} {metavar}" if name == _CONFIG[0] else f"[{name} {metavar}]"
                     for name, metavar, _ in options)
    return (f"usage: ottoqft {command} [-h] {usage}\n\noptions:\n"
            "  -h, --help       show this help message and exit\n"
            + "".join(f"  {name + ' ' + metavar:<17}{line}\n" for name, metavar, line in options))


def _option(word: str, names: Sequence[str]) -> tuple[str | None, str | None]:
    """(name, value) of word where -h and the long options names are taken, a long
    option also by a unique prefix.  name is the option's long name, "" for an option
    not taken, or None for a plain word: one not led by '-', '-' or '--' itself, a
    negative number, or a word holding a space.  value is what follows the option's
    '=', or None."""
    head, equals, value = word.partition("=")
    value = value if equals else None
    if word.startswith("--") and word != "--":
        found = [name for name in names if name.startswith(head)]
        if len(found) > 1:
            raise ConfigError(f"ambiguous option: {word} could match {', '.join(found)}")
        if found:
            return found[0], value
    elif head == "-h":
        return "--help", value
    plain = word[:1] != "-" or word in ("-", "--") or " " in word
    return (None, None) if plain or re.fullmatch(r"-\d+|-\d*\.\d+", word) else ("", None)


def _help(command: str | None, value: str | None):
    """Prints the help of command (None: of the command line) and exits 0."""
    if value is not None:
        raise ConfigError(f"argument -h/--help: ignored explicit argument {value!r}")
    sys.stdout.write(_usage(command))
    raise SystemExit(0)


def _parse(argv: Sequence[str]) -> tuple[str, list[str], str | None]:
    """The command of argv, its --set values in order and its --config (None but
    for sweep), read in one pass.  The command is the first plain word (_option);
    before it -h and --help are the only options.  After it, an option that takes a
    value takes the next word, which must be a plain word other than '--', and '--'
    ends the options.  The first -h or --help prints its help and exits 0 through
    SystemExit.  ConfigError is raised at once for a command word not in _COMMANDS,
    an option without its value and an ambiguous prefix; once argv is read, for a
    missing command or --config, then for any word left over."""
    words = iter(argv)
    command, extras = None, []
    for word in words:
        name, value = _option(word, ["--help"])
        if name is None:
            command = word
            break
        if name:
            _help(None, value)
        extras.append(word)
    if command is None or command == "--" and next(words, None) is None:  # '--' alone is no command
        raise ConfigError("the following arguments are required: command")
    if command not in _COMMANDS:
        raise ConfigError(f"argument command: invalid choice: {command!r} "
                          f"(choose from {', '.join(map(repr, _COMMANDS))})")
    names = ["--help"] + [name for name, _, _ in _options(command)]
    sets, config = [], None
    for word in words:
        if word == "--":
            extras += [word, *words]
            break
        name, value = _option(word, names)
        if name == "--help":
            _help(command, value)
        elif not name:
            extras.append(word)
            continue
        elif value is None:
            value = next(words, "--")  # none left reads as '--'
            if value == "--" or _option(value, names)[0] is not None:
                raise ConfigError(f"argument {name}: expected one argument")
        if name == "--set":
            sets.append(value)
        else:
            config = value
    if command == "sweep" and config is None:
        raise ConfigError("the following arguments are required: --config")
    if extras:
        raise ConfigError(f"unrecognized arguments: {' '.join(extras)}")
    return command, sets, config


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


def _error(exc: object, status: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return status


def main(argv: Sequence[str] | None = None) -> int:
    """Runs one command in this process and returns its exit code, with stdout flushed:
    a failed flush (EPIPE, ENOSPC) is the command's i/o error.  For the length of the
    command SIGTERM and SIGHUP, where their action is the default, end it as Ctrl-C does."""
    _swap_handlers(_signal.SIG_DFL, _on_signal)
    try:  # the exit code follows the exception's class
        command, sets, config = _parse(sys.argv[1:] if argv is None else argv)
        status = _COMMANDS[command][2](sets, config)
        if sys.stdout is not None:  # None where the process started without fd 1
            sys.stdout.flush()
        return status
    except (ValueError, MemoryError) as exc:  # ConfigError, TruncationError; verify's dim too large
        return _error(exc, 1)
    except ArithmeticError as exc:  # QuadratureConvergenceError; the Fock oracle's lost trace
        return _error(exc, 2)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:  # Ctrl-C; _write and _document have cleaned up by now
        return _error("interrupted", 130)
    except _Signalled as exc:  # as Ctrl-C; 128 + n is the shell's status of a death by signal n
        import signal

        (signum,) = exc.args
        return _error(f"interrupted by {signal.Signals(signum).name}", 128 + signum)
    finally:
        _swap_handlers(_on_signal, _signal.SIG_DFL)


def run() -> None:
    """The process entry: main, then stderr flushed and the process ended through
    os._exit, skipping the interpreter's teardown of NumPy and the package module by
    module.  No atexit hook runs.  -h and --help exit 0 through SystemExit once their
    help is printed."""
    status = main()
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
