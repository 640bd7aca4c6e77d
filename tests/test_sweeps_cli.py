"""CSV sweeps, the point report, and command-line behaviour."""

import argparse
import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ottoqft
from ottoqft import cli, oracle, sweeps
from ottoqft.algebra import KernelInconsistencyError, MomentSet, p_after_first
from ottoqft.cli import main
from ottoqft.config import Axis, ConfigError, parse_config
from ottoqft.cycle import extracted_work
from ottoqft.minkowski import MinkowskiParams, minkowski_moments
from ottoqft.sweeps import CURVE_COLUMNS, GRID_COLUMNS, run_point, run_sweep, sweep_chunks

FIG4A_CFG = """\
mode = curve-tau2
omega1 = 1.0
omega2 = 3.0
tau1 = 0.0
lambda1 = 100.0
lambda2 = 1.0
tau2_start = 0.5
tau2_stop = 8.0
tau2_count = 40
output = {out}
"""

GRID_CFG = """\
mode = grid-couplings
omega1 = 1.0
omega2 = 3.0
tau1 = 0.0
tau2 = 1.5
lambda1_start = 0.5
lambda1_stop = 100.0
lambda1_count = 7
lambda2_start = 0.0
lambda2_stop = 3.0
lambda2_count = 7
output = {out}
"""


def _cli_env(**env):
    src = os.path.dirname(os.path.dirname(ottoqft.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))), **env)


def _cli_process(argv, stdout=subprocess.PIPE, **env):
    """Run the CLI in a fresh interpreter on this checkout's package."""
    return subprocess.run([sys.executable, "-m", "ottoqft.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=_cli_env(**env), timeout=120)


def _rows(csv_text):
    lines = csv_text.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _next_chunk(pieces, rows=sweeps._CHUNK):
    """The text of the next chunk of rows rows, joined from the pieces it is yielded in."""
    return "".join(itertools.islice(pieces, -(-rows // sweeps._ROWS)))


class TestRunSweep:
    def test_curve_document_shape(self):
        spec = parse_config(FIG4A_CFG.format(out="x.csv"))
        doc = run_sweep(spec)
        header, rows = _rows(doc)
        assert tuple(header) == CURVE_COLUMNS
        assert len(rows) == 40
        assert doc.endswith("\n")
        assert "\r" not in doc

    def test_numbers_round_trip_exactly(self):
        spec = parse_config(FIG4A_CFG.format(out="x.csv"))
        doc = run_sweep(spec)
        _, rows = _rows(doc)
        for row in rows[:5]:
            tau2 = float(row[0])
            m_nu2 = float(row[3])
            assert format(tau2, ".17g") == row[0]
            assert format(m_nu2, ".17g") == row[3]

    def test_repeated_runs_are_byte_identical(self):
        for cfg, overrides in (
            (FIG4A_CFG, []),
            # three chunks, the last one partial
            (FIG4A_CFG, [f"tau2_count={2 * sweeps._CHUNK + 3}"]),
            (GRID_CFG, ["lambda1_count=700", "lambda2_count=13"]),
        ):
            spec = parse_config(cfg.format(out="x.csv"), overrides)
            doc = run_sweep(spec)
            assert run_sweep(spec) == doc
            _, rows = _rows(doc)
            if spec.mode == "curve-tau2":
                expected = [(t,) for t in spec.tau2_axis.points()]
            else:
                expected = [(a, b) for a in spec.lambda1_axis.points()
                            for b in spec.lambda2_axis.points()]
            assert [tuple(float(v) for v in row[:len(expected[0])]) for row in rows] == expected

    @pytest.mark.parametrize("cfg, overrides, count", [
        (FIG4A_CFG, [f"tau2_count={3 * sweeps._CHUNK + 5}"], 4),  # the last chunk partial
        (GRID_CFG, ["lambda1_count=3", f"lambda2_count={sweeps._CHUNK + 5}"], 6),  # 2 a row
        (GRID_CFG, [f"lambda1_count={6 * (sweeps._CHUNK // 13) + 1}", "lambda2_count=13"], 7),
    ])
    def test_parts_join_to_the_document(self, cfg, overrides, count):
        # part k of n holds chunks kC // n to (k + 1)C // n of C, and part 0 the header:
        # joined in order they are the document, and n - C parts hold no row where n > C
        spec = parse_config(cfg.format(out="x.csv"), overrides)
        doc = run_sweep(spec)
        assert sweeps._layout(spec)[-1] == count
        for n in range(1, 6):
            parts = ["".join(sweeps._chunks(spec, k, n)) for k in range(n)]
            assert "".join(parts) == doc
            rows = [part.count("\n") - (k == 0) for k, part in enumerate(parts)]
            assert rows.count(0) == max(0, n - count)

    def test_grid_zero_second_coupling_column_is_zero(self):
        spec = parse_config(GRID_CFG.format(out="x.csv"))
        doc = run_sweep(spec)
        header, rows = _rows(doc)
        assert tuple(header) == GRID_COLUMNS
        assert len(rows) == 49
        for row in rows:
            if float(row[1]) == 0.0:
                assert row[2] == "0"  # not -0, although gap1 < gap2
                assert row[3] == "false"

    @pytest.mark.parametrize("counts", [
        (2 * sweeps._CHUNK // 13 + 2, 13),  # chunk boundaries fall inside a lambda1 row
        (3, sweeps._CHUNK + 5),  # a lambda2 axis longer than a chunk
    ])
    def test_grid_axis_cells_across_chunks(self, counts):
        spec = parse_config(GRID_CFG.format(out="x.csv"),
                            [f"lambda1_count={counts[0]}", f"lambda2_count={counts[1]}"])
        _, rows = _rows(run_sweep(spec))
        expected = [("%.17g" % a, "%.17g" % b) for a in spec.lambda1_axis.points()
                    for b in spec.lambda2_axis.points()]
        assert [(row[0], row[1]) for row in rows] == expected

    def test_grid_row_major_order(self):
        spec = parse_config(GRID_CFG.format(out="x.csv"))
        _, rows = _rows(run_sweep(spec))
        lambda1_values = [float(r[0]) for r in rows]
        lambda2_values = [float(r[1]) for r in rows]
        # declared order: lambda1 outer, lambda2 inner
        assert lambda1_values[:7] == [0.5] * 7
        assert lambda2_values[:7] == sorted(set(lambda2_values))

    def test_positive_work_pocket_favors_strong_first_weak_second(self):
        spec = parse_config(GRID_CFG.format(out="x.csv"))
        _, rows = _rows(run_sweep(spec))
        values = [(float(r[0]), float(r[1]), float(r[2])) for r in rows]
        best = max(values, key=lambda t: t[2])
        assert best[2] > 0.0
        # the output pocket wants the first kick strong (first-kick decoherence
        # saturated) and the second much weaker (second-kick decoherence mild);
        # within the strong regime the exact maximum follows the signal phase
        assert best[0] >= 17.0
        assert best[1] <= 1.0
        col_max = {}
        for l1, l2, w in values:
            col_max[l2] = max(col_max.get(l2, 0.0), w)
        assert col_max[0.5] > col_max[3.0]

    def test_degenerate_origin_emits_zero(self):
        text = GRID_CFG.format(out="x.csv").replace("lambda1_start = 0.5", "lambda1_start = 0.0")
        _, rows = _rows(run_sweep(parse_config(text)))
        origin = [r for r in rows if float(r[0]) == 0.0 and float(r[1]) == 0.0]
        assert origin and float(origin[0][2]) == 0.0 and origin[0][3] == "false"

    def test_wrong_mode_rejected(self):
        spec = parse_config("mode = verify")
        with pytest.raises(ValueError):
            run_sweep(spec)
        with pytest.raises(ValueError, match="requires mode 'single-point'"):
            run_point(parse_config(FIG4A_CFG.format(out="x.csv")))


class TestRunPoint:
    @pytest.mark.parametrize("values, key", [
        (["omega1=2", "omega2=2", "tau1=0", "tau2=1", "lambda1=1", "lambda2=1"], "w3"),
        (["omega1=1", "omega2=3", "tau1=0", "tau2=1.5", "lambda1=1", "lambda2=1",
          "initial_p=0"], "w1"),
    ])
    def test_zero_stroke_work_prints_without_sign(self, values, key):
        entries = dict(line.split(" = ") for line in run_point(
            parse_config("mode = single-point", values)).strip().split("\n"))
        assert entries[key] == "0"

    def test_report_lines(self):
        spec = parse_config(
            "mode = single-point",
            ["omega1=1", "omega2=3", "tau1=0", "tau2=1.5", "lambda1=100", "lambda2=1"],
        )
        report = run_point(spec)
        entries = dict(line.split(" = ") for line in report.strip().split("\n"))
        assert entries["theta"] == format(-4.5, ".17g")
        assert entries["closed"] == "true"
        assert float(entries["w_ext"]) == pytest.approx(-0.0920071030266436, rel=1e-12)
        assert float(entries["q2"]) + float(entries["q4"]) == pytest.approx(
            float(entries["w_ext"]), abs=1e-12
        )

    def test_open_cycle_omits_work(self):
        spec = parse_config(
            "mode = single-point",
            ["omega1=1", "omega2=3", "tau1=0", "tau2=1.5", "lambda1=2", "lambda2=1",
             "initial_p=0.1"],
        )
        report = run_point(spec)
        assert "w_ext" not in report
        assert "closed = false" in report

    def test_zero_signal_prints_zero_work(self):
        # lambda2 = 0 gives e12 = 0 and zero work, which gap1 < gap2 must not sign
        spec = parse_config(
            "mode = single-point",
            ["omega1=1", "omega2=3", "tau1=0", "tau2=1.5", "lambda1=100", "lambda2=0"],
        )
        assert "\nw_ext = 0\n" in run_point(spec)

    def test_uncoupled_kick_keeps_a_tiny_population(self):
        # p far below the float spacing at 1/2: unit nu1 must return p itself
        entries = _point(omega1=1, omega2=3, tau1=0, tau2=1, lambda1=0, lambda2=0,
                         initial_p=1e-20)
        assert entries["p1"] == entries["p"] == format(1e-20, ".17g")
        assert entries["w_ext"] == "0"
        assert entries["pwc"] == "false"

    @pytest.mark.parametrize("values", [
        # nu1 = nu2 = 1/2, as in the stroke_ledger case, at a long separation
        dict(omega1=3.0, omega2=1.0, tau1=0.0, tau2=9.4,
             lambda1=3.698942676997608, lambda2=3.698942676997608),
        # the last row of the 20,000-point Fig. 4a curve
        dict(omega1=1.0, omega2=3.0, tau1=0.0, tau2=12.0, lambda1=100.0, lambda2=1.0),
    ])
    def test_signal_below_the_float_spacing_prints_the_closed_form(self, values):
        entries = _point(**values)
        m = minkowski_moments(MinkowskiParams(
            values["lambda1"], values["lambda2"], values["tau2"] - values["tau1"]))
        work = extracted_work(m, float(entries["theta"]), values["omega1"] - values["omega2"])
        assert entries["w_ext"] == format(work, ".17g")
        assert entries["pwc"] == "true" and work > 0.0


def _point(**values):
    spec = parse_config("mode = single-point", [f"{key}={value}" for key, value in values.items()])
    return dict(line.split(" = ") for line in run_point(spec).strip().split("\n"))


class TestPointMatchesSweep:
    # point evaluates its cycle through the sweep's kernel: every 17-digit
    # cell of a sweep row is the text point prints at the same parameters
    CURVE_KEYS = dict(zip(CURVE_COLUMNS, (
        None, "theta", "nu1", "nu2", "e12", "mu12", "p", "p1", "w_ext", "pwc")))

    def test_curve_cells(self):
        spec = parse_config(FIG4A_CFG.format(out="x.csv"),
                            ["tau2_start=0.05", "tau2_stop=12.0", "tau2_count=2000"])
        header, rows = _rows(run_sweep(spec))
        for row in rows:
            entries = _point(omega1=1.0, omega2=3.0, tau1=0.0, tau2=row[0],
                             lambda1=100.0, lambda2=1.0)
            assert [entries[self.CURVE_KEYS[key]] for key in header[1:]] == row[1:], row[0]

    def test_grid_cells(self):
        spec = parse_config(GRID_CFG.format(out="x.csv"), ["lambda1_count=20", "lambda2_count=20"])
        _, rows = _rows(run_sweep(spec))
        for row in rows:
            entries = _point(omega1=1.0, omega2=3.0, tau1=0.0, tau2=1.5,
                             lambda1=row[0], lambda2=row[1])
            assert [entries["w_ext"], entries["pwc"]] == row[2:], row[:2]


class TestStreamedSweep:
    """The command line writes the sweep chunk by chunk through a temporary
    file in the output's directory, renamed into place at the end."""

    def _sweep(self, tmp_path, cfg, *overrides, fresh=False):
        """The exit code of a sweep run by main() in process, or in a fresh
        interpreter through python -m ottoqft.cli if fresh is set."""
        config = tmp_path / "run.cfg"
        config.write_text(cfg.format(out=tmp_path / "out.csv"))
        argv = ["sweep", "--config", str(config)]
        for item in overrides:
            argv += ["--set", item]
        return _cli_process(argv).returncode if fresh else main(argv)

    @pytest.mark.parametrize("fresh", [False, True], ids=["main", "python-m"])
    @pytest.mark.parametrize("cfg, overrides", [
        # three chunks or more, whose boundaries fall inside a lambda1 row
        (GRID_CFG, ["lambda2_count=13", f"lambda1_count={2 * sweeps._CHUNK // 13 + 2}"]),
        (FIG4A_CFG, [f"tau2_count={2 * sweeps._CHUNK + 3}"]),
    ])
    def test_file_is_the_in_memory_document(self, tmp_path, cfg, overrides, fresh):
        old = os.umask(0o027)  # a child process inherits it
        try:
            assert self._sweep(tmp_path, cfg, *overrides, fresh=fresh) == 0
        finally:
            os.umask(old)
        out = tmp_path / "out.csv"
        spec = parse_config(cfg.format(out=out), overrides)
        if spec.mode == "grid-couplings":
            assert sweeps._CHUNK % 13 and 13 * spec.lambda1_axis.count > 2 * sweeps._CHUNK
        assert out.read_bytes() == run_sweep(spec).encode("utf-8")
        assert out.stat().st_mode & 0o777 == 0o666 & ~0o027
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "run.cfg"]

    def test_failed_sweep_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        calls = []

        def second_chunk_fails(*args):
            calls.append(None)
            if len(calls) == 2:
                raise KernelInconsistencyError("second chunk")
            return original(*args)

        original = sweeps._evaluate  # one call a chunk on arrays, all in this process
        monkeypatch.setattr(sweeps, "_evaluate", second_chunk_fails)
        monkeypatch.setattr(cli, "_parts", lambda chunks: 1)
        overrides = [f"tau2_count={2 * sweeps._CHUNK}"]
        assert self._sweep(tmp_path, FIG4A_CFG, *overrides) == 1
        assert capsys.readouterr().err == "error: second chunk\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

        (tmp_path / "out.csv").write_bytes(b"kept\n")
        calls.clear()
        assert self._sweep(tmp_path, FIG4A_CFG, *overrides) == 1
        assert len(calls) == 2
        assert (tmp_path / "out.csv").read_bytes() == b"kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "run.cfg"]

    def test_interrupt_is_one_line_and_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        # Ctrl-C after the header: exit 130, one error line, the temporary file removed
        def interrupted(*args):
            yield next(original(*args))
            raise KeyboardInterrupt

        original = sweeps._chunks
        monkeypatch.setattr(sweeps, "_chunks", interrupted)
        (tmp_path / "out.csv").write_bytes(b"kept\n")
        assert self._sweep(tmp_path, FIG4A_CFG) == 130
        assert capsys.readouterr().err == "error: interrupted\n"
        assert (tmp_path / "out.csv").read_bytes() == b"kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "run.cfg"]

    def test_failed_write_leaves_no_file(self, tmp_path, capsys):
        (tmp_path / "out.csv").mkdir()
        assert self._sweep(tmp_path, GRID_CFG) == 3
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "run.cfg"]
        assert not any((tmp_path / "out.csv").iterdir())

    def test_point_mode_opens_no_file(self, tmp_path, monkeypatch, capsys):
        def no_write(*args, **kwargs):
            raise AssertionError("the output was opened")

        config = tmp_path / "run.cfg"
        config.write_text("mode = single-point\nomega1 = 1\nomega2 = 3\ntau1 = 0\n"
                          "tau2 = 1.5\nlambda1 = 100\nlambda2 = 1\n")
        monkeypatch.setattr(cli, "_write", no_write)
        assert main(["sweep", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            "error: sweep requires mode curve-tau2 or grid-couplings, got 'single-point'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_memory_does_not_grow_with_the_grid(self, tmp_path):
        # the 1001x61 grid-stress grid: its CSV is 3.5 MB, and holding the
        # whole document before one write peaks at about 7 MB
        tracemalloc.start()
        try:
            code = self._sweep(tmp_path, GRID_CFG, "lambda1_count=1001", "lambda2_count=61")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 3e6

    def test_curve_axis_is_not_held_whole(self):
        # a 10^6-point curve: its tau2 axis as one list of floats takes about 32 MB
        spec = parse_config(FIG4A_CFG.format(out="x.csv"), ["tau2_count=1000000"])
        tracemalloc.start()
        try:
            chunks = sweep_chunks(spec)
            header, first = next(chunks), _next_chunk(chunks)
            later = _next_chunk(sweeps._chunks(spec, 1, 2))  # chunk 244 of 489: its own tau2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert header.startswith("tau2_over_sigma,")
        assert first.count("\n") == later.count("\n") == sweeps._CHUNK
        tau2 = next(itertools.islice(spec.tau2_axis.points(), 244 * sweeps._CHUNK, None))
        assert later.startswith("%.17g," % tau2)
        assert peak < 4e6

    def test_figure4a_curve_holds_one_chunk_of_kernel_arrays(self):
        # 10^5 points: the result keeps about 11 MB, and the whole grid in one array
        # call peaked 23 MB above it
        from ottoqft.algebra import _arrays

        _arrays()  # NumPy loaded first
        grid = [0.05 + 8e-5 * i for i in range(100_000)]
        tracemalloc.start()
        try:
            curve = sweeps.figure4a_curve(1.0, 3.0, 0.0, 100.0, 1.0, grid)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(curve) == len(grid)
        assert peak - kept < 3e6

    @pytest.mark.parametrize("counts", [("lambda1_count=1000000", "lambda2_count=2"),
                                        ("lambda1_count=2", "lambda2_count=1000000")])
    def test_grid_axis_text_is_not_held_whole(self, counts):
        # a 10^6-value coupling axis: its floats take 8 MB, and its text, formatted
        # whole before the first row, took the peak to about 116 MB
        spec = parse_config(GRID_CFG.format(out="x.csv"), list(counts))
        tracemalloc.start()
        try:
            chunks = sweep_chunks(spec)
            header, first = next(chunks), _next_chunk(chunks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert header.startswith("lambda1_over_sigma,")
        assert first.count("\n") == sweeps._CHUNK
        assert peak < 20e6

    def test_a_chunk_makes_only_its_own_axis_points(self, monkeypatch):
        # a chunk makes the axis points of its own rows and columns, not the ones before
        # them nor the rest of the axis: here 2,048 of 10^6, and 1,026 of 10^6 + 2, where
        # a lambda2 axis that fits one chunk is made once for the sweep
        made, points = [0], Axis.points

        def counted(axis, *args):
            for point in points(axis, *args):
                made[0] += 1
                yield point

        monkeypatch.setattr(Axis, "points", counted)
        curve = parse_config(FIG4A_CFG.format(out="x.csv"), ["tau2_count=1000000"])
        assert _next_chunk(sweeps._chunks(curve, 1, 2)).count("\n") == sweeps._CHUNK
        assert made[0] == sweeps._CHUNK
        made[0] = 0
        grid = parse_config(GRID_CFG.format(out="x.csv"),
                            ["lambda1_count=1000000", "lambda2_count=2"])
        chunks = sweeps._chunks(grid)
        rows = sweeps._layout(grid)[0]
        header, first = next(chunks), _next_chunk(chunks, 2 * rows)
        assert first.count("\n") == 2 * rows
        assert made[0] == rows + 2  # the chunk's rows, and the lambda2 axis once
        next(chunks)  # the first piece of the next chunk
        assert made[0] == 2 * rows + 2  # the next chunk makes only its own rows

    def test_a_chunk_is_released_with_its_last_piece(self):
        # chunks 2 and 3 of the 20,000-point curve-dense curve, traced from the start of
        # chunk 2: rendered whole, with the last chunk's columns as lists of floats kept
        # through the next kernel call, they peaked at about 1.4 MB
        spec = parse_config(FIG4A_CFG.format(out="x.csv"),
                            ["tau2_start=0.05", "tau2_stop=12.0", "tau2_count=20000"])
        pieces = sweep_chunks(spec)
        next(pieces)
        _next_chunk(pieces)  # the header and chunk 1, which loads NumPy
        tracemalloc.start()
        try:
            rows = sum(piece.count("\n") for piece in
                       itertools.islice(pieces, 2 * sweeps._CHUNK // sweeps._ROWS))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == 2 * sweeps._CHUNK
        assert peak < 0.8e6

    @pytest.mark.parametrize("cfg, overrides", [
        # the last chunk, and the last piece of each chunk, partial
        (FIG4A_CFG, [f"tau2_count={2 * sweeps._CHUNK + 300}"]),
        (GRID_CFG, ["lambda1_count=70", "lambda2_count=61"]),  # 3 chunks of 33, 33, 4 rows
        (GRID_CFG, ["lambda2_count=61"]),  # one chunk, on floats
    ])
    def test_pieces_join_to_the_document_and_the_file(self, tmp_path, cfg, overrides):
        spec = parse_config(cfg.format(out=tmp_path / "out.csv"), overrides)
        pieces = list(sweep_chunks(spec))
        assert all(piece.endswith("\n") and piece.count("\n") <= sweeps._ROWS
                   for piece in pieces)
        doc = "".join(pieces)
        assert doc == run_sweep(spec)
        assert len(pieces) > 1 + -(-doc.count("\n") // sweeps._CHUNK)  # more pieces than chunks
        assert self._sweep(tmp_path, cfg, *overrides, fresh=True) == 0  # forked where it can
        assert (tmp_path / "out.csv").read_bytes() == doc.encode("utf-8")


# where the command line can split a sweep: os.fork, a thread count and more than one CPU
FORKS = (hasattr(os, "fork") and os.path.isdir("/proc/self/task")
         and len(os.sched_getaffinity(0)) > 1)

# runs patch, then main twice in one fresh process, on the parts it picks and then on
# one, and prints for each run its status, stderr, forks, the OS threads as it chose its
# parts, whether a child is left unreaped, the names in the output's directory, the
# sha256 of the output file and the sweeps._evaluate calls made in this process
FORKED_AND_SERIAL = """\
import contextlib, hashlib, io, json, os, sys
from ottoqft import cli, sweeps
argv, folder, out, patch = json.loads(sys.argv[1])
first = os.getpid()
exec(patch)
calls, kernel = [], sweeps._evaluate
def tallied(*args):
    if os.getpid() == first:
        calls.append(None)
    return kernel(*args)
sweeps._evaluate = tallied
forks, fork = [], os.fork
def counted():
    forks.append(None)
    return fork()
os.fork = counted
threads, parts = [], cli._parts  # OpenBLAS stops its threads as a process forks
def choose(chunks):
    threads.append(len(os.listdir("/proc/self/task")))
    return parts(chunks)
cli._parts = choose
runs = []
for serial in (False, True):
    if serial:
        cli._parts = lambda chunks: 1
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = cli.main(argv)
    try:
        os.waitpid(-1, os.WNOHANG)
        left = True
    except ChildProcessError:
        left = False
    digest = hashlib.sha256(open(out, "rb").read()).hexdigest() if os.path.isfile(out) else None
    runs.append([status, err.getvalue(), len(forks), threads[:1], left,
                 sorted(os.listdir(folder)), digest, len(calls)])
    for tally in forks, threads, calls:
        tally.clear()
print(json.dumps(runs))
"""


# sweeps._evaluate replaced: every chunk fails with an error naming its first lambda1, or
# every chunk from lambda1 = 40 on, or the first process is interrupted at its first
# chunk while its children sleep, or each child kills itself or runs out of memory at its
# first chunk
NAMED = ("def named(*args):\n"
         "    if float(args[4].flat[0]) >= {}:\n"
         "        raise ValueError(f'chunk at lambda1 = {{float(args[4].flat[0])!r}}')\n"
         "    return evaluate(*args)\n"
         "evaluate, sweeps._evaluate = sweeps._evaluate, named\n")
IN_CHILDREN = ("def in_children(*args):\n"
               "    if os.getpid() != first:\n"
               "        {}\n"
               "    return evaluate(*args)\n"
               "evaluate, sweeps._evaluate = sweeps._evaluate, in_children\n")
PATCHES = {
    "named": NAMED.format(0),
    "named-from-40": NAMED.format(40),
    "interrupted": ("import time\n"
                    "def interrupted(*args):\n"
                    "    if os.getpid() == first:\n"
                    "        raise KeyboardInterrupt\n"
                    "    time.sleep(60)\n"
                    "sweeps._evaluate = interrupted\n"),
    "killed": IN_CHILDREN.format("import signal; os.kill(os.getpid(), signal.SIGKILL)"),
    "out-of-memory": IN_CHILDREN.format("raise MemoryError"),
    # no process can be placed on a CPU: the kernel refuses, or the platform has no call
    "placement-refused": ("import errno\n"
                          "def refused(pid, mask):\n"
                          "    raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))\n"
                          "os.sched_setaffinity = refused\n"),
    "no-placement": "del os.sched_setaffinity\n",
}
# the changes under which no child finishes its part
CHILD_FAILURES = ("killed", "out-of-memory")

# runs main once in a fresh process with cli._place wrapped, so that each process appends
# its part and the CPU it runs on once placed (field 39 of /proc/self/stat) to a log, and
# prints main's status and the process's usable CPUs before and after main
PLACED = """\
import json, os, sys
from ottoqft import cli
argv, log = json.loads(sys.argv[1])
place = cli._place
def placed(part):
    place(part)
    cpu = open("/proc/self/stat").read().rpartition(")")[2].split()[36]
    with open(log, "a") as handle:
        handle.write(f"{part} {cpu}\\n")
cli._place = placed
before = sorted(os.sched_getaffinity(0))
print(json.dumps([cli.main(argv), before, sorted(os.sched_getaffinity(0))]))
"""


@pytest.mark.skipif(not FORKS, reason="the command line renders a sweep in one process here")
class TestForkedSweep:
    """A sweep of more than one chunk is split over the usable CPUs, one contiguous range
    of chunks a process; the file, the error line and the exit code are the serial run's,
    and no child, spill or temporary file outlives the run."""

    CURVE = (FIG4A_CFG, [f"tau2_count={2 * sweeps._CHUNK + 3}"])  # 3 chunks
    GRID = (GRID_CFG, ["lambda1_count=700", "lambda2_count=13"])  # 5 chunks of 157 rows

    @staticmethod
    def _argv(tmp_path, cfg, overrides, out):
        config = tmp_path / "run.cfg"
        config.write_text(cfg.format(out=out))
        argv = ["sweep", "--config", str(config)]
        for item in overrides:
            argv += ["--set", item]
        return argv

    @staticmethod
    def _python(script, payload, threads=None):
        # script run in a fresh process with payload as JSON in its argv; its JSON stdout
        src = os.path.dirname(os.path.dirname(ottoqft.__file__))
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        done = subprocess.run([sys.executable, "-c", script, json.dumps(payload)],
                              capture_output=True, text=True, env=env, timeout=120, check=True)
        return json.loads(done.stdout)

    def _runs(self, tmp_path, cfg, overrides, out, threads=None, patch="", cpus=None):
        # cpus: the usable CPUs os.sched_getaffinity reports in the fresh process
        argv = self._argv(tmp_path, cfg, overrides, out)
        if cpus:
            patch += f"os.sched_getaffinity = lambda pid: set(range({cpus}))\n"
        forked, serial = self._python(FORKED_AND_SERIAL, [argv, str(tmp_path), str(out), patch],
                                      threads)
        parts = min(cpus or len(os.sched_getaffinity(0)), sweeps._layout(parse_config(
            cfg.format(out=out), overrides))[-1]) if forked[3] == [1] else 1
        return forked, serial, parts

    @pytest.mark.parametrize("threads, cpus, change", [
        (None, None, None),
        ("2", None, None),  # OpenBLAS starts a second thread as NumPy loads: no fork then
        (None, 5, None),  # a child a chunk past the first: 2 for the curve, 4 for the grid
        # a child that does not finish: this process renders its part
        (None, None, "killed"),
        (None, 5, "out-of-memory"),  # a failure of the children's own
        # a part that cannot be placed renders where it is, in its child
        (None, None, "placement-refused"),
        (None, None, "no-placement"),
    ])
    @pytest.mark.parametrize("case", ["curve", "grid"])
    def test_file_is_the_serial_document(self, tmp_path, case, threads, cpus, change):
        cfg, overrides = getattr(self, case.upper())
        out = tmp_path / "out.csv"
        forked, serial, parts = self._runs(tmp_path, cfg, overrides, out, threads,
                                           PATCHES.get(change, ""), cpus)
        assert (forked[0], forked[1], forked[2]) == (0, "", parts - 1)
        assert forked[3] == [2] if threads else parts > 1
        spec = parse_config(cfg.format(out=out), overrides)
        expected = hashlib.sha256(run_sweep(spec).encode("utf-8")).hexdigest()
        for status, err, _, _, left, names, digest, _ in forked, serial:
            assert (status, err, left, names, digest) == (0, "", False, ["out.csv", "run.cfg"],
                                                          expected)
        assert serial[2] == 0
        # one kernel call a chunk: here only part 0's, unless no child finished its part
        count = sweeps._layout(spec)[-1]
        assert (forked[7], serial[7]) == (
            count if change in CHILD_FAILURES else count // parts, count)

    def test_each_part_starts_on_a_cpu_of_its_own(self, tmp_path):
        # part k on the k-th usable CPU, and the process's CPU set as it was after main
        cfg, overrides = self.GRID
        out, log = tmp_path / "out.csv", tmp_path / "placed.log"
        argv = self._argv(tmp_path, cfg, overrides, out)
        status, before, after = self._python(PLACED, [argv, str(log)])
        assert (status, after) == (0, before)
        parts = min(len(before), sweeps._layout(parse_config(cfg.format(out=out), overrides))[-1])
        placed = sorted(tuple(map(int, line.split())) for line in log.read_text().splitlines())
        assert placed == [(part, before[part]) for part in range(parts)]

    @pytest.mark.parametrize("change, cpus, status, error", [
        # nu1 underflows past lambda1 ~ 122: the last rows, in a child's range only
        ("lambda1_stop=125", None, 1, "error: nu1 must lie in (0, 1], got 0.0\n"),
        # nu2 underflows in every row, from part 0 on
        ("lambda2_stop=125", None, 1, "error: nu2 must lie in (0, 1], got 0.0\n"),
        ("named", None, 1, "error: chunk at lambda1 = 0.5\n"),  # part 0's, not a child's
        # chunks 2 to 4 of 5 fail, each in a child of its own: the first child's error
        ("named-from-40", 5, 1, "error: chunk at lambda1 = 45.1967"),
        ("interrupted", 5, 130, "error: interrupted\n"),
        ("directory", None, 3, "i/o error: [Errno 21] Is a directory: "),  # renamed onto it
        ("missing", None, 3, "i/o error: [Errno 2] No such file or directory: "),
    ])
    def test_failure_is_the_serial_runs(self, tmp_path, change, cpus, status, error):
        cfg, overrides = self.GRID
        out = tmp_path / ("missing/out.csv" if change == "missing" else "out.csv")
        kept, patch = None, PATCHES.get(change, "")
        if change == "directory":
            out.mkdir()
        elif change != "missing":
            overrides, kept = [*overrides, change] if "=" in change else overrides, b"kept\n"
            out.write_bytes(kept)
        forked, serial, parts = self._runs(tmp_path, cfg, overrides, out, patch=patch, cpus=cpus)
        # the temporary file is created before any fork: a missing directory forks none
        assert forked[2] == (0 if change == "missing" else parts - 1)
        assert forked[:2] == serial[:2] and forked[4:7] == serial[4:7]
        assert serial[0] == status and serial[1].startswith(error)
        names = ["run.cfg"] if change == "missing" else ["out.csv", "run.cfg"]
        assert serial[4:6] == [False, names]
        assert serial[6] == (hashlib.sha256(kept).hexdigest() if kept else None)
        if change == "directory":
            assert not any(out.iterdir())


def _live(group):
    """The processes of a process group that have not exited, zombies aside."""
    pids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as handle:
                state, _, pgrp = handle.read().rpartition(")")[2].split()[:3]
        except OSError:  # it has exited since the listing
            continue
        if int(pgrp) == group and state != "Z":
            pids.append(int(entry))
    return pids


def _gone(group):
    """Whether no process of the group is alive 1 s from now, at the latest."""
    deadline = time.monotonic() + 1.0
    while _live(group) and time.monotonic() < deadline:
        time.sleep(0.02)
    return not _live(group)


@pytest.mark.skipif(not (hasattr(os, "fork") and os.path.isdir("/proc/self")),
                    reason="no os.fork, or no /proc to find a run's processes in")
class TestProcessEnd:
    """python -m ottoqft.cli ends its process through cli.run once main has flushed its
    output: a flush that fails is the run's one i/o error line, and a run that SIGTERM or
    SIGHUP ends says so in one line and leaves no process, spill or temporary file."""

    # two parts on two CPUs, rendered for seconds: a run that the test ends
    LONG = (FIG4A_CFG, ["tau2_count=2000000"])
    POINT = ["point", "--set", "omega1=1", "--set", "omega2=3", "--set", "tau1=0",
             "--set", "tau2=1.5", "--set", "lambda1=100", "--set", "lambda2=1"]

    def _start(self, tmp_path, cfg, overrides, output=subprocess.PIPE):
        config = tmp_path / "run.cfg"
        config.write_text(cfg.format(out=tmp_path / "out.csv"))
        argv = [sys.executable, "-m", "ottoqft.cli", "sweep", "--config", str(config)]
        for item in overrides:
            argv += ["--set", item]
        # a session of its own: the run's processes are its process group
        return subprocess.Popen(argv, stdout=output, stderr=output, text=True,
                                env=_cli_env(), start_new_session=True)

    def _rendering(self, proc, tmp_path):
        # once the temporary file holds 64 KB of rows
        temp = tmp_path / f"out.csv.{proc.pid}.tmp"
        deadline = time.monotonic() + 60.0
        while not (temp.exists() and temp.stat().st_size >= 1 << 16):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)

    def test_verify_report_is_whole_on_a_pipe(self):
        done = _cli_process(["verify", "--set", "cases=1"])
        assert (done.returncode, done.stderr) == (0, "")
        lines = done.stdout.splitlines()
        assert len(lines) == 12 and re.fullmatch(r"11/11 checks passed in [0-9.]+ s", lines[-1])

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_point_into_a_closed_pipe_is_one_io_error(self, unbuffered):
        # the reader is gone: the write, or the flush at the end of main, fails with EPIPE
        read, write = os.pipe()
        os.close(read)
        try:
            done = _cli_process(self.POINT, stdout=write, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write)
        assert done.returncode == 3
        assert done.stderr.startswith("i/o error: [Errno 32] Broken pipe")
        assert done.stderr.count("\n") == 1 and "Exception ignored" not in done.stderr

    def test_forked_sweep_leaves_no_process(self, tmp_path):
        proc = self._start(tmp_path, FIG4A_CFG, [f"tau2_count={2 * sweeps._CHUNK + 3}"])
        assert proc.communicate(timeout=120) == ("", "") and proc.returncode == 0
        assert _live(proc.pid) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "run.cfg"]

    @pytest.mark.parametrize("name, group", [
        ("SIGTERM", False), ("SIGHUP", False),
        ("SIGTERM", True),  # to every process of the run: each child ends at once
    ])
    def test_signal_ends_the_run_in_one_line(self, tmp_path, name, group):
        signum = getattr(signal, name)
        (tmp_path / "out.csv").write_bytes(b"kept\n")
        proc = self._start(tmp_path, *self.LONG)
        self._rendering(proc, tmp_path)
        (os.killpg if group else os.kill)(proc.pid, signum)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out, err) == (128 + signum, "", f"error: interrupted by {name}\n")
        assert (tmp_path / "out.csv").read_bytes() == b"kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "run.cfg"]
        assert _gone(proc.pid)

    def test_a_child_stops_once_its_parent_is_gone(self, tmp_path):
        # SIGKILL cannot be caught: the child finds itself orphaned between two pieces.  No
        # pipe here, whose end the child holds: the wait is for the parent alone
        proc = self._start(tmp_path, *self.LONG, output=subprocess.DEVNULL)
        self._rendering(proc, tmp_path)
        proc.kill()
        assert proc.wait(timeout=60) == -signal.SIGKILL
        assert _gone(proc.pid)


class TestCli:
    def test_sweep_determinism(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cfg.write_text(FIG4A_CFG.format(out=out1))
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert main(["sweep", "--config", str(cfg), "--set", f"output={out2}"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("cases", ["6", "1"])
    def test_verify_passes_with_light_settings(self, cases, capsys):
        code = main(["verify", "--set", f"cases={cases}", "--set", "dim=40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_verify_fails_under_impossible_tolerance(self, capsys):
        code = main(["verify", "--set", "cases=4", "--set", "dim=40",
                     "--set", "tol_fock_p1=1e-30"])
        out = capsys.readouterr().out
        assert code == 2
        assert "FAIL" in out

    def test_verify_report_does_not_depend_on_blas_threads(self):
        argv = ["verify", "--set", "seed=101", "--set", "cases=8", "--set", "dim=40"]
        runs = [_cli_process(argv, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")]
        assert [done.returncode for done in runs] == [0, 0]
        (*report1, elapsed1), (*report2, elapsed2) = (done.stdout.splitlines() for done in runs)
        assert report1 == report2 and len(report1) == 11
        for line in elapsed1, elapsed2:
            assert re.fullmatch(r"11/11 checks passed in [0-9.]+ s", line)

    def test_verify_too_small_dim_is_a_validation_error(self):
        done = _cli_process(["verify", "--set", "cases=4", "--set", "dim=30"])
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "increase dim" in lines[0]

    def test_verify_out_of_memory_is_a_validation_error(self):
        # the Fock oracle's 10^7-level quadrature matrix would take 728 TiB; the
        # arrays made before that allocation fails come to about 160 MB
        done = _cli_process(["verify", "--set", "dim=10000000"])
        assert done.returncode == 1
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: Unable to allocate")

    def test_diagnostic_does_not_depend_on_the_hash_seed(self):
        # several bad tol_ keys: the error names the same one in every process
        argv = ["verify", "--set", "tol_fock_p1=-1", "--set", "tol_fock_p2=-1",
                "--set", "tol_first_law=-1", "--set", "tol_dawson_spot=-1"]
        runs = [_cli_process(argv, PYTHONHASHSEED=seed) for seed in ("1", "4")]
        assert [done.returncode for done in runs] == [1, 1]
        assert runs[0].stderr == runs[1].stderr
        assert runs[0].stderr.count("\n") == 1 and runs[0].stderr.startswith("error: --set #")

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--set", "seed=-1"], "--set #1: key 'seed' out of range: must be >= 0"),
        (["verify", "--set", "mode=single-point", "--set", "omega1=1", "--set", "omega2=3",
          "--set", "tau1=0", "--set", "tau2=1.5", "--set", "lambda1=1", "--set", "lambda2=1"],
         "--set #1: key 'mode' must be 'verify', got 'single-point'"),
        (["point", "--set", "omega1=1", "--set", "mode=verify"],
         "--set #2: key 'mode' must be 'single-point', got 'verify'"),
    ])
    def test_bad_set_is_one_line_naming_key_and_source(self, argv, message, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_unsettled_quadrature_is_a_verification_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "_REFINE_LIMIT", 0)
        code = main(["verify", "--set", "cases=2", "--set", "dim=40"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_lost_unit_trace_is_a_verification_failure(self, monkeypatch, capsys):
        original = oracle._kick_cos_sin

        def leaky(alpha, dim):
            cos_w, sin_w, phases = original(alpha, dim)
            return cos_w, 1.01 * sin_w, phases

        monkeypatch.setattr(oracle, "_kick_cos_sin", leaky)
        # an evolution of its own for this run: the leaky one is made here, and not
        # held for a later caller of the same case
        monkeypatch.setattr(oracle, "_evolve", functools.lru_cache(maxsize=1)(oracle._evolve.__wrapped__))
        code = main(["verify", "--set", "cases=2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: evolution lost unit trace")

    def test_point_stdout(self, capsys):
        code = main(["point", "--set", "omega1=1", "--set", "omega2=3",
                     "--set", "tau1=0", "--set", "tau2=1.5",
                     "--set", "lambda1=100", "--set", "lambda2=1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("theta = ")

    def test_strong_coupling_point_is_finite(self, capsys):
        # 4 mu12 ~ 1013: exp(4 mu12) overflows, nu1 nu2 exp(+-4 mu12) does not
        code = main(["point", "--set", "omega1=1", "--set", "omega2=3",
                     "--set", "tau1=0", "--set", "tau2=0.01",
                     "--set", "lambda1=100", "--set", "lambda2=100"])
        out = capsys.readouterr().out
        assert code == 0
        entries = dict(line.split(" = ") for line in out.strip().split("\n"))
        assert math.isfinite(float(entries["w_ext"]))

    def test_imposed_population_on_degenerate_product(self, capsys):
        # at tau2 = 1e-8 with lambda1 = lambda2 the Gram bound is saturated and
        # theta ~ -pi gives nu1 nu2 alpha = 1; the imposed p still takes both kicks
        code = main(["point", "--set", "omega1=1", "--set", "omega2=314159265.35897932",
                     "--set", "tau1=0", "--set", "tau2=1e-8", "--set", "lambda1=5",
                     "--set", "lambda2=5", "--set", "initial_p=0.2"])
        out = capsys.readouterr().out
        assert code == 0
        entries = dict(line.split(" = ") for line in out.strip().split("\n"))
        assert entries["degenerate"] == "true"
        m = MomentSet(*(float(entries[key]) for key in ("nu1", "nu2", "e12", "mu12")))
        assert float(entries["p1"]) == p_after_first(0.2, m)
        assert float(entries["p1"]) == pytest.approx(0.41545637450988898, abs=1e-15)
        w_ext, heat = float(entries["w_ext"]), float(entries["q2"]) + float(entries["q4"])
        assert abs(w_ext - heat) <= 1e-12 * abs(w_ext)

    def test_underflowing_nu_is_a_validation_error(self, capsys):
        code = main(["point", "--set", "omega1=1", "--set", "omega2=3",
                     "--set", "tau1=0", "--set", "tau2=1.5",
                     "--set", "lambda1=122", "--set", "lambda2=1"])
        assert code == 1
        assert "nu1 must lie in (0, 1], got 0.0" in capsys.readouterr().err

    def test_strong_coupling_grid_is_finite(self, tmp_path):
        # the [0, 118]^2 corner at short separation, where |4 mu12| reaches ~1410
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "grid.csv"
        cfg.write_text(GRID_CFG.format(out=out))
        assert main(["sweep", "--config", str(cfg), "--set", "tau2=0.01",
                     "--set", "lambda1_start=0", "--set", "lambda1_stop=118",
                     "--set", "lambda1_count=60", "--set", "lambda2_start=0",
                     "--set", "lambda2_stop=118", "--set", "lambda2_count=60"]) == 0
        _, rows = _rows(out.read_text())
        assert len(rows) == 3600
        assert all(math.isfinite(float(v)) for row in rows for v in row[:3])

    def test_overflowing_separation_takes_the_far_limit(self, tmp_path, capsys):
        # tau2 - tau1 overflows at the last point: its moments take the limit
        # e12 = mu12 = 0, and the run prints no warning
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "curve.csv"
        cfg.write_text(FIG4A_CFG.format(out=out))
        assert main(["sweep", "--config", str(cfg), "--set", "omega1=1e-300",
                     "--set", "omega2=1e-300", "--set", "tau1=-1e308", "--set", "lambda1=1",
                     "--set", "lambda2=1", "--set", "tau2_start=1e307",
                     "--set", "tau2_stop=1e308", "--set", "tau2_count=3"]) == 0
        assert capsys.readouterr().err == ""
        header, rows = _rows(out.read_text())
        last = dict(zip(header, rows[-1]))
        assert (last["theta"], last["E12"], last["mu12"]) == ("-200000000", "0", "0")
        assert (last["w_ext_sigma"], last["pwc"]) == ("0", "false")

    def test_tau2_span_beyond_the_float_range(self, tmp_path, capsys):
        # tau2_stop - tau2_start overflows; the axis is still -9e307, 0, 9e307
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "curve.csv"
        cfg.write_text(FIG4A_CFG.format(out=out))
        assert main(["sweep", "--config", str(cfg), "--set", "omega1=1e-300",
                     "--set", "omega2=1e-300", "--set", "tau1=-1e308", "--set", "lambda1=1",
                     "--set", "lambda2=1", "--set", "tau2_start=-9e307",
                     "--set", "tau2_stop=9e307", "--set", "tau2_count=3"]) == 0
        assert capsys.readouterr().err == ""
        header, rows = _rows(out.read_text())
        assert [float(row[0]) for row in rows] == [-9e307, 0.0, 9e307]
        assert all(math.isfinite(float(cell)) for row in rows for cell in row[1:-1])

    def test_validation_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mode = curve-tau2\nlambda1 = -3\n")
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_config_with_a_byte_order_mark(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\ufeff" + FIG4A_CFG.format(out=tmp_path / "out.csv"), encoding="utf-8")
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == ""
        expected = run_sweep(parse_config(FIG4A_CFG.format(out="x.csv")))
        assert (tmp_path / "out.csv").read_text(encoding="utf-8") == expected

    def test_missing_config_is_io_error(self, capsys):
        assert main(["sweep", "--config", "/nope/missing.cfg"]) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FIG4A_CFG.format(out="/nope/missing/dir/out.csv"))
        assert main(["sweep", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("argv", [
        [], ["sweep"], ["bogus-command"],  # no command; sweep requires --config
        ["verify", "--config", "x"],  # sweep alone takes --config
    ])
    def test_usage_error_is_validation_error(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_help_exits_0_from_a_process(self):
        done = _cli_process(["point", "--he"])
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("usage: ottoqft point [-h] [--set KEY=VALUE]\n")


class _Rejected(Exception):
    pass


class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message):
        raise _Rejected(message)


def _reference_parser():
    """The argparse parser the command line was once built on, the reference of its
    grammar, with its help laid out for 80 columns as the command line lays it out."""
    def layout(prog):
        return argparse.HelpFormatter(prog, width=78)

    parser = _ReferenceParser(prog="ottoqft", description="Command-line front end.",
                              formatter_class=layout)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, set_help in [
        ("sweep", "evaluate a parameter grid and write CSV", "override one config key"),
        ("verify", "run the oracle cross-check suite",
         "override seed/cases/dim or a tol_<check> threshold"),
        ("point", "report a single cycle to stdout", "set one parameter (repeatable)"),
    ]:
        command = sub.add_parser(name, help=help_text, formatter_class=layout)
        if name == "sweep":
            command.add_argument("--config", required=True, help="path to a key=value config file")
        command.add_argument("--set", dest="sets", action="append", default=[],
                             metavar="KEY=VALUE", help=set_help)
    return parser


def _outcome(parse, argv):
    """("ok", command, sets, config), ("error", message) or ("help", status, text) of
    parse(argv)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            command, sets, config = parse(argv)
    except (ConfigError, _Rejected) as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "help", exc.code, out.getvalue()
    return "ok", command, sets, config


REFERENCE = _reference_parser()
# the words of the draw.  "-x y" is a value, as a word with a space is.  Left out: an
# ambiguous prefix ("--=x"), which argparse rejects ahead of an earlier -h, and the one
# pass after it; it is checked below where no -h comes first
WORDS = ["sweep", "verify", "point", "--set", "--config", "--set=k=v", "--config=p",
         "--s", "--se", "--c", "--con", "k=v", "seed=1", "-h", "--help", "--", "x", "-x", "-1",
         "", "-x y"]


@settings(max_examples=2000, deadline=None)
@given(st.lists(st.sampled_from(WORDS), max_size=5))
@example(["point", "--=x"])
@example(["sweep", "--config", "p", "--=x", "-h"])
def test_command_line_grammar_is_the_reference_grammar(argv):
    # the same command, --set values and --config where the reference accepts; the same
    # one-line error where it rejects; the same help text and status 0 where it prints help
    def reference(argv):
        args = REFERENCE.parse_args(argv)
        return args.command, args.sets, getattr(args, "config", None)

    assert _outcome(cli._parse, argv) == _outcome(reference, argv)
