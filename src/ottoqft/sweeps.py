"""Grid evaluation and CSV emission for the sweep front end.

Sweeps run on the array path (minkowski_moment_arrays + cycle_arrays), a
fixed-size chunk of grid points at a time, and emit rows in grid order with
17 significant digits, so the text re-parses to the exact binary values.
run_point evaluates its one cycle through the same two calls.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from .config import SweepSpec
from .cycle import cycle_arrays
from .minkowski import minkowski_moment_arrays

__all__ = ["run_sweep", "sweep_chunks", "run_point", "figure4a_curve",
           "CURVE_COLUMNS", "GRID_COLUMNS"]

CURVE_COLUMNS = (
    "tau2_over_sigma", "theta", "nu1", "nu2", "E12", "mu12",
    "p_cyclic", "p1", "w_ext_sigma", "pwc",
)
GRID_COLUMNS = ("lambda1_over_sigma", "lambda2_over_sigma", "w_ext_sigma", "pwc")

# grid points evaluated and rendered per chunk
_CHUNK = 2048


def _render(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return format(value, ".17g")


def _texts(values: np.ndarray) -> list[str]:
    # one axis cell each, with its comma
    return ["%.17g," % value for value in values.tolist()]


def _render_rows(row: str, columns: Sequence[list], flags: np.ndarray) -> str:
    # one format call for the whole chunk: the row repeated once per grid point, and
    # its cells flattened in row order; "%.17g" % x is format(x, ".17g"); flags is the pwc column
    words = np.where(flags, "true", "false").tolist()
    return (row * len(words)) % tuple(itertools.chain.from_iterable(zip(*columns, words)))


def _cycles(omega1, omega2, tau1, tau2, lambda1, lambda2, initial_p=None):
    with np.errstate(over="ignore"):  # an overflowing separation is infinite
        moments = minkowski_moment_arrays(lambda1, lambda2, tau2 - tau1)
    return cycle_arrays(omega1, omega2, tau1, tau2, *moments, initial_p)


def _chunks(s: SweepSpec) -> Iterator[str]:
    """The CSV header, then the rows of _CHUNK grid points at a time in declared order."""
    curve = s.mode == "curve-tau2"
    yield ",".join(CURVE_COLUMNS if curve else GRID_COLUMNS) + "\n"
    if curve:
        points = s.tau2_axis.points()
        for _ in range(0, s.tau2_axis.count, _CHUNK):
            tau2 = np.fromiter(itertools.islice(points, _CHUNK), float)
            c = _cycles(s.omega1, s.omega2, s.tau1, tau2, s.lambda1, s.lambda2)
            # nu1 and nu2 follow the couplings alone: the same two cells in every row
            row = "%.17g,%.17g," + "%.17g,%.17g" % (c.nu1[0], c.nu2[0]) + ",%.17g" * 5 + ",%s\n"
            columns = (tau2, c.theta, c.e12, c.mu12, c.p, c.p1, c.w_ext)
            yield _render_rows(row, [column.tolist() for column in columns], c.pwc)
        return
    # a grid holds both float axes whole, and a chunk formats only the axis values its rows
    # use; a lambda2 axis no longer than a chunk is formatted once, as every chunk uses it all
    axis1, axis2 = (np.fromiter(axis.points(), float) for axis in (s.lambda1_axis, s.lambda2_axis))
    text2 = _texts(axis2) if axis2.size <= _CHUNK else None
    for start in range(0, axis1.size * axis2.size, _CHUNK):
        # row-major: lambda1 is the outer axis, so i is a run of consecutive indices
        i, j = divmod(np.arange(start, min(start + _CHUNK, axis1.size * axis2.size)), axis2.size)
        c = _cycles(s.omega1, s.omega2, s.tau1, s.tau2, axis1[i], axis2[j])
        text1 = _texts(axis1[i[0]:i[-1] + 1])
        column1 = [text1[k] for k in (i - i[0]).tolist()]
        column2 = _texts(axis2[j]) if text2 is None else [text2[k] for k in j.tolist()]
        yield _render_rows("%s%s%.17g,%s\n", (column1, column2, c.w_ext.tolist()), c.pwc)


def sweep_chunks(spec: SweepSpec) -> Iterator[str]:
    """The CSV document of run_sweep as text chunks.  A mode that is not a
    sweep raises ValueError here, before any chunk is asked for."""
    if spec.mode not in ("curve-tau2", "grid-couplings"):
        raise ValueError(f"sweep requires mode curve-tau2 or grid-couplings, got {spec.mode!r}")
    return _chunks(spec)


def run_sweep(spec: SweepSpec) -> str:
    """Evaluate the grid described by spec and return the CSV document."""
    return "".join(sweep_chunks(spec))


def figure4a_curve(
    omega1: float,
    omega2: float,
    tau1: float,
    lambda1: float,
    lambda2: float,
    tau2_grid: Sequence[float],
) -> list[tuple[float, float]]:
    """Extracted work (in units of 1/sigma) against the second kick time.

    Evaluates the closed Minkowski-vacuum cycle at each tau2 of a strictly
    increasing grid with tau2 > tau1 throughout; degenerate points yield 0.
    """
    grid = np.asarray(tau2_grid, dtype=float)
    if grid.ndim != 1 or not (np.isfinite(grid).all() and (grid[1:] > grid[:-1]).all()):
        raise ValueError("tau2_grid must be a strictly increasing 1-D sequence of finite values")
    if grid.size and grid[0] <= tau1:
        raise ValueError(f"every tau2 must exceed tau1 = {tau1!r}")
    w_ext = _cycles(omega1, omega2, tau1, grid, lambda1, lambda2).w_ext
    return list(zip(grid.tolist(), w_ext.tolist()))


def run_point(spec: SweepSpec) -> str:
    """Single-cycle report as ``key = value`` lines, from the sweep's own kernel."""
    if spec.mode != "single-point":
        raise ValueError(f"run_point requires mode 'single-point', got {spec.mode!r}")
    c = _cycles(spec.omega1, spec.omega2, spec.tau1, spec.tau2, spec.lambda1, spec.lambda2,
                spec.initial_p)
    pairs = [(key, column.item()) for key, column in zip(c._fields, c)]
    return "".join(f"{key} = {_render(value)}\n" for key, value in pairs
                   if not (isinstance(value, float) and math.isnan(value)))  # NaN: absent
