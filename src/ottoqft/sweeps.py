"""Grid evaluation and CSV emission for the sweep front end.

A sweep of more than _CHUNK grid points runs on the array path
(minkowski_moment_arrays + cycle_arrays), _CHUNK points at a time; a smaller
one, and run_point, run the same kernel on one point of Python floats at a
time and never import NumPy.  The two paths give the same bits.  Rows are
emitted in grid order with 17 significant digits, so the text re-parses to
the exact binary values.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from .algebra import _POINT
from .config import SweepSpec
from .cycle import LedgerColumns, _cycle, cycle_arrays
from .minkowski import _moments, minkowski_moment_arrays

__all__ = ["run_sweep", "sweep_chunks", "run_point", "figure4a_curve", "on_arrays",
           "CURVE_COLUMNS", "GRID_COLUMNS"]

CURVE_COLUMNS = (
    "tau2_over_sigma", "theta", "nu1", "nu2", "E12", "mu12",
    "p_cyclic", "p1", "w_ext_sigma", "pwc",
)
GRID_COLUMNS = ("lambda1_over_sigma", "lambda2_over_sigma", "w_ext_sigma", "pwc")
# the LedgerColumns of which a curve row prints one cell each (nu1 and nu2 are
# the same in every row)
_CURVE_CELLS = ("theta", "e12", "mu12", "p", "p1", "w_ext", "pwc")

# grid points evaluated and rendered per chunk; a sweep of at most this many
# runs on Python floats
_CHUNK = 2048


def _render(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return format(value, ".17g")


def _texts(values: Sequence[float]) -> list[str]:
    # one axis cell each, with its comma
    return ["%.17g," % value for value in values]


def _render_rows(row: str, columns: Sequence[list], flags: list) -> str:
    # one format call for the whole chunk: the row repeated once per grid point, and
    # its cells flattened in row order; "%.17g" % x is format(x, ".17g"); flags is the pwc column
    words = ["true" if flag else "false" for flag in flags]
    return (row * len(words)) % tuple(itertools.chain.from_iterable(zip(*columns, words)))


def _cycles(omega1, omega2, tau1, tau2, lambda1, lambda2, initial_p=None) -> LedgerColumns:
    # the array path: one NumPy array per column
    import numpy as np

    tau2 = np.asarray(tau2, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing separation is infinite
        moments = minkowski_moment_arrays(lambda1, lambda2, tau2 - tau1)
    return cycle_arrays(omega1, omega2, tau1, tau2, *moments, initial_p)


def _point(omega1, omega2, tau1, tau2, lambda1, lambda2, initial_p=None) -> LedgerColumns:
    # the float path: one cycle of Python floats, with the array path's checks and bits
    moments = _moments(lambda1, lambda2, tau2 - tau1, _POINT)
    return _cycle(omega1, omega2, tau1, tau2, *moments, initial_p, _POINT)


def _points(omega1, omega2, tau1, tau2, lambda1, lambda2) -> LedgerColumns:
    # the float path over lists, one entry per point, and numbers shared by every point:
    # one list per column
    args = (a if isinstance(a, list) else itertools.repeat(a)
            for a in (omega1, omega2, tau1, tau2, lambda1, lambda2))
    return LedgerColumns._make(map(list, zip(*itertools.starmap(_point, zip(*args)))))


def on_arrays(spec: SweepSpec) -> bool:
    """Whether the sweep spec runs on NumPy arrays: it has more than _CHUNK grid points."""
    if spec.mode == "curve-tau2":
        return spec.tau2_axis.count > _CHUNK
    return spec.lambda1_axis.count * spec.lambda2_axis.count > _CHUNK


def _chunks(s: SweepSpec) -> Iterator[str]:
    """The CSV header, then the rows of _CHUNK grid points at a time in declared order."""
    curve = s.mode == "curve-tau2"
    arrays = on_arrays(s)
    yield ",".join(CURVE_COLUMNS if curve else GRID_COLUMNS) + "\n"
    if curve:
        points = s.tau2_axis.points()
        for _ in range(0, s.tau2_axis.count, _CHUNK):
            tau2 = list(itertools.islice(points, _CHUNK))
            if arrays:
                c = _cycles(s.omega1, s.omega2, s.tau1, tau2, s.lambda1, s.lambda2)
                c = c._replace(**{name: getattr(c, name).tolist() for name in _CURVE_CELLS})
            else:
                c = _points(s.omega1, s.omega2, s.tau1, tau2, s.lambda1, s.lambda2)
            # nu1 and nu2 follow the couplings alone: the same two cells in every row
            row = "%.17g,%.17g," + "%.17g,%.17g" % (c.nu1[0], c.nu2[0]) + ",%.17g" * 5 + ",%s\n"
            yield _render_rows(row, (tau2, c.theta, c.e12, c.mu12, c.p, c.p1, c.w_ext), c.pwc)
        return
    if not arrays:  # one chunk: the whole grid
        axis1, axis2 = (list(axis.points()) for axis in (s.lambda1_axis, s.lambda2_axis))
        c = _points(s.omega1, s.omega2, s.tau1, s.tau2,
                    [a for a in axis1 for _ in axis2], axis2 * len(axis1))
        yield _grid_rows(axis1, _texts(axis2), c.w_ext, c.pwc)
        return
    import numpy as np

    # a grid holds both float axes whole.  A chunk is a block of whole lambda1 rows, or
    # _CHUNK lambda2 values of one row where a row is longer: the kernel forms each
    # coupling's nu, and its log, once per block row or column.  A lambda2 axis no longer
    # than a chunk is formatted once, as every chunk uses it all
    axis1, axis2 = (np.fromiter(axis.points(), float) for axis in (s.lambda1_axis, s.lambda2_axis))
    rows, width = max(1, _CHUNK // axis2.size), min(axis2.size, _CHUNK)
    text2 = _texts(axis2.tolist()) if width == axis2.size else None
    for i in range(0, axis1.size, rows):
        for j in range(0, axis2.size, width):
            lambda1, lambda2 = axis1[i:i + rows], axis2[j:j + width]
            c = _cycles(s.omega1, s.omega2, s.tau1, s.tau2, lambda1[:, None], lambda2)
            yield _grid_rows(lambda1.tolist(), text2 or _texts(lambda2.tolist()),
                             c.w_ext.ravel().tolist(), c.pwc.ravel().tolist())


def _grid_rows(lambda1: list, text2: list, w_ext: list, pwc: list) -> str:
    # the rows of the block lambda1 x lambda2, row-major, given lambda2's cells
    column1 = [text for text in _texts(lambda1) for _ in text2]
    return _render_rows("%s%s%.17g,%s\n", (column1, text2 * len(lambda1), w_ext), pwc)


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
    A grid of at most _CHUNK points runs on Python floats, a longer one on
    NumPy arrays, with the same bits.
    """
    try:  # the rows of a 2-D grid are not numbers
        grid = [float(t) for t in tau2_grid] if getattr(tau2_grid, "ndim", 1) == 1 else None
    except TypeError:
        grid = None
    if grid is None or not (all(map(math.isfinite, grid))
                            and all(a < b for a, b in zip(grid, grid[1:]))):
        raise ValueError("tau2_grid must be a strictly increasing 1-D sequence of finite values")
    if grid and not grid[0] > tau1:
        raise ValueError(f"every tau2 must exceed tau1 = {tau1!r}")
    if len(grid) > _CHUNK:
        w_ext = _cycles(omega1, omega2, tau1, grid, lambda1, lambda2).w_ext.tolist()
    else:
        w_ext = _points(omega1, omega2, tau1, grid, lambda1, lambda2).w_ext
    return list(zip(grid, w_ext))


def run_point(spec: SweepSpec) -> str:
    """Single-cycle report as ``key = value`` lines, from the sweep's own kernel."""
    if spec.mode != "single-point":
        raise ValueError(f"run_point requires mode 'single-point', got {spec.mode!r}")
    c = _point(spec.omega1, spec.omega2, spec.tau1, spec.tau2, spec.lambda1, spec.lambda2,
               spec.initial_p)
    return "".join(f"{key} = {_render(value)}\n" for key, value in zip(c._fields, c)
                   if not (isinstance(value, float) and math.isnan(value)))  # NaN: absent
