"""Grid evaluation and CSV emission for the sweep front end.

Sweeps, figure4a_curve and run_point evaluate the kernel through one
function, _evaluate (the moments, then the cycle), and choose its namespace
in one, _chunk: a sweep of more than _CHUNK grid points runs on NumPy arrays,
one call per chunk of _CHUNK points; a smaller one, and run_point, on Python
floats, one call per point, and never import NumPy.  The two paths give the
same bits.  A grid holds its axes as array("d"), 8 bytes a value, on both.
Rows are emitted in grid order with 17 significant digits, so the text
re-parses to the exact binary values.
"""

from __future__ import annotations

import itertools
import math
from array import array
from typing import Iterator, Sequence

from .algebra import _POINT, _on_arrays
from .config import SweepSpec
from .cycle import LedgerColumns, _cycle
from .minkowski import _moments

__all__ = ["run_sweep", "sweep_chunks", "run_point", "figure4a_curve",
           "CURVE_COLUMNS", "GRID_COLUMNS"]

CURVE_COLUMNS = (
    "tau2_over_sigma", "theta", "nu1", "nu2", "E12", "mu12",
    "p_cyclic", "p1", "w_ext_sigma", "pwc",
)
GRID_COLUMNS = ("lambda1_over_sigma", "lambda2_over_sigma", "w_ext_sigma", "pwc")
# the LedgerColumns a curve row prints; nu1 and nu2 are the same in every row
_CURVE_CELLS = ("nu1", "nu2", "theta", "e12", "mu12", "p", "p1", "w_ext", "pwc")

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


def _evaluate(omega1, omega2, tau1, tau2, lambda1, lambda2, initial_p, xp) -> LedgerColumns:
    # the one kernel call: the moments, then the cycle, on one point of Python floats
    # (xp = _POINT) or on arrays (through _on_arrays)
    moments = _moments(lambda1, lambda2, tau2 - tau1, xp)
    return _cycle(omega1, omega2, tau1, tau2, *moments, initial_p, xp)


def _chunk(on_arrays, fields, omega1, omega2, tau1, tau2, lambda1, lambda2, initial_p=None) -> list:
    """The LedgerColumns fields named in fields, a list each, of one chunk of a sweep.
    Each of tau2, lambda1 and lambda2 is a number or an array("d") axis, and the chunk
    is the grid of its axes in row-major order.  The one switch between the paths: a
    sweep of more than _CHUNK points (on_arrays) runs on NumPy arrays, one kernel call a
    chunk; a smaller one on Python floats, one a point."""
    indices = [LedgerColumns._fields.index(name) for name in fields]
    varied = (tau2, lambda1, lambda2)
    if not on_arrays:
        points = [_evaluate(omega1, omega2, tau1, *point, initial_p, _POINT) for point in
                  itertools.product(*(v if isinstance(v, array) else (v,) for v in varied))]
        return [[point[i] for point in points] for i in indices]
    import numpy as np

    axes = [v for v in varied if isinstance(v, array)]
    mesh = iter(np.ix_(*axes))  # each axis on a dimension of its own, in grid order
    c = _on_arrays(_evaluate, omega1, omega2, tau1,
                   *(next(mesh) if isinstance(v, array) else v for v in varied), initial_p)
    shape = tuple(map(len, axes))  # a column of one value (a curve's nu1, nu2) is repeated
    return [[c[i]] * math.prod(shape) if np.ndim(c[i]) == 0
            else np.broadcast_to(c[i], shape).ravel().tolist() for i in indices]


def _curve(on_arrays, tau2_points, fields, omega1, omega2, tau1, lambda1, lambda2):
    """(tau2, columns) of each chunk of a curve in order: tau2 the array("d") of the
    next _CHUNK of the tau2_points, columns its _chunk fields on the path on_arrays names."""
    points = iter(tau2_points)
    while tau2 := array("d", itertools.islice(points, _CHUNK)):
        yield tau2, _chunk(on_arrays, fields, omega1, omega2, tau1, tau2, lambda1, lambda2)


def _layout(s: SweepSpec) -> tuple[int, int, int, int]:
    """(rows, width, columns, count): a chunk is rows lambda1 rows by width lambda2 values,
    or width tau2 values of a curve's one row; a row spans columns chunks, and the sweep
    has count, more than one on arrays.  A mode that is not a sweep raises ValueError."""
    if s.mode not in ("curve-tau2", "grid-couplings"):
        raise ValueError(f"sweep requires mode curve-tau2 or grid-couplings, got {s.mode!r}")
    n1, n2 = ((1, s.tau2_axis.count) if s.mode == "curve-tau2"
              else (s.lambda1_axis.count, s.lambda2_axis.count))
    rows, width = max(1, _CHUNK // n2), min(n2, _CHUNK)
    columns = -(-n2 // width)
    return rows, width, columns, -(-n1 // rows) * columns


def _chunks(s: SweepSpec, part: int = 0, parts: int = 1) -> Iterator[str]:
    """Chunks part * count // parts to (part + 1) * count // parts of the CSV document in
    declared order, after the header in part 0, each on the path the whole sweep's chunk
    count selects: parts 0 to parts - 1 join to the one-part document byte for byte."""
    rows, width, columns, count = _layout(s)
    first, stop = part * count // parts, (part + 1) * count // parts
    if part == 0:
        yield ",".join(CURVE_COLUMNS if s.mode == "curve-tau2" else GRID_COLUMNS) + "\n"
    if s.mode == "curve-tau2":
        # the axis generator skipped once to the part's first tau2: never held whole
        points = itertools.islice(s.tau2_axis.points(), first * width, stop * width)
        for tau2, (nu1, nu2, *cells, pwc) in _curve(count > 1, points, _CURVE_CELLS, s.omega1,
                                                    s.omega2, s.tau1, s.lambda1, s.lambda2):
            # nu1 and nu2 follow the couplings alone: the same two cells in every row
            row = "%.17g,%.17g," + "%.17g,%.17g" % (nu1[0], nu2[0]) + ",%.17g" * 5 + ",%s\n"
            yield _render_rows(row, (tau2, *cells), pwc)
        return
    # a grid holds both axes whole, 8 bytes a value: on arrays the kernel forms each
    # coupling's nu, and its mantissa and exponent, once per block row or column.  A
    # lambda2 axis no longer than a chunk is formatted once, as every chunk uses it all
    axis1, axis2 = (array("d", axis.points()) for axis in (s.lambda1_axis, s.lambda2_axis))
    text2 = _texts(axis2) if width == len(axis2) else None
    for chunk in range(first, stop):
        i, j = divmod(chunk, columns)
        lambda1, lambda2 = axis1[i * rows:(i + 1) * rows], axis2[j * width:(j + 1) * width]
        w_ext, pwc = _chunk(count > 1, ("w_ext", "pwc"), s.omega1, s.omega2, s.tau1, s.tau2,
                            lambda1, lambda2)
        # the rows of the block lambda1 x lambda2, row-major
        cells2 = text2 or _texts(lambda2)
        column1 = [text for text in _texts(lambda1) for _ in cells2]
        yield _render_rows("%s%s%.17g,%s\n", (column1, cells2 * len(lambda1), w_ext), pwc)


def sweep_chunks(spec: SweepSpec) -> Iterator[str]:
    """The CSV document of run_sweep as text chunks.  A mode that is not a
    sweep raises ValueError here, before any chunk is asked for."""
    _layout(spec)  # rejects a mode that is not a sweep
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
    NumPy arrays, a chunk at a time, with the same bits.
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
    curve = []
    for _, (w_ext,) in _curve(len(grid) > _CHUNK, grid, ("w_ext",), omega1, omega2, tau1,
                              lambda1, lambda2):
        curve.extend(zip(grid[len(curve):len(curve) + len(w_ext)], w_ext))
    return curve


def run_point(spec: SweepSpec) -> str:
    """Single-cycle report as ``key = value`` lines, from the sweep's own kernel."""
    if spec.mode != "single-point":
        raise ValueError(f"run_point requires mode 'single-point', got {spec.mode!r}")
    c = _chunk(False, LedgerColumns._fields, spec.omega1, spec.omega2, spec.tau1, spec.tau2,
               spec.lambda1, spec.lambda2, spec.initial_p)
    return "".join(f"{key} = {_render(value)}\n" for key, (value,) in zip(LedgerColumns._fields, c)
                   if not (isinstance(value, float) and math.isnan(value)))  # NaN: absent
