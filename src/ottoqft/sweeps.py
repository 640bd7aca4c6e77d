"""Grid evaluation and CSV emission for the sweep front end.

Sweeps run on the array path (minkowski_moment_arrays + cycle_arrays), a
fixed-size chunk of grid points at a time, and emit rows in grid order with
17 significant digits, so the text re-parses to the exact binary values.
run_point evaluates its one cycle through the same two calls.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .config import SweepSpec
from .cycle import cycle_arrays
from .minkowski import minkowski_moment_arrays

__all__ = ["run_sweep", "run_point", "figure4a_curve", "CURVE_COLUMNS", "GRID_COLUMNS"]

CURVE_COLUMNS = (
    "tau2_over_sigma", "theta", "nu1", "nu2", "E12", "mu12",
    "p_cyclic", "p1", "w_ext_sigma", "pwc",
)
GRID_COLUMNS = ("lambda1_over_sigma", "lambda2_over_sigma", "w_ext_sigma", "pwc")

# grid points evaluated and rendered per chunk
_CHUNK = 4096


def _render(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return format(value, ".17g")


def _render_rows(columns: Sequence[np.ndarray]) -> str:
    # "%.17g" % x is format(x, ".17g"); the last column is the pwc flag
    *numbers, flags = columns
    row = ",".join(["%.17g"] * len(numbers)) + ",%s\n"
    words = np.where(flags, "true", "false").tolist()
    return "".join(row % values for values in zip(*(c.tolist() for c in numbers), words))


def _cycles(omega1, omega2, tau1, tau2, lambda1, lambda2, initial_p=None):
    moments = minkowski_moment_arrays(lambda1, lambda2, tau2 - tau1)
    return cycle_arrays(omega1, omega2, tau1, tau2, *moments, initial_p)


def _chunks(s: SweepSpec) -> Iterator[tuple]:
    """CSV columns of the grid points in declared order, _CHUNK points at a time."""
    if s.mode == "curve-tau2":
        axis = np.asarray(s.tau2_axis.points())
        for start in range(0, axis.size, _CHUNK):
            tau2 = axis[start:start + _CHUNK]
            c = _cycles(s.omega1, s.omega2, s.tau1, tau2, s.lambda1, s.lambda2)
            yield tau2, c.theta, c.nu1, c.nu2, c.e12, c.mu12, c.p, c.p1, c.w_ext, c.pwc
        return
    axis1, axis2 = np.asarray(s.lambda1_axis.points()), np.asarray(s.lambda2_axis.points())
    for start in range(0, axis1.size * axis2.size, _CHUNK):
        # row-major: lambda1 is the outer axis
        flat = np.arange(start, min(start + _CHUNK, axis1.size * axis2.size))
        lambda1, lambda2 = axis1[flat // axis2.size], axis2[flat % axis2.size]
        c = _cycles(s.omega1, s.omega2, s.tau1, s.tau2, lambda1, lambda2)
        yield lambda1, lambda2, c.w_ext, c.pwc


def run_sweep(spec: SweepSpec) -> str:
    """Evaluate the grid described by spec and return the CSV document."""
    headers = {"curve-tau2": CURVE_COLUMNS, "grid-couplings": GRID_COLUMNS}
    if spec.mode not in headers:
        raise ValueError(f"sweep requires mode curve-tau2 or grid-couplings, got {spec.mode!r}")
    return ",".join(headers[spec.mode]) + "\n" + "".join(map(_render_rows, _chunks(spec)))


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
    if (grid[1:] <= grid[:-1]).any():
        raise ValueError("tau2_grid must be strictly increasing")
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
    pairs = [(key, getattr(c, key).item()) for key in c._fields if key != "product"]
    return "".join(f"{key} = {_render(value)}\n" for key, value in pairs
                   if not (isinstance(value, float) and math.isnan(value)))  # NaN: absent
