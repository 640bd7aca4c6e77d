"""Four-stroke Otto bookkeeping for a qubit kicked twice through a field.

Strokes: adiabatic gap expansion (work w1), first kick (heat q2), adiabatic
gap contraction (work w3), second kick (heat q4).  Closing the cycle fixes
the initial excited-state population; the net output is then a closed-form
function of the moment data alone.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Optional

import numpy as np

from .algebra import _CLOSURE_TOL, _DEGENERACY_TOL, _POINT
from .algebra import MomentSet, _population_columns, _raise_first_failure
from .record import Record

__all__ = [
    "InteractionEvent",
    "CycleConfig",
    "WorkReport",
    "DegenerateCycleError",
    "theta",
    "cyclic_initial_population",
    "extracted_work",
    "positive_work_condition",
    "stroke_ledger",
    "LedgerColumns",
    "cycle_arrays",
    "ledger_arrays",
]


class DegenerateCycleError(ArithmeticError):
    """The two kicks leave the qubit ensemble untouched (nu1*nu2*alpha = 1).

    Callers must treat the cycle as a no-op with zero extracted work.
    """


class InteractionEvent(Record):
    """One instantaneous kick: proper time, gap at the kick, coupling.

    All values are expressed in units of the smearing width (tau in sigma,
    gap in 1/sigma, coupling in sigma).  The ledger does not read coupling:
    the MomentSet of the cycle carries it.
    """

    tau: float
    gap: float
    coupling: float = 0.0

    def __post_init__(self) -> None:
        if not self.gap > 0.0:
            raise ValueError(f"gap must be > 0, got {self.gap!r}")
        if not self.coupling >= 0.0:
            raise ValueError(f"coupling must be >= 0, got {self.coupling!r}")


class CycleConfig(Record):
    """Two ordered kicks plus an optional externally imposed initial population.

    The second kick must be strictly later than the first.  When initial_p
    is omitted the closure condition determines it.
    """

    first: InteractionEvent
    second: InteractionEvent
    initial_p: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.second.tau > self.first.tau:
            raise ValueError(
                f"second kick must be later than the first "
                f"(tau2 = {self.second.tau!r} <= tau1 = {self.first.tau!r})"
            )
        if self.initial_p is not None and not 0.0 <= self.initial_p <= 1.0:
            raise ValueError(f"initial_p must lie in [0, 1], got {self.initial_p!r}")


class WorkReport(Record):
    """Per-stroke ledger of one cycle.

    w_ext and efficiency are None when the cycle does not close (an imposed
    initial_p whose final population differs from it), efficiency also where
    the population work (p1 - p) (gap1 - gap2) over q2 is undefined or
    overflows; pwc flags net work output.
    """

    p: float
    p1: float
    p2: float
    w1: float
    w3: float
    q2: float
    q4: float
    w_ext: Optional[float]
    q_total: float
    efficiency: Optional[float]
    pwc: bool
    degenerate: bool
    closed: bool


def theta(config: CycleConfig) -> float:
    """Monopole phase difference gap1 * tau1 - gap2 * tau2 between the kicks."""
    return config.first.gap * config.first.tau - config.second.gap * config.second.tau


def cyclic_initial_population(m: MomentSet, theta: float) -> float:
    """The unique initial population p with p_after_second(p) = p.

    Raises DegenerateCycleError when nu1*nu2*alpha is within 1e-12 of 1,
    i.e. when the kicks act trivially and every p is a fixed point.
    """
    c, checks = _population_columns(m.nu1, m.nu2, m.e12, m.mu12, theta, xp=_POINT)
    _raise_first_failure(checks)
    if c.degenerate:
        raise DegenerateCycleError(f"nu1*nu2*alpha = {c.product!r} is within {_DEGENERACY_TOL} of 1")
    return c.p


def extracted_work(m: MomentSet, theta: float, delta_omega: float) -> float:
    """Net work output of the closed cycle, (p1 - p) * delta_omega in closed form.

    delta_omega = gap1 - gap2 with its literal sign.  A degenerate cycle returns exactly 0,
    as does any with e12 = 0: without signal exchange between the kicks no work is extracted.
    Raises ValueError on a non-finite delta_omega, then contraction_factor's input checks.
    """
    if not math.isfinite(delta_omega):
        raise ValueError(f"delta_omega must be finite, got {delta_omega!r}")
    # only the input checks raise (phase, bound): a closure p off [0, 1] has its work
    c, checks = _population_columns(m.nu1, m.nu2, m.e12, m.mu12, theta, xp=_POINT)
    _raise_first_failure(checks[:2])
    return _closed_form_work(c, m.nu1, delta_omega)


def _closed_form_work(c, nu1, delta_omega):
    """The paper's closed form signal (1 - nu1) delta_omega / (product - 1) of
    closed cycles, from their population columns c: 0 on a degenerate one."""
    return c.signal * (1.0 - nu1) * delta_omega / -c.gap + 0.0  # + 0.0 prints -0 as 0


def positive_work_condition(m: MomentSet, theta: float) -> bool:
    """True iff sin(2 e12) sin(theta) < 0 and nu1 < 1.

    Stated for the gap convention delta_omega > 0; for delta_omega < 0 the sign of the
    extracted work flips (the WorkReport pwc flag has the literal sign).  Evaluated with
    math.sin: a NaN theta gives False, an infinite one raises ValueError("math domain error").
    """
    return math.sin(2.0 * m.e12) * math.sin(theta) < 0.0 and m.nu1 < 1.0


def stroke_ledger(config: CycleConfig, m: MomentSet) -> WorkReport:
    """Populate the full per-stroke ledger for one cycle.

    With initial_p unset the closure condition fixes p and the report always
    describes a closed cycle.  With initial_p imposed the final population
    may differ from it; the report then flags the cycle as non-closed and
    omits w_ext (per-stroke entries remain valid).
    """
    c = _ledger(theta(config), config.first.gap, config.second.gap,
                m.nu1, m.nu2, m.e12, m.mu12, config.initial_p, _POINT)
    values = {name: getattr(c, name) for name in WorkReport._fields}
    for name in ("w_ext", "efficiency"):  # NaN marks an absent entry
        if math.isnan(values[name]):
            values[name] = None
    return WorkReport(*values.values())


# ledger of many cycles: one array per column, the columns broadcast together;
# w_ext is NaN where the cycle does not close, efficiency where undefined or overflowing
LedgerColumns = namedtuple(
    "LedgerColumns",
    "theta nu1 nu2 e12 mu12 p p1 p2 w1 w3 q2 q4 q_total w_ext efficiency pwc degenerate closed",
)


def cycle_arrays(omega1, omega2, tau1, tau2, nu1, nu2, e12, mu12, initial_p=None) -> LedgerColumns:
    """stroke_ledger over broadcastable arrays: the one implementation of the
    cycle, which the scalar functions wrap.

    Checks, in order: the MomentSet checks, gap > 0, tau2 > tau1 and an
    imposed initial_p in [0, 1], then the population checks, from a finite
    theta on.  The first failing point in C order raises the first check it
    fails, with the message the scalar API gives for it.
    """
    args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (
        omega1, omega2, tau1, tau2, nu1, nu2, e12, mu12)))
    omega1, omega2, tau1, tau2, nu1, nu2, e12, mu12 = args
    with np.errstate(all="ignore"):  # failing points raise, after every check is made
        th = omega1 * tau1 - omega2 * tau2
        kicks_ok = (omega1 > 0.0) & (omega2 > 0.0) & (tau2 > tau1)
        if initial_p is not None:
            initial_p = np.asarray(initial_p, dtype=float)
            kicks_ok = kicks_ok & (0.0 <= initial_p) & (initial_p <= 1.0)
        checks = [
            (np.isfinite(e12) & np.isfinite(mu12) & (0.0 < nu1) & (nu1 <= 1.0)
             & (0.0 < nu2) & (nu2 <= 1.0),
             lambda at: MomentSet(at(nu1), at(nu2), at(e12), at(mu12))),
            (kicks_ok, lambda at: CycleConfig(
                InteractionEvent(at(tau1), at(omega1)), InteractionEvent(at(tau2), at(omega2)),
                None if initial_p is None else at(initial_p))),
        ]
        return _ledger(th, omega1, omega2, nu1, nu2, e12, mu12, initial_p, np, checks)


def ledger_arrays(theta, omega1, omega2, nu1, nu2, e12, mu12) -> LedgerColumns:
    """The ledger of cycles given their phase difference theta, over broadcastable
    arrays, with the population checks of cycle_arrays (a finite theta first)."""
    with np.errstate(all="ignore"):  # failing points raise, after every check is made
        return _ledger(theta, omega1, omega2, nu1, nu2, e12, mu12, None)


def _ledger(theta, omega1, omega2, nu1, nu2, e12, mu12, p, xp=np, checks=()) -> LedgerColumns:
    """Populations, then the strokes, once the caller's checks and the
    population checks pass.  The no-op row of a degenerate closed cycle has
    p = p1 = p2 = 1/2 and zero work and heat in every stroke.  w_ext of a
    cycle the closure condition closes is the paper's closed form, which
    keeps a signal below the float spacing at 1/2; efficiency is the
    population work (p1 - p) delta_omega over q2."""
    closure = p is None
    c, population_checks = _population_columns(nu1, nu2, e12, mu12, theta, p, xp)
    _raise_first_failure([*checks, *population_checks])
    p, p1, p2 = c.p, c.p1, c.p2
    noop = c.degenerate & closure
    delta_omega = omega1 - omega2
    work = (p1 - p) * delta_omega
    closed = closure | (xp.abs(p2 - p) <= _CLOSURE_TOL)
    q2 = omega1 * (p1 - p)
    q4 = omega2 * (p2 - p1)
    if closure:
        w_ext = _closed_form_work(c, nu1, delta_omega)
    else:
        w_ext = xp.where(closed, work + 0.0, xp.nan)  # + 0.0 prints -0 as 0
    ratio = work / xp.where(closed & (q2 != 0.0), q2, xp.nan)
    efficiency = xp.where(xp.abs(ratio) < math.inf, ratio, xp.nan)  # overflow: absent
    return LedgerColumns(
        theta, nu1, nu2, e12, mu12, p, p1, p2,
        xp.where(noop, 0.0, p * delta_omega + 0.0), xp.where(noop, 0.0, -p1 * delta_omega + 0.0),
        q2, q4, q2 + q4, w_ext, efficiency, w_ext > 0.0, c.degenerate, closed,
    )
