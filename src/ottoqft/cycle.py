"""Four-stroke Otto bookkeeping for a qubit kicked twice through a field.

Strokes: adiabatic gap expansion (work w1), first kick (heat q2), adiabatic
gap contraction (work w3), second kick (heat q4).  Closing the cycle fixes
the initial excited-state population; the net output is then a closed-form
function of the moment data alone.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import _LOG_BOUND_MAX, _SIMPLEX_TOL
from .algebra import (
    KernelInconsistencyError,
    MomentSet,
    contraction_factor,
    p_after_first,
    p_after_second,
)

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
]

# below this distance of nu1*nu2*alpha from 1 the cycle transfers nothing
# and the fixed-point formula divides by ~0; treat as a no-op instead
_DEGENERACY_TOL = 1e-12
_CLOSURE_TOL = 1e-12


class DegenerateCycleError(ArithmeticError):
    """The two kicks leave the qubit ensemble untouched (nu1*nu2*alpha = 1).

    Callers must treat the cycle as a no-op with zero extracted work.
    """


@dataclass(frozen=True)
class InteractionEvent:
    """One instantaneous kick: proper time, gap at the kick, coupling.

    All values are expressed in units of the smearing width (tau in sigma,
    gap in 1/sigma, coupling in sigma).
    """

    tau: float
    gap: float
    coupling: float = 0.0

    def __post_init__(self) -> None:
        if not self.gap > 0.0:
            raise ValueError(f"gap must be > 0, got {self.gap!r}")
        if self.coupling < 0.0:
            raise ValueError(f"coupling must be >= 0, got {self.coupling!r}")


@dataclass(frozen=True)
class CycleConfig:
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


@dataclass(frozen=True)
class WorkReport:
    """Per-stroke ledger of one cycle.

    w_ext and efficiency are None when the cycle does not close (an imposed
    initial_p whose final population differs from it); pwc records whether
    the closed cycle outputs net work.
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
    product = contraction_factor(m, theta)
    if 1.0 - product < _DEGENERACY_TOL:
        raise DegenerateCycleError(
            f"nu1*nu2*alpha = {product!r} is within {_DEGENERACY_TOL} of 1"
        )
    signal = 0.5 * m.nu2 * math.sin(2.0 * m.e12) * math.sin(theta)
    p = 0.5 - signal / (product - 1.0)
    if p < -_CLOSURE_TOL or p > 1.0 + _CLOSURE_TOL:
        raise KernelInconsistencyError(
            f"closure population {p!r} falls outside [0, 1]; "
            "the moment data is not realizable by a quasi-free state"
        )
    return min(max(p, 0.0), 1.0)


def extracted_work(m: MomentSet, theta: float, delta_omega: float) -> float:
    """Net work output of the closed cycle, (p1 - p) * delta_omega in closed form.

    delta_omega = gap1 - gap2 with its literal sign.  A degenerate cycle
    returns exactly 0.  The value is 0 whenever e12 = 0: without signal
    exchange between the kicks no work can be extracted.
    """
    if not math.isfinite(delta_omega):
        raise ValueError(f"delta_omega must be finite, got {delta_omega!r}")
    product = contraction_factor(m, theta)
    if 1.0 - product < _DEGENERACY_TOL:
        return 0.0
    numerator = 0.5 * m.nu2 * math.sin(2.0 * m.e12) * math.sin(theta) * (1.0 - m.nu1)
    return numerator * delta_omega / (product - 1.0) + 0.0  # + 0.0 prints -0 as 0


def positive_work_condition(m: MomentSet, theta: float) -> bool:
    """True iff sin(2 e12) sin(theta) < 0 and nu1 < 1.

    Stated for the gap convention delta_omega > 0; for delta_omega < 0 the
    sign of the extracted work flips (use the WorkReport pwc flag for the
    literal sign of the output).
    """
    return math.sin(2.0 * m.e12) * math.sin(theta) < 0.0 and m.nu1 < 1.0


def _noop_report(p: float) -> WorkReport:
    return WorkReport(
        p=p, p1=p, p2=p,
        w1=0.0, w3=0.0, q2=0.0, q4=0.0,
        w_ext=0.0, q_total=0.0, efficiency=None,
        pwc=False, degenerate=True, closed=True,
    )


def stroke_ledger(config: CycleConfig, m: MomentSet) -> WorkReport:
    """Populate the full per-stroke ledger for one cycle.

    With initial_p unset the closure condition fixes p and the report always
    describes a closed cycle.  With initial_p imposed the final population
    may differ from it; the report then flags the cycle as non-closed and
    omits w_ext (per-stroke entries remain valid).
    """
    th = theta(config)
    omega1 = config.first.gap
    omega2 = config.second.gap
    delta_omega = omega1 - omega2

    if config.initial_p is None:
        try:
            p = cyclic_initial_population(m, th)
        except DegenerateCycleError:
            return _noop_report(0.5)
        closed = True
    else:
        p = config.initial_p
        product = contraction_factor(m, th)
        if 1.0 - product < _DEGENERACY_TOL:
            return _noop_report(p)
        closed = False  # re-decided below once p2 is known

    p1 = p_after_first(p, m)
    p2 = p_after_second(p, m, th)
    if config.initial_p is not None:
        closed = abs(p2 - p) <= _CLOSURE_TOL

    w1 = p * delta_omega
    w3 = -p1 * delta_omega
    q2 = omega1 * (p1 - p)
    q4 = omega2 * (p2 - p1)
    work = (p1 - p) * delta_omega
    w_ext: Optional[float] = work + 0.0 if closed else None  # + 0.0 prints -0 as 0
    efficiency: Optional[float] = None
    if closed and q2 != 0.0:
        efficiency = work / q2
    return WorkReport(
        p=p, p1=p1, p2=p2,
        w1=w1, w3=w3, q2=q2, q4=q4,
        w_ext=w_ext, q_total=q2 + q4, efficiency=efficiency,
        pwc=bool(w_ext is not None and w_ext > 0.0),
        degenerate=False, closed=closed,
    )


# closed-cycle ledger of many cycles: one array per column, all of one shape
LedgerColumns = namedtuple("LedgerColumns", "theta nu1 nu2 e12 mu12 p p1 w_ext pwc")


def cycle_arrays(omega1, omega2, tau1, tau2, nu1, nu2, e12, mu12) -> LedgerColumns:
    """stroke_ledger of closed cycles over broadcastable arrays, by the same
    formulas in the same order.  Degenerate points give the no-op row.

    Every check of the scalar path is made on every point; if any fails, the
    first failing point in C order goes to stroke_ledger, which raises that
    check's own exception.
    """
    args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (
        omega1, omega2, tau1, tau2, nu1, nu2, e12, mu12)))
    omega1, omega2, tau1, tau2, nu1, nu2, e12, mu12 = args
    th = omega1 * tau1 - omega2 * tau2
    with np.errstate(all="ignore"):  # failing points are flagged below, not warned about
        log_nn = np.log(nu1) + np.log(nu2)
        arg = 4.0 * mu12
        s_half, c_half = np.sin(0.5 * th), np.cos(0.5 * th)
        up, down = np.exp(log_nn + arg), np.exp(log_nn - arg)
        product = np.minimum(up * s_half * s_half + down * c_half * c_half, 1.0)
        degenerate = 1.0 - product < _DEGENERACY_TOL
        sin_2e, sin_th = np.sin(2.0 * e12), np.sin(th)
        p_raw = 0.5 - 0.5 * nu2 * sin_2e * sin_th / (product - 1.0)
        p = np.clip(p_raw, 0.0, 1.0)
        p1 = 0.5 + (p - 0.5) * nu1
        p2 = p * product + 0.5 * (1.0 - product) + 0.5 * (nu2 * sin_2e * sin_th)
        ok = ((omega1 > 0.0) & (omega2 > 0.0) & (tau2 > tau1) & np.isfinite(e12)
              & (0.0 < nu1) & (nu1 <= 1.0) & (0.0 < nu2) & (nu2 <= 1.0)
              & (log_nn + np.abs(arg) <= _LOG_BOUND_MAX)
              & (degenerate | ((-_CLOSURE_TOL <= p_raw) & (p_raw <= 1.0 + _CLOSURE_TOL)
                               & (-_SIMPLEX_TOL <= p2) & (p2 <= 1.0 + _SIMPLEX_TOL))))
    if not ok.all():
        i = int(np.argmin(ok))
        o1, o2, t1, t2, *moments = (float(a.flat[i]) for a in args)
        m = MomentSet(*moments)  # moments are checked before the kicks, as in a sweep
        stroke_ledger(CycleConfig(InteractionEvent(t1, o1), InteractionEvent(t2, o2)), m)
        # reached only where the two paths round across a threshold differently
        raise KernelInconsistencyError(f"cycle point {i} fails a check at rounding level")
    w_ext = np.where(degenerate, 0.0, (p1 - p) * (omega1 - omega2)) + 0.0  # + 0.0 prints -0 as 0
    return LedgerColumns(th, nu1, nu2, e12, mu12, np.where(degenerate, 0.5, p),
                         np.where(degenerate, 0.5, p1), w_ext, w_ext > 0.0)
