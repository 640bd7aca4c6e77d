"""Quasi-free kernel contract, exponentiated-field moments, and the qubit population maps.

Everything a field state contributes to the engine enters through four smeared
two-point numbers (nu1, nu2, e12, mu12).  The maps in this module take those
numbers to the excited-state population after each of the two instantaneous
interactions.
"""

from __future__ import annotations

import functools
import math
import operator
import types
from collections import namedtuple
from typing import Protocol, runtime_checkable

import numpy as np

from .record import Record

__all__ = [
    "MomentSet",
    "QuasiFreeKernel",
    "TwoPointKernel",
    "WeylMoments",
    "InvalidKernelError",
    "KernelContractError",
    "KernelInconsistencyError",
    "moment_set_from_kernel",
    "weyl_moments",
    "p_after_first",
    "contraction_factor",
    "p_after_second",
]

# log of the realizability bound nu1 * nu2 * exp(4 |mu12|) <= 1, with 1e-9
# slack for kernels carrying discretization error
_LOG_BOUND_MAX = math.log1p(1e-9)
_SIMPLEX_TOL = 1e-12
_CLOSURE_TOL = 1e-12
# below this distance of nu1*nu2*alpha from 1 the cycle transfers nothing
# and the fixed-point formula divides by ~0
_DEGENERACY_TOL = 1e-12
_UNREALIZABLE = "the moment data is not realizable by a quasi-free state"


class InvalidKernelError(ValueError):
    """Kernel produced a non-finite two-point value."""


class KernelContractError(ValueError):
    """Kernel violates the two-point contract (diagonal not real and >= 0)."""


class KernelInconsistencyError(ValueError):
    """Moment data not realizable by any quasi-free state."""


class MomentSet(Record):
    """The four smeared two-point numbers that fully determine one engine cycle.

    nu1, nu2 are the doubled-exponential diagonal moments, in (0, 1]; e12 is
    the (antisymmetric, state-independent) commutator part and mu12 the
    symmetric part of the cross two-point function.  All dimensionless.
    """

    nu1: float
    nu2: float
    e12: float
    mu12: float

    def __post_init__(self) -> None:
        for name in ("nu1", "nu2", "e12", "mu12"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("nu1", "nu2"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {value!r}")


@runtime_checkable
class QuasiFreeKernel(Protocol):
    """Provider of the smeared two-point function for the two interaction regions.

    ``wightman(i, j)`` must be defined for index pairs (1, 1), (2, 2) and
    (1, 2).  Diagonal values are real and non-negative; the cross value
    decomposes into symmetric real part mu12 and antisymmetric part e12 / 2
    in its imaginary part.
    """

    def wightman(self, i: int, j: int) -> complex: ...


class TwoPointKernel(Record):
    """Concrete kernel backed by explicitly supplied two-point values."""

    w11: complex
    w22: complex
    w12: complex

    def wightman(self, i: int, j: int) -> complex:
        table = {(1, 1): self.w11, (2, 2): self.w22, (1, 2): self.w12}
        try:
            return complex(table[(i, j)])
        except KeyError:
            raise KeyError(f"wightman index pair {(i, j)} not supported") from None


class WeylMoments(Record):
    """The six distinct fourth-order cosine/sine moments of the two kicks.

    The four real entries partition unity; the two complex entries are
    mutual conjugates.
    """

    cccc: float
    cssc: float
    sccs: float
    ssss: float
    csc_s: complex
    ssc_c: complex


def moment_set_from_kernel(kernel: QuasiFreeKernel) -> MomentSet:
    """Extract (nu1, nu2, e12, mu12) from a two-point kernel.

    nu_j = exp(-2 Re W(j, j)), e12 = 2 Im W(1, 2), mu12 = Re W(1, 2).

    Raises InvalidKernelError on non-finite kernel values and
    KernelContractError when a diagonal value is negative or has a
    non-negligible imaginary part.
    """
    w11 = complex(kernel.wightman(1, 1))
    w22 = complex(kernel.wightman(2, 2))
    w12 = complex(kernel.wightman(1, 2))
    for label, w in (("(1,1)", w11), ("(2,2)", w22), ("(1,2)", w12)):
        if not (math.isfinite(w.real) and math.isfinite(w.imag)):
            raise InvalidKernelError(f"wightman{label} is not finite: {w!r}")
    for label, w in (("(1,1)", w11), ("(2,2)", w22)):
        if w.real < 0.0:
            raise KernelContractError(f"Re wightman{label} must be >= 0, got {w.real!r}")
        if abs(w.imag) > _SIMPLEX_TOL * max(1.0, abs(w.real)):
            raise KernelContractError(f"wightman{label} must be real, got {w!r}")
    return MomentSet(
        nu1=math.exp(-2.0 * w11.real),
        nu2=math.exp(-2.0 * w22.real),
        e12=2.0 * w12.imag,
        mu12=w12.real,
    )


def _raise_first_failure(checks) -> None:
    """checks: (ok, error) pairs in check order, each ok a boolean array (the
    pairs broadcast together).  For the first point in C order that fails
    any check, raise error(at) of the first check it fails, where at(array)
    reads the failing point's value as a Python float."""
    ok = functools.reduce(operator.and_, (passed for passed, _ in checks))
    if ok.all() if isinstance(ok, np.ndarray) else ok:
        return
    shape, i = np.shape(ok), int(np.argmin(ok))

    def at(values) -> float:
        return float(np.broadcast_to(values, shape).flat[i])

    raise next(error(at) for passed, error in checks if not at(passed))


# The functions the kernel calls, on one point of Python floats: a NumPy
# call costs more than the arithmetic of a point.  The transcendental
# functions stay NumPy's, so that a point is its array element bit for bit;
# an infinite phase raises ValueError, as the math module does.
_POINT = types.SimpleNamespace(
    log=lambda x: float(np.log(x)), exp=lambda x: float(np.exp(x)),
    sin=lambda x: float(np.sin(x)) if math.isfinite(x) else math.sin(x),
    cos=lambda x: float(np.cos(x)) if math.isfinite(x) else math.cos(x),
    abs=abs, minimum=min, maximum=max, logical_not=operator.not_,
    where=lambda cond, a, b: a if cond else b, nan=math.nan,
)


def _products(nu1, nu2, mu12, xp=np):
    """nu1 nu2 exp(4 mu12) and nu1 nu2 exp(-4 mu12), formed in log space, and
    the realizability check nu1 nu2 exp(4 |mu12|) <= 1 (with 1e-9 slack).

    The bound is the AM-GM form 4 |mu12| <= 2 (W11 + W22) of the Gram bound
    |W12|^2 <= W11 W22.  Under it neither product exceeds 1 + 1e-9; the
    exponents are capped there, so an unrealizable point cannot overflow.
    """
    log_nn = xp.log(nu1) + xp.log(nu2)
    arg = 4.0 * mu12
    log_bound = log_nn + xp.abs(arg)
    bound = (log_bound <= _LOG_BOUND_MAX, lambda at: KernelInconsistencyError(
        f"nu1*nu2*exp(4|mu12|) = exp({at(log_bound)!r}) exceeds 1 beyond tolerance 1e-09; "
        + _UNREALIZABLE))
    return (xp.exp(xp.minimum(log_nn + arg, _LOG_BOUND_MAX)),
            xp.exp(xp.minimum(log_nn - arg, _LOG_BOUND_MAX)), bound)


def weyl_moments(m: MomentSet) -> WeylMoments:
    """Closed forms for the six fourth-order moments of a quasi-free state.

    Raises KernelInconsistencyError on moment data that breaks the
    realizability bound nu1 nu2 exp(4 |mu12|) <= 1.
    """
    up, down, bound = _products(m.nu1, m.nu2, m.mu12, _POINT)
    _raise_first_failure([bound])
    nn_ch = 0.5 * (up + down)  # nu1 nu2 cosh(4 mu12)
    c2e = math.cos(2.0 * m.e12)
    s2e = math.sin(2.0 * m.e12)
    sym = 0.125 * (up - down)  # nu1 nu2 sinh(4 mu12) / 4
    comm = 0.25 * m.nu2 * s2e
    return WeylMoments(
        cccc=0.25 * (1.0 + m.nu1 + nn_ch + m.nu2 * c2e),
        cssc=0.25 * (1.0 + m.nu1 - nn_ch - m.nu2 * c2e),
        sccs=0.25 * (1.0 - m.nu1 - nn_ch + m.nu2 * c2e),
        ssss=0.25 * (1.0 - m.nu1 + nn_ch - m.nu2 * c2e),
        csc_s=complex(sym, -comm),
        ssc_c=complex(sym, comm),
    )


# product is the contraction_factor, gap max(1 - product, 1e-12) and signal
# 0.5 nu2 sin(2 e12) sin(theta), 0 on a closed degenerate cycle
_PopulationColumns = namedtuple("_PopulationColumns", "product gap signal p p1 p2 degenerate")


def _population_columns(nu1, nu2, e12, mu12, theta, p=None, xp=np):
    """_PopulationColumns of many cycles over broadcastable arrays, or of one
    point of Python floats with xp = _POINT, and their checks for
    _raise_first_failure: the realizability bound, then the closure p and p2
    in [0, 1] up to 1e-12 (values within it are clipped).

    theta is gap1 tau1 - gap2 tau2.  With p None the closure condition
    p2 = p fixes p, except on degenerate cycles (1 - product < 1e-12: every
    p is a fixed point), which give the no-op p = p1 = p2 = 1/2; an imposed
    p takes both kicks, degenerate or not.  Invalid arrays (a NaN, nu <= 0)
    give NaN: evaluate under np.errstate.
    """
    up, down, bound = _products(nu1, nu2, mu12, xp)
    s_half, c_half = xp.sin(0.5 * theta), xp.cos(0.5 * theta)
    product = xp.minimum(up * s_half * s_half + down * c_half * c_half, 1.0)
    one_minus = 1.0 - product
    degenerate = one_minus < _DEGENERACY_TOL
    gap = xp.maximum(one_minus, _DEGENERACY_TOL)
    signal = 0.5 * nu2 * xp.sin(2.0 * e12) * xp.sin(theta)
    checks = [bound]
    if p is None:
        # a degenerate cycle is then a no-op, exchanging no signal, so
        # that p and p2 below come out 1/2 exactly
        signal = signal * xp.logical_not(degenerate)
        p = 0.5 + signal / gap
        checks.append(_range_check("closure population", p, _CLOSURE_TOL))
        p = xp.minimum(xp.maximum(p, 0.0), 1.0)
    # p * nu1 and p * product, so a unit contraction returns p exactly
    p1 = p * nu1 + 0.5 * (1.0 - nu1)
    p2 = p * product + 0.5 * one_minus + signal
    checks.append(_range_check("second-kick population", p2, _SIMPLEX_TOL))
    p2 = xp.minimum(xp.maximum(p2, 0.0), 1.0)
    return _PopulationColumns(product, gap, signal, p, p1, p2, degenerate), checks


def _range_check(name: str, values, tol: float):
    """values in [0, 1] up to tol."""
    return ((-tol <= values) & (values <= 1.0 + tol), lambda at: KernelInconsistencyError(
        f"{name} {at(values)!r} falls outside [0, 1]; " + _UNREALIZABLE))


def _check_probability(p: float) -> float:
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"population must lie in [0, 1], got {p!r}")
    return float(p)


def p_after_first(p: float, m: MomentSet) -> float:
    """Excited-state population after the first kick: 1/2 + (p - 1/2) nu1."""
    p = _check_probability(p)
    return p * m.nu1 + 0.5 * (1.0 - m.nu1)


def contraction_factor(m: MomentSet, theta: float) -> float:
    """nu1 nu2 alpha, where alpha = exp(4 mu12) sin^2(theta/2) + exp(-4 mu12) cos^2(theta/2).

    The factor by which the two kicks contract the population toward 1/2,
    clamped to <= 1.  Raises KernelInconsistencyError on moment data that
    breaks the realizability bound nu1 nu2 exp(4 |mu12|) <= 1.
    """
    columns, checks = _population_columns(m.nu1, m.nu2, m.e12, m.mu12, theta, xp=_POINT)
    _raise_first_failure(checks[:1])
    return columns.product


def p_after_second(p: float, m: MomentSet, theta: float) -> float:
    """Excited-state population after the second kick.

    theta is the accumulated monopole phase difference between the kicks
    (gap1 * tau1 - gap2 * tau2).  The map is affine and trace preserving;
    a result outside [0, 1] beyond 1e-12 signals inconsistent moment data.
    """
    columns, checks = _population_columns(
        m.nu1, m.nu2, m.e12, m.mu12, theta, _check_probability(p), _POINT)
    _raise_first_failure(checks)
    return columns.p2
