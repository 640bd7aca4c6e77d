"""Quasi-free kernel contract, exponentiated-field moments, and the qubit population maps.

Everything a field state contributes to the engine enters through four smeared
two-point numbers (nu1, nu2, e12, mu12).  The maps in this module take those
numbers to the excited-state population after each of the two instantaneous
interactions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

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


class InvalidKernelError(ValueError):
    """Kernel produced a non-finite two-point value."""


class KernelContractError(ValueError):
    """Kernel violates the two-point contract (diagonal not real and >= 0)."""


class KernelInconsistencyError(ValueError):
    """Moment data not realizable by any quasi-free state."""


@dataclass(frozen=True)
class MomentSet:
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


@dataclass(frozen=True)
class TwoPointKernel:
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


@dataclass(frozen=True)
class WeylMoments:
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


def _hyperbolic_products(m: MomentSet) -> tuple[float, float]:
    """(nu1 nu2 exp(4 mu12), nu1 nu2 exp(-4 mu12)), formed in log space.

    Raises KernelInconsistencyError unless nu1 nu2 exp(4 |mu12|) <= 1 (with
    1e-9 slack): the AM-GM form 4 |mu12| <= 2 (W11 + W22) of the Gram bound
    |W12|^2 <= W11 W22.  Under it neither product exceeds 1 + 1e-9.
    """
    log_nn = math.log(m.nu1) + math.log(m.nu2)
    arg = 4.0 * m.mu12
    log_bound = log_nn + abs(arg)
    if log_bound > _LOG_BOUND_MAX:
        raise KernelInconsistencyError(
            f"nu1*nu2*exp(4|mu12|) = exp({log_bound!r}) exceeds 1 beyond tolerance 1e-09; "
            "the moment data is not realizable by a quasi-free state"
        )
    return math.exp(log_nn + arg), math.exp(log_nn - arg)


def weyl_moments(m: MomentSet) -> WeylMoments:
    """Closed forms for the six fourth-order moments of a quasi-free state.

    Raises KernelInconsistencyError on moment data that breaks the
    realizability bound nu1 nu2 exp(4 |mu12|) <= 1.
    """
    up, down = _hyperbolic_products(m)
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


def _check_probability(p: float) -> float:
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"population must lie in [0, 1], got {p!r}")
    return float(p)


def p_after_first(p: float, m: MomentSet) -> float:
    """Excited-state population after the first kick: 1/2 + (p - 1/2) nu1."""
    p = _check_probability(p)
    return 0.5 + (p - 0.5) * m.nu1


def contraction_factor(m: MomentSet, theta: float) -> float:
    """nu1 nu2 alpha, where alpha = exp(4 mu12) sin^2(theta/2) + exp(-4 mu12) cos^2(theta/2).

    The factor by which the two kicks contract the population toward 1/2,
    clamped to <= 1.  Raises KernelInconsistencyError on moment data that
    breaks the realizability bound nu1 nu2 exp(4 |mu12|) <= 1.
    """
    up, down = _hyperbolic_products(m)
    s_half = math.sin(0.5 * theta)
    c_half = math.cos(0.5 * theta)
    return min(up * s_half * s_half + down * c_half * c_half, 1.0)


def p_after_second(p: float, m: MomentSet, theta: float) -> float:
    """Excited-state population after the second kick.

    theta is the accumulated monopole phase difference between the kicks
    (gap1 * tau1 - gap2 * tau2).  The map is affine and trace preserving;
    a result outside [0, 1] beyond 1e-12 signals inconsistent moment data.
    """
    p = _check_probability(p)
    product = contraction_factor(m, theta)
    signal = m.nu2 * math.sin(2.0 * m.e12) * math.sin(theta)
    p2 = 0.5 * (1.0 + signal + (2.0 * p - 1.0) * product)
    if p2 < -_SIMPLEX_TOL or p2 > 1.0 + _SIMPLEX_TOL:
        raise KernelInconsistencyError(
            f"second-kick population {p2!r} falls outside [0, 1]; "
            "the moment data is not realizable by a quasi-free state"
        )
    return min(max(p2, 0.0), 1.0)
