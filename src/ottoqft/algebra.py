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

# the realizability bound nu1 * nu2 * exp(4 |mu12|) <= 1, with 1e-9 slack for
# kernels carrying discretization error
_BOUND_MAX = 1.0 + 1e-9
_PRODUCT_ARG_MAX = 1500.0  # realizable data has 4 |mu12| <= -log(2^-1074 2^-1074) ~ 1489
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
        _POINT.exp(-2.0 * w11.real),
        _POINT.exp(-2.0 * w22.real),
        2.0 * w12.imag,
        w12.real,
    )


def _raise_first_failure(checks) -> None:
    """checks: (ok, error) pairs in check order, each ok a boolean array (the
    pairs broadcast together) or the bool of one point.  For the first point
    in C order that fails any check, raise error(at) of the first check it
    fails, where at(array) reads the failing point's value as a Python float."""
    ok = functools.reduce(operator.and_, [passed for passed, _ in checks])
    arrays = not isinstance(ok, bool) and ok.ndim > 0
    if ok.all() if arrays else ok:
        return
    at = float
    if arrays:
        import numpy as np

        shape, i = ok.shape, int(np.argmin(ok))
        at = lambda values: float(np.broadcast_to(values, shape).flat[i])  # noqa: E731
    raise next(error(at) for passed, error in checks if not at(passed))


# exp from IEEE-754 +, -, *, /, rint and ldexp alone, each of which Python
# floats and NumPy arrays round alike: one code gives the same bits in both
# namespaces, on any CPU NumPy dispatches to.  It is Tang's table-driven
# method (ACM TOMS 15(2), 1989): x = (32 M + j) ln2/32 + r with
# |r| <= ln2/64, exp(x) = 2^M 2^(j/32) exp(r).  2^(j/32) is a double-double
# (hi + lo, from the 128-bit fixed-point root below); ln2/32 is split into a
# 32-bit head, whose multiples by |N| < 2^21 are exact, and a tail; exp(r) - 1
# is its Taylor polynomial of degree 6 (truncation below 4e-18).
def _exp_table() -> tuple:
    """(hi, lo) of 2^(j/32) for j = 0, ..., 31: hi the double nearest it and lo
    the double nearest 2^(j/32) - hi, from 2^(1/32) to 128 bits (five integer
    square roots of 2) and its powers, each within 2^-120."""
    one, root = 1 << 128, 2 << 128
    for _ in range(5):
        root = math.isqrt(root << 128)
    table, power = [], one
    for _ in range(32):
        hi = power / one  # int / int rounds correctly
        table.append((hi, (power - int(hi * one)) / one))  # hi * 2^128 is exact
        power = power * root >> 128
    return tuple(table)


_EXP_TABLE = _exp_table()
_INV_LN2_32 = 46.16624130844683  # 32/ln2
_LN2_32_HI = 0.02166084938653512  # 0x1.62e42fee00000p-6
_MINUS_LN2_32_LO = -5.9631716539705866e-12
# exp overflows above the largest double below 1024 ln2, and is 0 below
# -1075 ln2 ~ -745.13; arguments are clamped into [-746, _EXP_MAX] first
_EXP_MAX = 709.782712893384
_EXP_MIN = -746.0


def _exp_scaled(t, xp):
    """(y, j) with exp(t) = y 2^j, y in [0.98, 1.98] within 0.54 ulp and j an
    integer, over the float or array t in namespace xp with |t| <= 1500."""
    n = xp.rint(t * _INV_LN2_32)
    r_hi = t - n * _LN2_32_HI  # exact
    r_lo = n * _MINUS_LN2_32_LO
    r = r_hi + r_lo
    q = r * r * (0.5 + r * (1.0 / 6.0 + r * (1.0 / 24.0 + r * (1.0 / 120.0 + r * (1.0 / 720.0)))))
    p = r_hi + (r_lo + q)  # exp(r) - 1
    n = xp.int(n)
    j = n & 31
    hi, lo = xp.exp_hi[j], xp.exp_lo[j]
    return hi + (lo + (hi + lo) * p), n >> 5


def _exp(x, xp):
    """exp(x) within 0.54 ulp (0.75 ulp where the result is subnormal), over
    the float or array x in namespace xp; exp(nan) is nan."""
    y = xp.ldexp(*_exp_scaled(xp.clip(x, _EXP_MIN, _EXP_MAX), xp))  # nan: _EXP_MIN
    return xp.where(x <= _EXP_MAX, y, xp.maximum(x, math.inf))  # inf, or nan at nan


# The functions the kernel calls, on one point of Python floats: a NumPy
# call costs more than the arithmetic of a point.  exp is the one above, so
# that a point is its array element bit for bit; sin and cos are the
# platform's libm, as NumPy's are.  The phase and e12 they get are finite,
# and sin(2 e12) raises where 2 e12 overflows, as the math module does.
_POINT = types.SimpleNamespace(
    sin=math.sin, cos=math.cos, isfinite=math.isfinite,
    # min and max as NumPy's minimum and maximum take them (a nan a gives nan), at a
    # fraction of the builtins' cost
    minimum=lambda a, b: b if b < a else a, maximum=lambda a, b: b if b > a else a,
    # x clamped into [low, high], nan read as low, as NumPy's fmin(fmax(x, low), high)
    clip=lambda x, low, high: high if x > high else x if x >= low else low,
    where=lambda cond, a, b: a if cond else b,
    # the nearest integer, ties to even, and an integer as the type ldexp and
    # indexing take (on floats, round gives an int already)
    rint=round, int=int, frexp=math.frexp, ldexp=math.ldexp,
    copysign=math.copysign,
    exp_hi=tuple(hi for hi, _ in _EXP_TABLE), exp_lo=tuple(lo for _, lo in _EXP_TABLE),
)
_POINT.exp = lambda x: _exp(x, _POINT)


@functools.cache
def _arrays() -> types.SimpleNamespace:
    """The functions the kernel calls on NumPy arrays, NumPy imported on first
    use: a point and a sweep on the float path never load it.  Both namespaces
    leave abs to the builtin, which is numpy.absolute on arrays."""
    import numpy as np

    xp = types.SimpleNamespace(
        sin=np.sin, cos=np.cos, minimum=np.minimum, maximum=np.maximum,
        clip=lambda x, low, high: np.fmin(np.fmax(x, low), high),
        isfinite=np.isfinite, where=np.where,
        rint=np.rint, int=lambda n: n.astype(np.int32), frexp=np.frexp, ldexp=np.ldexp,
        copysign=np.copysign, exp_hi=np.array(_POINT.exp_hi), exp_lo=np.array(_POINT.exp_lo),
    )
    xp.exp = lambda x: _exp(x, xp)
    return xp


def _on_arrays(kernel, *args):
    """kernel(*args, _arrays()): the one way onto NumPy of the array entry
    points.  Each argument becomes a float array, 0-d ones included, and None
    stays None; the kernel runs under the package's one numpy.errstate, as
    its failing points raise after every check is made."""
    import numpy as np

    values = [None if v is None else np.asarray(v, dtype=float) for v in args]
    with np.errstate(all="ignore"):
        return kernel(*values, _arrays())


def _products(nu1, nu2, mu12, xp):
    """nu1 nu2 exp(4 mu12), nu1 nu2 exp(-4 mu12), and the larger of the two,
    nu1 nu2 exp(4 |mu12|), which _bound_check holds to the realizability bound.

    No log, and no rounded exponent: frexp gives the exact mantissas and
    exponents of nu1 and nu2, _exp_scaled those of exp(+-4 mu12), and ldexp
    applies the exponent last.  The bound, the AM-GM form 4 |mu12| <=
    2 (W11 + W22) of the Gram bound |W12|^2 <= W11 W22, keeps each product
    <= 1 + 1e-9, of exponent <= 2.  Clipping 4 mu12 to +-1500 (nan to -1500)
    and the exponent to 4 keeps an unrealizable point finite, at >= 3.9,
    which the bound rejects.
    """
    m1, k1 = xp.frexp(nu1)
    m2, k2 = xp.frexp(nu2)
    arg = xp.clip(4.0 * mu12, -_PRODUCT_ARG_MAX, _PRODUCT_ARG_MAX)
    (y_up, j_up), (y_down, j_down) = _exp_scaled(arg, xp), _exp_scaled(-arg, xp)
    m, k = m1 * m2, k1 + k2
    up = xp.ldexp(m * y_up, xp.minimum(k + j_up, 4))
    down = xp.ldexp(m * y_down, xp.minimum(k + j_down, 4))
    return up, down, xp.maximum(up, down)


def _bound_check(bound, nu1, nu2, mu12):
    """The realizability check bound = nu1 nu2 exp(4 |mu12|) <= 1 (with 1e-9 slack)
    for _raise_first_failure; the message gives the failing point's log(bound)."""
    return (bound <= _BOUND_MAX, lambda at: KernelInconsistencyError(
        f"nu1*nu2*exp(4|mu12|) = exp({math.log(at(nu1)) + math.log(at(nu2)) + 4.0 * abs(at(mu12))!r})"
        " exceeds 1 beyond tolerance 1e-09; " + _UNREALIZABLE))


def weyl_moments(m: MomentSet) -> WeylMoments:
    """Closed forms for the six fourth-order moments of a quasi-free state.

    Raises KernelInconsistencyError on moment data that breaks the
    realizability bound nu1 nu2 exp(4 |mu12|) <= 1.
    """
    up, down, bound = _products(m.nu1, m.nu2, m.mu12, _POINT)
    _raise_first_failure([_bound_check(bound, m.nu1, m.nu2, m.mu12)])
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
# how many input checks lead the checks of _population_columns
_INPUT_CHECKS = 2


def _population_columns(nu1, nu2, e12, mu12, theta, p, xp):
    """_PopulationColumns of many cycles over broadcastable arrays, or of one
    point of Python floats with xp = _POINT, and their checks for
    _raise_first_failure: the _INPUT_CHECKS input checks (theta finite, then
    the bound), then the closure p and p2 in [0, 1] up to 1e-12 (clipped within it).

    theta is gap1 tau1 - gap2 tau2.  A sine reads it, and e12 (which then fails the MomentSet
    checks), as 0 where it is not finite.  With p None the closure condition p2 = p fixes p,
    except on degenerate cycles (1 - product < 1e-12: every p is a fixed point), which give
    the no-op p = p1 = p2 = 1/2; an imposed p takes both kicks, degenerate or not.
    Invalid arrays (a NaN, nu <= 0) give NaN: evaluate them through _on_arrays.
    """
    finite = xp.isfinite(theta)
    phase = xp.where(finite, theta, 0.0)  # so that no sine sees a non-finite theta
    up, down, bound = _products(nu1, nu2, mu12, xp)
    s_half, c_half = xp.sin(0.5 * phase), xp.cos(0.5 * phase)
    product = xp.minimum(up * s_half * s_half + down * c_half * c_half, 1.0)
    one_minus = 1.0 - product
    degenerate = one_minus < _DEGENERACY_TOL
    gap = xp.maximum(one_minus, _DEGENERACY_TOL)
    signal = 0.5 * nu2 * xp.sin(2.0 * xp.where(xp.isfinite(e12), e12, 0.0)) * xp.sin(phase)
    checks = [(finite, lambda at: ValueError(
        f"phase omega1*tau1 - omega2*tau2 = {at(theta)!r} is not finite")),
        _bound_check(bound, nu1, nu2, mu12)]
    if p is None:
        # a degenerate cycle is then a no-op, exchanging no signal, so
        # that p and p2 below come out 1/2 exactly
        signal = xp.where(degenerate, 0.0, signal)
        p = 0.5 + signal / gap
        checks.append(_range_check("closure population", p, _CLOSURE_TOL))
        p = xp.minimum(xp.maximum(p, 0.0), 1.0)
    # p * nu1 and p * product, so a unit contraction returns p exactly
    p1 = p * nu1 + 0.5 * (1.0 - nu1)
    p2 = p * product + 0.5 * one_minus + signal
    checks.append(_range_check("second-kick population", p2, _SIMPLEX_TOL))
    p2 = xp.minimum(xp.maximum(p2, 0.0), 1.0)
    return _PopulationColumns(product, gap, signal, p, p1, p2, degenerate), checks


def _point_columns(m: MomentSet, theta: float, p: float | None, checks: int | None = None):
    """_population_columns of the one point of m, theta and p on floats, once the
    first checks of its checks pass (all of them with checks None)."""
    columns, found = _population_columns(m.nu1, m.nu2, m.e12, m.mu12, theta, p, _POINT)
    _raise_first_failure(found[:checks])
    return columns


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
    clamped to <= 1.  Raises the kernel's input checks: ValueError on a
    non-finite theta, then KernelInconsistencyError where nu1 nu2 exp(4 |mu12|) > 1.
    """
    return _point_columns(m, theta, None, _INPUT_CHECKS).product


def p_after_second(p: float, m: MomentSet, theta: float) -> float:
    """Excited-state population after the second kick.

    theta is the accumulated monopole phase difference between the kicks
    (gap1 * tau1 - gap2 * tau2).  The map is affine and trace preserving;
    a result outside [0, 1] beyond 1e-12 signals inconsistent moment data.
    """
    return _point_columns(m, theta, _check_probability(p)).p2
