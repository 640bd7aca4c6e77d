"""Analytic moment kernel for an inertial, Gaussian-smeared detector in the
massless vacuum of flat 3+1 spacetime, plus the Dawson integral it needs.

All quantities are expressed in units of the Gaussian smearing width:
couplings and times enter as lambda/sigma and tau/sigma, gaps as gap*sigma.
"""

from __future__ import annotations

import functools
import math
import operator

from .algebra import _POINT, MomentSet, _on_arrays, _raise_first_failure
from .record import Record

__all__ = ["MinkowskiParams", "dawson", "minkowski_moments", "minkowski_moment_arrays"]

# Rybicki's sampling series (Computers in Physics 3, 85 (1989)): step h gives
# aliasing error ~exp(-(pi/2h)^2) ~ 7e-18.  The 28 odd lattice points n0 +- 1,
# ..., n0 +- 27 around the even one n0 nearest |x| span +-6.75, leaving a
# Gaussian truncation below 1e-21
_RYBICKI_H = 0.25
# exp(-((2i - 1) h)^2) / sqrt(pi) for i = 1, ..., 14, rounded from 50 digits
_RYBICKI_WEIGHTS = (
    0.5300070646880571, 0.3214655345976037, 0.1182605612236454, 0.026387497965075186,
    0.0035711595110089916, 0.00029313862354689616, 1.4594512691790851e-05,
    4.4071609561590197e-07, 8.071996859753706e-09, 8.967178517170668e-11,
    6.042037358003377e-13, 2.4692425704821094e-15, 6.120640396299763e-18,
    9.202010657918844e-21,
)
# the lattice points n stay exact integers in double precision up to here;
# beyond it D(x) = D(cap) * cap / x, exact to double precision because the
# next term of D(x) = (1/2x)(1 + 1/(2x^2) + ...) is below 2^-100
_RYBICKI_CAP = 2.0 ** 50


def dawson(x):
    """Dawson integral D(x) = exp(-x^2) * integral_0^x exp(t^2) dt.

    Accepts a float (returns a float) or an array (returns an array), with
    the same bits.  Odd in x, peaks at ~0.5410442 near x ~ 0.9241, decays as
    1/(2x).  One algorithm everywhere, Rybicki's sampling series
    D(x) = (1/sqrt(pi)) sum_{n odd} exp(-(x - n h)^2) / n, summed on |x|
    so the result is exactly odd, and exactly 0 at 0.  Absolute error
    <= 2.7e-16 against mpmath on |x| <= 50.
    """
    if isinstance(x, (int, float)):
        return _finite_dawson(float(x), _POINT)
    result = _on_arrays(_finite_dawson, x)
    return result if result.ndim else float(result)


def _finite_dawson(x, xp):
    """_dawson, once the first non-finite x in C order has raised ValueError."""
    _raise_first_failure([(xp.isfinite(x), lambda at: ValueError(
        f"dawson requires finite input, got {at(x)!r}"))])
    return _dawson(x, xp)


def _dawson(x, xp):
    """dawson over a finite float or array in namespace xp.  With x = n0 h + r,
    n0 even and |r| <= h, the Gaussians of the series are
    exp(-r^2) exp(-((2i - 1) h)^2) e^(+-(2i - 1)) with e = exp(2 r h): two
    exps and a recurrence (Numerical Recipes in C, 2nd ed., section 6.10),
    whose terms are summed smallest first."""
    ax = abs(x)
    capped = xp.minimum(ax, _RYBICKI_CAP)
    n0 = 2.0 * xp.rint(0.5 * capped / _RYBICKI_H)
    r = capped - n0 * _RYBICKI_H  # exact
    e = xp.exp(2.0 * _RYBICKI_H * r)
    e2 = e * e
    terms = []
    for i, weight in enumerate(_RYBICKI_WEIGHTS):
        terms.append(weight * (e / (n0 + (2 * i + 1)) + 1.0 / ((n0 - (2 * i + 1)) * e)))
        e = e * e2
    # folded with +, in order: from CPython 3.12 the builtin sum compensates a list of
    # Python floats, but not of arrays, so the float path would leave the array path's bits
    series = functools.reduce(operator.add, reversed(terms), 0.0) * xp.exp(-r * r)
    return xp.copysign(series * (_RYBICKI_CAP / xp.maximum(ax, _RYBICKI_CAP)), x)


class MinkowskiParams(Record):
    """Gaussian-smeared inertial detector: two couplings and the kick separation."""

    lambda1: float
    lambda2: float
    dtau: float

    def __post_init__(self) -> None:
        for name, value in zip(self._fields, self._values()):
            if not value >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")


def minkowski_moment_arrays(lambda1, lambda2, dtau):
    """Closed-form moments of the massless Minkowski vacuum over broadcastable
    arrays, in smearing-width units.  With x = dtau / sqrt(2):
      nu_j = exp(-lambda_j^2 / (2 pi^2))
      e12  = lambda1 lambda2 / (2 pi^(3/2)) * x exp(-x^2)
      mu12 = lambda1 lambda2 / (4 pi^2) * (1 - 2 x D(x))

    Returns (nu1, nu2, e12, mu12), each with the shape of its own inputs:
    nu_j follows lambda_j alone, and a scalar dtau costs one Dawson
    evaluation per call.  A coupling or dtau that is not >= 0 (NaN
    included) raises the MinkowskiParams ValueError of the first failing
    point in C order; the MomentSet checks are the consumer's.
    """
    import numpy as np

    # huge couplings underflow nu and overflow e12, mu12: the consumer checks them
    return tuple(map(np.asarray, _on_arrays(_moments, lambda1, lambda2, dtau)))


def _moments(lambda1, lambda2, dtau, xp):
    """minkowski_moment_arrays over the arrays, or over one point of Python
    floats with xp = _POINT."""
    _raise_first_failure([((lambda1 >= 0.0) & (lambda2 >= 0.0) & (dtau >= 0.0),
                           lambda at: MinkowskiParams(at(lambda1), at(lambda2), at(dtau)))])
    nu1, nu2 = (xp.exp(-(value * value) / (2.0 * math.pi ** 2)) for value in (lambda1, lambda2))
    x = dtau / math.sqrt(2.0)
    # from 2^1023 on, 2 x overflows, as does an infinite dtau (an overflowing
    # tau2 - tau1): there e12 = mu12 = 0, the limit the cap gives exactly
    x = xp.where(x >= 2.0 ** 1023, _RYBICKI_CAP, x)
    pref = lambda1 * lambda2
    e12 = pref / (2.0 * math.pi ** 1.5) * x * xp.exp(-x * x)
    mu12 = pref / (4.0 * math.pi ** 2) * (1.0 - 2.0 * x * _dawson(x, xp))  # x is finite
    return nu1, nu2, e12, mu12


def minkowski_moments(params: MinkowskiParams) -> MomentSet:
    """Closed-form moment set of the massless Minkowski vacuum: the
    minkowski_moment_arrays values at one point, checked by MomentSet."""
    return MomentSet(*_moments(params.lambda1, params.lambda2, params.dtau, _POINT))
