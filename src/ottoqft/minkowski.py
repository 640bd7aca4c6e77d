"""Analytic moment kernel for an inertial, Gaussian-smeared detector in the
massless vacuum of flat 3+1 spacetime, plus the Dawson integral it needs.

All quantities are expressed in units of the Gaussian smearing width:
couplings and times enter as lambda/sigma and tau/sigma, gaps as gap*sigma.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import MomentSet
from .record import Record

__all__ = ["MinkowskiParams", "dawson", "minkowski_moments", "minkowski_moment_arrays"]

# Rybicki's sampling series (Computers in Physics 3, 85 (1989)): step h gives
# aliasing error ~exp(-(pi/2h)^2) ~ 7e-18; the 27 odd lattice points nearest
# |x| span +-6.75, leaving a Gaussian truncation below 1e-19
_RYBICKI_H = 0.25
_RYBICKI_OFFSETS = np.arange(-26, 28, 2)
# the lattice points n stay exact integers in double precision up to here;
# beyond it D(x) = D(cap) * cap / x, exact to double precision because the
# next term of D(x) = (1/2x)(1 + 1/(2x^2) + ...) is below 2^-100
_RYBICKI_CAP = 2.0 ** 50


def dawson(x):
    """Dawson integral D(x) = exp(-x^2) * integral_0^x exp(t^2) dt.

    Accepts a float (returns a float) or an array (returns an array).
    Odd in x, peaks at ~0.5410442 near x ~ 0.9241, decays as 1/(2x).
    One algorithm everywhere, Rybicki's sampling series
    D(x) = (1/sqrt(pi)) sum_{n odd} exp(-(x - n h)^2) / n, summed on |x|
    so the result is exactly odd, and exactly 0 at 0.  Absolute error
    <= 2.3e-16 against mpmath on |x| <= 50.
    """
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"dawson requires finite input, got {x!r}")
    ax = np.abs(arr)
    capped = np.minimum(ax, _RYBICKI_CAP)
    centre = 2.0 * np.rint(0.5 * (capped / _RYBICKI_H - 1.0)) + 1.0
    n = centre[..., None] + _RYBICKI_OFFSETS
    d = capped[..., None] - n * _RYBICKI_H
    series = np.sum(np.exp(-d * d) / n, axis=-1) / math.sqrt(math.pi)
    series *= _RYBICKI_CAP / np.maximum(ax, _RYBICKI_CAP)
    result = np.copysign(np.where(ax == 0.0, 0.0, series), arr)
    return result if result.ndim else float(result)


class MinkowskiParams(Record):
    """Gaussian-smeared inertial detector: two couplings and the kick separation."""

    lambda1: float
    lambda2: float
    dtau: float

    def __post_init__(self) -> None:
        if self.lambda1 < 0.0 or self.lambda2 < 0.0:
            raise ValueError(
                f"couplings must be >= 0, got ({self.lambda1!r}, {self.lambda2!r})"
            )
        if self.dtau < 0.0:
            raise ValueError(f"dtau must be >= 0, got {self.dtau!r}")


def minkowski_moment_arrays(lambda1, lambda2, dtau) -> tuple[np.ndarray, ...]:
    """Closed-form moments of the massless Minkowski vacuum over broadcastable
    arrays, in smearing-width units.  With x = dtau / sqrt(2):
      nu_j = exp(-lambda_j^2 / (2 pi^2))
      e12  = lambda1 lambda2 / (2 pi^(3/2)) * x exp(-x^2)
      mu12 = lambda1 lambda2 / (4 pi^2) * (1 - 2 x D(x))

    Returns (nu1, nu2, e12, mu12), each with the shape of its own inputs:
    nu_j follows lambda_j alone, so a scalar dtau costs one Dawson
    evaluation per call.  The MomentSet checks are the consumer's.
    """
    lambda1, lambda2, dtau = (np.asarray(v, dtype=float) for v in (lambda1, lambda2, dtau))
    if (lambda1 < 0.0).any() or (lambda2 < 0.0).any() or (dtau < 0.0).any():
        raise ValueError("couplings and dtau must be >= 0")
    x = dtau / math.sqrt(2.0)
    # from 2^1023 on, 2 x overflows, as does an infinite dtau (an overflowing
    # tau2 - tau1): there e12 = mu12 = 0, the limit the cap gives exactly
    x = np.where(x >= 2.0 ** 1023, _RYBICKI_CAP, x)
    with np.errstate(over="ignore", invalid="ignore"):  # huge couplings: checked by the consumer
        pref = lambda1 * lambda2
        nu1 = np.exp(-lambda1 ** 2 / (2.0 * math.pi ** 2))
        nu2 = np.exp(-lambda2 ** 2 / (2.0 * math.pi ** 2))
        e12 = pref / (2.0 * math.pi ** 1.5) * x * np.exp(-x * x)
        mu12 = pref / (4.0 * math.pi ** 2) * (1.0 - 2.0 * x * dawson(x))
    return nu1, nu2, e12, mu12


def minkowski_moments(params: MinkowskiParams) -> MomentSet:
    """Closed-form moment set of the massless Minkowski vacuum: the
    minkowski_moment_arrays values at one point, checked by MomentSet."""
    moments = minkowski_moment_arrays(params.lambda1, params.lambda2, params.dtau)
    return MomentSet(*map(float, moments))
