"""Independent brute-force checks: exact unitary evolution of qubit plus a
truncated bosonic mode under two kicks, direct matrix evaluation of the
fourth-order moments, and numerical quadrature of the smeared Minkowski
two-point integral.  Like the rest of the package, the oracles work in units
of the Gaussian smearing width.

The Fock oracle evolves each FockParams once, and holds what it found for the
last FockParams only: the norms of the first kick's blocks, the six moment
traces from the second kick's row products, and the same for the top Fock row.
simulate_cycle_fock forms its populations, top-level occupations and traces at
any phase and population from these by exact identities, and
verify_weyl_moments reads the traces, so a case checked by both is evolved once.

No brute-force value uses the closed forms it checks (verify_weyl_moments calls
weyl_moments only to compare); agreement is the evidence the package stands on.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator

import numpy as np

from .algebra import MomentSet, TwoPointKernel, WeylMoments, moment_set_from_kernel, weyl_moments
from .record import Record

__all__ = [
    "FockParams",
    "TruncationError",
    "QuadratureConvergenceError",
    "single_mode_kernel",
    "simulate_cycle_fock",
    "verify_weyl_moments",
    "quadrature_minkowski_moments",
]

# a run is trusted only while every evolved state keeps the top Fock level
# below this occupation
_TRUNCATION_TOL = 1e-10
_REFINE_LIMIT = 12
# the radial integral runs over k in [0, _K_MAX]: the tail it drops,
# integral_16^inf k exp(-k^2/2) dk = exp(-128), is far below every target
_K_MAX = 16.0
# Simpson node count of the first pass; each refinement doubles the intervals
_FIRST_NODES = 257


class TruncationError(RuntimeError, ValueError):
    """Truncated mode dimension too small for the requested couplings."""


class QuadratureConvergenceError(RuntimeError, ArithmeticError):
    """Doubling the node count failed to settle the radial integral."""


class FockParams(Record):
    """Single bosonic mode standing in for the field: the smeared field at
    kick j is alpha_j a + conj(alpha_j) a^dag, on a thermal (nbar) or vacuum
    (nbar = 0) state truncated to dim levels.  alpha1, alpha2 and nbar must
    be finite, and dim an integer."""

    alpha1: complex
    alpha2: complex
    nbar: float = 0.0
    dim: int = 60

    def __post_init__(self) -> None:
        for name in ("alpha1", "alpha2", "nbar"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.nbar < 0.0:
            raise ValueError(f"nbar must be >= 0, got {self.nbar!r}")
        if operator.index(self.dim) < 2:  # a dim of 40.5 would evolve 41 levels
            raise ValueError(f"dim must be >= 2, got {self.dim!r}")


def single_mode_kernel(fp: FockParams) -> TwoPointKernel:
    """Two-point kernel of the single-mode realization.

    W(j, k) = alpha_j conj(alpha_k) (nbar + 1) + conj(alpha_j) alpha_k nbar.
    The antisymmetric part 2 Im W(1, 2) is independent of nbar.
    """
    a1, a2, nb = complex(fp.alpha1), complex(fp.alpha2), fp.nbar

    def w(x: complex, y: complex) -> complex:
        return x * y.conjugate() * (nb + 1.0) + x.conjugate() * y * nb

    return TwoPointKernel(w(a1, a1), w(a2, a2), w(a1, a2))


@functools.lru_cache(maxsize=4)
def _quadrature_eigh(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum w and real orthogonal eigenvectors v of the position
    quadrature a + a^dag on dim levels; read-only, shared by every kick."""
    off = np.sqrt(np.arange(1, dim, dtype=float))
    w, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


def _kick_cos_sin(alpha: complex, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cos(|alpha| w), sin(|alpha| w) and phases d = exp(i n arg alpha) of the
    kick alpha a + conj(alpha) a^dag, with (w, v) from _quadrature_eigh.

    With D = diag(d) the kick is |alpha| D^dag (a + a^dag) D, exactly on the
    truncated space too (a has only a superdiagonal), so
    f(kick) = D^dag v diag(f(|alpha| w)) v^T D.  A zero part of alpha gives the
    phases of +0.0 whatever its sign, so equal FockParams evolve to the same bits
    and the one held evolution is the one a fresh call would make.
    """
    rw = abs(alpha) * _quadrature_eigh(dim)[0]
    angle = math.atan2(alpha.imag + 0.0, alpha.real + 0.0)  # -0.0 + 0.0 is 0.0
    return np.cos(rw), np.sin(rw), np.exp(1j * angle * np.arange(dim))


def _kick_columns(fp: FockParams, weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """The first kick's real cosine and sine on the Fock columns of nonzero
    weight in the mode state, each scaled by the root of its weight; those
    columns in the eigenbasis of the second kick's quadrature; the second
    kick's cosine and sine there, as the rows of one array.  D1 acts on the
    columns of the diagonal state as unit scalars and drops out; between the
    kicks the phases meet as D2 D1^dag, and the final D2^dag moves no modulus."""
    _, v = _quadrature_eigh(fp.dim)
    c1, s1, d1 = _kick_cos_sin(complex(fp.alpha1), fp.dim)
    c2, s2, d2 = _kick_cos_sin(complex(fp.alpha2), fp.dim)
    levels = np.flatnonzero(weights)
    first = v @ (np.stack([c1, s1])[:, :, None] * (v[levels] * np.sqrt(weights[levels])[:, None]).T)
    # a real product on the interleaved (re, im) pairs: no complex matrix product
    moved = (v.T @ ((d2 * d1.conj())[:, None] * first).view(float)).view(complex)
    return first, moved, np.stack([c2, s2])


class _Evolution(Record):
    """The two kicks on one FockParams' mode state, for any monopole phase
    and population: the top Fock weight of the state; after each kick, the
    block form (d0, d1, x, y) of the evolved columns and of their top Fock row
    (see _block_norms); and the six moment traces, named in _MOMENTS.  A state
    whose top level is over the tolerance is not evolved."""

    initial_top: float
    kicks: tuple = ()
    moments: tuple = ()


_MOMENTS = ("cccc", "cssc", "sccs", "ssss", "csc_s", "ssc_c")


@functools.lru_cache(maxsize=1)
def _evolve(fp: FockParams) -> _Evolution:
    """The one evolution of fp, which simulate_cycle_fock and verify_weyl_moments
    share.  Its figures are Python numbers in tuples: the cached entry holds no
    array, and cannot be changed through what it returns."""
    # thermal weights q^n; at nbar = 0, q = 0 gives the vacuum (0^0 = 1)
    weights = (fp.nbar / (fp.nbar + 1.0)) ** np.arange(fp.dim, dtype=float)
    weights /= weights.sum()  # unit trace on the truncated space
    if weights[-1] > _TRUNCATION_TOL:  # the caller raises, naming its stage
        return _Evolution(float(weights[-1]))
    first, moved, cs2 = _kick_columns(fp, weights)
    (tc, ts), (c2, s2) = moved, cs2
    # in the second kick's eigenbasis its products are diagonal: the row products
    # sum_j |tc_ij|^2 and sum_j |ts_ij|^2, weighted by c2^2 and s2^2, give four traces
    (cccc, sccs), (cssc, ssss) = ((cs2 * cs2) @ (moved.view(float) ** 2).sum(axis=2).T).tolist()
    csc_s = complex(np.vdot(tc, (s2 * c2)[:, None] * ts))
    # the top Fock row of the blocks c2 tc, s2 tc, then c2 ts, s2 ts, as a real product
    top = ((_quadrature_eigh(fp.dim)[1][-1] * cs2) @ moved.view(float)).view(complex)
    (c_tc, s_tc), (c_ts, s_ts) = (top.view(float) ** 2).sum(axis=2).tolist()
    # the first kick's blocks cos1 and sin1, in all rows and in the top one
    rows = (first * first).sum(axis=2)
    return _Evolution(float(weights[-1]), kicks=(
        ((*rows.sum(axis=1).tolist(), 0j, 0j), (*rows[:, -1].tolist(), 0j, 0j)),
        ((cccc + ssss, cssc + sccs, csc_s, csc_s),
         (c_tc + s_ts, s_tc + c_ts, complex(np.vdot(top[0, 0], top[1, 1])),
          complex(np.vdot(top[0, 1], top[1, 0])))),
    ), moments=(cccc, cssc, sccs, ssss, csc_s, csc_s.conjugate()))


def _block_norms(d0: float, d1: float, x: complex, y: complex, z: complex) -> tuple[float, ...]:
    """Squared norms of the four blocks of an evolved state at monopole phase z:
    the (excited, ground) rows of the columns that start excited, then of those
    that start in the ground state.  After the second kick, in its eigenbasis,
    the blocks are c tc - z s ts, s tc + z c ts, c ts + z s tc and z c tc - s ts;
    with d0 = |c tc|^2 + |s ts|^2, d1 = |s tc|^2 + |c ts|^2, x = <c tc, s ts> and
    y = <s tc, c ts>, these are exactly their norms.  After the first kick the
    blocks are cos1, sin1, sin1 and cos1: d0 and d1 are their norms, x = y = 0."""
    return (d0 - 2.0 * (z * x).real, d1 + 2.0 * (z * y).real,
            d1 + 2.0 * (z * y.conjugate()).real, d0 - 2.0 * (z * x.conjugate()).real)


def _check_truncation(top_level: float, dim: int, stage: str) -> None:
    if top_level > _TRUNCATION_TOL:
        raise TruncationError(
            f"top Fock level holds {top_level:.3e} of the state {stage}; "
            f"increase dim (currently {dim}, try {2 * dim})"
        )


def simulate_cycle_fock(
    fp: FockParams,
    omega1: float,
    omega2: float,
    tau1: float,
    tau2: float,
    p: float,
) -> tuple[float, float]:
    """Exact two-kick evolution on qubit (x) truncated mode; returns (p1, p2).

    Each kick applies 1 (x) cos(phi_j) - i mu_j (x) sin(phi_j), where phi_j is
    the Hermitian mode quadrature of kick j and mu_j carries the accumulated
    monopole phase omega_j * tau_j.  The state diag(p, 1 - p) (x) thermal is
    diagonal: its basis columns of nonzero weight are evolved, and the
    populations, top-level occupation and trace are their weighted norms.
    A phase omega1*tau1 - omega2*tau2 that is not finite is a ValueError,
    raised before any evolution.
    """
    if not tau2 > tau1:
        raise ValueError(f"tau2 = {tau2!r} must exceed tau1 = {tau1!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"population must lie in [0, 1], got {p!r}")
    theta = omega1 * tau1 - omega2 * tau2
    if not math.isfinite(theta):
        raise ValueError(f"phase omega1*tau1 - omega2*tau2 = {theta!r} is not finite")
    evolution = _evolve(fp)
    _check_truncation(evolution.initial_top, fp.dim, "before the first kick")
    z = cmath.exp(-1j * theta)
    populations = []
    for (form, top_form), stage in zip(evolution.kicks, ("after the first kick",
                                                         "after the second kick")):
        # the columns that start excited have weight p, the others 1 - p
        top = _block_norms(*top_form, z)
        _check_truncation(p * (top[0] + top[1]) + (1.0 - p) * (top[2] + top[3]), fp.dim, stage)
        norms = _block_norms(*form, z)
        trace = p * (norms[0] + norms[1]) + (1.0 - p) * (norms[2] + norms[3])
        if not abs(trace - 1.0) <= 1e-12:  # NaN fails too
            raise ArithmeticError(f"evolution lost unit trace {stage}: {trace!r}")
        populations.append(p * norms[0] + (1.0 - p) * norms[2])
    return populations[0], populations[1]


def _weyl_traces(fp: FockParams) -> dict[str, complex]:
    """The six moments Tr(rho A (B C) D) = sum_n q_n (A (B C) D)_nn of the
    diagonal mode state, taken in the second kick's eigenbasis, where its
    middle products B C are diagonal."""
    evolution = _evolve(fp)
    _check_truncation(evolution.initial_top, fp.dim, "in the initial state")
    return {name: complex(value) for name, value in zip(_MOMENTS, evolution.moments)}


def _weyl_deviation(fp: FockParams, closed: WeylMoments) -> float:
    """Max deviation between fp's matrix-evaluated fourth-order moments and closed,
    over all six moments; NaN if any one is NaN."""
    brute = _weyl_traces(fp)
    return float(np.max([abs(brute[name] - complex(getattr(closed, name))) for name in brute]))


def verify_weyl_moments(fp: FockParams) -> float:
    """Max deviation between matrix-evaluated fourth-order moments and their
    closed forms, over all six moments; NaN if any one is NaN."""
    return _weyl_deviation(fp, weyl_moments(moment_set_from_kernel(single_mode_kernel(fp))))


def _integrate(values: np.ndarray, h: float) -> float:
    # composite Simpson, odd node count
    acc = values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum()
    return float(acc * h / 3.0)


def radial_wightman_integral(dtau: float, n_points: int) -> complex:
    """Single-pass value of integral k exp(-k^2 / 2) exp(i k dtau) dk over [0, _K_MAX],
    by Simpson's rule on an odd number n_points of nodes."""
    if n_points % 2 == 0:
        raise ValueError(f"Simpson's rule needs an odd node count, got {n_points!r}")
    k = np.linspace(0.0, _K_MAX, n_points)
    h = k[1] - k[0]
    damped = k * np.exp(-0.5 * k ** 2)
    re = _integrate(damped * np.cos(k * dtau), h)
    im = _integrate(damped * np.sin(k * dtau), h)
    return complex(re, im)


def _converged_radial(dtau: float) -> complex:
    target_rel, target_abs = 1e-10, 1e-13
    n = _FIRST_NODES
    previous = radial_wightman_integral(dtau, n)
    for _ in range(_REFINE_LIMIT):
        n = 2 * n - 1
        current = radial_wightman_integral(dtau, n)
        if abs(current - previous) <= target_abs + target_rel * abs(current):
            return current
        previous = current
    raise QuadratureConvergenceError(
        f"radial integral did not settle below {target_rel} after "
        f"{_REFINE_LIMIT} doublings (last node count {n})"
    )


def quadrature_minkowski_moments(lambda1, lambda2, dtau) -> MomentSet | list[MomentSet]:
    """Moment set of the Gaussian-smeared Minkowski vacuum by direct quadrature.

    Reduces the three-dimensional two-point integral to its radial form
    (lambda1 lambda2 / 4 pi^2) * integral_0^inf k exp(-k^2/2) exp(i k dtau) dk,
    with couplings and dtau in units of the smearing width, and refines the
    node count until successive doublings agree.

    lambda1, lambda2 and dtau broadcast: scalars give one MomentSet, arrays a
    list in C order.  The couplings only scale the radial integral, so it is
    evaluated once for dtau = 0 (the diagonal) and once per distinct dtau.  A
    non-finite dtau is a ValueError, raised before any integral runs.
    """
    pref = 1.0 / (4.0 * math.pi ** 2)
    shape = np.broadcast(lambda1, lambda2, dtau).shape
    lambda1, lambda2, dtau = (np.broadcast_to(a, shape).ravel().tolist() for a in (lambda1, lambda2, dtau))
    for d in dtau:
        if not math.isfinite(d):
            raise ValueError(f"dtau must be finite, got {d!r}")
    radial = {d: _converged_radial(d) for d in dict.fromkeys([0.0, *dtau])}
    diag = radial[0.0].real
    sets = [moment_set_from_kernel(TwoPointKernel(
        l1 * l1 * pref * diag, l2 * l2 * pref * diag, l1 * l2 * pref * radial[d],
    )) for l1, l2, d in zip(lambda1, lambda2, dtau)]
    return sets if shape else sets[0]
