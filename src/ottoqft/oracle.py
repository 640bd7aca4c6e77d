"""Independent brute-force checks: exact unitary evolution of qubit plus a
truncated bosonic mode under two kicks, direct matrix evaluation of the
fourth-order moments, and numerical quadrature of the smeared Minkowski
two-point integral.

Nothing here reuses the closed forms being checked; agreement between the
two routes is the evidence the rest of the package stands on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import MomentSet, TwoPointKernel, moment_set_from_kernel, weyl_moments

__all__ = [
    "FockParams",
    "QuadratureSpec",
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


class TruncationError(RuntimeError):
    """Truncated mode dimension too small for the requested couplings."""


class QuadratureConvergenceError(RuntimeError):
    """Doubling the node count failed to settle the radial integral."""


@dataclass(frozen=True)
class FockParams:
    """Single bosonic mode standing in for the field: the smeared field at
    kick j is alpha_j a + conj(alpha_j) a^dag, on a thermal (nbar) or vacuum
    (nbar = 0) state truncated to dim levels."""

    alpha1: complex
    alpha2: complex
    nbar: float = 0.0
    dim: int = 60

    def __post_init__(self) -> None:
        if self.nbar < 0.0:
            raise ValueError(f"nbar must be >= 0, got {self.nbar!r}")
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim!r}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite-rule settings for the radial two-point integral."""

    k_max: float = 16.0
    n_points: int = 257
    rule: str = "simpson"

    def __post_init__(self) -> None:
        if not self.k_max > 0.0:
            raise ValueError(f"k_max must be > 0, got {self.k_max!r}")
        if self.n_points < 16:
            raise ValueError(f"n_points must be >= 16, got {self.n_points!r}")
        if self.rule not in ("simpson", "trapezoid"):
            raise ValueError(f"unknown rule {self.rule!r}")


def single_mode_kernel(fp: FockParams) -> TwoPointKernel:
    """Two-point kernel of the single-mode realization.

    W(j, k) = alpha_j conj(alpha_k) (nbar + 1) + conj(alpha_j) alpha_k nbar.
    The antisymmetric part 2 Im W(1, 2) is independent of nbar.
    """
    a1, a2, nb = complex(fp.alpha1), complex(fp.alpha2), fp.nbar

    def w(x: complex, y: complex) -> complex:
        return x * y.conjugate() * (nb + 1.0) + x.conjugate() * y * nb

    return TwoPointKernel(w11=w(a1, a1), w22=w(a2, a2), w12=w(a1, a2))


@functools.lru_cache(maxsize=4)
def _quadrature_eigh(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum w and real orthogonal eigenvectors v of the position
    quadrature a + a^dag on dim levels; read-only, shared by every kick."""
    off = np.sqrt(np.arange(1, dim, dtype=float))
    w, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


def _kick_cos_sin(alpha: complex, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Matrix cosine and sine of the kick quadrature alpha a + conj(alpha) a^dag.

    With D = diag(exp(i n arg alpha)) the kick is |alpha| D^dag (a + a^dag) D,
    exactly on the truncated space too (a has only a superdiagonal), so
    f(kick)[m, n] = exp(i (n - m) arg alpha) (v f(|alpha| w) v^T)[m, n].
    """
    w, v = _quadrature_eigh(dim)
    rw = abs(alpha) * w
    d = np.exp(1j * math.atan2(alpha.imag, alpha.real) * np.arange(dim))
    phase = np.outer(d.conj(), d)
    return phase * ((v * np.cos(rw)) @ v.T), phase * ((v * np.sin(rw)) @ v.T)


def _mode_state(fp: FockParams) -> np.ndarray:
    if fp.nbar == 0.0:
        diag = np.zeros(fp.dim)
        diag[0] = 1.0
    else:
        q = fp.nbar / (fp.nbar + 1.0)
        diag = q ** np.arange(fp.dim, dtype=float)
        diag /= diag.sum()  # unit trace on the truncated space
    return np.diag(diag).astype(complex)


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
    monopole phase omega_j * tau_j.  Populations come from the partial trace
    over the mode after each kick.
    """
    if not tau2 > tau1:
        raise ValueError(f"tau2 = {tau2!r} must exceed tau1 = {tau1!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"population must lie in [0, 1], got {p!r}")
    dim = fp.dim
    rho_mode = _mode_state(fp)
    _check_truncation(float(rho_mode[-1, -1].real), dim, "before the first kick")
    # joint state on (qubit excited/ground) (x) mode, stored as 2x2 blocks
    rho = np.kron(np.diag([p, 1.0 - p]).astype(complex), rho_mode)

    def kick(rho: np.ndarray, alpha: complex, phase: float) -> np.ndarray:
        cos_m, sin_m = _kick_cos_sin(alpha, dim)
        u = np.zeros((2 * dim, 2 * dim), dtype=complex)
        u[:dim, :dim] = cos_m
        u[dim:, dim:] = cos_m
        u[:dim, dim:] = -1j * np.exp(1j * phase) * sin_m
        u[dim:, :dim] = -1j * np.exp(-1j * phase) * sin_m
        return u @ rho @ u.conj().T

    populations = []
    for alpha, phase, stage in (
        (fp.alpha1, omega1 * tau1, "after the first kick"),
        (fp.alpha2, omega2 * tau2, "after the second kick"),
    ):
        rho = kick(rho, complex(alpha), phase)
        diag = np.diagonal(rho).real
        _check_truncation(float(diag[dim - 1] + diag[2 * dim - 1]), dim, stage)
        trace = float(diag.sum())
        if abs(trace - 1.0) > 1e-12:
            raise ArithmeticError(f"evolution lost unit trace {stage}: {trace!r}")
        populations.append(float(diag[:dim].sum()))
    return populations[0], populations[1]


def verify_weyl_moments(fp: FockParams) -> float:
    """Max deviation between matrix-evaluated fourth-order moments and their
    closed forms, over all six moments."""
    dim = fp.dim
    rho = _mode_state(fp)
    _check_truncation(float(rho[-1, -1].real), dim, "in the initial state")
    c1, s1 = _kick_cos_sin(complex(fp.alpha1), dim)
    c2, s2 = _kick_cos_sin(complex(fp.alpha2), dim)

    def ev(m: np.ndarray) -> complex:
        return complex(np.trace(rho @ m))

    brute = {
        "cccc": ev(c1 @ c2 @ c2 @ c1),
        "cssc": ev(c1 @ s2 @ s2 @ c1),
        "sccs": ev(s1 @ c2 @ c2 @ s1),
        "ssss": ev(s1 @ s2 @ s2 @ s1),
        "csc_s": ev(c1 @ s2 @ c2 @ s1),
        "ssc_c": ev(s1 @ s2 @ c2 @ c1),
    }
    closed = weyl_moments(moment_set_from_kernel(single_mode_kernel(fp)))
    return max(abs(brute[name] - complex(getattr(closed, name))) for name in brute)


def _integrate(values: np.ndarray, h: float, rule: str) -> float:
    if rule == "trapezoid":
        return float(np.trapezoid(values, dx=h))
    # composite Simpson, odd node count
    acc = values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum()
    return float(acc * h / 3.0)


def radial_wightman_integral(
    sigma: float, dtau: float, k_max: float, n_points: int, rule: str
) -> complex:
    """Single-pass value of integral_0^k_max k exp(-k^2 sigma^2 / 2) exp(i k dtau) dk."""
    n = n_points if n_points % 2 == 1 else n_points + 1  # Simpson needs odd counts
    k = np.linspace(0.0, k_max, n)
    h = k[1] - k[0]
    damped = k * np.exp(-0.5 * (k * sigma) ** 2)
    re = _integrate(damped * np.cos(k * dtau), h, rule)
    im = _integrate(damped * np.sin(k * dtau), h, rule)
    return complex(re, im)


def _converged_radial(sigma: float, dtau: float, spec: QuadratureSpec) -> complex:
    target_rel, target_abs = 1e-10, 1e-13
    n = spec.n_points | 1
    previous = radial_wightman_integral(sigma, dtau, spec.k_max, n, spec.rule)
    for _ in range(_REFINE_LIMIT):
        n = 2 * n - 1
        current = radial_wightman_integral(sigma, dtau, spec.k_max, n, spec.rule)
        if abs(current - previous) <= target_abs + target_rel * abs(current):
            return current
        previous = current
    raise QuadratureConvergenceError(
        f"radial integral did not settle below {target_rel} after "
        f"{_REFINE_LIMIT} doublings (last node count {n})"
    )


def quadrature_minkowski_moments(
    lambda1: float,
    lambda2: float,
    sigma: float,
    dtau: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> MomentSet:
    """Moment set of the Gaussian-smeared Minkowski vacuum by direct quadrature.

    Reduces the three-dimensional two-point integral to its radial form
    (lambda1 lambda2 / 4 pi^2) * integral_0^inf k exp(-k^2 sigma^2/2) exp(i k dtau) dk
    and refines the node count until successive doublings agree.
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma!r}")
    if spec.k_max * sigma < 12.0:
        raise ValueError(
            f"k_max * sigma = {spec.k_max * sigma!r} < 12 leaves a tail "
            "truncation error above target"
        )
    pref = 1.0 / (4.0 * math.pi ** 2)
    diag = _converged_radial(sigma, 0.0, spec).real
    cross = _converged_radial(sigma, dtau, spec)
    kernel = TwoPointKernel(
        w11=lambda1 * lambda1 * pref * diag,
        w22=lambda2 * lambda2 * pref * diag,
        w12=lambda1 * lambda2 * pref * cross,
    )
    return moment_set_from_kernel(kernel)
