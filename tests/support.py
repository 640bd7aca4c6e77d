"""Shared helpers for the test suite: high-precision reference oracles and
generators of admissible moment data.

The oracles here are deliberately independent of the package code paths they
check: the Dawson references sum series in arbitrary precision, the
fourth-order moments are expanded term by term through the exponentiated
commutation relations rather than through the closed hyperbolic forms, the
truncated-Fock references evolve the full density matrix with cosines and
sines from a generic eigendecomposition, and the cycle closure and ledger are
the scalar formulas evaluated in mpmath.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np
from hypothesis import strategies as st

from ottoqft.algebra import KernelInconsistencyError, MomentSet
from ottoqft.oracle import FockParams, TruncationError


def dawson_series_oracle(x: float) -> float:
    """Maclaurin sum sum_n (-2)^n x^(2n+1)/(2n+1)!! in arbitrary precision.

    Working precision grows with x^2 to absorb the alternating-series
    cancellation; intended for |x| <= ~8.
    """
    if x == 0.0:
        return 0.0
    extra = int(2.0 * x * x) + 30
    with mp.workdps(extra):
        xm = mp.mpf(repr(x))
        term = xm
        total = xm
        n = 0
        while True:
            n += 1
            term *= -2 * xm * xm / (2 * n + 1)
            updated = total + term
            if updated == total:
                break
            total = updated
        return float(total)


def dawson_asymptotic_oracle(x: float) -> float:
    """Optimally truncated large-argument series (1/2x) sum_n (2n-1)!!/(2x^2)^n.

    Truncation at the smallest term leaves a relative error ~exp(-x^2),
    far below the tolerances it is used at (x >= 6).
    """
    ax = abs(x)
    if ax < 3.0:
        raise ValueError("asymptotic oracle is only accurate for |x| >= ~3")
    term = 1.0
    total = 1.0
    n = 0
    while True:
        n += 1
        nxt = term * (2 * n - 1) / (2.0 * ax * ax)
        if abs(nxt) >= abs(term):
            break
        term = nxt
        total += term
    return math.copysign(total / (2.0 * ax), x)


_HALF = 0.5
_LETTER_COEFF = {
    "c": {1: 0.5, -1: 0.5},
    "s": {1: -0.5j, -1: 0.5j},
}


def weyl_expansion_oracle(m: MomentSet) -> dict[str, complex]:
    """All six fourth-order moments by brute 16-term expansion.

    Each cosine/sine factor is split into its two exponentiated-field parts;
    products are recombined with the composition rule
    W(a) W(b) = exp(-i E(a, b) / 2) W(a + b) and the quasi-free expectation
    exp(-(m^2 W11 + n^2 W22 + 2 m n mu12) / 2) of the combined element.
    """
    w11 = -0.5 * math.log(m.nu1)
    w22 = -0.5 * math.log(m.nu2)
    patterns = {
        "cccc": "cccc",
        "cssc": "cssc",
        "sccs": "sccs",
        "ssss": "ssss",
        "csc_s": "cscs",
        "ssc_c": "sscc",
    }
    results: dict[str, complex] = {}
    for name, letters in patterns.items():
        total = 0j
        for s1 in (1, -1):
            for s2 in (1, -1):
                for s3 in (1, -1):
                    for s4 in (1, -1):
                        coeff = (
                            _LETTER_COEFF[letters[0]][s1]
                            * _LETTER_COEFF[letters[1]][s2]
                            * _LETTER_COEFF[letters[2]][s3]
                            * _LETTER_COEFF[letters[3]][s4]
                        )
                        phase = cmath.exp(
                            0.5j * m.e12 * (-s1 * s2 - s1 * s3 + (s2 + s3) * s4)
                        )
                        mm = s1 + s4
                        nn = s2 + s3
                        expectation = math.exp(
                            -_HALF * (mm * mm * w11 + nn * nn * w22 + 2 * mm * nn * m.mu12)
                        )
                        total += coeff * phase * expectation
        results[name] = total
    return results


def generic_kick_cos_sin(alpha: complex, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Matrix cosine and sine of the kick alpha a + conj(alpha) a^dag on dim
    levels, from a complex Hermitian eigendecomposition of the kick itself:
    no phase rotation and no shared spectrum."""
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1)
    w, v = np.linalg.eigh(alpha * a + np.conj(alpha) * a.conj().T)
    vh = v.conj().T
    return (v * np.cos(w)) @ vh, (v * np.sin(w)) @ vh


_TRUNCATION_TOL = 1e-10


def _reference_mode_state(fp: FockParams) -> np.ndarray:
    """The thermal (vacuum at nbar = 0) mode state on dim levels, unit trace."""
    weights = (fp.nbar / (fp.nbar + 1.0)) ** np.arange(fp.dim, dtype=float)
    return np.diag(weights / weights.sum())


def _reference_truncation(top_level: float, dim: int, stage: str) -> None:
    if top_level > _TRUNCATION_TOL:
        raise TruncationError(
            f"top Fock level holds {top_level:.3e} of the state {stage}; "
            f"increase dim (currently {dim}, try {2 * dim})"
        )


def reference_cycle_fock(fp: FockParams, omega1: float, omega2: float, tau1: float,
                         tau2: float, p: float) -> tuple[float, float]:
    """(p1, p2) of the two-kick evolution on the full density matrix.

    rho = diag(p, 1 - p) (x) mode state, built with np.kron, evolves as
    u rho u^dag under each 2 dim x 2 dim kick, whose cosine and sine come
    from generic_kick_cos_sin; the top Fock level is checked at the same
    stages as the package, with the same TruncationError message.
    """
    dim = fp.dim
    mode = _reference_mode_state(fp)
    _reference_truncation(mode[-1, -1], dim, "before the first kick")
    rho = np.kron(np.diag([p, 1.0 - p]), mode).astype(complex)
    populations = []
    for alpha, phase, stage in (
        (fp.alpha1, omega1 * tau1, "after the first kick"),
        (fp.alpha2, omega2 * tau2, "after the second kick"),
    ):
        cos_m, sin_m = generic_kick_cos_sin(complex(alpha), dim)
        u = np.block([
            [cos_m, -1j * cmath.exp(1j * phase) * sin_m],
            [-1j * cmath.exp(-1j * phase) * sin_m, cos_m],
        ])
        rho = u @ rho @ u.conj().T
        diag = np.diagonal(rho).real
        _reference_truncation(diag[dim - 1] + diag[2 * dim - 1], dim, stage)
        populations.append(float(diag[:dim].sum()))
    return populations[0], populations[1]


def reference_weyl_traces(fp: FockParams) -> dict[str, complex]:
    """The six fourth-order moments as direct traces Tr(rho A B C D) of four
    full matrix products, cosines and sines from generic_kick_cos_sin."""
    rho = _reference_mode_state(fp)
    _reference_truncation(rho[-1, -1], fp.dim, "in the initial state")
    c1, s1 = generic_kick_cos_sin(complex(fp.alpha1), fp.dim)
    c2, s2 = generic_kick_cos_sin(complex(fp.alpha2), fp.dim)

    def ev(a, b, c, d) -> complex:
        return complex(np.trace(rho @ a @ b @ c @ d))

    return {
        "cccc": ev(c1, c2, c2, c1), "cssc": ev(c1, s2, s2, c1),
        "sccs": ev(s1, c2, c2, s1), "ssss": ev(s1, s2, s2, s1),
        "csc_s": ev(c1, s2, c2, s1), "ssc_c": ev(s1, s2, c2, c1),
    }


def gram_moment_set(w11: float, w22: float, frac: float, phase: float) -> MomentSet:
    """Moment set from Gram data: |W12| = frac * sqrt(W11 W22), frac in [0, 1]."""
    radius = frac * math.sqrt(w11 * w22)
    w12 = radius * complex(math.cos(phase), math.sin(phase))
    return MomentSet(
        nu1=math.exp(-2.0 * w11),
        nu2=math.exp(-2.0 * w22),
        e12=2.0 * w12.imag,
        mu12=w12.real,
    )


def moment_set_strategy() -> st.SearchStrategy[MomentSet]:
    """Arbitrary valid moment sets (finite, nu in (0, 1]), not necessarily
    realizable by a state."""
    return st.builds(
        MomentSet,
        nu1=st.floats(min_value=1e-8, max_value=1.0),
        nu2=st.floats(min_value=1e-8, max_value=1.0),
        e12=st.floats(min_value=-50.0, max_value=50.0),
        mu12=st.floats(min_value=-20.0, max_value=20.0),
    )


def realizable_moment_set_strategy() -> st.SearchStrategy[MomentSet]:
    """Moment sets obeying the Gram bound, hence realizable by a quasi-free state."""
    return st.builds(
        gram_moment_set,
        w11=st.floats(min_value=0.0, max_value=3.0),
        w22=st.floats(min_value=0.0, max_value=3.0),
        frac=st.floats(min_value=0.0, max_value=1.0),
        phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )


def sample_gram_moment_sets(
    rng: np.random.Generator, count: int, zero_signal: bool = False
) -> list[MomentSet]:
    """Plain RNG version of the realizable sampler, for large ensembles."""
    out = []
    for _ in range(count):
        w11 = rng.uniform(0.0, 2.0)
        w22 = rng.uniform(0.0, 2.0)
        frac = rng.uniform(0.0, 1.0)
        phase = 0.0 if zero_signal else rng.uniform(0.0, 2.0 * math.pi)
        out.append(gram_moment_set(w11, w22, frac, phase))
    return out


_LEDGER_DPS = 50
# the package's thresholds, restated: realizability slack, closure and
# simplex ranges, degeneracy of the contraction factor
_LOG_BOUND_MAX = math.log1p(1e-9)
_RANGE_TOL = 1e-12
_DEGENERACY_TOL = 1e-12
_UNREALIZABLE = "the moment data is not realizable by a quasi-free state"


def reference_contraction(m: MomentSet, theta: float) -> mp.mpf:
    """nu1 nu2 alpha = nu1 nu2 (exp(4 mu12) sin^2(theta/2) + exp(-4 mu12)
    cos^2(theta/2)) in 50-digit mpmath, clamped to <= 1."""
    with mp.workdps(_LEDGER_DPS):
        nu1, nu2, mu12, th = (mp.mpf(v) for v in (m.nu1, m.nu2, m.mu12, theta))
        alpha = mp.exp(4 * mu12) * mp.sin(th / 2) ** 2 + mp.exp(-4 * mu12) * mp.cos(th / 2) ** 2
        return min(nu1 * nu2 * alpha, mp.mpf(1))


def reference_ledger(m: MomentSet, theta: float, omega1: float, omega2: float,
                     p: float | None = None) -> dict:
    """The closed-form cycle ledger evaluated in 50-digit mpmath, as floats.

    Closure fixes p unless p is given; a degenerate closed cycle
    (1 - nu1 nu2 alpha < 1e-12) is the no-op row p = p1 = p2 = 1/2 with zero
    strokes.  Makes the package's checks in its order (realizability bound,
    closure range, p2 range) and raises KernelInconsistencyError with the
    package's message, its number formatted from the exact value.  Absent
    entries (w_ext of an open cycle, efficiency where q2 = 0) are None.
    """
    closure = p is None
    with mp.workdps(_LEDGER_DPS):
        nu1, nu2, e12, mu12, th = (mp.mpf(v) for v in (m.nu1, m.nu2, m.e12, m.mu12, theta))
        log_bound = mp.log(nu1) + mp.log(nu2) + 4 * abs(mu12)
        if log_bound > _LOG_BOUND_MAX:
            raise KernelInconsistencyError(
                f"nu1*nu2*exp(4|mu12|) = exp({float(log_bound)!r}) exceeds 1 beyond "
                f"tolerance 1e-09; {_UNREALIZABLE}")
        product = reference_contraction(m, theta)
        signal = nu2 * mp.sin(2 * e12) * mp.sin(th)
        degenerate = bool(1 - product < _DEGENERACY_TOL)
        noop = degenerate and closure
        half = mp.mpf(0.5)
        if noop:
            p = half
        elif closure:
            p = half - signal / 2 / (product - 1)
            if not -_RANGE_TOL <= p <= 1 + _RANGE_TOL:
                raise KernelInconsistencyError(
                    f"closure population {float(p)!r} falls outside [0, 1]; {_UNREALIZABLE}")
            p = min(max(p, mp.mpf(0)), mp.mpf(1))
        else:
            p = mp.mpf(p)
        p1 = half + (p - half) * nu1
        p2 = p * product + (1 - product) / 2 + signal / 2
        if noop:
            p2 = p
        elif not -_RANGE_TOL <= p2 <= 1 + _RANGE_TOL:
            raise KernelInconsistencyError(
                f"second-kick population {float(p2)!r} falls outside [0, 1]; {_UNREALIZABLE}")
        p2 = min(max(p2, mp.mpf(0)), mp.mpf(1))
        d_omega = mp.mpf(omega1) - mp.mpf(omega2)
        work = (p1 - p) * d_omega
        q2, q4 = omega1 * (p1 - p), omega2 * (p2 - p1)
        closed = closure or bool(abs(p2 - p) <= _RANGE_TOL)
        return {
            "product": float(product), "p": float(p), "p1": float(p1), "p2": float(p2),
            "w1": 0.0 if noop else float(p * d_omega),
            "w3": 0.0 if noop else float(-p1 * d_omega),
            "q2": float(q2), "q4": float(q4), "q_total": float(q2 + q4),
            "w_ext": float(work) if closed else None,
            "efficiency": float(work / q2) if closed and q2 != 0 else None,
            "pwc": bool(closed and work > 0), "degenerate": degenerate, "closed": closed,
        }
