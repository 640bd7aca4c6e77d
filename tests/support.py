"""Shared helpers for the test suite: high-precision reference oracles and
generators of admissible moment data.

The oracles here are deliberately independent of the package code paths they
check: the Dawson references sum series in arbitrary precision, and the
fourth-order moments are expanded term by term through the exponentiated
commutation relations rather than through the closed hyperbolic forms.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np
from hypothesis import strategies as st

from ottoqft.algebra import MomentSet


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
