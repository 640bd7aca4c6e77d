"""Self-verification suite: runs every oracle cross-check and reports each
measured deviation against its threshold.

This backs the ``ottoqft verify`` subcommand.  All randomness is seeded, so
a given build either passes deterministically or fails deterministically.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .algebra import (
    MomentSet,
    moment_set_from_kernel,
    p_after_first,
    p_after_second,
    weyl_moments,
)
from .cycle import DegenerateCycleError, cyclic_initial_population, extracted_work
from .minkowski import MinkowskiParams, dawson, minkowski_moments
from .oracle import (
    FockParams,
    QuadratureSpec,
    quadrature_minkowski_moments,
    simulate_cycle_fock,
    single_mode_kernel,
    verify_weyl_moments,
)

__all__ = [
    "CheckResult",
    "DEFAULT_TOLERANCES",
    "format_report",
    "run_verification",
    "run_verify",
    "sample_moment_sets",
]

DEFAULT_SEED = 20250810
_ROWS_PER_BLOCK = 1024

DEFAULT_TOLERANCES: dict[str, float] = {
    "fock_p1": 1e-8,
    "fock_p2": 1e-6,
    "weyl_moments": 1e-8,
    "weyl_partition": 1e-12,
    "appendix_identities": 1e-12,
    "quadrature_kernel": 1e-3,  # relative
    "dawson_spot": 1e-12,
    "first_law": 1e-12,
    "fixed_point": 1e-12,
    "no_signaling": 0.0,  # exact zero
    "thermal_e12": 1e-15,
}

# reference Dawson values, 17 significant digits, computed once from the
# high-precision Maclaurin/asymptotic series; points cover [0.0625, 50],
# with pairs straddling x = 2.5 and x = 6
_DAWSON_TABLE: tuple[tuple[float, float], ...] = (
    (0.0625, 0.06233749361289894),
    (0.5, 0.4244363835020223),
    (0.924138873, 0.5410442246351817),
    (1.0, 0.53807950691276842),
    (2.0, 0.30134038892379197),
    (2.4999, 0.22309526468317941),
    (2.5001, 0.22307218096094765),
    (3.0, 0.17827103061055829),
    (4.5, 0.11408861022682498),
    (5.9999, 0.084544140226622926),
    (6.0001, 0.084541237773083123),
    (8.0, 0.063000198707553388),
    (12.0, 0.04181287645398826),
    (25.0, 0.020016038554466408),
    (50.0, 0.010002001201201683),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    threshold: float
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}  {self.name:<22} deviation={self.deviation:.3e}  "
            f"threshold={self.threshold:.1e}  ({self.detail})"
        )


def _rows(draws: np.ndarray) -> Iterator[list[float]]:
    """Rows of draws as lists of Python floats, converted a block at a time
    so no list of every row is ever held."""
    for start in range(0, len(draws), _ROWS_PER_BLOCK):
        yield from draws[start:start + _ROWS_PER_BLOCK].tolist()


def _gram_moment_set(w11: float, w22: float, frac: float, phase: float = 0.0) -> MomentSet:
    radius = frac * math.sqrt(w11 * w22)
    w12 = radius * complex(math.cos(phase), math.sin(phase))
    return MomentSet(
        nu1=math.exp(-2.0 * w11),
        nu2=math.exp(-2.0 * w22),
        e12=2.0 * w12.imag,
        mu12=w12.real,
    )


def sample_moment_sets(
    rng: np.random.Generator, count: int, zero_signal: bool = False
) -> Iterator[MomentSet]:
    """Random moment sets realizable by a quasi-free state.

    Draws diagonal values W11, W22 >= 0 and a cross value obeying the Gram
    bound |W12|^2 <= W11 * W22, which is exactly the realizability envelope;
    zero_signal forces the cross value real (e12 = 0).

    Every uniform is drawn by this call, in one array filled in C order: the
    same numbers, and the same generator state afterwards, as one
    rng.uniform call per value.  The sets are built as they are iterated.
    """
    high = (2.0, 2.0, 1.0) if zero_signal else (2.0, 2.0, 1.0, 2.0 * math.pi)
    draws = rng.uniform(0.0, high, size=(count, len(high)))
    return (_gram_moment_set(*row) for row in _rows(draws))


def _sample_fock_cases(rng: np.random.Generator, count: int) -> list[tuple]:
    cases = []
    for _ in range(count):
        a1 = complex(rng.uniform(-0.35, 0.35), rng.uniform(-0.35, 0.35))
        a2 = complex(rng.uniform(-0.35, 0.35), rng.uniform(-0.35, 0.35))
        nbar = float(rng.choice([0.0, 1.0]))
        p = rng.uniform(0.0, 1.0)
        omega1 = rng.uniform(0.5, 3.0)
        omega2 = rng.uniform(0.5, 3.0)
        tau1 = rng.uniform(0.0, 1.0)
        tau2 = tau1 + rng.uniform(0.2, 2.0)
        cases.append((a1, a2, nbar, p, omega1, omega2, tau1, tau2))
    return cases


def _check_fock_populations(rng, tol: Mapping[str, float], cases: int, dim: int):
    dev1 = dev2 = 0.0
    for a1, a2, nbar, p, o1, o2, t1, t2 in _sample_fock_cases(rng, cases):
        fp = FockParams(alpha1=a1, alpha2=a2, nbar=nbar, dim=dim)
        p1_fock, p2_fock = simulate_cycle_fock(fp, o1, o2, t1, t2, p)
        m = moment_set_from_kernel(single_mode_kernel(fp))
        th = o1 * t1 - o2 * t2
        dev1 = max(dev1, abs(p1_fock - p_after_first(p, m)))
        dev2 = max(dev2, abs(p2_fock - p_after_second(p, m, th)))
    yield CheckResult(
        "fock_p1", dev1, tol["fock_p1"], dev1 < tol["fock_p1"],
        f"{cases} random kicks vs exact evolution, dim={dim}",
    )
    yield CheckResult(
        "fock_p2", dev2, tol["fock_p2"], dev2 < tol["fock_p2"],
        f"{cases} random kicks vs exact evolution, dim={dim}",
    )


def _check_weyl(rng, tol: Mapping[str, float], cases: int, dim: int):
    dev = part = 0.0
    for a1, a2, nbar, *_ in _sample_fock_cases(rng, cases):
        fp = FockParams(alpha1=a1, alpha2=a2, nbar=nbar, dim=dim)
        dev = max(dev, verify_weyl_moments(fp))
        w = weyl_moments(moment_set_from_kernel(single_mode_kernel(fp)))
        part = max(part, abs(w.cccc + w.cssc + w.sccs + w.ssss - 1.0))
    yield CheckResult(
        "weyl_moments", dev, tol["weyl_moments"], dev < tol["weyl_moments"],
        f"six matrix moments vs closed forms, {cases} cases",
    )
    yield CheckResult(
        "weyl_partition", part, tol["weyl_partition"], part < tol["weyl_partition"],
        "four real moments sum to 1",
    )


def _check_appendix_identities(rng, tol: Mapping[str, float], count: int = 1000):
    # nu of the sum/difference regions follows from kernel bilinearity:
    # W(f1 +/- f2, f1 +/- f2) = W11 +/- 2 mu12 + W22
    dev = 0.0
    draws = rng.uniform(0.0, (2.0, 2.0, 1.0, 2.0 * math.pi), size=(count, 4))
    for w11, w22, frac, phase in _rows(draws):
        radius = frac * math.sqrt(w11 * w22)
        mu12 = radius * math.cos(phase)
        nu1, nu2 = math.exp(-2.0 * w11), math.exp(-2.0 * w22)
        nu_minus = math.exp(-2.0 * (w11 - 2.0 * mu12 + w22))
        nu_plus = math.exp(-2.0 * (w11 + 2.0 * mu12 + w22))
        dev = max(
            dev,
            abs(nu_minus + nu_plus - 2.0 * nu1 * nu2 * math.cosh(4.0 * mu12)),
            abs(nu_minus - nu_plus - 2.0 * nu1 * nu2 * math.sinh(4.0 * mu12)),
        )
    yield CheckResult(
        "appendix_identities", dev, tol["appendix_identities"],
        dev < tol["appendix_identities"],
        f"cosh/sinh recombination on {count} random kernels",
    )


def _check_quadrature(tol: Mapping[str, float]):
    spec = QuadratureSpec()
    dev = 0.0
    for l1 in (0.5, 10.0, 100.0):
        for l2 in (0.5, 1.25, 2.0):
            for dtau in (0.25, 1.0, 3.0):
                analytic = minkowski_moments(MinkowskiParams(l1, l2, dtau))
                numeric = quadrature_minkowski_moments(l1, l2, 1.0, dtau, spec)
                for name in ("nu1", "nu2", "e12", "mu12"):
                    a, b = getattr(analytic, name), getattr(numeric, name)
                    dev = max(dev, abs(a - b) / max(abs(a), abs(b), 1e-300))
    yield CheckResult(
        "quadrature_kernel", dev, tol["quadrature_kernel"],
        dev < tol["quadrature_kernel"],
        "analytic vs quadrature moments, 3x3x3 grid (relative)",
    )


def _check_dawson(tol: Mapping[str, float]):
    dev = 0.0
    for x, ref in _DAWSON_TABLE:
        dev = max(dev, abs(dawson(x) - ref), abs(dawson(-x) + ref))
    yield CheckResult(
        "dawson_spot", dev, tol["dawson_spot"], dev < tol["dawson_spot"],
        f"{len(_DAWSON_TABLE)} frozen points on [0.0625, 50]",
    )


def _check_cycle_properties(rng, tol: Mapping[str, float], count: int = 10_000):
    fl = fp_res = 0.0
    moment_sets = sample_moment_sets(rng, count)
    # theta, omega1, omega2 per cycle, drawn for degenerate cycles as well
    draws = rng.uniform((-8.0, 0.1, 0.1), (8.0, 5.0, 5.0), size=(count, 3))
    for m, (th, omega1, omega2) in zip(moment_sets, _rows(draws)):
        try:
            p = cyclic_initial_population(m, th)
        except DegenerateCycleError:
            continue
        p2 = p_after_second(p, m, th)
        fp_res = max(fp_res, abs(p2 - p))
        d_omega = omega1 - omega2
        p1 = p_after_first(p, m)
        w = (p1 - p) * d_omega
        q2 = omega1 * (p1 - p)
        q4 = omega2 * (p2 - p1)
        fl = max(fl, abs(w - (q2 + q4)), abs(w - extracted_work(m, th, d_omega)))
    yield CheckResult(
        "fixed_point", fp_res, tol["fixed_point"], fp_res < tol["fixed_point"],
        f"closure residual over {count} random cycles",
    )
    yield CheckResult(
        "first_law", fl, tol["first_law"], fl < tol["first_law"],
        f"work/heat balance over {count} random cycles",
    )


def _check_no_signaling(rng, tol: Mapping[str, float], count: int = 1000):
    worst = 0.0
    moment_sets = sample_moment_sets(rng, count, zero_signal=True)
    draws = rng.uniform((-8.0, -5.0), (8.0, 5.0), size=(count, 2))  # theta, delta_omega
    for m, (th, d_omega) in zip(moment_sets, _rows(draws)):
        worst = max(worst, abs(extracted_work(m, th, d_omega)))
    yield CheckResult(
        "no_signaling", worst, tol["no_signaling"], worst <= tol["no_signaling"],
        f"e12 = 0 forces zero work, {count} cases (exact)",
    )


def _check_thermal_e12(tol: Mapping[str, float]):
    alpha1, alpha2 = 0.31 - 0.12j, -0.07 + 0.44j
    values = [
        moment_set_from_kernel(
            single_mode_kernel(FockParams(alpha1=alpha1, alpha2=alpha2, nbar=nbar))
        ).e12
        for nbar in (0.0, 0.5, 1.0, 5.0)
    ]
    dev = max(abs(v - values[0]) for v in values)
    yield CheckResult(
        "thermal_e12", dev, tol["thermal_e12"], dev <= tol["thermal_e12"],
        "signal part unchanged across nbar in {0, 0.5, 1, 5}",
    )


def run_verification(
    overrides: Mapping[str, float] | None = None,
    seed: int = DEFAULT_SEED,
    cases: int = 50,
    dim: int = 60,
) -> list[CheckResult]:
    """Run every cross-check; overrides may replace individual tolerances."""
    tol = dict(DEFAULT_TOLERANCES)
    if overrides:
        unknown = set(overrides) - set(tol)
        if unknown:
            raise ValueError(f"unknown tolerance override(s): {sorted(unknown)}")
        tol.update(overrides)
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    results.extend(_check_fock_populations(rng, tol, cases, dim))
    results.extend(_check_weyl(rng, tol, cases, dim))
    results.extend(_check_appendix_identities(rng, tol))
    results.extend(_check_quadrature(tol))
    results.extend(_check_dawson(tol))
    results.extend(_check_cycle_properties(rng, tol))
    results.extend(_check_no_signaling(rng, tol))
    results.extend(_check_thermal_e12(tol))
    return results


def format_report(results: Iterable[CheckResult], elapsed: float | None = None) -> str:
    results = list(results)
    lines = [r.line() for r in results]
    failed = [r for r in results if not r.passed]
    summary = f"{len(results) - len(failed)}/{len(results)} checks passed"
    if elapsed is not None:
        summary += f" in {elapsed:.2f} s"
    if failed:
        summary += "; FAILURES: " + ", ".join(r.name for r in failed)
    lines.append(summary)
    return "\n".join(lines)


def run_verify(overrides: Mapping[str, float] | None = None, **options: int) -> tuple[int, str]:
    """Full verification pass: (exit status, printable report).

    options (seed, cases, dim) go to run_verification, which holds their defaults.
    """
    start = time.perf_counter()
    results = run_verification(overrides, **options)
    report = format_report(results, time.perf_counter() - start)
    status = 0 if all(r.passed for r in results) else 2
    return status, report
