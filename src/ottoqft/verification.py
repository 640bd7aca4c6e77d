"""Self-verification suite: runs every oracle cross-check and reports each
measured deviation against its threshold.

This backs the ``ottoqft verify`` subcommand.  All randomness is seeded, so
a given build either passes deterministically or fails deterministically.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import time
from typing import Iterable, Iterator, Mapping

from .algebra import (InvalidKernelError, KernelContractError, KernelInconsistencyError,
                      _on_arrays, _products, moment_set_from_kernel, p_after_first,
                      p_after_second, weyl_moments)
from .config import DEFAULT_TOLERANCES
from .cycle import ledger_arrays
from .minkowski import dawson, minkowski_moment_arrays
from .oracle import (
    FockParams,
    _weyl_deviation,
    quadrature_minkowski_moments,
    simulate_cycle_fock,
    single_mode_kernel,
)
from .record import Record

# after the package's modules, which then compile (where no bytecode is cached) before
# NumPy's import has grown the heap: compiled on top of it they raised verify's peak RSS
import numpy as np

__all__ = [
    "CheckResult",
    "DEFAULT_TOLERANCES",
    "format_report",
    "run_verification",
    "run_verify",
    "sample_moment_sets",
]

DEFAULT_SEED = 20250810

# a check passes strictly below its threshold, an exact check also at it
_PASSES_AT_THRESHOLD = ("no_signaling", "thermal_e12")

# reference Dawson values, 17 significant digits, computed once from the
# high-precision Maclaurin/asymptotic series; points cover [0.0625, 50]
# and are kept as frozen regression values
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


class CheckResult(Record):
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


def _gram_columns(rng: random.Random, count: int) -> tuple[np.ndarray, ...]:
    """W11, W22, Im W12, Re W12 of count Gram rows (W11, W22, frac, phase),
    drawn by one _uniform call.

    W12 = frac sqrt(W11 W22) e^{i phase} obeys |W12|^2 <= W11 W22, exactly
    the realizability envelope.
    """
    w11, w22, frac, phase = _uniform(rng, 0.0, (2.0, 2.0, 1.0, 2.0 * math.pi), count).T
    radius = frac * np.sqrt(w11 * w22)
    return w11, w22, radius * np.sin(phase), radius * np.cos(phase)


def _uniform(rng: random.Random, low, high, count: int) -> np.ndarray:
    """count rows of uniforms on [low, high), a column per entry of high, from one
    randbytes call (getrandbits' words, little-endian): in C order, the same doubles,
    and the same generator state afterwards, as one rng.uniform call per value
    (random()'s 53-bit formula)."""
    n = count * len(high)
    w = np.frombuffer(rng.randbytes(8 * n), "<u4")
    u = ((w[0::2] >> 5) * 67108864.0 + (w[1::2] >> 6)) * (1.0 / 9007199254740992.0)
    low, high = np.asarray(low), np.asarray(high)
    return low + (high - low) * u.reshape(count, len(high))


def sample_moment_sets(rng: random.Random, count: int) -> tuple[np.ndarray, ...]:
    """Columns (nu1, nu2, e12, mu12) of count random moment sets realizable
    by a quasi-free state (see _gram_columns).

    Every uniform is drawn by this call, from one randbytes call of rng and
    filled in C order: the same numbers, and the same generator state
    afterwards, as one rng.uniform call per value.
    """
    w11, w22, im_w12, re_w12 = _gram_columns(rng, count)
    return np.exp(-2.0 * w11), np.exp(-2.0 * w22), 2.0 * im_w12, re_w12


def _sample_fock_cases(rng: random.Random, count: int) -> Iterator[tuple]:
    # a case at a time, so that a case that fails stops the check before more are drawn
    for _ in range(count):
        a1 = complex(rng.uniform(-0.35, 0.35), rng.uniform(-0.35, 0.35))
        a2 = complex(rng.uniform(-0.35, 0.35), rng.uniform(-0.35, 0.35))
        nbar = rng.choice((0.0, 1.0))
        p = rng.uniform(0.0, 1.0)
        omega1 = rng.uniform(0.5, 3.0)
        omega2 = rng.uniform(0.5, 3.0)
        tau1 = rng.uniform(0.0, 1.0)
        tau2 = tau1 + rng.uniform(0.2, 2.0)
        yield a1, a2, nbar, p, omega1, omega2, tau1, tau2


def _check_fock(rng, cases: int, dim: int):
    # one draw of the cases serves the population and the Weyl lines: a row of
    # their four deviations per case, from one evaluation of the case's closed forms
    rows = []
    for a1, a2, nbar, p, o1, o2, t1, t2 in _sample_fock_cases(rng, cases):
        fp = FockParams(alpha1=a1, alpha2=a2, nbar=nbar, dim=dim)
        p1, p2 = simulate_cycle_fock(fp, o1, o2, t1, t2, p)
        m = moment_set_from_kernel(single_mode_kernel(fp))
        w = weyl_moments(m)
        rows.append((abs(p1 - p_after_first(p, m)), abs(p2 - p_after_second(p, m, o1 * t1 - o2 * t2)),
                     _weyl_deviation(fp, w), abs(w.cccc + w.cssc + w.sccs + w.ssss - 1.0)))
    p1, p2, weyl, partition = zip(*rows)
    detail = f"{cases} random kicks vs exact evolution, dim={dim}"
    yield p1, detail
    yield p2, detail
    yield weyl, f"six matrix moments vs closed forms, {cases} cases"
    yield partition, "four real moments sum to 1"


def _check_appendix_identities(rng, count: int = 1000):
    # nu of the sum/difference regions follows from kernel bilinearity:
    # W(f1 +/- f2, f1 +/- f2) = W11 +/- 2 mu12 + W22
    w11, w22, _, mu12 = _gram_columns(rng, count)
    nu1, nu2 = np.exp(-2.0 * w11), np.exp(-2.0 * w22)
    nu_minus = np.exp(-2.0 * (w11 - 2.0 * mu12 + w22))
    nu_plus = np.exp(-2.0 * (w11 + 2.0 * mu12 + w22))
    # the kernel's own nu1 nu2 exp(+-4 mu12), which every cycle uses, are nu-+
    up, down, _ = _on_arrays(_products, nu1, nu2, mu12)
    deviations = np.abs([
        nu_minus + nu_plus - 2.0 * nu1 * nu2 * np.cosh(4.0 * mu12),
        nu_minus - nu_plus - 2.0 * nu1 * nu2 * np.sinh(4.0 * mu12),
        up - nu_minus, down - nu_plus,
    ])
    yield deviations, f"cosh/sinh recombination and products, {count} random kernels"


def _check_quadrature():
    grid = list(itertools.product((0.5, 10.0, 100.0), (0.5, 1.25, 2.0), (0.25, 1.0, 3.0)))
    lambda1, lambda2, dtau = np.array(grid).T
    analytic = np.array(minkowski_moment_arrays(lambda1, lambda2, dtau))
    quadrature = np.array([(q.nu1, q.nu2, q.e12, q.mu12)
                           for q in quadrature_minkowski_moments(lambda1, lambda2, dtau)]).T
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(quadrature)), 1e-300)
    yield np.abs(analytic - quadrature) / scale, "analytic vs quadrature moments, 3x3x3 grid (relative)"


def _check_dawson():
    deviations = [d for x, ref in _DAWSON_TABLE for d in (abs(dawson(x) - ref), abs(dawson(-x) + ref))]
    yield deviations, f"{len(_DAWSON_TABLE)} frozen points on [0.0625, 50]"


def _check_cycle_properties(rng, count: int = 10_000, block: int = 2048):
    # each block draws its moment sets, then its cycles' theta, omega1, omega2 (degenerate
    # cycles too), so that only a block's draws and temporaries are held, and their maxima
    fixed_point, first_law = [], []
    for k in range(0, count, block):
        n = min(block, count - k)
        nu1, nu2, e12, mu12 = sample_moment_sets(rng, n)
        theta, omega1, omega2 = _uniform(rng, (-8.0, 0.1, 0.1), (8.0, 5.0, 5.0), n).T
        c = ledger_arrays(theta, omega1, omega2, nu1, nu2, e12, mu12)
        fixed_point.append(np.max(np.abs(c.p2 - c.p)))
        # the closed-form w_ext against the heat of the strokes; both give 0 on a
        # degenerate cycle, the no-op row
        first_law.append(np.max(np.abs(c.w_ext - (c.q2 + c.q4))))
    yield fixed_point, f"closure residual over {count} random cycles"
    yield first_law, f"work/heat balance over {count} random cycles"


def _check_no_signaling(rng, count: int = 1000):
    nu1, nu2, _, mu12 = sample_moment_sets(rng, count)
    theta, d_omega = _uniform(rng, (-8.0, -5.0), (8.0, 5.0), count).T
    # the work depends on the gaps only through their difference
    work = ledger_arrays(theta, d_omega, 0.0, nu1, nu2, 0.0, mu12).w_ext
    yield np.abs(work), f"e12 = 0 forces zero work, {count} cases (exact)"


def _check_thermal_e12():
    kernels = [single_mode_kernel(FockParams(alpha1=0.31 - 0.12j, alpha2=-0.07 + 0.44j, nbar=nbar))
               for nbar in (0.0, 0.5, 1.0, 5.0)]
    values = [moment_set_from_kernel(kernel).e12 for kernel in kernels]
    yield [abs(v - values[0]) for v in values], "signal part unchanged across nbar in {0, 0.5, 1, 5}"


def run_verification(
    overrides: Mapping[str, float] | None = None,
    seed: int = DEFAULT_SEED,
    cases: int = 50,
    dim: int = 60,
) -> list[CheckResult]:
    """Run every cross-check; overrides may replace individual tolerances.
    seed, cases and dim are integers (operator.index): a float raises TypeError."""
    tol = {**DEFAULT_TOLERANCES, **(overrides or {})}
    unknown = set(tol) - set(DEFAULT_TOLERANCES)
    if unknown:
        raise ValueError(f"unknown tolerance override(s): {sorted(unknown)}")
    seed, cases = operator.index(seed), operator.index(cases)  # random.Random would hash a float
    if cases < 1:
        raise ValueError(f"cases must be >= 1, got {cases!r}")
    if seed < 0:  # random.Random would seed with abs(seed): -s and s would share a report
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    rng = random.Random(seed)
    # each check is a generator of the raw deviations and detail of the lines named with
    # it, in order; it runs, and draws from rng, only when the loop reaches it.  A line is
    # reported by its largest deviation, which np.max takes as NaN if any one is NaN: a
    # NaN fails the line.  A check that raises a kernel error fails each line it has not
    # given, naming the error, and the checks after it still run
    checks = (
        (("fock_p1", "fock_p2", "weyl_moments", "weyl_partition"), _check_fock(rng, cases, dim)),
        (("appendix_identities",), _check_appendix_identities(rng)),
        (("quadrature_kernel",), _check_quadrature()),
        (("dawson_spot",), _check_dawson()),
        (("fixed_point", "first_law"), _check_cycle_properties(rng)),
        (("no_signaling",), _check_no_signaling(rng)),
        (("thermal_e12",), _check_thermal_e12()),
    )
    results = []

    def report(name, deviation, detail):
        passes = operator.le if name in _PASSES_AT_THRESHOLD else operator.lt
        results.append(CheckResult(name, deviation, tol[name], passes(deviation, tol[name]), detail))

    for names, check in checks:
        given = len(results)
        try:
            for name, (deviations, detail) in zip(names, check):
                report(name, float(np.max(deviations)), detail)
        except (InvalidKernelError, KernelContractError, KernelInconsistencyError) as exc:
            for name in names[len(results) - given:]:
                report(name, math.nan, f"{type(exc).__name__}: {exc}")
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
