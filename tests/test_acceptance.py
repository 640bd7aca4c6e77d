"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or on
failure).  Criterion 2 is encoded exactly as stated; its cutoff window
[4.5, 8] is inconsistent with the closed forms that criteria 9 and 10 pin
down independently (the output there is ~1.7e-3, reaching 1e-6 only beyond
tau2/sigma ~ 6), so that single check fails by design rather than being
loosened.  See tests/test_minkowski.py for the verified decay behaviour.
"""

import math
import time

import numpy as np

from ottoqft.algebra import (
    moment_set_from_kernel,
    p_after_first,
    p_after_second,
    weyl_moments,
)
from ottoqft.cycle import DegenerateCycleError, cyclic_initial_population, extracted_work
from ottoqft.minkowski import MinkowskiParams, dawson, minkowski_moments
from ottoqft.oracle import (
    FockParams,
    quadrature_minkowski_moments,
    simulate_cycle_fock,
    single_mode_kernel,
    verify_weyl_moments,
)
from ottoqft.cli import main
from ottoqft.sweeps import figure4a_curve

from support import (
    dawson_asymptotic_oracle,
    dawson_series_oracle,
    sample_gram_moment_sets,
)

FIG4A = dict(omega1=1.0, omega2=3.0, tau1=0.0, lambda1=100.0, lambda2=1.0)


def _report(number: int, passed: bool, text: str) -> None:
    print(f"acceptance {number:02d} {'PASS' if passed else 'FAIL'}: {text}")


def test_01_no_signaling_null_theorem():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for m in sample_gram_moment_sets(rng, 1000, zero_signal=True):
        worst = max(worst, abs(extracted_work(m, rng.uniform(-8, 8), rng.uniform(-5, 5))))
    elapsed = time.perf_counter() - start
    ok = worst == 0.0 and elapsed < 1.0
    _report(1, ok, f"zero-signal work identically 0 (worst {worst!r}, {elapsed:.2f} s)")
    assert worst == 0.0
    assert elapsed < 1.0


def test_02_signal_cutoff_window():
    start = time.perf_counter()
    far_grid = list(np.linspace(4.5, 8.0, 351))
    near_grid = list(np.linspace(0.201, 2.999, 351))
    far = figure4a_curve(FIG4A["omega1"], FIG4A["omega2"], FIG4A["tau1"],
                         FIG4A["lambda1"], FIG4A["lambda2"], far_grid)
    near = figure4a_curve(FIG4A["omega1"], FIG4A["omega2"], FIG4A["tau1"],
                          FIG4A["lambda1"], FIG4A["lambda2"], near_grid)
    far_max = max(abs(w) for _, w in far)
    near_max = max(abs(w) for _, w in near)
    signs = [w for _, w in near if w != 0.0]
    sign_changes = sum(
        1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0)
    )
    elapsed = time.perf_counter() - start
    ok = far_max < 1e-6 and near_max > 1e-4 and sign_changes >= 1 and elapsed < 1.0
    _report(
        2, ok,
        f"cutoff window: max|W| on [4.5, 8] = {far_max:.3e} (< 1e-6 required), "
        f"max|W| on (0.2, 3) = {near_max:.3e}, {sign_changes} sign changes, {elapsed:.2f} s",
    )
    assert near_max > 1e-4
    assert sign_changes >= 1
    assert elapsed < 1.0
    assert far_max < 1e-6  # inconsistent with the pinned closed forms; kept as stated


def _closed_cycle_ensemble(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for m in sample_gram_moment_sets(rng, count):
        th = rng.uniform(-8.0, 8.0)
        omega1 = rng.uniform(0.1, 5.0)
        omega2 = rng.uniform(0.1, 5.0)
        try:
            p = cyclic_initial_population(m, th)
        except DegenerateCycleError:
            continue
        yield m, th, omega1, omega2, p


def test_03_first_law():
    start = time.perf_counter()
    worst = 0.0
    for m, th, omega1, omega2, p in _closed_cycle_ensemble(10_000, 303):
        p1 = p_after_first(p, m)
        p2 = p_after_second(p, m, th)
        d_omega = omega1 - omega2
        w = extracted_work(m, th, d_omega)
        worst = max(
            worst,
            abs(w - (omega1 * (p1 - p) + omega2 * (p2 - p1))),
            abs(w - (p1 - p) * d_omega),
        )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    _report(3, ok, f"first law over 10k closed cycles (worst {worst:.2e}, {elapsed:.2f} s)")
    assert worst < 1e-12
    assert elapsed < 1.0


def test_04_cyclicity_fixed_point():
    worst = 0.0
    in_range = True
    for m, th, _, _, p in _closed_cycle_ensemble(10_000, 303):
        in_range = in_range and 0.0 <= p <= 1.0
        worst = max(worst, abs(p_after_second(p, m, th) - p))
    ok = worst < 1e-12 and in_range
    _report(4, ok, f"fixed-point residual over 10k cycles (worst {worst:.2e})")
    assert in_range
    assert worst < 1e-12


def test_05_positive_work_sign_law():
    violations = 0
    checked = 0
    for m, th, omega1, omega2, _ in _closed_cycle_ensemble(10_000, 505):
        d_omega = omega1 - omega2
        if d_omega <= 0.0 or m.nu1 >= 1.0:
            continue
        signal = math.sin(2.0 * m.e12) * math.sin(th)
        if signal == 0.0:
            continue
        checked += 1
        w = extracted_work(m, th, d_omega)
        if w == 0.0 or (w > 0.0) != (signal < 0.0):
            violations += 1
    ok = violations == 0 and checked > 1000
    _report(5, ok, f"sign law on {checked} admissible cycles ({violations} violations)")
    assert checked > 1000
    assert violations == 0


def _fock_cases(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        alpha1 = complex(rng.uniform(-0.35, 0.35), rng.uniform(-0.35, 0.35))
        alpha2 = complex(rng.uniform(-0.35, 0.35), rng.uniform(-0.35, 0.35))
        nbar = float(rng.choice([0.0, 1.0]))
        omega1, omega2 = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
        tau1 = rng.uniform(0.0, 1.0)
        tau2 = tau1 + rng.uniform(0.2, 2.0)
        p = rng.uniform(0.0, 1.0)
        yield FockParams(alpha1=alpha1, alpha2=alpha2, nbar=nbar, dim=60), omega1, omega2, tau1, tau2, p


def test_06_fock_oracle_equivalence():
    start = time.perf_counter()
    dev1 = dev2 = 0.0
    for fp, omega1, omega2, tau1, tau2, p in _fock_cases(50, 606):
        p1_fock, p2_fock = simulate_cycle_fock(fp, omega1, omega2, tau1, tau2, p)
        m = moment_set_from_kernel(single_mode_kernel(fp))
        th = omega1 * tau1 - omega2 * tau2
        dev1 = max(dev1, abs(p1_fock - p_after_first(p, m)))
        dev2 = max(dev2, abs(p2_fock - p_after_second(p, m, th)))
    elapsed = time.perf_counter() - start
    ok = dev1 < 1e-8 and dev2 < 1e-6 and elapsed < 30.0
    _report(6, ok, f"Fock vs formulas over 50 cases (p1 {dev1:.2e}, p2 {dev2:.2e}, {elapsed:.1f} s)")
    assert dev1 < 1e-8
    assert dev2 < 1e-6
    assert elapsed < 30.0


def test_07_weyl_moment_check():
    dev = partition = 0.0
    for fp, *_ in _fock_cases(50, 606):
        dev = max(dev, verify_weyl_moments(fp))
        w = weyl_moments(moment_set_from_kernel(single_mode_kernel(fp)))
        partition = max(partition, abs(w.cccc + w.cssc + w.sccs + w.ssss - 1.0))
    ok = dev < 1e-8 and partition < 1e-12
    _report(7, ok, f"matrix moments vs closed forms (dev {dev:.2e}, partition {partition:.2e})")
    assert dev < 1e-8
    assert partition < 1e-12


def test_08_cosh_sinh_identities():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(1000):
        w11, w22 = rng.uniform(0, 2), rng.uniform(0, 2)
        mu12 = rng.uniform(-1, 1) * math.sqrt(w11 * w22)
        nu1, nu2 = math.exp(-2 * w11), math.exp(-2 * w22)
        nu_minus = math.exp(-2 * (w11 - 2 * mu12 + w22))
        nu_plus = math.exp(-2 * (w11 + 2 * mu12 + w22))
        worst = max(
            worst,
            abs(nu_minus + nu_plus - 2 * nu1 * nu2 * math.cosh(4 * mu12)),
            abs(nu_minus - nu_plus - 2 * nu1 * nu2 * math.sinh(4 * mu12)),
        )
    ok = worst < 1e-12
    _report(8, ok, f"sum/difference recombination on 1000 kernels (worst {worst:.2e})")
    assert worst < 1e-12


def test_09_quadrature_vs_analytic_grid():
    start = time.perf_counter()
    worst = 0.0
    for l1 in np.linspace(0.5, 100.0, 5):
        for l2 in np.linspace(0.5, 2.0, 5):
            for dtau in np.linspace(0.25, 3.0, 5):
                analytic = minkowski_moments(MinkowskiParams(float(l1), float(l2), float(dtau)))
                numeric = quadrature_minkowski_moments(float(l1), float(l2), float(dtau))
                for name in ("nu1", "nu2", "e12", "mu12"):
                    a, b = getattr(analytic, name), getattr(numeric, name)
                    worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-3 and elapsed < 10.0
    _report(9, ok, f"quadrature vs analytic on 5x5x5 grid (worst rel {worst:.2e}, {elapsed:.1f} s)")
    assert worst < 1e-3
    assert elapsed < 10.0


def test_10_dawson_accuracy():
    worst_abs = 0.0
    for x in np.linspace(-6.0, 6.0, 200):
        worst_abs = max(worst_abs, abs(dawson(float(x)) - dawson_series_oracle(float(x))))
    worst_rel = 0.0
    for x in np.linspace(6.0, 50.0, 90):
        ref = dawson_asymptotic_oracle(float(x))
        worst_rel = max(worst_rel, abs(dawson(float(x)) - ref) / abs(ref))
    at_one = abs(dawson(1.0) - 0.538079506912768)
    ok = worst_abs < 1e-12 and worst_rel < 1e-10 and at_one < 1e-12
    _report(
        10, ok,
        f"series window {worst_abs:.2e} (abs), tail {worst_rel:.2e} (rel), D(1) off by {at_one:.2e}",
    )
    assert worst_abs < 1e-12
    assert worst_rel < 1e-10
    assert at_one < 1e-12


def test_11_thermal_signaling_invariance():
    alpha1, alpha2 = 0.27 - 0.18j, -0.05 + 0.4j
    values = [
        moment_set_from_kernel(
            single_mode_kernel(FockParams(alpha1=alpha1, alpha2=alpha2, nbar=nbar))
        ).e12
        for nbar in (0.0, 0.5, 1.0, 5.0)
    ]
    worst = max(abs(v - values[0]) for v in values)
    ok = worst <= 1e-15
    _report(11, ok, f"e12 across occupations 0/0.5/1/5 (spread {worst:.2e})")
    assert worst <= 1e-15


def test_12_cli_determinism_and_verify(tmp_path, capsys):
    cfg = tmp_path / "fig4a.cfg"
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg.write_text(
        "mode = curve-tau2\nomega1 = 1.0\nomega2 = 3.0\ntau1 = 0.0\n"
        "lambda1 = 100.0\nlambda2 = 1.0\n"
        f"tau2_start = 0.05\ntau2_stop = 8.0\ntau2_count = 200\noutput = {out1}\n"
    )
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert main(["sweep", "--config", str(cfg), "--set", f"output={out2}"]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    verify_status = main(["verify"])
    capsys.readouterr()  # swallow the verify report; the status carries the verdict
    ok = identical and verify_status == 0
    _report(12, ok, f"byte-identical sweeps ({identical}), verify exit {verify_status}")
    assert identical
    assert verify_status == 0
