"""The self-check suite: passes on a correct build, catches seeded faults."""

import random
import tracemalloc

import numpy as np
import pytest

import ottoqft.cycle as cycle
import ottoqft.verification as verification
from ottoqft.algebra import MomentSet, moment_set_from_kernel
from ottoqft.cycle import ledger_arrays
from ottoqft.oracle import TruncationError
from ottoqft.verification import (
    DEFAULT_SEED,
    format_report,
    run_verification,
    run_verify,
    sample_moment_sets,
)


def _reference_columns(rng, count, zero_signal=False):
    """nu1, nu2, e12, mu12 lists of count Gram moment sets, drawn with one
    scalar rng.uniform call per number and mapped through
    W12 = frac sqrt(W11 W22) e^{i phase} in NumPy."""
    draws = []
    for _ in range(count):
        w11, w22, frac = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0)
        phase = 0.0 if zero_signal else rng.uniform(0.0, 2.0 * np.pi)
        draws.append((w11, w22, frac, phase))
    w11, w22, frac, phase = np.array(draws).T
    radius = frac * np.sqrt(w11 * w22)
    columns = (np.exp(-2.0 * w11), np.exp(-2.0 * w22),
               2.0 * radius * np.sin(phase), radius * np.cos(phase))
    return [c.tolist() for c in columns]


@pytest.mark.parametrize("zero_signal", [False, True])
def test_batched_moment_sets_equal_one_draw_per_call(zero_signal):
    rng, ref_rng = random.Random(11), random.Random(11)
    count = 2 * 1024 + 5
    columns = sample_moment_sets(rng, count, zero_signal=zero_signal)
    expected = _reference_columns(ref_rng, count, zero_signal)
    # every number is drawn by the one call
    assert rng.getstate() == ref_rng.getstate()
    assert [c.tolist() for c in columns] == expected


def _record_kernel_calls(monkeypatch):
    calls = []

    def record(*args):
        calls.append(args)
        return ledger_arrays(*args)

    monkeypatch.setattr(verification, "ledger_arrays", record)
    return calls


def test_property_loop_draws_equal_one_draw_per_call(monkeypatch):
    calls = _record_kernel_calls(monkeypatch)
    rng, ref_rng = random.Random(5), random.Random(5)
    count = 1500
    list(verification._check_cycle_properties(rng, count))

    # reference: theta, omega1, omega2 drawn per cycle after all moment sets
    columns = _reference_columns(ref_rng, count)
    draws = [(ref_rng.uniform(-8.0, 8.0), ref_rng.uniform(0.1, 5.0), ref_rng.uniform(0.1, 5.0))
             for _ in range(count)]
    assert rng.getstate() == ref_rng.getstate()
    (args,) = calls  # one kernel call for every cycle, degenerate ones too
    assert [np.asarray(a).tolist() for a in args] == [*map(list, zip(*draws)), *columns]


@pytest.mark.parametrize("seed", [7, DEFAULT_SEED])
def test_cycle_properties_in_blocks_equal_the_whole_ensemble(monkeypatch, seed):
    # the 10,000 cycles go through the ledger in blocks of 2,048, the last of 1,808;
    # the largest deviations are those of one call on the whole ensemble, bit for bit
    calls = _record_kernel_calls(monkeypatch)
    blocked = list(verification._check_cycle_properties(random.Random(seed)))
    assert [len(args[0]) for args in calls] == [2048] * 4 + [1808]
    whole = list(verification._check_cycle_properties(random.Random(seed), block=10_000))
    assert len(calls) == 6
    assert blocked == whole


def test_property_blocks_read_the_numbers_of_one_draw(monkeypatch):
    # three blocks: each reads its moment sets and its theta, omega1, omega2 where one
    # draw of every moment set, then of every cycle's phases, puts them
    calls = _record_kernel_calls(monkeypatch)
    rng, ref_rng = random.Random(5), random.Random(5)
    count = 1500
    list(verification._check_cycle_properties(rng, count, block=512))

    columns = _reference_columns(ref_rng, count)
    draws = [(ref_rng.uniform(-8.0, 8.0), ref_rng.uniform(0.1, 5.0), ref_rng.uniform(0.1, 5.0))
             for _ in range(count)]
    assert rng.getstate() == ref_rng.getstate()
    assert [len(args[0]) for args in calls] == [512, 512, 476]
    joined = [np.concatenate(column).tolist() for column in zip(*calls)]
    assert joined == [*map(list, zip(*draws)), *columns]


def test_cycle_properties_hold_a_block_at_a_time():
    # with every moment set and phase of the 10,000 cycles drawn before the first
    # block, the check peaked at 1.35 MB; a block's draws alone, at 0.77 MB
    tracemalloc.start()
    try:
        list(verification._check_cycle_properties(random.Random(7)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.0e6


def test_fock_check_stops_at_the_first_failing_case():
    # dim=2 truncates the first case: the check raises before it draws a second
    rng, ref_rng = random.Random(1), random.Random(1)
    with pytest.raises(TruncationError):
        list(verification._check_fock_populations(rng, 10**6, 2))
    list(verification._sample_fock_cases(ref_rng, 1))
    assert rng.getstate() == ref_rng.getstate()


def test_no_signaling_draws_equal_one_draw_per_call(monkeypatch):
    calls = _record_kernel_calls(monkeypatch)
    rng, ref_rng = random.Random(3), random.Random(3)
    list(verification._check_no_signaling(rng, 1100))
    columns = _reference_columns(ref_rng, 1100, zero_signal=True)
    draws = [(ref_rng.uniform(-8.0, 8.0), ref_rng.uniform(-5.0, 5.0)) for _ in range(1100)]
    assert rng.getstate() == ref_rng.getstate()
    (args,) = calls
    theta, d_omega = map(list, zip(*draws))
    # the gaps enter as (d_omega, 0): the work sees only their difference
    assert [np.asarray(a).tolist() for a in args] == [theta, d_omega, 0.0, *columns]


@pytest.mark.parametrize("name, change, fixed_point_passes", [
    ("p2", lambda p2: p2 + 1e-9, False),
    # read by the closed-form w_ext alone, which the strokes must still check
    ("gap", lambda gap: gap * (1.0 + 1e-9), True),
], ids=["p2", "gap"])
def test_perturbed_kernel_fails_the_cycle_checks(monkeypatch, name, change, fixed_point_passes):
    # verify checks the kernel that writes every sweep: a 1e-9 error in p2 or
    # gap must fail the work/heat balance, and one in p2 the closure too
    original = cycle._population_columns

    def perturbed(*args, **kwargs):
        columns, checks = original(*args, **kwargs)
        return columns._replace(**{name: change(getattr(columns, name))}), checks

    monkeypatch.setattr(cycle, "_population_columns", perturbed)
    results = {r.name: r for r in run_verification(cases=4, dim=40)}
    assert results["fixed_point"].passed == fixed_point_passes
    assert not results["first_law"].passed


def test_all_checks_pass_on_correct_build():
    results = run_verification(cases=10, dim=50)
    assert all(r.passed for r in results)
    names = {r.name for r in results}
    assert {"fock_p1", "fock_p2", "weyl_moments", "quadrature_kernel",
            "dawson_spot", "first_law", "fixed_point", "no_signaling",
            "thermal_e12", "appendix_identities", "weyl_partition"} <= names


@pytest.mark.parametrize("seed", [*range(10), DEFAULT_SEED])  # 7 is the benchmark's
def test_default_settings_pass_on_each_seed(seed):
    # the full ensembles, cases and dim of ottoqft verify: no seed here draws a
    # case that misses a threshold or truncates the Fock space
    results = run_verification(seed=seed)
    assert [r.name for r in results if not r.passed] == []


def test_run_verify_exit_status_and_report():
    status, report = run_verify(cases=6, dim=40)
    assert status == 0
    assert "checks passed" in report
    assert report.count("PASS") >= 11


def test_unknown_override_rejected():
    with pytest.raises(ValueError, match="bogus"):
        run_verification({"bogus": 1.0})


@pytest.mark.parametrize("cases", [0, -3])
def test_case_count_below_one_rejected(cases):
    with pytest.raises(ValueError, match="cases must be >= 1"):
        run_verification(cases=cases)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        run_verification(seed=-1)


def test_flipped_signal_sign_is_caught(monkeypatch):
    # corrupt the moment extraction the formula route sees: e12 sign flip
    original = moment_set_from_kernel

    def flipped(kernel):
        m = original(kernel)
        return MomentSet(nu1=m.nu1, nu2=m.nu2, e12=-m.e12, mu12=m.mu12)

    monkeypatch.setattr(verification, "moment_set_from_kernel", flipped)
    results = {r.name: r for r in run_verification(cases=8, dim=40)}
    assert not results["fock_p2"].passed
    # first-kick population never sees the cross moment
    assert results["fock_p1"].passed


def test_perturbed_dawson_crossover_is_caught(monkeypatch):
    original = verification.dawson

    def bent(x):
        value = original(x)
        # error just above tolerance, only on the table points in (2.4, 3.2)
        return value + 5e-12 if 2.4 < abs(x) < 3.2 else value

    monkeypatch.setattr(verification, "dawson", bent)
    results = {r.name: r for r in run_verification(cases=4, dim=40)}
    assert not results["dawson_spot"].passed


def test_pass_rule_at_the_threshold():
    # the exact checks pass at their threshold, every other check only below it
    first = {r.name: r for r in run_verification(cases=4, dim=40)}
    assert first["thermal_e12"].deviation == first["no_signaling"].deviation == 0.0
    dawson_dev = first["dawson_spot"].deviation
    overrides = {"thermal_e12": 0.0, "no_signaling": 0.0, "dawson_spot": dawson_dev}
    at = {r.name: r for r in run_verification(overrides, cases=4, dim=40)}
    assert at["thermal_e12"].passed and at["no_signaling"].passed
    assert at["dawson_spot"].deviation == at["dawson_spot"].threshold == dawson_dev
    assert not at["dawson_spot"].passed


def test_tolerance_override_changes_verdict():
    results = {r.name: r for r in run_verification({"fock_p1": 1e-30}, cases=4, dim=40)}
    assert not results["fock_p1"].passed


def test_report_lists_failures():
    results = run_verification({"fock_p1": 1e-30}, cases=4, dim=40)
    text = format_report(results)
    assert "FAILURES: fock_p1" in text
