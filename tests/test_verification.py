"""The self-check suite: passes on a correct build, catches seeded faults."""

import itertools
import math
import random
import tracemalloc
import types

import numpy as np
import pytest

import ottoqft.cycle as cycle
import ottoqft.oracle as oracle
import ottoqft.verification as verification
from ottoqft.algebra import KernelInconsistencyError, MomentSet, moment_set_from_kernel
from ottoqft.config import ConfigError
from ottoqft.cycle import ledger_arrays
from ottoqft.oracle import FockParams, TruncationError, single_mode_kernel
from ottoqft.verification import (
    DEFAULT_SEED,
    format_report,
    run_verification,
    run_verify,
    sample_moment_sets,
)

from support import with_nan


def _reference_columns(rng, count):
    """nu1, nu2, e12, mu12 lists of count Gram moment sets, drawn with one
    scalar rng.uniform call per number and mapped through
    W12 = frac sqrt(W11 W22) e^{i phase} in NumPy."""
    draws = []
    for _ in range(count):
        w11, w22, frac = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0)
        draws.append((w11, w22, frac, rng.uniform(0.0, 2.0 * np.pi)))
    w11, w22, frac, phase = np.array(draws).T
    radius = frac * np.sqrt(w11 * w22)
    columns = (np.exp(-2.0 * w11), np.exp(-2.0 * w22),
               2.0 * radius * np.sin(phase), radius * np.cos(phase))
    return [c.tolist() for c in columns]


def test_batched_moment_sets_equal_one_draw_per_call():
    rng, ref_rng = random.Random(11), random.Random(11)
    count = 2 * 1024 + 5
    columns = sample_moment_sets(rng, count)
    expected = _reference_columns(ref_rng, count)
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


def test_cycle_properties_run_in_blocks_of_2048(monkeypatch):
    # the 10,000 cycles go through the ledger in blocks of 2,048, the last of 1,808
    calls = _record_kernel_calls(monkeypatch)
    list(verification._check_cycle_properties(random.Random(7)))
    assert [len(args[0]) for args in calls] == [2048] * 4 + [1808]


def test_property_blocks_draw_their_moment_sets_then_their_phases(monkeypatch):
    # three blocks: each reads its own moment sets, then its own theta, omega1, omega2,
    # as one rng.uniform call per value draws them
    calls = _record_kernel_calls(monkeypatch)
    rng, ref_rng = random.Random(5), random.Random(5)
    list(verification._check_cycle_properties(rng, 1500, block=512))

    assert [len(args[0]) for args in calls] == [512, 512, 476]
    for args in calls:
        n = len(args[0])
        columns = _reference_columns(ref_rng, n)
        draws = [(ref_rng.uniform(-8.0, 8.0), ref_rng.uniform(0.1, 5.0), ref_rng.uniform(0.1, 5.0))
                 for _ in range(n)]
        assert [np.asarray(a).tolist() for a in args] == [*map(list, zip(*draws)), *columns]
    assert rng.getstate() == ref_rng.getstate()


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


def test_fock_check_holds_no_block_of_a_case():
    # each case is evolved once and reduced to a few numbers: with four dim x L
    # blocks formed after the second kick, and each case evolved twice, the
    # check peaked at 0.65 MB; it peaks at 0.43 MB.  The spectrum is cached first
    oracle._quadrature_eigh(60)
    tracemalloc.start()
    try:
        list(verification._check_fock(random.Random(DEFAULT_SEED), 50, 60))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


def test_fock_check_stops_at_the_first_failing_case():
    # dim=2 truncates the first case: the check raises before it draws a second
    rng, ref_rng = random.Random(1), random.Random(1)
    with pytest.raises(TruncationError):
        list(verification._check_fock(rng, 10**6, 2))
    list(verification._sample_fock_cases(ref_rng, 1))
    assert rng.getstate() == ref_rng.getstate()


def test_fock_lines_share_one_draw_of_the_cases(monkeypatch):
    # the population and the Weyl lines read the same cases: 7 drawn, each checked
    # once against the oracle's traces by _weyl_deviation, under its module-level name
    weyl_calls = []
    original = verification._weyl_deviation
    monkeypatch.setattr(verification, "_weyl_deviation",
                        lambda fp, w: weyl_calls.append(fp) or original(fp, w))
    rng, ref_rng = random.Random(4), random.Random(4)
    lines = list(verification._check_fock(rng, 7, 40))
    list(verification._sample_fock_cases(ref_rng, 7))
    assert rng.getstate() == ref_rng.getstate()
    assert [detail for _, detail in lines] == [
        "7 random kicks vs exact evolution, dim=40", "7 random kicks vs exact evolution, dim=40",
        "six matrix moments vs closed forms, 7 cases", "four real moments sum to 1"]
    assert len(weyl_calls) == 7


def test_fock_check_evaluates_each_cases_closed_forms_once(monkeypatch):
    # the Weyl moments of a case's closed forms serve its Weyl and partition lines: one
    # weyl_moments call a case, in the check or in the oracle
    calls = []
    for module in (verification, oracle):
        original = module.weyl_moments
        monkeypatch.setattr(module, "weyl_moments",
                            lambda m, original=original: calls.append(m) or original(m))
    list(verification._check_fock(random.Random(4), 7, 40))
    assert len(calls) == 7


def test_no_signaling_draws_equal_one_draw_per_call(monkeypatch):
    calls = _record_kernel_calls(monkeypatch)
    rng, ref_rng = random.Random(3), random.Random(3)
    list(verification._check_no_signaling(rng, 1100))
    nu1, nu2, _, mu12 = _reference_columns(ref_rng, 1100)
    draws = [(ref_rng.uniform(-8.0, 8.0), ref_rng.uniform(-5.0, 5.0)) for _ in range(1100)]
    assert rng.getstate() == ref_rng.getstate()
    (args,) = calls
    theta, d_omega = map(list, zip(*draws))
    # full Gram sets with e12 set to 0, so mu12 takes both signs; the gaps enter
    # as (d_omega, 0): the work sees only their difference
    assert min(mu12) < 0.0 < max(mu12)
    assert [np.asarray(a).tolist() for a in args] == [theta, d_omega, 0.0, nu1, nu2, 0.0, mu12]


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


def _second_value_spoiled(original, spoil):
    """original, with the value of its second call passed through spoil."""
    calls = itertools.count()

    def stand_in(*args):
        value = original(*args)
        return spoil(value) if next(calls) == 1 else value
    return stand_in


# the last of the four kernels of the thermal_e12 line, at nbar = 5
THERMAL_KERNEL = single_mode_kernel(FockParams(alpha1=0.31 - 0.12j, alpha2=-0.07 + 0.44j, nbar=5.0))

# line -> the module-level name that it reads, and a stand-in for it that gives one NaN
NAN_INJECTIONS = {
    "weyl_moments": ("_weyl_deviation", lambda f: _second_value_spoiled(f, lambda _: math.nan)),
    # the closed forms of a case feed its Weyl line too: both fail
    "weyl_partition": ("weyl_moments",
                       lambda f: _second_value_spoiled(f, lambda w: with_nan(w, "cssc"))),
    "dawson_spot": ("dawson", lambda f: lambda x: math.nan if x == 3.0 else f(x)),
    # a MomentSet refuses a NaN e12: the line reads no more than e12 of it
    "thermal_e12": ("moment_set_from_kernel", lambda f: lambda kernel: (
        types.SimpleNamespace(e12=math.nan) if kernel == THERMAL_KERNEL else f(kernel))),
}


@pytest.mark.parametrize("line", NAN_INJECTIONS)
def test_one_nan_deviation_fails_its_line(monkeypatch, line):
    # each line reports the largest of its deviations, NaN if any one is; a fold
    # with the builtin max, max(0.0, nan) == 0.0, dropped it and passed the line
    name, stand_in = NAN_INJECTIONS[line]
    monkeypatch.setattr(verification, name, stand_in(getattr(verification, name)))
    results = run_verification(cases=4, dim=40)
    failed = ["weyl_moments", line] if line == "weyl_partition" else [line]
    assert [(r.name, math.isnan(r.deviation)) for r in results if not r.passed] == [
        (name, True) for name in failed]


def test_run_verify_exits_2_on_a_nan_deviation(monkeypatch):
    monkeypatch.setattr(verification, "dawson", lambda x: math.nan)
    status, report = run_verify(cases=4, dim=40)
    assert status == 2
    assert "FAIL  dawson_spot            deviation=nan" in report


def test_a_kernel_error_fails_the_lines_of_its_check(monkeypatch):
    # a check that raises a kernel error fails each of its lines, naming the error; the
    # checks after it still run, and the report exits 2 where it printed no line before
    def refused(*args):
        raise KernelInconsistencyError("product bound broken")

    monkeypatch.setattr(verification, "ledger_arrays", refused)
    status, report = run_verify(cases=4, dim=40)
    lines = report.splitlines()
    assert status == 2 and len(lines) == 12
    failed = [line for line in lines[:-1] if line.startswith("FAIL")]
    assert [line.split()[1] for line in failed] == ["fixed_point", "first_law", "no_signaling"]
    for line in failed:
        assert "deviation=nan" in line
        assert line.endswith("(KernelInconsistencyError: product bound broken)")
    assert [line.split()[1] for line in lines[:-1] if line.startswith("PASS")] == [
        "fock_p1", "fock_p2", "weyl_moments", "weyl_partition", "appendix_identities",
        "quadrature_kernel", "dawson_spot", "thermal_e12"]
    assert lines[-1].endswith("FAILURES: fixed_point, first_law, no_signaling")


@pytest.mark.parametrize("error", [TruncationError, ConfigError, MemoryError])
def test_other_errors_still_end_the_run(monkeypatch, error):
    # a truncated Fock space or a failed allocation is the run's validation error
    def refused(*args):
        raise error("stop")

    monkeypatch.setattr(verification, "ledger_arrays", refused)
    with pytest.raises(error):
        run_verification(cases=4, dim=40)


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


@pytest.mark.parametrize("options", [{"seed": 1.5}, {"seed": 7.0}, {"cases": 2.0}, {"cases": 2, "dim": 40.5}])
def test_seed_cases_and_dim_must_be_integers(options):
    # random.Random hashes a float seed, and a dim of 40.5 evolved 41 levels
    with pytest.raises(TypeError):
        run_verification(**options)


def test_numpy_integers_are_taken_as_integers():
    assert run_verification(seed=np.int64(7), cases=np.int64(2), dim=np.int64(40)) \
        == run_verification(seed=7, cases=2, dim=40)


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
