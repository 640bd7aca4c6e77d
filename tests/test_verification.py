"""The self-check suite: passes on a correct build, catches seeded faults."""

import numpy as np
import pytest

import ottoqft.verification as verification
from ottoqft.algebra import MomentSet, moment_set_from_kernel
from ottoqft.cycle import DegenerateCycleError
from ottoqft.verification import (
    DEFAULT_TOLERANCES,
    format_report,
    run_verification,
    run_verify,
    sample_moment_sets,
)

from support import sample_gram_moment_sets  # one scalar rng.uniform call per number


@pytest.mark.parametrize("zero_signal", [False, True])
def test_batched_moment_sets_equal_one_draw_per_call(zero_signal):
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    count = 2 * 1024 + 5  # spans partial conversion blocks
    sets = sample_moment_sets(rng, count, zero_signal=zero_signal)
    expected = sample_gram_moment_sets(ref_rng, count, zero_signal)
    # every number is drawn by the call, before the sets are built
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert list(sets) == expected


def test_property_loop_draws_equal_one_draw_per_call(monkeypatch):
    seen_theta, seen_work_args = [], []
    original_p, original_w = (verification.cyclic_initial_population,
                              verification.extracted_work)

    def record_p(m, th):
        seen_theta.append((m, th))
        return original_p(m, th)

    def record_w(m, th, d_omega):
        seen_work_args.append((m, th, d_omega))
        return original_w(m, th, d_omega)

    monkeypatch.setattr(verification, "cyclic_initial_population", record_p)
    monkeypatch.setattr(verification, "extracted_work", record_w)
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    count = 1500
    list(verification._check_cycle_properties(rng, DEFAULT_TOLERANCES, count))

    # reference: theta, omega1, omega2 drawn per cycle after all moment sets
    sets = sample_gram_moment_sets(ref_rng, count)
    draws = [(ref_rng.uniform(-8.0, 8.0), ref_rng.uniform(0.1, 5.0), ref_rng.uniform(0.1, 5.0))
             for _ in range(count)]
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert seen_theta == [(m, th) for m, (th, _, _) in zip(sets, draws)]
    expected_work_args = []
    for m, (th, o1, o2) in zip(sets, draws):
        try:
            original_p(m, th)
        except DegenerateCycleError:  # the loop skips these after drawing
            continue
        expected_work_args.append((m, th, o1 - o2))
    assert seen_work_args == expected_work_args


def test_no_signaling_draws_equal_one_draw_per_call(monkeypatch):
    seen = []
    original = verification.extracted_work

    def record(m, th, d_omega):
        seen.append((m, th, d_omega))
        return original(m, th, d_omega)

    monkeypatch.setattr(verification, "extracted_work", record)
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    list(verification._check_no_signaling(rng, DEFAULT_TOLERANCES, 1100))
    sets = sample_gram_moment_sets(ref_rng, 1100, zero_signal=True)
    expected = [(m, ref_rng.uniform(-8.0, 8.0), ref_rng.uniform(-5.0, 5.0)) for m in sets]
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert seen == expected


def test_all_checks_pass_on_correct_build():
    results = run_verification(cases=10, dim=50)
    assert all(r.passed for r in results)
    names = {r.name for r in results}
    assert {"fock_p1", "fock_p2", "weyl_moments", "quadrature_kernel",
            "dawson_spot", "first_law", "fixed_point", "no_signaling",
            "thermal_e12", "appendix_identities", "weyl_partition"} <= names


def test_run_verify_exit_status_and_report():
    status, report = run_verify(cases=6, dim=40)
    assert status == 0
    assert "checks passed" in report
    assert report.count("PASS") >= 11


def test_unknown_override_rejected():
    with pytest.raises(ValueError, match="bogus"):
        run_verification({"bogus": 1.0})


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


def test_tolerance_override_changes_verdict():
    results = {r.name: r for r in run_verification({"fock_p1": 1e-30}, cases=4, dim=40)}
    assert not results["fock_p1"].passed


def test_report_lists_failures():
    results = run_verification({"fock_p1": 1e-30}, cases=4, dim=40)
    text = format_report(results)
    assert "FAILURES: fock_p1" in text
