"""Brute-force routes: truncated-mode evolution and radial quadrature."""

import cmath
import itertools
import math
import re

import numpy as np
import pytest

import ottoqft.oracle as oracle_mod
from ottoqft.algebra import moment_set_from_kernel, p_after_first, p_after_second
from ottoqft.minkowski import MinkowskiParams, minkowski_moments
from ottoqft.oracle import (
    FockParams,
    QuadratureConvergenceError,
    TruncationError,
    quadrature_minkowski_moments,
    radial_wightman_integral,
    simulate_cycle_fock,
    single_mode_kernel,
    verify_weyl_moments,
)

from support import generic_kick_cos_sin, reference_cycle_fock, reference_weyl_traces, with_nan


# zero coupling and a generic pair, on the vacuum and two thermal states, at
# three truncations; the larger nbar does not fit in the smaller dims
REFERENCE_CASES = list(itertools.product(
    [(0.0, 0.0), (0.31 - 0.12j, -0.07 + 0.44j)], [0.0, 1.0, 5.0], [8, 60, 120]))


def _stage(error: TruncationError) -> str:
    return re.search(r"of the state (.*?);", str(error)).group(1)


def _random_case(rng, nbar_choices=(0.0, 1.0)):
    alpha1 = complex(rng.uniform(-0.35, 0.35), rng.uniform(-0.35, 0.35))
    alpha2 = complex(rng.uniform(-0.35, 0.35), rng.uniform(-0.35, 0.35))
    nbar = float(rng.choice(nbar_choices))
    return FockParams(alpha1=alpha1, alpha2=alpha2, nbar=nbar, dim=60)


class TestSingleModeKernel:
    def test_parallel_real_couplings_cannot_signal(self):
        m = moment_set_from_kernel(single_mode_kernel(FockParams(0.3, 0.3)))
        assert m.e12 == 0.0

    def test_hand_expanded_vacuum_case(self):
        m = moment_set_from_kernel(single_mode_kernel(FockParams(0.3, 0.2j)))
        assert m.e12 == pytest.approx(-0.12, abs=1e-15)
        assert m.mu12 == pytest.approx(0.0, abs=1e-15)

    def test_thermal_occupation_scales_symmetric_part_only(self):
        cold = moment_set_from_kernel(single_mode_kernel(FockParams(0.3, 0.2 + 0.1j, nbar=0.0)))
        hot = moment_set_from_kernel(single_mode_kernel(FockParams(0.3, 0.2 + 0.1j, nbar=2.0)))
        assert hot.mu12 == pytest.approx(5.0 * cold.mu12, rel=1e-13)
        assert hot.e12 == cold.e12

    def test_e12_invariant_across_occupations(self):
        values = [
            moment_set_from_kernel(
                single_mode_kernel(FockParams(0.31 - 0.12j, -0.07 + 0.44j, nbar=nbar))
            ).e12
            for nbar in (0.0, 0.5, 1.0, 5.0)
        ]
        assert max(abs(v - values[0]) for v in values) <= 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            FockParams(0.1, 0.1, nbar=-1.0)
        with pytest.raises(ValueError):
            FockParams(0.1, 0.1, dim=1)

    def test_dim_must_be_an_integer(self):
        # a dim of 40.5 once passed and evolved 41 levels
        with pytest.raises(TypeError):
            FockParams(0.1, 0.1, dim=40.5)
        with pytest.raises(TypeError):
            FockParams(0.1, 0.1, dim=40.0)
        assert simulate_cycle_fock(FockParams(0.3, 0.2j, dim=np.int64(41)), 1.0, 3.0, 0.0, 1.5, 0.3) \
            == simulate_cycle_fock(FockParams(0.3, 0.2j, dim=41), 1.0, 3.0, 0.0, 1.5, 0.3)

    @pytest.mark.parametrize("name, value", [
        ("alpha1", complex(math.nan, 0.1)), ("alpha2", complex(0.2, math.inf)),
        ("nbar", math.nan), ("nbar", math.inf),
    ])
    def test_non_finite_inputs_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            FockParams(**{"alpha1": 0.3, "alpha2": 0.2, name: value})


class TestKickCosSin:
    @pytest.mark.parametrize("dim", [2, 8, 60, 120])
    @pytest.mark.parametrize("alpha", [
        0.0, 0.3, -1.7, 0.25j, -2.0j, 0.31 - 0.12j, -0.07 + 0.44j,
        1.1 - 0.4j, cmath.rect(3.0, 2.1), cmath.rect(3.0, -0.7),
    ])
    def test_matches_generic_eigendecomposition(self, alpha, dim):
        # the real frame: f(kick) = D^dag v diag(f(|alpha| w)) v^T D, D = diag(d)
        cos_w, sin_w, d = oracle_mod._kick_cos_sin(complex(alpha), dim)
        _, v = oracle_mod._quadrature_eigh(dim)
        phase = np.outer(d.conj(), d)
        cos_m, sin_m = phase * ((v * cos_w) @ v.T), phase * ((v * sin_w) @ v.T)
        cos_ref, sin_ref = generic_kick_cos_sin(complex(alpha), dim)
        assert np.max(np.abs(cos_m - cos_ref)) < 1e-13
        assert np.max(np.abs(sin_m - sin_ref)) < 1e-13

    def test_cached_spectrum_is_read_only(self):
        w, v = oracle_mod._quadrature_eigh(8)
        assert oracle_mod._quadrature_eigh(8)[1] is v
        assert not w.flags.writeable and not v.flags.writeable
        with pytest.raises(ValueError):
            v[0, 0] = 1.0


class TestSimulateCycleFock:
    def test_zero_couplings_are_identity(self):
        p1, p2 = simulate_cycle_fock(FockParams(0.0, 0.0), 1.0, 3.0, 0.0, 1.5, 0.3)
        assert p1 == pytest.approx(0.3, abs=1e-14)
        assert p2 == pytest.approx(0.3, abs=1e-14)

    def test_matches_population_formulas(self, rng):
        worst1 = worst2 = 0.0
        for _ in range(10):
            fp = _random_case(rng)
            omega1, omega2 = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
            tau1 = rng.uniform(0.0, 1.0)
            tau2 = tau1 + rng.uniform(0.2, 2.0)
            p = rng.uniform(0.0, 1.0)
            p1_fock, p2_fock = simulate_cycle_fock(fp, omega1, omega2, tau1, tau2, p)
            m = moment_set_from_kernel(single_mode_kernel(fp))
            th = omega1 * tau1 - omega2 * tau2
            worst1 = max(worst1, abs(p1_fock - p_after_first(p, m)))
            worst2 = max(worst2, abs(p2_fock - p_after_second(p, m, th)))
        assert worst1 < 1e-12
        assert worst2 < 1e-12

    def test_populations_stay_physical(self, rng):
        for _ in range(5):
            fp = _random_case(rng)
            p1, p2 = simulate_cycle_fock(fp, 1.0, 3.0, 0.0, 1.5, rng.uniform(0, 1))
            assert 0.0 <= p1 <= 1.0
            assert 0.0 <= p2 <= 1.0

    def test_dim_convergence(self):
        fp_small = FockParams(0.4, 0.3j, nbar=1.0, dim=60)
        fp_large = FockParams(0.4, 0.3j, nbar=1.0, dim=120)
        a = simulate_cycle_fock(fp_small, 1.0, 3.0, 0.0, 1.5, 0.2)
        b = simulate_cycle_fock(fp_large, 1.0, 3.0, 0.0, 1.5, 0.2)
        assert abs(a[0] - b[0]) < 1e-9
        assert abs(a[1] - b[1]) < 1e-9

    @pytest.mark.parametrize("alphas, nbar, dim", REFERENCE_CASES)
    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_matches_density_matrix_reference(self, alphas, nbar, dim, p):
        fp = FockParams(*alphas, nbar=nbar, dim=dim)
        args = (fp, 1.3, 2.2, 0.4, 1.9, p)
        try:
            expected = reference_cycle_fock(*args)
        except TruncationError as ref:
            with pytest.raises(TruncationError) as got:
                simulate_cycle_fock(*args)
            assert _stage(got.value) == _stage(ref)
            return
        p1, p2 = simulate_cycle_fock(*args)
        assert abs(p1 - expected[0]) < 1e-14
        assert abs(p2 - expected[1]) < 1e-14

    def test_truncation_guard(self):
        args = (FockParams(3.0, 0.1, dim=8), 1.0, 3.0, 0.0, 1.5, 0.2)
        with pytest.raises(TruncationError, match="increase dim") as got:
            simulate_cycle_fock(*args)
        with pytest.raises(TruncationError) as ref:
            reference_cycle_fock(*args)
        assert _stage(got.value) == _stage(ref.value) == "after the first kick"

    def test_overflowing_kick_is_a_lost_trace(self):
        # |alpha| w overflows, so every evolved column is NaN: the trace check
        # must fail on NaN rather than pass it
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ArithmeticError, match="lost unit trace"):
            simulate_cycle_fock(FockParams(1e308, 0.2), 1.0, 3.0, 0.0, 1.5, 0.3)

    def test_ordering_validation(self):
        with pytest.raises(ValueError):
            simulate_cycle_fock(FockParams(0.1, 0.1), 1.0, 3.0, 1.0, 1.0, 0.2)
        with pytest.raises(ValueError):
            simulate_cycle_fock(FockParams(0.1, 0.1), 1.0, 3.0, 0.0, 1.5, 1.2)

    @pytest.mark.parametrize("omega1, omega2, tau1, tau2", [
        (math.nan, 3.0, 0.0, 1.5), (1.0, math.inf, 0.0, 1.5), (1.0, 3.0, -math.inf, 1.5),
        (1.0, 3.0, 0.0, math.inf), (1.0, 3.0, 1e308, 1.7e308),  # omega2 * tau2 overflows
    ])
    def test_non_finite_phase_rejected_before_evolving(self, monkeypatch, omega1, omega2, tau1, tau2):
        # each once evolved and failed as "evolution lost unit trace after the second
        # kick: nan"; the phase is named in the kernel's words, and nothing is evolved
        # (no other test evolves this case, so it is not held from one)
        monkeypatch.setattr(oracle_mod, "_kick_columns", None)  # a call would raise TypeError
        with pytest.raises(ValueError, match=r"^phase omega1\*tau1 - omega2\*tau2 = .* is not finite$"):
            simulate_cycle_fock(FockParams(0.29, 0.21j), omega1, omega2, tau1, tau2, 0.3)


class TestOneEvolutionPerCase:
    """simulate_cycle_fock and verify_weyl_moments read one evolution of their
    FockParams, held for the last FockParams only."""

    @pytest.fixture(autouse=True)
    def evolutions(self, monkeypatch):
        # the FockParams of each evolution, from an empty cache
        evolved, original = [], oracle_mod._kick_columns
        monkeypatch.setattr(oracle_mod, "_kick_columns",
                            lambda fp, weights: evolved.append(fp) or original(fp, weights))
        oracle_mod._evolve.cache_clear()
        yield evolved
        oracle_mod._evolve.cache_clear()

    @staticmethod
    def _outputs(fp):
        """The bits of p1, p2 and the Weyl deviation of fp."""
        p1, p2 = simulate_cycle_fock(fp, 1.3, 2.2, 0.4, 1.9, 0.3)
        return p1.hex(), p2.hex(), verify_weyl_moments(fp).hex()

    @pytest.mark.parametrize("nbar", [0.0, 1.0])
    def test_both_functions_share_one_evolution(self, evolutions, nbar):
        fp = FockParams(0.31 - 0.12j, -0.07 + 0.44j, nbar=nbar)
        self._outputs(fp)
        simulate_cycle_fock(fp, 0.7, 1.1, 0.0, 0.5, 0.9)  # another phase and population
        assert evolutions == [fp]

    def test_the_last_case_alone_is_held(self, evolutions):
        a, b = FockParams(0.31 - 0.12j, -0.07 + 0.44j), FockParams(0.2, 0.25, nbar=1.0)
        held = [self._outputs(fp) for fp in (a, b, a)]
        assert evolutions == [a, b, a]
        fresh = []
        for fp in (a, b, a):
            oracle_mod._evolve.cache_clear()
            fresh.append(self._outputs(fp))
        assert held == fresh

    def test_equal_cases_evolve_to_the_same_bits(self):
        # FockParams that differ in the sign of a zero part are equal, so either is
        # served the other's evolution: both evolve to the same bits (the phase of
        # -0.3 - 0j was once -pi against pi, and p2 moved by one ulp)
        cases = [FockParams(complex(-0.3, zero), 0.2 + 0.1j, nbar=1.0) for zero in (0.0, -0.0)]
        assert cases[0] == cases[1]
        fresh = []
        for fp in cases:
            oracle_mod._evolve.cache_clear()
            fresh.append(self._outputs(fp))
        assert fresh[0] == fresh[1]

    def test_the_held_evolution_holds_no_array(self):
        evolution = oracle_mod._evolve(FockParams(0.2, 0.25, nbar=1.0))

        def leaves(value):
            return [x for item in value for x in leaves(item)] if isinstance(value, tuple) else [value]

        assert {type(x) for x in leaves(evolution._values())} == {float, complex}
        with pytest.raises(AttributeError):
            evolution.moments = ()


class TestVerifyWeylMoments:
    def test_zero_couplings_exact(self):
        assert verify_weyl_moments(FockParams(0.0, 0.0)) == pytest.approx(0.0, abs=1e-15)

    def test_vacuum_case(self):
        assert verify_weyl_moments(FockParams(0.3, 0.2j)) < 1e-8

    def test_thermal_case(self):
        assert verify_weyl_moments(FockParams(0.2, 0.25, nbar=1.0)) < 1e-8

    def test_randomized(self, rng):
        for _ in range(5):
            assert verify_weyl_moments(_random_case(rng)) < 1e-8

    @pytest.mark.parametrize("name", ["cccc", "cssc", "sccs", "ssss", "csc_s", "ssc_c"])
    def test_a_nan_closed_form_is_the_deviation(self, monkeypatch, name):
        # whichever of the six moments is NaN, so is the deviation: a fold with the
        # builtin max dropped a NaN after the first moment, and gave about 8e-16
        original = oracle_mod.weyl_moments
        monkeypatch.setattr(oracle_mod, "weyl_moments", lambda m: with_nan(original(m), name))
        assert math.isnan(verify_weyl_moments(FockParams(0.3, 0.2j)))

    @pytest.mark.parametrize("alphas, nbar, dim", REFERENCE_CASES)
    def test_traces_match_direct_products(self, alphas, nbar, dim):
        fp = FockParams(*alphas, nbar=nbar, dim=dim)
        try:
            expected = reference_weyl_traces(fp)
        except TruncationError as ref:
            with pytest.raises(TruncationError) as got:
                oracle_mod._weyl_traces(fp)
            assert _stage(got.value) == _stage(ref)
            return
        got = oracle_mod._weyl_traces(fp)
        assert got.keys() == expected.keys()
        assert max(abs(got[name] - expected[name]) for name in got) < 1e-14


class TestQuadrature:
    def test_simultaneous_kicks_have_no_signal(self):
        m = quadrature_minkowski_moments(1.0, 1.0, 0.0)
        assert abs(m.e12) < 1e-10

    def test_signal_value_against_closed_form(self):
        # lambda1 = lambda2 = dtau = 1 smearing width:
        # e12 = 1 / (2 sqrt(pi^3)) * (1/sqrt(2)) * exp(-1/2)
        m = quadrature_minkowski_moments(1.0, 1.0, 1.0)
        expected = (1.0 / (2.0 * math.pi**1.5)) * (1.0 / math.sqrt(2.0)) * math.exp(-0.5)
        assert m.e12 == pytest.approx(expected, rel=1e-3)

    def test_diagonal_matches_exponential_form(self):
        m = quadrature_minkowski_moments(1.3, 0.6, 0.8)
        assert m.nu1 == pytest.approx(math.exp(-1.3**2 / (2 * math.pi**2)), rel=1e-3)
        assert m.nu2 == pytest.approx(math.exp(-0.6**2 / (2 * math.pi**2)), rel=1e-3)

    def test_agreement_with_analytic_over_grid(self):
        for l1 in (0.5, 50.0):
            for dtau in (0.3, 1.7):
                analytic = minkowski_moments(MinkowskiParams(l1, 1.2, dtau))
                numeric = quadrature_minkowski_moments(l1, 1.2, dtau)
                for name in ("nu1", "nu2", "e12", "mu12"):
                    a, b = getattr(analytic, name), getattr(numeric, name)
                    assert abs(a - b) <= 1e-3 * max(abs(a), abs(b))

    def test_convergence_order(self):
        # reference from a very fine pass; ratios follow Simpson's order
        dtau = 1.8
        exact = radial_wightman_integral(dtau, 262145)
        errors = [
            abs(radial_wightman_integral(dtau, n) - exact)
            for n in (513, 1025, 2049)
        ]
        for coarse, fine in zip(errors, errors[1:]):
            assert 10.0 < coarse / fine < 26.0

    def test_arrays_integrate_once_per_dtau(self, monkeypatch):
        grid = list(itertools.product((0.5, 100.0), (0.5, 2.0), (0.25, 1.0, 3.0)))
        lambda1, lambda2, dtau = np.array(grid).T
        original, integrated = oracle_mod._converged_radial, []

        def counted(d):
            integrated.append(d)
            return original(d)

        monkeypatch.setattr(oracle_mod, "_converged_radial", counted)
        sets = quadrature_minkowski_moments(lambda1, lambda2, dtau)
        assert sorted(integrated) == [0.0, 0.25, 1.0, 3.0]
        # each point is the scalar call's moment set, bit for bit
        assert sets == [quadrature_minkowski_moments(l1, l2, d) for l1, l2, d in grid]

    def test_non_convergent_refinement_raises(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "_REFINE_LIMIT", 1)
        monkeypatch.setattr(oracle_mod, "_FIRST_NODES", 17)
        # one doubling from 17 points cannot settle this oscillatory integrand
        with pytest.raises(QuadratureConvergenceError):
            quadrature_minkowski_moments(1.0, 1.0, 9.0)

    @pytest.mark.parametrize("dtau", [math.inf, -math.inf, math.nan])
    def test_non_finite_separation_rejected_before_integrating(self, monkeypatch, dtau):
        integrated = []
        monkeypatch.setattr(oracle_mod, "_converged_radial", integrated.append)
        with pytest.raises(ValueError, match=f"^dtau must be finite, got {dtau!r}$"):
            quadrature_minkowski_moments(1.0, 1.0, dtau)
        with pytest.raises(ValueError, match="^dtau must be finite"):  # one bad point of many
            quadrature_minkowski_moments(1.0, 1.0, np.array([0.5, dtau, 1.5]))
        assert integrated == []

    @pytest.mark.parametrize("n_points", [2, 256, 1024])
    def test_even_node_count_rejected(self, n_points):
        with pytest.raises(ValueError, match=f"odd node count, got {n_points}$"):
            radial_wightman_integral(1.0, n_points)


@pytest.mark.parametrize("error, kind, other", [
    (TruncationError, ValueError, ArithmeticError),
    (QuadratureConvergenceError, ArithmeticError, ValueError),
])
def test_oracle_errors_have_the_base_of_their_exit_code(error, kind, other):
    # still RuntimeErrors; the command line exits 1 on a ValueError (a
    # validation error) and 2 on an ArithmeticError (a verification failure)
    assert issubclass(error, RuntimeError) and issubclass(error, kind)
    assert not issubclass(error, other)
