"""Moment extraction, fourth-order moments, and the two population maps."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ottoqft.algebra import (
    InvalidKernelError,
    KernelContractError,
    KernelInconsistencyError,
    MomentSet,
    TwoPointKernel,
    contraction_factor,
    moment_set_from_kernel,
    p_after_first,
    p_after_second,
    weyl_moments,
)
from ottoqft.cycle import cyclic_initial_population, extracted_work
from ottoqft.oracle import FockParams, single_mode_kernel

from support import (
    moment_set_strategy,
    realizable_moment_set_strategy,
    sample_gram_moment_sets,
    weyl_expansion_oracle,
)


class TestMomentSet:
    def test_rejects_nu_outside_unit_interval(self):
        with pytest.raises(ValueError, match="nu1"):
            MomentSet(nu1=0.0, nu2=1.0, e12=0.0, mu12=0.0)
        with pytest.raises(ValueError, match="nu2"):
            MomentSet(nu1=1.0, nu2=1.2, e12=0.0, mu12=0.0)

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="e12"):
            MomentSet(nu1=0.5, nu2=0.5, e12=math.inf, mu12=0.0)
        with pytest.raises(ValueError, match="mu12"):
            MomentSet(nu1=0.5, nu2=0.5, e12=0.0, mu12=math.nan)


class TestMomentSetFromKernel:
    def test_zero_kernel_gives_unit_moments(self):
        m = moment_set_from_kernel(TwoPointKernel(0.0, 0.0, 0.0))
        assert (m.nu1, m.nu2, m.e12, m.mu12) == (1.0, 1.0, 0.0, 0.0)

    def test_gaussian_smearing_diagonal(self):
        # diagonal value lam^2 / (4 pi^2 sigma^2) must give nu = exp(-lam^2 / (2 pi^2 sigma^2))
        lam = 1.7
        w_diag = lam**2 / (4.0 * math.pi**2)
        m = moment_set_from_kernel(TwoPointKernel(w_diag, w_diag, 0.0))
        expected = math.exp(-(lam**2) / (2.0 * math.pi**2))
        assert m.nu1 == pytest.approx(expected, rel=1e-15)
        assert m.nu2 == pytest.approx(expected, rel=1e-15)

    def test_single_mode_vacuum_hand_values(self):
        # <(a1 a + a1* adag)(a2 a + a2* adag)> on vacuum = a1 conj(a2)
        kernel = single_mode_kernel(FockParams(alpha1=0.3, alpha2=0.2j))
        m = moment_set_from_kernel(kernel)
        assert m.mu12 == pytest.approx(0.0, abs=1e-15)
        assert m.e12 == pytest.approx(-0.12, abs=1e-15)

    def test_unsupported_index_pair(self):
        with pytest.raises(KeyError, match=r"\(2, 1\) not supported"):
            TwoPointKernel(0.1, 0.1, 0.05j).wightman(2, 1)

    def test_non_finite_kernel_rejected(self):
        with pytest.raises(InvalidKernelError):
            moment_set_from_kernel(TwoPointKernel(math.nan, 0.0, 0.0))
        with pytest.raises(InvalidKernelError):
            moment_set_from_kernel(TwoPointKernel(0.0, 0.0, complex(0.0, math.inf)))

    def test_contract_violations_rejected(self):
        with pytest.raises(KernelContractError):
            moment_set_from_kernel(TwoPointKernel(-0.1, 0.0, 0.0))
        with pytest.raises(KernelContractError):
            moment_set_from_kernel(TwoPointKernel(0.5 + 0.3j, 0.5, 0.0))

    def test_e12_is_state_independent(self):
        # same couplings, vacuum vs thermal: commutator part unchanged
        vac = moment_set_from_kernel(
            single_mode_kernel(FockParams(alpha1=0.3 - 0.1j, alpha2=0.1 + 0.4j, nbar=0.0))
        )
        hot = moment_set_from_kernel(
            single_mode_kernel(FockParams(alpha1=0.3 - 0.1j, alpha2=0.1 + 0.4j, nbar=3.0))
        )
        assert vac.e12 == hot.e12


class TestWeylMoments:
    def test_unit_moments_collapse_to_identity(self):
        w = weyl_moments(MomentSet(1.0, 1.0, 0.0, 0.0))
        assert w.cccc == 1.0
        assert w.cssc == w.sccs == w.ssss == 0.0
        assert w.csc_s == w.ssc_c == 0.0

    def test_matches_sixteen_term_expansion(self):
        m = MomentSet(0.5, 0.8, 0.3, 0.1)
        expanded = weyl_expansion_oracle(m)
        w = weyl_moments(m)
        for name in ("cccc", "cssc", "sccs", "ssss", "csc_s", "ssc_c"):
            assert complex(getattr(w, name)) == pytest.approx(expanded[name], abs=5e-15)

    @settings(max_examples=150)
    @given(realizable_moment_set_strategy())
    def test_expansion_agreement_randomized(self, m):
        expanded = weyl_expansion_oracle(m)
        w = weyl_moments(m)
        for name in ("cccc", "cssc", "sccs", "ssss", "csc_s", "ssc_c"):
            assert complex(getattr(w, name)) == pytest.approx(expanded[name], abs=1e-13)

    @settings(max_examples=200)
    @given(realizable_moment_set_strategy())
    def test_partition_of_unity(self, m):
        # on state-realizable data the four values are outcome probabilities,
        # so the absolute 1e-12 bound is meaningful
        w = weyl_moments(m)
        assert abs(w.cccc + w.cssc + w.sccs + w.ssss - 1.0) < 1e-12

    @settings(max_examples=200)
    @given(moment_set_strategy())
    def test_partition_of_unity_scaled(self, m):
        # unconstrained tuples are either rejected by the realizability bound
        # or keep nu1*nu2*cosh(4*mu12) <= 1 + 1e-9, where the absolute bound holds
        try:
            w = weyl_moments(m)
        except KernelInconsistencyError:
            return
        assert abs(w.cccc + w.cssc + w.sccs + w.ssss - 1.0) < 1e-12

    @settings(max_examples=200)
    @given(moment_set_strategy())
    def test_cross_moments_are_conjugate(self, m):
        try:
            w = weyl_moments(m)
        except KernelInconsistencyError:
            return
        assert w.csc_s == w.ssc_c.conjugate()

    def test_overflow_guard(self):
        # nu1*nu2*exp(4|mu12|) = exp(800 - 1.39) breaks the realizability bound
        with pytest.raises(KernelInconsistencyError):
            weyl_moments(MomentSet(0.5, 0.5, 0.0, 200.0))

    def test_realizable_beyond_exp_overflow(self):
        # W11 = W22 = 200, mu12 = 199: Gram-realizable, yet exp(4 mu12) overflows;
        # nu1 nu2 cosh(4 mu12) = exp(-4) / 2 and nu1 nu2 sinh(4 mu12) = exp(-4) / 2
        m = MomentSet(math.exp(-400.0), math.exp(-400.0), 0.0, 199.0)
        w = weyl_moments(m)
        assert w.cccc + w.ssss == pytest.approx(0.5 + 0.25 * math.exp(-4.0), rel=1e-15)
        assert w.csc_s.real == pytest.approx(0.125 * math.exp(-4.0), rel=1e-15)
        assert abs(w.cccc + w.cssc + w.sccs + w.ssss - 1.0) < 1e-12


class TestAppendixIdentities:
    def test_cosh_sinh_recombination(self, rng):
        # nu of the sum/difference smearings from kernel bilinearity:
        # W(f1 +/- f2, f1 +/- f2) = W11 +/- 2 mu12 + W22
        for _ in range(1000):
            w11, w22 = rng.uniform(0, 2), rng.uniform(0, 2)
            mu12 = rng.uniform(-1, 1) * math.sqrt(w11 * w22)
            nu1, nu2 = math.exp(-2 * w11), math.exp(-2 * w22)
            nu_minus = math.exp(-2 * (w11 - 2 * mu12 + w22))
            nu_plus = math.exp(-2 * (w11 + 2 * mu12 + w22))
            assert abs(nu_minus + nu_plus - 2 * nu1 * nu2 * math.cosh(4 * mu12)) < 1e-12
            assert abs(nu_minus - nu_plus - 2 * nu1 * nu2 * math.sinh(4 * mu12)) < 1e-12


class TestPAfterFirst:
    @settings(max_examples=300)
    @given(moment_set_strategy())
    @example(MomentSet(1.0, 1.0, 0.0, 0.0))
    @example(MomentSet(0.7, 1.0, 0.0, 0.0))
    @example(MomentSet(1e-6, 1.0, 0.0, 0.0))
    @example(MomentSet(5e-324, 1.0, 0.0, 0.0))  # 0.5 * nu1 rounds to 0
    def test_half_is_fixed_point(self, m):
        # 0.5 nu1 and 0.5 fl(1 - nu1) are exact, and nu1 + fl(1 - nu1) rounds to 1
        assert p_after_first(0.5, m) == 0.5

    @settings(max_examples=300)
    @given(moment_set_strategy(), st.floats(min_value=0.0, max_value=1.0))
    def test_reflection_about_half(self, m, p):
        # p_after_first(1 - p) = 1 - p_after_first(p) in exact arithmetic.  Every value
        # here lies in [0, 1], so each rounding errs by at most 2**-53: 1 - p, its product
        # with nu1 and the sum on the left; p nu1, the sum and 1 - sum on the right; and
        # 0.5 fl(1 - nu1), shared by both sides, which enters them with opposite signs
        # (twice 2**-54).  Seven half-ulps of 1 in all
        assert abs(p_after_first(1.0 - p, m) - (1.0 - p_after_first(p, m))) <= 7 * 2.0**-53

    def test_unit_nu_is_identity(self):
        m = MomentSet(1.0, 1.0, 0.0, 0.0)
        assert p_after_first(0.0, m) == 0.0
        assert p_after_first(0.37, m) == pytest.approx(0.37, abs=1e-16)

    def test_frozen_value(self):
        # 0.5 - 0.3 * exp(-2), evaluated in high precision and frozen
        m = MomentSet(math.exp(-2.0), 1.0, 0.0, 0.0)
        assert p_after_first(0.2, m) == pytest.approx(0.4593994150290162, abs=1e-16)

    def test_domain_error(self):
        m = MomentSet(0.5, 0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            p_after_first(-0.1, m)
        with pytest.raises(ValueError):
            p_after_first(1.1, m)

    @settings(max_examples=200)
    @given(moment_set_strategy(), st.floats(min_value=0.0, max_value=1.0))
    def test_contraction_toward_half(self, m, p):
        p1 = p_after_first(p, m)
        assert abs(p1 - 0.5) <= abs(p - 0.5) + 1e-16
        # strictness needs clearance from the rounding ties at nu1 ~ 1
        if abs(p - 0.5) > 1e-9 and m.nu1 < 1.0 - 1e-9:
            assert abs(p1 - 0.5) < abs(p - 0.5)


class TestAlphaFactor:
    """contraction_factor(m, theta) = nu1 nu2 alpha, with
    alpha = exp(4 mu12) sin^2(theta/2) + exp(-4 mu12) cos^2(theta/2)."""

    def test_zero_mu_gives_one(self):
        for th in (-3.0, 0.0, 0.4, 10.0):
            m = MomentSet(0.5, 0.5, 0.7, 0.0)
            assert contraction_factor(m, th) == pytest.approx(0.25, abs=1e-15)

    def test_zero_theta_gives_exp_minus_4mu(self):
        m = MomentSet(0.5, 0.5, 0.0, 0.3)
        assert contraction_factor(m, 0.0) == pytest.approx(0.25 * math.exp(-1.2), rel=1e-15)

    def test_lower_bound(self, rng):
        for m in sample_gram_moment_sets(rng, 200):
            th = rng.uniform(-8, 8)
            floor = m.nu1 * m.nu2 * min(math.exp(4 * m.mu12), math.exp(-4 * m.mu12))
            assert contraction_factor(m, th) >= floor - 1e-15

    def test_realizable_sets_respect_unit_bound(self, rng):
        for m in sample_gram_moment_sets(rng, 500):
            th = rng.uniform(-8, 8)
            # accepted by the bound: no KernelInconsistencyError
            assert 0.0 <= contraction_factor(m, th) <= 1.0

    def test_unrealizable_set_rejected(self):
        # nu1 = nu2 = 1 forces W11 = W22 = 0, so any nonzero mu12 is inconsistent
        m = MomentSet(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(KernelInconsistencyError):
            contraction_factor(m, math.pi)

    def test_overflow_guard(self):
        # nu1*nu2*exp(4|mu12|) = exp(800 - 1.39) breaks the realizability bound
        with pytest.raises(KernelInconsistencyError):
            contraction_factor(MomentSet(0.5, 0.5, 0.0, -200.0), 1.0)

    def test_only_the_input_checks_raise(self):
        # the closure p of this cycle, 5.5, is off [0, 1]: the closure raises it,
        # while the factor and the work raise only the input checks (phase, bound)
        m = MomentSet(0.9, 1.0, math.pi / 4, 0.0)
        assert contraction_factor(m, math.pi / 2) == 0.9
        assert extracted_work(m, math.pi / 2, -2.0) == 1.0
        with pytest.raises(KernelInconsistencyError, match=(
                r"^closure population 5\.500000000000001 falls outside \[0, 1\]; ")):
            cyclic_initial_population(m, math.pi / 2)


class TestPAfterSecond:
    def test_unit_moments_identity(self):
        m = MomentSet(1.0, 1.0, 0.0, 0.0)
        for th in (-2.0, 0.0, 5.0):
            assert p_after_second(0.3, m, th) == pytest.approx(0.3, abs=1e-16)

    @settings(max_examples=200)
    @given(
        realizable_moment_set_strategy(),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=-8.0, max_value=8.0),
    )
    def test_stays_in_simplex(self, m, p, th):
        assert 0.0 <= p_after_second(p, m, th) <= 1.0

    @settings(max_examples=200)
    @given(
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.499),
        st.floats(min_value=-8.0, max_value=8.0),
    )
    # unit contraction returns p itself (p = 1e-77 is lost in 2p - 1)
    @example(1.0, 1.0, 0.0, 1e-77, 0.0)
    # 0.5 - p2 = (0.5 - p) * product = 1.5e-17 lies below the float spacing at 1/2
    @example(0.00390625, 1e-6, 0.75, 0.498046875, 0.0)
    def test_no_signal_keeps_population_below_half(self, nu1, nu2, mu_frac, p, th):
        # without a commutator part the map contracts monotonically toward 1/2
        w11, w22 = -0.5 * math.log(nu1), -0.5 * math.log(nu2)
        m = MomentSet(nu1, nu2, 0.0, mu_frac * math.sqrt(w11 * w22))
        p2 = p_after_second(p, m, th)
        assert p <= p2 <= 0.5
        # strictly below 1/2 whenever the distance 0.5 - p2 is resolvable in floats
        if (0.5 - p) * contraction_factor(m, th) > 1e-16:
            assert p2 < 0.5

    def test_matches_fock_oracle_case(self):
        from ottoqft.oracle import simulate_cycle_fock

        fp = FockParams(alpha1=0.4, alpha2=0.3 * complex(math.cos(math.pi / 4), math.sin(math.pi / 4)), dim=60)
        # monopole phases chosen so gap1*tau1 - gap2*tau2 = 0.7
        omega1, tau1, omega2, tau2 = 2.9, 1.0, 2.0, 1.1
        _, p2_fock = simulate_cycle_fock(fp, omega1, omega2, tau1, tau2, 0.1)
        m = moment_set_from_kernel(single_mode_kernel(fp))
        p2 = p_after_second(0.1, m, omega1 * tau1 - omega2 * tau2)
        assert p2 == pytest.approx(p2_fock, abs=1e-8)
