"""Cycle closure, per-stroke ledger, work formula, and its sign law."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ottoqft.algebra import MomentSet, p_after_first, p_after_second
from ottoqft.cycle import (
    CycleConfig,
    DegenerateCycleError,
    InteractionEvent,
    cyclic_initial_population,
    extracted_work,
    positive_work_condition,
    stroke_ledger,
    theta,
)
from ottoqft.minkowski import MinkowskiParams, minkowski_moments

from support import realizable_moment_set_strategy, sample_gram_moment_sets


def _event(tau, gap, coupling=1.0):
    return InteractionEvent(tau=tau, gap=gap, coupling=coupling)


class TestDomainTypes:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            InteractionEvent(tau=0.0, gap=0.0)
        with pytest.raises(ValueError):
            InteractionEvent(tau=0.0, gap=1.0, coupling=-1.0)

    def test_config_orders_kicks(self):
        with pytest.raises(ValueError):
            CycleConfig(first=_event(1.0, 1.0), second=_event(1.0, 2.0))
        with pytest.raises(ValueError):
            CycleConfig(first=_event(1.0, 1.0), second=_event(0.5, 2.0))

    def test_config_initial_p_range(self):
        with pytest.raises(ValueError):
            CycleConfig(first=_event(0.0, 1.0), second=_event(1.0, 2.0), initial_p=1.5)


class TestTheta:
    def test_figure_caption_values(self):
        config = CycleConfig(first=_event(0.0, 1.0), second=_event(1.5, 3.0))
        assert theta(config) == -4.5

    def test_balanced_phases_cancel(self):
        config = CycleConfig(first=_event(1.0, 3.0), second=_event(3.0, 1.0))
        assert theta(config) == 0.0


class TestCyclicInitialPopulation:
    def test_no_signal_gives_half(self):
        m = MomentSet(0.6, 0.9, 0.0, 0.1)
        assert cyclic_initial_population(m, 1.3) == 0.5

    def test_zero_sin_theta_gives_half(self):
        m = MomentSet(math.exp(-1.0), math.exp(-1.0), 0.6, 0.2)
        assert cyclic_initial_population(m, 0.0) == 0.5
        assert cyclic_initial_population(m, math.pi) == pytest.approx(0.5, abs=1e-15)

    def test_degenerate_cycle_raises(self):
        with pytest.raises(DegenerateCycleError):
            cyclic_initial_population(MomentSet(1.0, 1.0, 0.0, 0.0), 0.7)

    @settings(max_examples=300)
    @given(realizable_moment_set_strategy(), st.floats(min_value=-8.0, max_value=8.0))
    def test_fixed_point_property(self, m, th):
        try:
            p = cyclic_initial_population(m, th)
        except DegenerateCycleError:
            return
        assert 0.0 <= p <= 1.0
        assert abs(p_after_second(p, m, th) - p) < 1e-12

    def test_minkowski_fig4a_point_closes(self):
        m = minkowski_moments(MinkowskiParams(100.0, 1.0, 1.5))
        th = 1.0 * 0.0 - 3.0 * 1.5
        p = cyclic_initial_population(m, th)
        assert abs(p_after_second(p, m, th) - p) < 1e-12


class TestExtractedWork:
    def test_no_signal_gives_bitwise_zero(self, rng):
        for m in sample_gram_moment_sets(rng, 300, zero_signal=True):
            assert extracted_work(m, rng.uniform(-8, 8), rng.uniform(-5, 5)) == 0.0

    def test_unit_nu1_gives_zero(self):
        m = MomentSet(1.0, 0.9, 0.4, 0.0)
        assert extracted_work(m, -0.7, 2.0) == 0.0

    def test_degenerate_gives_zero(self):
        assert extracted_work(MomentSet(1.0, 1.0, 0.0, 0.0), 0.7, 2.0) == 0.0

    @pytest.mark.parametrize("delta_omega", [math.inf, -math.inf, math.nan])
    def test_non_finite_gap_difference_rejected(self, delta_omega):
        with pytest.raises(ValueError, match="delta_omega must be finite"):
            extracted_work(MomentSet(0.6, 0.9, 0.4, 0.05), -0.7, delta_omega)

    def test_positive_under_sign_condition(self):
        # sin(2 e12) sin(theta) < 0 with a positive gap difference
        m = MomentSet(0.6, 0.9, math.pi / 4, 0.05)
        assert extracted_work(m, -math.pi / 2, 2.0) > 0.0

    @settings(max_examples=300)
    @given(
        realizable_moment_set_strategy(),
        st.floats(min_value=-8.0, max_value=8.0),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_matches_population_route(self, m, th, d_omega):
        w = extracted_work(m, th, d_omega)
        try:
            p = cyclic_initial_population(m, th)
        except DegenerateCycleError:
            assert w == 0.0
            return
        assert abs(w - (p_after_first(p, m) - p) * d_omega) < 1e-12

    @settings(max_examples=300)
    @given(
        realizable_moment_set_strategy(),
        st.floats(min_value=-8.0, max_value=8.0),
        st.floats(min_value=1e-3, max_value=5.0),
    )
    def test_sign_law(self, m, th, d_omega):
        # for positive gap difference the work sign is opposite to sin(2 e12) sin(theta)
        if m.nu1 >= 1.0 - 1e-12:
            return
        w = extracted_work(m, th, d_omega)
        signal = math.sin(2.0 * m.e12) * math.sin(th)
        if signal == 0.0:
            assert w == 0.0
        elif abs(signal) > 1e-250:  # away from underflow of the work numerator
            assert (w > 0.0) == (signal < 0.0)
            assert w != 0.0


class TestPositiveWorkCondition:
    def test_no_signal_is_false(self):
        assert not positive_work_condition(MomentSet(0.5, 0.9, 0.0, 0.1), -1.0)

    def test_sign_examples(self):
        m = MomentSet(0.5, 0.9, math.pi / 4, 0.0)
        assert positive_work_condition(m, -math.pi / 2)
        assert not positive_work_condition(m, math.pi / 2)

    def test_requires_first_kick_decoherence(self):
        m = MomentSet(1.0, 0.9, math.pi / 4, 0.0)
        assert not positive_work_condition(m, -math.pi / 2)


class TestStrokeLedger:
    def test_zero_couplings_noop(self):
        config = CycleConfig(first=_event(0.0, 1.0, 0.0), second=_event(1.5, 3.0, 0.0))
        report = stroke_ledger(config, MomentSet(1.0, 1.0, 0.0, 0.0))
        assert report.degenerate
        assert report.closed
        assert (report.w1, report.w3, report.q2, report.q4) == (0.0, 0.0, 0.0, 0.0)
        assert report.w_ext == 0.0
        assert not report.pwc
        assert report.p == report.p1 == report.p2

    def test_first_law_randomized(self, rng):
        for m in sample_gram_moment_sets(rng, 2000):
            omega1, omega2 = rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0)
            tau1 = rng.uniform(0.0, 2.0)
            tau2 = tau1 + rng.uniform(0.1, 3.0)
            config = CycleConfig(first=_event(tau1, omega1), second=_event(tau2, omega2))
            report = stroke_ledger(config, m)
            if report.degenerate:
                continue
            assert report.closed and report.w_ext is not None
            assert abs(report.w_ext - (report.q2 + report.q4)) < 1e-12
            assert abs(report.w_ext + (report.w1 + report.w3)) < 1e-12
            assert abs(report.w_ext - extracted_work(m, theta(config), omega1 - omega2)) < 1e-12
            assert report.pwc == (report.w_ext > 0.0)

    def test_positive_work_heat_flow_directions(self):
        # a working cycle absorbs heat at the wider-gap kick and releases it
        # at the narrower-gap kick; checked on both gap orderings
        m = minkowski_moments(MinkowskiParams(100.0, 0.25, 1.5))
        for omega1, omega2 in ((1.0, 3.0), (3.0, 1.0)):
            found = False
            for tau2 in [0.3 + 0.05 * i for i in range(54)]:
                mm = minkowski_moments(MinkowskiParams(100.0, 0.25, tau2))
                config = CycleConfig(first=_event(0.0, omega1, 100.0), second=_event(tau2, omega2, 0.25))
                report = stroke_ledger(config, mm)
                if report.pwc:
                    found = True
                    absorbed, released = (report.q2, report.q4) if omega1 > omega2 else (report.q4, report.q2)
                    assert absorbed > 0.0
                    assert released < 0.0
            assert found, f"no working point found for gaps ({omega1}, {omega2})"

    def test_imposed_population_reports_open_cycle(self):
        m = minkowski_moments(MinkowskiParams(2.0, 1.0, 1.5))
        config = CycleConfig(first=_event(0.0, 1.0, 2.0), second=_event(1.5, 3.0, 1.0), initial_p=0.1)
        report = stroke_ledger(config, m)
        assert not report.closed
        assert report.w_ext is None
        assert report.efficiency is None
        assert not report.pwc
        # per-stroke entries still follow the population route
        assert report.p1 == p_after_first(0.1, m)
        assert report.q2 == pytest.approx(1.0 * (report.p1 - 0.1), abs=1e-15)

    def test_imposed_population_at_fixed_point_closes(self):
        m = minkowski_moments(MinkowskiParams(2.0, 1.0, 1.5))
        config = CycleConfig(first=_event(0.0, 1.0, 2.0), second=_event(1.5, 3.0, 1.0))
        p_star = cyclic_initial_population(m, theta(config))
        closed = CycleConfig(
            first=config.first, second=config.second, initial_p=p_star
        )
        report = stroke_ledger(closed, m)
        assert report.closed
        assert report.w_ext is not None

    def test_infinite_phase_raises_value_error(self):
        # a kick at tau = inf has no phase: the scalar API raises the kernel's phase check
        m = MomentSet(0.8, 0.7, 0.3, 0.05)
        config = CycleConfig(first=_event(0.0, 1.0), second=_event(math.inf, 3.0))
        message = r"^phase omega1\*tau1 - omega2\*tau2 = -inf is not finite$"
        with pytest.raises(ValueError, match=message):
            stroke_ledger(config, m)
        with pytest.raises(ValueError, match=message):
            cyclic_initial_population(m, -math.inf)

    def test_imposed_population_on_degenerate_product(self):
        # W11 = W22 = mu12 = 1/2 saturates the Gram bound, and at theta = -pi
        # nu1 nu2 alpha = 1: closure cannot fix p, but an imposed p still
        # passes through both kicks
        m = MomentSet(math.exp(-1.0), math.exp(-1.0), 0.0, 0.5)
        config = CycleConfig(first=_event(0.0, 2.0), second=_event(math.pi, 1.0), initial_p=0.2)
        report = stroke_ledger(config, m)
        assert report.degenerate
        assert report.p1 == p_after_first(0.2, m)
        assert report.p1 == pytest.approx(0.3896361676485673, abs=1e-15)
        assert report.closed and report.w_ext is not None
        assert abs(report.w_ext - (report.q2 + report.q4)) < 1e-12

    def test_signal_below_the_float_spacing_at_half(self):
        # p - 1/2 ~ 1e-21 rounds away in p1 - p: w_ext is the closed form
        m = MomentSet(0.5, 0.5, 1e-20, 0.0)
        report = stroke_ledger(CycleConfig(_event(0.0, 3.0), _event(1.0, 1.0)), m)
        assert report.w_ext == extracted_work(m, -1.0, 2.0) == 5.6098065653859764e-21
        assert report.pwc and positive_work_condition(m, -1.0)

    def test_efficiency_is_work_over_first_heat(self):
        m = minkowski_moments(MinkowskiParams(100.0, 1.0, 1.5))
        config = CycleConfig(first=_event(0.0, 1.0, 100.0), second=_event(1.5, 3.0, 1.0))
        report = stroke_ledger(config, m)
        assert report.efficiency == pytest.approx(report.w_ext / report.q2, rel=1e-15)
