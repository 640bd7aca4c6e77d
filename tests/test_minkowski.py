"""Closed-form vacuum moments for the Gaussian-smeared inertial detector."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ottoqft import sweeps
from ottoqft.algebra import _POINT, contraction_factor
from ottoqft.cli import main
from ottoqft.minkowski import MinkowskiParams, dawson, minkowski_moment_arrays, minkowski_moments
from ottoqft.oracle import quadrature_minkowski_moments
from ottoqft.sweeps import figure4a_curve

from support import dawson_asymptotic_oracle, dawson_series_oracle

# zeros of the Hermite polynomial H_49 above 6: the poles of a 48-term
# descending continued fraction for D(x), which once served |x| >= 6
_H49_ZEROS = [float(z) for z in np.polynomial.hermite.hermroots([0] * 49 + [1]) if z > 6.0]


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MinkowskiParams(lambda1=-1.0, lambda2=1.0, dtau=0.0)
        with pytest.raises(ValueError):
            MinkowskiParams(lambda1=1.0, lambda2=1.0, dtau=-0.5)

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    @pytest.mark.parametrize("index, name", enumerate(["lambda1", "lambda2", "dtau"]))
    def test_every_entry_point_raises_the_params_text(self, index, name, bad):
        # the record, the kernel on floats and on arrays (the bad value at the
        # second point) and one point of a sweep (tau1 = 0, so dtau = tau2)
        good = [100.0, 1.0, 1.5]
        point = [*good[:index], bad, *good[index + 1:]]
        lambda1, lambda2, dtau = point
        calls = [
            lambda: MinkowskiParams(*point),
            lambda: minkowski_moment_arrays(*point),
            lambda: minkowski_moment_arrays(*map(np.array, zip(good, point))),
            lambda: sweeps._evaluate(1.0, 3.0, 0.0, dtau, lambda1, lambda2, None, _POINT),
        ]
        texts = []
        for call in calls:
            with pytest.raises(ValueError) as raised:
                call()
            texts.append(str(raised.value))
        assert texts == [f"{name} must be >= 0, got {bad!r}"] * len(calls)


class TestClosedForms:
    def test_absent_first_kick(self):
        m = minkowski_moments(MinkowskiParams(0.0, 1.3, 0.7))
        assert m.nu1 == 1.0
        assert m.nu2 == pytest.approx(math.exp(-1.3**2 / (2 * math.pi**2)), rel=1e-15)
        assert m.e12 == 0.0
        assert m.mu12 == 0.0

    def test_simultaneous_kicks(self):
        m = minkowski_moments(MinkowskiParams(1.2, 0.8, 0.0))
        assert m.e12 == 0.0
        assert m.mu12 == pytest.approx(1.2 * 0.8 / (4 * math.pi**2), rel=1e-15)
        assert m.mu12 > 0.0

    def test_nu_independent_of_separation(self):
        base = minkowski_moments(MinkowskiParams(2.0, 1.0, 0.1))
        for dtau in (0.5, 1.0, 4.0):
            m = minkowski_moments(MinkowskiParams(2.0, 1.0, dtau))
            assert (m.nu1, m.nu2) == (base.nu1, base.nu2)

    def test_quadrature_agreement_fig4a_point(self):
        analytic = minkowski_moments(MinkowskiParams(100.0, 1.0, 1.5))
        numeric = quadrature_minkowski_moments(100.0, 1.0, 1.5)
        for name in ("nu1", "nu2", "e12", "mu12"):
            a, b = getattr(analytic, name), getattr(numeric, name)
            assert abs(a - b) <= 1e-3 * max(abs(a), abs(b))
        th = 1.0 * 0.0 - 3.0 * 1.5
        assert contraction_factor(analytic, th) == pytest.approx(
            contraction_factor(numeric, th), rel=1e-6
        )

    def test_signal_peak_at_unit_separation(self):
        # e12 ~ x exp(-x^2) with x = dtau / (sqrt(2) sigma) peaks at dtau = sigma
        grid = [0.2 + 0.005 * i for i in range(500)]
        values = [minkowski_moments(MinkowskiParams(1.0, 1.0, d)).e12 for d in grid]
        top = max(range(len(grid)), key=values.__getitem__)
        assert abs(grid[top] - 1.0) < 0.01

    def test_moments_decay_at_large_separation(self):
        far = minkowski_moments(MinkowskiParams(1.0, 1.0, 40.0))
        assert abs(far.e12) < 1e-300
        assert abs(far.mu12) < 1e-4  # symmetric part decays only as 1/dtau^2

    def test_mu_sign_change_at_dawson_peak(self):
        # mu12 ~ 1 - 2 x D(x) crosses zero exactly where D peaks
        x_star = 0.9241388730
        dtau_star = math.sqrt(2.0) * x_star
        before = minkowski_moments(MinkowskiParams(1.0, 1.0, dtau_star - 0.05))
        after = minkowski_moments(MinkowskiParams(1.0, 1.0, dtau_star + 0.05))
        assert before.mu12 > 0.0 > after.mu12
        assert abs(2.0 * x_star * dawson(x_star) - 1.0) < 1e-9

    @settings(max_examples=200, deadline=None)
    @given(
        # nu stays a normal double up to lambda ~ 118.2
        st.floats(min_value=0.0, max_value=118.0),
        st.floats(min_value=0.0, max_value=118.0),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=-12.0, max_value=12.0),
    )
    def test_kernel_consistency_bound(self, lambda1, lambda2, dtau, th):
        m = minkowski_moments(MinkowskiParams(lambda1, lambda2, dtau))
        assert math.log(m.nu1) + math.log(m.nu2) + 4.0 * abs(m.mu12) <= math.log1p(1e-9)
        assert 0.0 <= contraction_factor(m, th) <= 1.0


class TestFigureCurve:
    def test_zero_second_coupling_gives_flat_zero(self):
        curve = figure4a_curve(1.0, 3.0, 0.0, 100.0, 0.0, [0.5, 1.0, 2.0])
        assert [w for _, w in curve] == [0.0, 0.0, 0.0]

    def test_empty_grid_gives_an_empty_curve(self):
        assert figure4a_curve(1.0, 3.0, 0.0, 100.0, 1.0, []) == []

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            figure4a_curve(1.0, 3.0, 0.0, 1.0, 1.0, [1.0, 1.0])
        with pytest.raises(ValueError):
            figure4a_curve(1.0, 3.0, 0.5, 1.0, 1.0, [0.4, 1.0])
        # a 2-D grid and a NaN point: the grid's own error, not NumPy's or dawson's
        with pytest.raises(ValueError, match="^tau2_grid must be .*1-D"):
            figure4a_curve(1.0, 3.0, 0.0, 1.0, 1.0, [[1.0, 2.0]])
        with pytest.raises(ValueError, match="^tau2_grid must be .*finite"):
            figure4a_curve(1.0, 3.0, 0.0, 1.0, 1.0, [math.nan])

    def test_sign_tracks_signal_condition(self):
        grid = [0.3 + 0.1 * i for i in range(30)]
        curve = figure4a_curve(1.0, 3.0, 0.0, 100.0, 1.0, grid)
        for tau2, w in curve:
            m = minkowski_moments(MinkowskiParams(100.0, 1.0, tau2))
            signal = math.sin(2.0 * m.e12) * math.sin(-3.0 * tau2)
            # gap difference is negative here, so the work sign follows the signal
            if abs(signal) > 1e-12:
                assert (w > 0.0) == (signal > 0.0)

    def test_work_dies_beyond_signal_reach(self):
        # the Gaussian signal tail puts the output below 1e-6 from tau2 ~ 6 on
        grid = [6.1 + 0.1 * i for i in range(20)]
        curve = figure4a_curve(1.0, 3.0, 0.0, 100.0, 1.0, grid)
        assert max(abs(w) for _, w in curve) < 1e-6

    def test_working_region_is_strong_then_weak(self):
        # at tau2 = 1.5 the positive-work pockets want a strong first coupling
        # and a much weaker second one
        strong_weak = figure4a_curve(1.0, 3.0, 0.0, 100.0, 0.25, [1.5, 1.6])[0][1]
        assert strong_weak > 0.0
        weak_weak = figure4a_curve(1.0, 3.0, 0.0, 0.25, 0.25, [1.5, 1.6])[0][1]
        assert weak_weak < strong_weak


class TestDawsonAtContinuedFractionPoles:
    @pytest.mark.parametrize("zero", _H49_ZEROS)
    def test_series_oracle_at_zero_and_neighbours(self, zero):
        for x in (math.nextafter(zero, 0.0), zero, math.nextafter(zero, math.inf)):
            assert abs(dawson(x) - dawson_series_oracle(x)) < 2.5e-15
            assert abs(dawson(x) - dawson_asymptotic_oracle(x)) < 2.5e-15

    def test_all_seven_zeros_found(self):
        assert len(_H49_ZEROS) == 7
        assert _H49_ZEROS[0] == pytest.approx(6.087727281054753, abs=1e-12)

    def test_point_report_near_first_pole(self, capsys):
        # x = tau2 / sqrt(2) lands on the first zero; mu12 is negative here
        tau2 = 8.609346484896319
        assert main(["point", "--set", "omega1=1", "--set", "omega2=3", "--set", "tau1=0",
                     "--set", f"tau2={tau2!r}", "--set", "lambda1=100",
                     "--set", "lambda2=1"]) == 0
        entries = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        x = tau2 / math.sqrt(2.0)
        expected = 100.0 / (4.0 * math.pi ** 2) * (1.0 - 2.0 * x * dawson_series_oracle(x))
        assert expected == pytest.approx(-0.0356609, abs=1e-7)
        assert float(entries["mu12"]) == pytest.approx(expected, abs=1e-14)

    def test_far_tail(self):
        # up to and beyond 2^50, where the series' lattice stops being exact
        for x in (1e6, 2.0 ** 50, 1e16, 1e100, 1e300):
            assert abs(dawson(x) / dawson_asymptotic_oracle(x) - 1.0) < 1e-15
            assert dawson(-x) == -dawson(x)

    def test_array_input_matches_scalar_calls(self):
        xs = np.array([-7.5, -1e-300, 0.0, 0.3, 6.087727281054753, 49.0])
        assert dawson(xs).tolist() == [dawson(float(x)) for x in xs]
