"""The array path (minkowski_moment_arrays + cycle_arrays) against the scalar
reference (minkowski_moments + stroke_ledger), point by point.

Values agree to 1e-14 relative to max(1, |v|); p, p1 and w_ext may differ by
that much times the closure condition number 1/(1 - nu1 nu2 alpha), which
multiplies the last-bit differences of exp.  pwc and every raised exception
(class and message, for the first failing point) must match exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ottoqft.algebra import contraction_factor
from ottoqft.config import parse_config
from ottoqft.cycle import CycleConfig, InteractionEvent, cycle_arrays, stroke_ledger, theta
from ottoqft.minkowski import MinkowskiParams, minkowski_moment_arrays, minkowski_moments
from ottoqft.sweeps import run_sweep

from support import moment_set_strategy, realizable_moment_set_strategy

TOL = 1e-14

# nu stays a normal double up to lambda ~ 118.2
COUPLING = st.floats(min_value=0.0, max_value=118.0)
SEPARATION = st.floats(min_value=0.0, max_value=10.0)
GAP = st.floats(min_value=0.1, max_value=5.0)
KICK_TIMES = st.tuples(st.floats(min_value=-5.0, max_value=5.0),
                       st.floats(min_value=0.01, max_value=10.0))


def _close(got, want, tol):
    return abs(got - want) <= tol * max(1.0, abs(want))


def _scalar(omega1, omega2, tau1, tau2, m):
    config = CycleConfig(InteractionEvent(tau1, omega1), InteractionEvent(tau2, omega2))
    return config, stroke_ledger(config, m)


def _assert_matches_scalar(kicks, moments, array_call):
    """kicks: (omega1, omega2, tau1, tau2) per point; moments: a callable per
    point giving its MomentSet; array_call: () -> LedgerColumns."""
    try:
        rows = []
        for kick, make_moments in zip(kicks, moments):
            m = make_moments()
            rows.append((m, *_scalar(*kick, m)))
    except (ValueError, ArithmeticError) as expected:
        with pytest.raises((ValueError, ArithmeticError)) as raised:
            array_call()
        assert type(raised.value) is type(expected)
        assert str(raised.value) == str(expected)
        return
    cols = array_call()
    for i, (m, config, report) in enumerate(rows):
        th = theta(config)
        product = contraction_factor(m, th)
        cond = 1.0 / max(1.0 - product, 1e-300)
        for name, want in (("theta", th), ("nu1", m.nu1), ("nu2", m.nu2),
                           ("e12", m.e12), ("mu12", m.mu12)):
            assert _close(float(getattr(cols, name)[i]), want, TOL), (i, name)
        for name, want in (("p", report.p), ("p1", report.p1), ("w_ext", report.w_ext)):
            assert _close(float(getattr(cols, name)[i]), want, TOL * cond), (i, name)
        assert bool(cols.pwc[i]) is report.pwc, i


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(COUPLING, COUPLING, SEPARATION), min_size=1, max_size=16))
def test_moment_arrays_match_scalar(points):
    lambda1, lambda2, dtau = (np.array(c) for c in zip(*points))
    arrays = minkowski_moment_arrays(lambda1, lambda2, dtau)
    for i, point in enumerate(points):
        m = minkowski_moments(MinkowskiParams(*point))
        for got, want in zip(arrays, (m.nu1, m.nu2, m.e12, m.mu12)):
            assert _close(float(got[i]), want, TOL), (i, point)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(GAP, GAP, KICK_TIMES, COUPLING, COUPLING), min_size=1, max_size=16))
def test_minkowski_cycles_match_scalar(points):
    # a point that fails a check must fail the same way on both paths
    kicks = [(o1, o2, t1, t1 + dt) for o1, o2, (t1, dt), _, _ in points]
    couplings = [(l1, l2) for *_, l1, l2 in points]
    omega1, omega2, tau1, tau2 = (np.array(c) for c in zip(*kicks))
    lambda1, lambda2 = (np.array(c) for c in zip(*couplings))
    _assert_matches_scalar(
        kicks,
        [lambda k=k, c=c: minkowski_moments(MinkowskiParams(*c, k[3] - k[2]))
         for k, c in zip(kicks, couplings)],
        lambda: cycle_arrays(omega1, omega2, tau1, tau2,
                             *minkowski_moment_arrays(lambda1, lambda2, tau2 - tau1)),
    )


@pytest.mark.parametrize("strategy", [realizable_moment_set_strategy(), moment_set_strategy()],
                         ids=["realizable", "arbitrary"])
def test_ledger_columns_match_scalar(strategy):
    # arbitrary sets are mostly unrealizable: the first such point must raise
    # the same KernelInconsistencyError from both paths
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(GAP, GAP, KICK_TIMES, strategy), min_size=1, max_size=16))
    def check(points):
        kicks = [(o1, o2, t1, t1 + dt) for o1, o2, (t1, dt), _ in points]
        sets = [m for *_, m in points]
        columns = [np.array(c) for c in zip(*kicks)]
        moments = [np.array(c) for c in zip(*((m.nu1, m.nu2, m.e12, m.mu12) for m in sets))]
        _assert_matches_scalar(kicks, [lambda m=m: m for m in sets],
                               lambda: cycle_arrays(*columns, *moments))

    check()


def test_degenerate_points_give_the_noop_row():
    cols = cycle_arrays(1.0, 3.0, 0.0, np.array([0.5, 1.5]), 1.0, 1.0, 0.0, 0.0)
    assert cols.p.tolist() == cols.p1.tolist() == [0.5, 0.5]
    assert cols.w_ext.tolist() == [0.0, 0.0]
    assert cols.pwc.tolist() == [False, False]


def test_strong_coupling_parity():
    # 4 mu12 ~ 1013 puts exp(4 mu12) past double range; both paths form
    # nu1 nu2 exp(+-4 mu12) in log space and give the same finite row
    lambdas = np.array([1.0, 100.0])

    def array_call():
        return cycle_arrays(1.0, 3.0, 0.0, 0.01, *minkowski_moment_arrays(lambdas, lambdas, 0.01))

    _assert_matches_scalar(
        [(1.0, 3.0, 0.0, 0.01)] * 2,
        [lambda c=c: minkowski_moments(MinkowskiParams(c, c, 0.01)) for c in lambdas],
        array_call,
    )
    assert all(np.isfinite(column).all() for column in array_call())


@pytest.mark.parametrize("lambda1, lambda2, tau2, error", [
    (122.0, 1.0, 1.5, ValueError),  # nu1 underflows to 0
])
def test_error_parity(lambda1, lambda2, tau2, error):
    with pytest.raises(error) as scalar:
        m = minkowski_moments(MinkowskiParams(lambda1, lambda2, tau2))
        _scalar(1.0, 3.0, 0.0, tau2, m)
    # the failing point sits behind a good one in the batch
    lambdas1, lambdas2 = np.array([1.0, lambda1]), np.array([1.0, lambda2])
    with pytest.raises(error) as array:
        cycle_arrays(1.0, 3.0, 0.0, tau2, *minkowski_moment_arrays(lambdas1, lambdas2, tau2))
    assert type(array.value) is type(scalar.value)
    assert str(array.value) == str(scalar.value)


def test_sweep_raises_the_first_failing_point():
    spec = parse_config(
        "mode = grid-couplings\nomega1 = 1\nomega2 = 3\ntau1 = 0\ntau2 = 1.5\n"
        "lambda1_start = 100\nlambda1_stop = 122\nlambda1_count = 3\n"
        "lambda2_start = 0\nlambda2_stop = 1\nlambda2_count = 2\noutput = x.csv\n"
    )
    with pytest.raises(ValueError, match=r"nu1 must lie in \(0, 1\], got 0.0"):
        run_sweep(spec)


def test_argument_validation():
    with pytest.raises(ValueError):
        minkowski_moment_arrays(np.array([1.0, -1.0]), 1.0, 0.5)
    with pytest.raises(ValueError):
        minkowski_moment_arrays(1.0, 1.0, np.array([0.5, -0.5]))
    # kicks out of order or a non-positive gap: the scalar config errors
    with pytest.raises(ValueError, match="later than the first"):
        cycle_arrays(1.0, 3.0, 0.0, np.array([1.0, 0.0]), 0.5, 0.5, 0.1, 0.1)
    with pytest.raises(ValueError, match="gap must be > 0"):
        cycle_arrays(np.array([1.0, 0.0]), 3.0, 0.0, 1.0, 0.5, 0.5, 0.1, 0.1)
    with pytest.raises(ValueError, match="e12 must be finite"):
        cycle_arrays(1.0, 3.0, 0.0, 1.0, 1.0, 1.0, math.inf, 0.0)
