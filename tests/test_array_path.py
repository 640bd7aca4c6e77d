"""The array kernel (minkowski_moment_arrays + cycle_arrays) against the
mpmath reference ledger of support.py, point by point, and the scalar API
against the array elements it wraps, bit for bit.

Values agree to 1e-14 relative to max(1, |v|); the populations, strokes and
w_ext may differ by that much times the closure condition number
1/(1 - nu1 nu2 alpha), which multiplies the last-bit differences of exp.  pwc
follows the sign of w_ext, and the reference's wherever its work lies outside
that band.  A raised exception comes from the check the reference fails,
with the message the scalar API gives for the first failing point, exactly.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ottoqft.algebra import (
    KernelInconsistencyError,
    MomentSet,
    _population_columns,
    contraction_factor,
    p_after_second,
)
from ottoqft.config import parse_config
from ottoqft.cycle import (
    CycleConfig,
    DegenerateCycleError,
    InteractionEvent,
    cycle_arrays,
    cyclic_initial_population,
    extracted_work,
    ledger_arrays,
    stroke_ledger,
    theta,
)
from ottoqft.minkowski import MinkowskiParams, minkowski_moment_arrays, minkowski_moments
from ottoqft.sweeps import run_sweep

from support import (
    moment_set_strategy,
    realizable_moment_set_strategy,
    reference_contraction,
    reference_ledger,
)

TOL = 1e-14

# nu stays a normal double up to lambda ~ 118.2
COUPLING = st.floats(min_value=0.0, max_value=118.0)
SEPARATION = st.floats(min_value=0.0, max_value=10.0)
GAP = st.floats(min_value=0.1, max_value=5.0)
KICK_TIMES = st.tuples(st.floats(min_value=-5.0, max_value=5.0),
                       st.floats(min_value=0.01, max_value=10.0))
_NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)")


def _close(got, want, tol):
    return abs(got - want) <= tol * max(1.0, abs(want))


def _reference_row(omega1, omega2, tau1, tau2, m):
    """The reference ledger of one point; where the reference rejects the
    point, the scalar API's error, which must come from the same check."""
    config = CycleConfig(InteractionEvent(tau1, omega1), InteractionEvent(tau2, omega2))
    th = theta(config)
    try:
        return m, th, reference_ledger(m, th, omega1, omega2)
    except KernelInconsistencyError as reference_error:
        with pytest.raises(KernelInconsistencyError) as scalar:
            stroke_ledger(config, m)
        assert _NUMBER.sub("#", str(scalar.value)) == _NUMBER.sub("#", str(reference_error))
        raise scalar.value from None


def _assert_matches_reference(kicks, moments, array_call):
    """kicks: (omega1, omega2, tau1, tau2) per point; moments: a callable per
    point giving its MomentSet; array_call: () -> LedgerColumns."""
    try:
        rows = [_reference_row(*kick, make_moments())
                for kick, make_moments in zip(kicks, moments)]
    except (ValueError, ArithmeticError) as expected:
        with pytest.raises((ValueError, ArithmeticError)) as raised:
            array_call()
        assert type(raised.value) is type(expected)
        assert str(raised.value) == str(expected)
        return
    cols = array_call()
    for i, (m, th, ref) in enumerate(rows):
        cond = 1.0 / max(1.0 - ref["product"], 1e-300)
        for name, want in (("theta", th), ("nu1", m.nu1), ("nu2", m.nu2), ("e12", m.e12),
                           ("mu12", m.mu12)):
            assert _close(float(getattr(cols, name)[i]), want, TOL), (i, name)
        for name in ("p", "p1", "p2", "w1", "w3", "q2", "q4", "q_total", "w_ext"):
            assert _close(float(getattr(cols, name)[i]), ref[name], TOL * cond), (i, name)
        assert bool(cols.degenerate[i]) is ref["degenerate"], i
        assert bool(cols.closed[i]) and ref["closed"], i
        w_ext = float(cols.w_ext[i])
        assert bool(cols.pwc[i]) is (w_ext > 0.0), i
        if abs(ref["w_ext"]) > TOL * cond * max(1.0, abs(ref["w_ext"])):
            assert bool(cols.pwc[i]) is ref["pwc"], i
        efficiency = float(cols.efficiency[i])
        if math.isnan(efficiency):  # q2 rounds to 0 only inside the band
            assert abs(ref["q2"]) <= TOL * cond, i
        else:
            assert _close(efficiency, ref["efficiency"], TOL), i


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(COUPLING, COUPLING, SEPARATION), min_size=1, max_size=16))
def test_moment_arrays_match_scalar(points):
    # minkowski_moments is the array element, checked by MomentSet
    lambda1, lambda2, dtau = (np.array(c) for c in zip(*points))
    arrays = minkowski_moment_arrays(lambda1, lambda2, dtau)
    for i, point in enumerate(points):
        m = minkowski_moments(MinkowskiParams(*point))
        assert (m.nu1, m.nu2, m.e12, m.mu12) == tuple(float(a[i]) for a in arrays), (i, point)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(GAP, GAP, KICK_TIMES, COUPLING, COUPLING), min_size=1, max_size=16))
def test_minkowski_cycles_match_reference(points):
    # a point that fails a check must fail the same way on both
    kicks = [(o1, o2, t1, t1 + dt) for o1, o2, (t1, dt), _, _ in points]
    couplings = [(l1, l2) for *_, l1, l2 in points]
    omega1, omega2, tau1, tau2 = (np.array(c) for c in zip(*kicks))
    lambda1, lambda2 = (np.array(c) for c in zip(*couplings))
    _assert_matches_reference(
        kicks,
        [lambda k=k, c=c: minkowski_moments(MinkowskiParams(*c, k[3] - k[2]))
         for k, c in zip(kicks, couplings)],
        lambda: cycle_arrays(omega1, omega2, tau1, tau2,
                             *minkowski_moment_arrays(lambda1, lambda2, tau2 - tau1)),
    )


@pytest.mark.parametrize("strategy", [realizable_moment_set_strategy(), moment_set_strategy()],
                         ids=["realizable", "arbitrary"])
def test_ledger_columns_match_reference(strategy):
    # arbitrary sets are mostly unrealizable: the first such point must raise
    # the reference's KernelInconsistencyError
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(GAP, GAP, KICK_TIMES, strategy), min_size=1, max_size=16))
    def check(points):
        kicks = [(o1, o2, t1, t1 + dt) for o1, o2, (t1, dt), _ in points]
        sets = [m for *_, m in points]
        columns = [np.array(c) for c in zip(*kicks)]
        moments = [np.array(c) for c in zip(*((m.nu1, m.nu2, m.e12, m.mu12) for m in sets))]
        _assert_matches_reference(kicks, [lambda m=m: m for m in sets],
                                  lambda: cycle_arrays(*columns, *moments))

    check()


@settings(max_examples=200, deadline=None)
@given(GAP, GAP, KICK_TIMES, realizable_moment_set_strategy(),
       st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)))
def test_scalar_api_is_the_array_element(omega1, omega2, kick_times, m, initial_p):
    # the scalar functions wrap the kernel: every value bit for bit
    tau1, tau2 = kick_times[0], kick_times[0] + kick_times[1]
    config = CycleConfig(InteractionEvent(tau1, omega1), InteractionEvent(tau2, omega2), initial_p)
    moments = (m.nu1, m.nu2, m.e12, m.mu12)
    try:
        report = stroke_ledger(config, m)
    except ArithmeticError as expected:
        with pytest.raises(ArithmeticError) as raised:
            cycle_arrays(omega1, omega2, tau1, tau2, *moments, initial_p)
        assert (type(raised.value), str(raised.value)) == (type(expected), str(expected))
        return
    cols = cycle_arrays(omega1, omega2, tau1, tau2, *moments, initial_p)
    for name, value in vars(report).items():
        column = getattr(cols, name).item()
        assert value == column or (value is None and math.isnan(column)), name
    th = theta(config)
    population, _ = _population_columns(*map(np.asarray, (*moments, th)))
    assert contraction_factor(m, th) == population.product.item()
    if initial_p is not None:
        assert p_after_second(initial_p, m, th) == cols.p2.item()
    elif report.degenerate:
        with pytest.raises(DegenerateCycleError):
            cyclic_initial_population(m, th)
    else:
        assert cyclic_initial_population(m, th) == cols.p.item() == report.p
    if initial_p is None:
        assert extracted_work(m, th, omega1 - omega2) == cols.w_ext.item()


def test_degenerate_points_give_the_noop_row():
    cols = cycle_arrays(1.0, 3.0, 0.0, np.array([0.5, 1.5]), 1.0, 1.0, 0.0, 0.0)
    assert cols.p.tolist() == cols.p1.tolist() == cols.p2.tolist() == [0.5, 0.5]
    assert cols.w_ext.tolist() == cols.w1.tolist() == cols.w3.tolist() == [0.0, 0.0]
    assert cols.pwc.tolist() == [False, False]


def test_strong_coupling_parity():
    # 4 mu12 ~ 1013 puts exp(4 mu12) past double range; the kernel forms
    # nu1 nu2 exp(+-4 mu12) in log space and gives a finite row
    lambdas = np.array([1.0, 100.0])

    def array_call():
        return cycle_arrays(1.0, 3.0, 0.0, 0.01, *minkowski_moment_arrays(lambdas, lambdas, 0.01))

    _assert_matches_reference(
        [(1.0, 3.0, 0.0, 0.01)] * 2,
        [lambda c=c: minkowski_moments(MinkowskiParams(c, c, 0.01)) for c in lambdas],
        array_call,
    )
    cols = array_call()
    # efficiency is NaN where q2 = 0, its documented marker for "undefined"
    assert all(np.isfinite(getattr(cols, name)).all()
               for name in cols._fields if name != "efficiency")


@pytest.mark.xfail(strict=True, reason="the exponent log nu1 + log nu2 + 4 mu12 is a float sum of "
                   "two terms of about 1300 that nearly cancel, and exp carries its rounding; the "
                   "logs are exact (log nu1 == -2 W11), so forming it from W11, W22 gives the same")
def test_strong_coupling_contraction_factor_matches_reference():
    # log nu1 + log nu2 = -1305.9 and 4 mu12 = 1304.3 nearly cancel: the
    # kernel gives 0.14800900283973498, mpmath 0.14800900283971813
    m = minkowski_moments(MinkowskiParams(111.0, 116.0, 0.015625))
    th = -2.03125
    assert _close(contraction_factor(m, th), float(reference_contraction(m, th)), TOL)


@pytest.mark.parametrize("omega1, lambda1, lambda2, tau2, error", [
    (1.0, 122.0, 1.0, 1.5, ValueError),  # nu1 underflows to 0
    (1.0, 1.0, 1.0, math.inf, ValueError),  # a kick at tau2 = inf: phase -inf
    (math.inf, 1.0, 1.0, 1.5, ValueError),  # a first gap of inf: phase inf * 0 = nan
])
def test_error_parity(omega1, lambda1, lambda2, tau2, error):
    with pytest.raises(error) as scalar:
        m = minkowski_moments(MinkowskiParams(lambda1, lambda2, tau2))
        stroke_ledger(CycleConfig(InteractionEvent(0.0, omega1), InteractionEvent(tau2, 3.0)), m)
    # the failing point sits behind a good one in the batch
    omegas1, taus2 = np.array([1.0, omega1]), np.array([1.5, tau2])
    lambdas1, lambdas2 = np.array([1.0, lambda1]), np.array([1.0, lambda2])
    with pytest.raises(error) as array:
        cycle_arrays(omegas1, 3.0, 0.0, taus2, *minkowski_moment_arrays(lambdas1, lambdas2, taus2))
    assert type(array.value) is type(scalar.value)
    assert str(array.value) == str(scalar.value)


@pytest.mark.parametrize("th", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    lambda m, th: contraction_factor(m, th),
    lambda m, th: p_after_second(0.3, m, th),
    lambda m, th: cyclic_initial_population(m, th),
    lambda m, th: extracted_work(m, th, -2.0),
], ids=["contraction_factor", "p_after_second", "cyclic_initial_population", "extracted_work"])
def test_non_finite_phase_parity(call, th):
    # every theta-taking function raises the kernel's phase check, as the arrays do
    m = MomentSet(0.5, 0.6, 0.3, 0.05)
    with pytest.raises(ValueError) as array:
        ledger_arrays(np.array([1.0, th]), 1.0, 3.0, m.nu1, m.nu2, m.e12, m.mu12)
    with pytest.raises(ValueError) as scalar:
        call(m, th)
    assert type(scalar.value) is type(array.value) is ValueError
    assert str(scalar.value) == str(array.value) == (
        f"phase omega1*tau1 - omega2*tau2 = {th!r} is not finite")


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
