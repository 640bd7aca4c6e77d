"""The float path against the array path: the kernel's exp and its products
nu1 nu2 exp(+-4 mu12), Python float against NumPy element, bit for bit, exp
within 1 ulp of mpmath; sweeps, points and their errors byte for byte on
both paths; the CSV bytes under NumPy's AVX-512 dispatch and without it; and
NaN inputs rejected by name."""

import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
from array import array

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ottoqft
from ottoqft import sweeps
from ottoqft.algebra import (
    KernelInconsistencyError,
    _POINT,
    _arrays,
    _bound_check,
    _exp_scaled,
    _products,
    _raise_first_failure,
)
from ottoqft.config import parse_config
from ottoqft.cycle import LedgerColumns
from ottoqft.minkowski import dawson, minkowski_moment_arrays
from ottoqft.sweeps import figure4a_curve, run_point, run_sweep

ARRAYS = _arrays()
EXP_MAX = 709.782712893384  # the largest double whose exp is finite


def _same(a: float, b: float) -> bool:
    """Equal bits: nan matches nan, and 0.0 does not match -0.0."""
    return (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1, a) == math.copysign(1, b))


def _array_element(function, x: float) -> float:
    return float(function(np.array([x]))[0])


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
SPECIALS = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308, EXP_MAX, math.nextafter(EXP_MAX, 1e309),
            -745.1332191019411, -745.1332191019412, -746.0, -1e300]


@settings(max_examples=500, deadline=None)
@given(ANY_FLOAT)
def test_exp_float_is_the_array_element(x):
    assert _same(_POINT.exp(x), _array_element(ARRAYS.exp, x))


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(2.0 ** 60)  # beyond the lattice cap 2^50, where a 32-bit lattice index overflows
def test_dawson_float_is_the_array_element(x):
    assert _same(dawson(x), float(dawson(np.array([x]))[0]))


@pytest.mark.parametrize("x", SPECIALS)
def test_special_values_map_alike(x):
    # neither path raises, nor warns: round(nan) would raise, and a cast of nan to int
    # gives a garbage table index
    assert _same(_POINT.exp(x), _array_element(ARRAYS.exp, x))


def test_special_values():
    exp = _POINT.exp
    assert (exp(math.inf), exp(-math.inf), exp(0.0), exp(-0.0)) == (math.inf, 0.0, 1.0, 1.0)
    assert exp(math.nextafter(EXP_MAX, math.inf)) == math.inf > exp(EXP_MAX)
    assert math.isnan(exp(math.nan))


def _ulps(got: float, exact) -> float:
    """|got - exact| in units of the last place of exact rounded to a double
    (of the smallest subnormal where it rounds to 0)."""
    nearest = float(exact)
    unit = math.ulp(nearest) if nearest else 5e-324
    return float(abs(mp.mpf(got) - exact) / unit)


def _worst(function, reference, xs) -> float:
    with mp.workprec(120):
        return max(_ulps(function(x), reference(mp.mpf(x))) for x in xs)


def _draws(low: float, high: float, count: int, seed: int) -> list[float]:
    return np.random.default_rng(seed).uniform(low, high, count).tolist()


@pytest.mark.parametrize("xs", [
    _draws(-745.0, 709.0, 2000, 1),  # normal results
    _draws(-1.0, 1.0, 1000, 2),
    _draws(709.0, EXP_MAX, 500, 3) + [EXP_MAX],  # the overflow edge
    _draws(-745.1332191019411, -708.0, 1000, 4),  # subnormal results, the underflow edge
    [5e-324, -5e-324, 1e-300, -1e-300, 2.2250738585072014e-308, 1e-17, -1e-17],  # subnormal and tiny
], ids=["normal", "unit", "overflow-edge", "underflow-edge", "tiny"])
def test_exp_within_one_ulp_of_mpmath(xs):
    assert _worst(_POINT.exp, mp.exp, xs) < 1.0


@pytest.mark.parametrize("ts", [
    _draws(-1500.0, 1500.0, 2000, 5),
    _draws(-1.0, 1.0, 500, 6),
    [-1500.0, 1500.0, -1489.0, 1489.0, 0.0, -0.0, 5e-324, 1e-17, -1e-17],
], ids=["range", "unit", "edges"])
def test_exp_scaled_within_its_error_bound_and_the_same_on_both_paths(ts):
    # exp(t) = y 2^j over the whole range of 4 mu12 the products take, beyond exp's own
    ys, js = _exp_scaled(np.array(ts), ARRAYS)
    assert [_exp_scaled(t, _POINT) for t in ts] == list(zip(ys.tolist(), js.tolist()))
    with mp.workprec(200):
        assert max(_ulps(y, mp.ldexp(mp.exp(mp.mpf(t)), -j))
                   for t, y, j in zip(ts, ys.tolist(), js.tolist())) < 0.54


# the Gram envelope: W11, W22 >= 0 up to a subnormal nu = exp(-2 W), and
# 4 |mu12| <= 2 (W11 + W22), up to 1489
GRAM = st.tuples(st.floats(0.0, 372.5), st.floats(0.0, 372.5), st.floats(-1.0, 1.0))


@settings(max_examples=500, deadline=None)
@given(GRAM)
@example((372.2, 372.2, 1.0))  # subnormal nu1, nu2 and 4 mu12 = 1488.8
@example((372.2, 0.0, -1.0))
@example((5.0, 7.0, 0.0))
def test_products_float_is_the_array_element(gram):
    w11, w22, frac = gram
    nu1, nu2, mu12 = _POINT.exp(-2.0 * w11), _POINT.exp(-2.0 * w22), frac * (w11 + w22) / 2.0
    point = _products(nu1, nu2, mu12, _POINT)
    arrays = _products(np.array([nu1]), np.array([nu2]), np.array([mu12]), ARRAYS)
    assert all(_same(a, float(b[0])) for a, b in zip(point, arrays))
    if min(nu1, nu2) >= 2.2250738585072014e-308:  # a subnormal nu is rounded already
        assert point[2] <= 1.0 + 1e-9


def _bound_outcome(nu1, nu2, mu12, xp):
    """The _outcome of the realizability check of one point, after a good one
    on arrays."""
    if xp is ARRAYS:
        nu1, nu2, mu12 = (np.array([good, v]) for good, v in zip((0.5, 0.5, 0.0), (nu1, nu2, mu12)))
    with np.errstate(all="ignore"):  # as the kernel's array callers run it
        return _outcome(lambda: _raise_first_failure([_bound_check(
            _products(nu1, nu2, mu12, xp)[2], nu1, nu2, mu12)]))


@pytest.mark.parametrize("nu1, nu2, mu12, exponent", [
    (0.5, 0.5, 1.0, "2.613705638880109"),
    (1.0, 1.0, -1e-6, "4e-06"),
    (1.0, 1.0, 400.0, "1600.0"),
    (5e-324, 5e-324, 400.0, "111.11985615723756"),
    (1.0, 1.0, 1e300, "4e+300"),
    (1.0, 1.0, 1e308, "inf"),  # 4 mu12 overflows
    (0.5, 0.5, math.nan, "nan"),
    (0.5, 0.5, math.inf, "inf"),
    (0.5, 0.5, -math.inf, "inf"),
])
def test_unrealizable_products_raise_the_bound_check_on_both_paths(nu1, nu2, mu12, exponent):
    # never an OverflowError from ldexp: the exponents are capped
    floats, arrays = (_bound_outcome(nu1, nu2, mu12, xp) for xp in (_POINT, ARRAYS))
    assert floats == arrays == (None, (KernelInconsistencyError, (
        f"nu1*nu2*exp(4|mu12|) = exp({exponent}) exceeds 1 beyond tolerance 1e-09; "
        "the moment data is not realizable by a quasi-free state")))


# the benchmark's workloads, each cut to at most one chunk
FIG4A = ("mode = curve-tau2\nomega1 = 1.0\nomega2 = 3.0\ntau1 = 0.0\nlambda1 = 100.0\n"
         "lambda2 = 1.0\ntau2_start = 0.05\ntau2_stop = {stop}\ntau2_count = {count}\n"
         "output = x.csv\n")
GRID = ("mode = grid-couplings\nomega1 = 1.0\nomega2 = 3.0\ntau1 = 0.0\ntau2 = 1.5\n"
        "lambda1_start = 0.5\nlambda1_stop = 100.0\nlambda1_count = {count1}\n"
        "lambda2_start = 0.0\nlambda2_stop = 3.0\nlambda2_count = {count2}\noutput = x.csv\n")
ONE_CHUNK = {
    "fig4a": FIG4A.format(stop=8.0, count=200),
    "curve-dense": FIG4A.format(stop=12.0, count=sweeps._CHUNK),
    "grid-stress": GRID.format(count1=sweeps._CHUNK // 61, count2=61),
}


def _outcome(call):
    """(result, None) of call(), or (None, (type, message)) of the error it raises."""
    try:
        return call(), None
    except (ValueError, ArithmeticError) as error:
        return None, (type(error), str(error))


def _on_both_paths(call):
    """The _outcome of call() on the float path, then with every chunk on arrays, as in
    a sweep of more than one chunk."""
    with pytest.MonkeyPatch.context() as patch:
        floats, chunk = _outcome(call), sweeps._chunk
        patch.setattr(sweeps, "_chunk", lambda on_arrays, *args: chunk(True, *args))
        return floats, _outcome(call)


@pytest.mark.parametrize("name", ONE_CHUNK)
def test_one_chunk_workloads_give_the_same_bytes_on_both_paths(name):
    spec = parse_config(ONE_CHUNK[name])
    assert sweeps._layout(spec)[-1] == 1  # one chunk: on floats
    floats, arrays = _on_both_paths(lambda: run_sweep(spec))
    assert floats == arrays and floats[0].count("\n") > 100


@pytest.mark.parametrize("sets", [
    ["lambda1=100", "lambda2=1"],
    ["lambda1=122", "lambda2=1"],  # nu1 underflows: a validation error
    ["lambda1=111", "lambda2=116", "tau2=0.015625"],
    ["lambda1=0", "lambda2=0"],  # degenerate
    ["tau2=1e308", "tau1=-1e308"],  # an overflowing separation
])
def test_point_is_the_array_element(sets):
    spec = parse_config("mode = single-point", ["omega1=1", "omega2=3", "tau1=0", "tau2=1.5",
                                                "lambda1=1", "lambda2=1", *sets])
    # a one-point tau2 axis, as a sweep of one point and as a chunk of a longer sweep
    args = (LedgerColumns._fields, spec.omega1, spec.omega2, spec.tau1, array("d", [spec.tau2]),
            spec.lambda1, spec.lambda2)
    (point, error), (cells, array_error) = (_outcome(lambda: sweeps._chunk(on_arrays, *args))
                                            for on_arrays in (False, True))
    assert error == array_error
    if error is None:
        assert all(_same(a, b) for (a,), (b,) in zip(point, cells))
        assert run_point(spec).count("\n") >= 15


POSITIVE = st.floats(min_value=1e-3, max_value=1e3)


@settings(max_examples=40, deadline=None)
@given(omega1=POSITIVE, omega2=POSITIVE, tau1=st.floats(-10.0, 10.0),
       lambda1=st.floats(0.0, 130.0), lambda2=st.floats(0.0, 130.0),
       span=st.floats(1e-3, 50.0), count=st.integers(2, 40), grid=st.booleans())
@example(omega1=1.0, omega2=3.0, tau1=0.0, lambda1=122.0, lambda2=1.0, span=8.0, count=5,
         grid=True)
def test_drawn_configs_give_the_same_bytes_or_error_on_both_paths(omega1, omega2, tau1, lambda1,
                                                                  lambda2, span, count, grid):
    common = f"omega1 = {omega1!r}\nomega2 = {omega2!r}\ntau1 = {tau1!r}\noutput = x.csv\n"
    if grid:
        text = (f"mode = grid-couplings\ntau2 = {tau1 + span!r}\nlambda1_start = 0.0\n"
                f"lambda1_stop = {lambda1 + 1.0!r}\nlambda1_count = {count}\n"
                f"lambda2_start = 0.0\nlambda2_stop = {lambda2 + 1.0!r}\nlambda2_count = 3\n")
    else:
        text = (f"mode = curve-tau2\nlambda1 = {lambda1!r}\nlambda2 = {lambda2!r}\n"
                f"tau2_start = {tau1 + span / count!r}\ntau2_stop = {tau1 + span!r}\n"
                f"tau2_count = {count}\n")
    spec = parse_config(common + text)
    floats, arrays = _on_both_paths(lambda: run_sweep(spec))
    assert floats == arrays


def test_figure4a_curve_is_the_same_on_both_paths(monkeypatch):
    grid = np.linspace(0.05, 8.0, 200).tolist()
    floats = figure4a_curve(1.0, 3.0, 0.0, 100.0, 1.0, grid)
    monkeypatch.setattr(sweeps, "_CHUNK", 100)  # the grid is longer than a chunk: arrays
    assert figure4a_curve(1.0, 3.0, 0.0, 100.0, 1.0, grid) == floats


def test_figure4a_curve_a_chunk_at_a_time_is_one_array_call():
    # three chunks, the last of one point, against the whole grid in one array call
    grid = np.linspace(0.05, 8.0, 2 * sweeps._CHUNK + 1).tolist()
    whole, = sweeps._chunk(True, ("w_ext",), 1.0, 3.0, 0.0, array("d", grid), 100.0, 1.0)
    assert figure4a_curve(1.0, 3.0, 0.0, 100.0, 1.0, grid) == list(zip(grid, whole))


@pytest.mark.parametrize("call, message", [
    (lambda: minkowski_moment_arrays(np.array([1.0, math.nan]), 1.0, 0.5),
     "lambda1 must be >= 0, got nan"),
    (lambda: minkowski_moment_arrays(1.0, np.array([2.0, -1.0]), 0.5),
     "lambda2 must be >= 0, got -1.0"),
    (lambda: minkowski_moment_arrays(1.0, 1.0, np.array([0.5, math.nan])),
     "dtau must be >= 0, got nan"),
    (lambda: figure4a_curve(1.0, 3.0, 0.0, math.nan, 1.0, [1.0, 2.0]),
     "lambda1 must be >= 0, got nan"),
    (lambda: figure4a_curve(1.0, 3.0, 0.0, 1.0, math.nan,  # on arrays
                            np.linspace(1.0, 2.0, sweeps._CHUNK + 1)),
     "lambda2 must be >= 0, got nan"),
    (lambda: figure4a_curve(1.0, 3.0, math.nan, 1.0, 1.0, [1.0, 2.0]),
     "every tau2 must exceed tau1 = nan"),
    (lambda: sweeps._evaluate(1.0, 3.0, 0.0, math.nan, 1.0, 1.0, None, _POINT),
     "dtau must be >= 0, got nan"),
])
def test_nan_inputs_are_rejected_by_name(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


# the sha256 of the benchmark's three workload CSVs, on any NumPy SIMD dispatch
WORKLOAD_SHA256 = {
    "fig4a": (FIG4A.format(stop=8.0, count=200),
              "d5a4525195287f64f36bfd089036b06f8f14044589f4eb0912b1a8b6306f4df0"),
    "grid-stress": (GRID.format(count1=1001, count2=61),
                    "e94f11c2b39eb0c62585391b7b4c9cd1fd94d544c4325e833e5764c363b73ac8"),
    "curve-dense": (FIG4A.format(stop=12.0, count=20000),
                    "b8937a244c483b094777a506efadfa98b5a4b000aec51aa159ebcd7ac0170276"),
}


@pytest.mark.parametrize("name", WORKLOAD_SHA256)
def test_workload_csv_digests(name):
    text, digest = WORKLOAD_SHA256[name]
    assert hashlib.sha256(run_sweep(parse_config(text)).encode()).hexdigest() == digest


# NumPy's own per-process switch for its AVX-512 targets; it changes no machine setting
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
# prints the sha256 of a two-chunk curve and a grid of two chunks (the array path) and a point,
# and the dispatch targets NumPy runs on
DIGESTS = (
    "import hashlib, json\n"
    "from numpy._core._multiarray_umath import __cpu_features__ as features\n"
    "from ottoqft.config import parse_config\n"
    "from ottoqft.sweeps import run_point, run_sweep\n"
    "texts = [run_sweep(parse_config({curve!r})), run_sweep(parse_config({grid!r})),\n"
    "         run_point(parse_config('mode = single-point', {point!r}))]\n"
    "print(json.dumps([[hashlib.sha256(t.encode()).hexdigest() for t in texts],\n"
    "                  [name for name in {targets!r} if features.get(name)]]))\n"
)


def test_bytes_do_not_depend_on_numpy_dispatch():
    from numpy._core._multiarray_umath import __cpu_features__

    targets = NO_AVX512.split()
    if not any(__cpu_features__.get(name) for name in targets):
        pytest.skip(f"this CPU runs none of NumPy's targets {NO_AVX512}: both runs would "
                    "use the same dispatch")
    script = DIGESTS.format(
        curve=FIG4A.format(stop=12.0, count=sweeps._CHUNK + 1),
        grid=GRID.format(count1=sweeps._CHUNK // 5 + 1, count2=5),
        point=["omega1=1", "omega2=3", "tau1=0", "tau2=1.5", "lambda1=100", "lambda2=1"],
        targets=targets)
    src = str(pathlib.Path(ottoqft.__file__).parents[1])
    env = {key: value for key, value in os.environ.items() if key != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    runs = [subprocess.run([sys.executable, "-c", script], env={**env, **extra}, capture_output=True,
                           text=True, timeout=120, check=True).stdout
            for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": NO_AVX512})]
    (with_avx512, targets_on), (without, targets_off) = map(json.loads, runs)
    assert targets_on and not targets_off  # the switch took effect
    assert with_avx512 == without
