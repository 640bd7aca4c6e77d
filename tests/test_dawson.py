"""Dawson evaluator against independent series references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ottoqft.minkowski import dawson

from support import dawson_asymptotic_oracle, dawson_series_oracle


def test_zero():
    assert dawson(0.0) == 0.0


def test_frozen_reference_at_one():
    assert abs(dawson(1.0) - 0.538079506912768) < 1e-12


def test_against_series_oracle_small_range():
    # dense coverage of both branch crossovers
    xs = np.concatenate([
        np.linspace(1e-8, 6.0, 120),
        np.linspace(2.45, 2.55, 21),
        np.linspace(5.95, 6.05, 21),
    ])
    for x in xs:
        assert abs(dawson(float(x)) - dawson_series_oracle(float(x))) < 1e-12


def test_against_asymptotic_oracle_tail():
    for x in np.linspace(6.0, 50.0, 89):
        ref = dawson_asymptotic_oracle(float(x))
        assert abs(dawson(float(x)) - ref) / abs(ref) < 1e-10


def test_large_argument_limit():
    # leading asymptotic behaviour 2 x D(x) -> 1
    assert abs(2.0 * 30.0 * dawson(30.0) - 1.0) < 1e-3


def test_peak_location_and_value():
    xs = np.linspace(0.90, 0.95, 5001)
    values = [dawson(float(x)) for x in xs]
    top = int(np.argmax(values))
    assert abs(xs[top] - 0.9241388730) < 1e-3
    assert abs(values[top] - 0.5410442246351817) < 1e-9


@settings(max_examples=300)
@given(st.floats(min_value=-50.0, max_value=50.0))
def test_odd_function(x):
    assert dawson(-x) == -dawson(x)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rejects_non_finite_float(bad):
    with pytest.raises(ValueError) as raised:
        dawson(bad)
    assert str(raised.value) == f"dawson requires finite input, got {bad!r}"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make", [
    lambda bad: np.array(bad),
    lambda bad: np.array([bad, 1.0, math.nan]),  # the first of two failures
    lambda bad: [0.5, 1.0, bad],  # a list, failing last
    lambda bad: np.array([[1.0, bad], [-math.inf, 4.0]]),  # first in C order, not in F order
], ids=["0-d", "first", "last", "c-order"])
def test_rejects_non_finite_array_naming_the_first_value(bad, make):
    with pytest.raises(ValueError) as raised:
        dawson(make(bad))
    assert str(raised.value) == f"dawson requires finite input, got {bad!r}"
