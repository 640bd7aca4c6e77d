"""The kernel's numeric constants against their definitions in 200-bit mpmath:
each is the double nearest its exact value, and the exp table, derived at
import, equals the table the package once wrote out as literals."""

import math

import mpmath as mp
import pytest

from ottoqft.algebra import _EXP_MAX, _EXP_TABLE, _INV_LN2_32, _LN2_32_HI, _MINUS_LN2_32_LO
from ottoqft.minkowski import _RYBICKI_H, _RYBICKI_WEIGHTS

# 2^(j/32) as (hi, lo) for j = 0, ..., 31, as written out from 200-bit arithmetic
LITERAL_EXP_TABLE = (
    (1.0, 0.0), (1.0218971486541166, 5.109225028973444e-17),
    (1.0442737824274138, 8.551889705537965e-17), (1.0671404006768237, -7.899853966841582e-17),
    (1.0905077326652577, -3.046782079812471e-17), (1.1143867425958924, 1.0410278456845571e-16),
    (1.1387886347566916, 8.912812676025408e-17), (1.1637248587775775, 3.8292048369240935e-17),
    (1.189207115002721, 3.982015231465646e-17), (1.215247359980469, -7.712630692681488e-17),
    (1.241857812073484, 4.658027591836937e-17), (1.2690509571917332, 2.667932131342186e-18),
    (1.2968395546510096, 2.5382502794888315e-17), (1.3252366431597413, -2.8587312100388614e-17),
    (1.3542555469368927, 7.70094837980299e-17), (1.383909881963832, -6.770511658794786e-17),
    (1.4142135623730951, -9.667293313452913e-17), (1.4451808069770467, -3.0237581349939873e-17),
    (1.4768261459394993, -3.483994556892796e-17), (1.5091644275934228, -1.016455327754295e-16),
    (1.5422108254079407, 7.949834809697621e-17), (1.5759808451078865, -1.0136916471278304e-17),
    (1.6104903319492543, 2.4707192569797888e-17), (1.645755478153965, -1.0125679913674773e-16),
    (1.681792830507429, 8.199010020581497e-17), (1.718619298122478, -1.851380418263111e-17),
    (1.7562521603732995, 2.960140695448873e-17), (1.7947090750031072, 1.8227458427912087e-17),
    (1.8340080864093424, 3.283107224245627e-17), (1.8741676341103, -6.122763413004143e-17),
    (1.9152065613971474, -1.0619946056195963e-16), (1.9571441241754002, 8.960767791036668e-17),
)


@pytest.fixture(autouse=True)
def _precision():
    with mp.workprec(200):
        yield


def _nearest(x) -> float:
    """The double nearest the mpmath value x, ties to even."""
    with mp.workprec(53):
        return float(+x)


@pytest.mark.parametrize("j", range(32))
def test_exp_table_entry_is_the_nearest_double_double(j):
    exact = mp.mpf(2) ** (mp.mpf(j) / 32)
    hi = _nearest(exact)
    assert _EXP_TABLE[j] == (hi, _nearest(exact - hi))


def test_exp_table_equals_the_literal_table():
    assert _EXP_TABLE == LITERAL_EXP_TABLE


def test_rybicki_weights():
    assert _RYBICKI_H == 0.25
    assert _RYBICKI_WEIGHTS == tuple(_nearest(mp.exp(-(mp.mpf(2 * i - 1) / 4) ** 2) / mp.sqrt(mp.pi))
                                     for i in range(1, 15))


def test_exp_reduction_constants():
    assert _INV_LN2_32 == _nearest(32 / mp.ln(2))
    mantissa, _ = math.frexp(_LN2_32_HI)
    assert (mantissa * 2.0 ** 32).is_integer()  # n * _LN2_32_HI is exact for |n| < 2^21
    # the tail is the double nearest the rest of ln2/32, so that head + tail is ln2/32
    # within half its ulp, 2^-91: a double tail can come no closer
    tail = _nearest(mp.ln(2) / 32 - _LN2_32_HI)
    assert -_MINUS_LN2_32_LO == tail and math.ulp(tail) / 2 <= 2.0 ** -91


def test_exp_overflow_threshold():
    # the log of the largest double, (1 - 2^-53) 2^1024
    assert _EXP_MAX == _nearest(mp.ln((1 - mp.mpf(2) ** -53) * mp.mpf(2) ** 1024))
