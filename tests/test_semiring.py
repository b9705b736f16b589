from __future__ import annotations

import math

import pytest
from hypothesis import given

from maxplusprob import (
    BOTTOM,
    MAX_PLUS,
    SUM_PRODUCT,
    BottomType,
    as_scalar,
    big_oplus,
    is_bottom,
    mp_exp,
    mp_ln,
    odot,
    oplus,
)

from gen import finite_values, scalars


def test_bottom_is_a_singleton():
    assert BottomType() is BOTTOM
    assert is_bottom(BOTTOM)
    assert not is_bottom(0.0)
    assert repr(BOTTOM) == "BOTTOM"


def test_oplus_basics():
    assert oplus(-1.0, 2.0) == 2.0
    assert oplus(BOTTOM, -3.0) == -3.0
    assert oplus(-3.0, BOTTOM) == -3.0
    assert oplus(BOTTOM, BOTTOM) is BOTTOM


def test_odot_basics():
    assert odot(1.5, 2.0) == 3.5
    assert odot(BOTTOM, 7.0) is BOTTOM
    assert odot(7.0, BOTTOM) is BOTTOM
    assert odot(BOTTOM, BOTTOM) is BOTTOM


def test_big_oplus():
    assert big_oplus([-1.0, 0.0, -3.0]) == 0.0
    assert big_oplus([]) is BOTTOM
    assert big_oplus([BOTTOM, -2.0, BOTTOM]) == -2.0


def test_as_scalar_accepts_and_rejects():
    assert as_scalar(3) == 3.0
    assert as_scalar(BOTTOM) is BOTTOM
    for bad in (float("nan"), float("inf"), float("-inf"), "0", None, True):
        with pytest.raises(ValueError):
            as_scalar(bad)


def test_as_scalar_rejects_ints_beyond_the_float_range():
    # ``float`` raises OverflowError for these; they are non-finite scalars.
    for bad in (10**400, -(10**400)):
        with pytest.raises(ValueError, match="not a max-plus scalar"):
            as_scalar(bad)


def test_exp_and_ln_handle_bottom():
    assert mp_exp(BOTTOM) == 0.0
    assert mp_exp(0.0) == 1.0
    assert mp_ln(0.0) is BOTTOM
    assert mp_ln(1.0) == 0.0
    with pytest.raises(ValueError):
        mp_ln(-0.5)
    assert mp_exp(mp_ln(0.25)) == pytest.approx(0.25, abs=1e-15)


# -- semiring laws -------------------------------------------------------------


@given(scalars, scalars)
def test_oplus_commutes(a, b):
    assert oplus(a, b) == oplus(b, a)


@given(scalars, scalars, scalars)
def test_oplus_associates(a, b, c):
    assert oplus(oplus(a, b), c) == oplus(a, oplus(b, c))


@given(scalars)
def test_oplus_idempotent_with_neutral_bottom(a):
    assert oplus(a, a) == a
    assert oplus(a, BOTTOM) == a


@given(scalars, scalars)
def test_odot_commutes(a, b):
    assert odot(a, b) == odot(b, a)


@given(finite_values, finite_values, finite_values)
def test_odot_associates_within_float_error(a, b, c):
    left = odot(odot(a, b), c)
    right = odot(a, odot(b, c))
    assert left == pytest.approx(right, abs=1e-12)


@given(scalars)
def test_odot_neutral_and_absorbing(a):
    assert odot(a, 0.0) == a
    assert odot(a, BOTTOM) is BOTTOM


@given(finite_values, finite_values, finite_values)
def test_odot_distributes_over_oplus(a, b, c):
    left = odot(a, oplus(b, c))
    right = oplus(odot(a, b), odot(a, c))
    # Rounding is monotone, so both sides are the same float expression.
    assert left == right


@given(scalars, scalars)
def test_distributivity_with_bottom(a, b):
    assert odot(a, oplus(b, BOTTOM)) == oplus(odot(a, b), odot(a, BOTTOM))


def test_exp_is_monotone_on_the_segment():
    grid = [BOTTOM] + [-(k / 7.0) for k in range(14, -1, -1)]
    values = [mp_exp(v) for v in grid]
    assert values == sorted(values)
    assert values[0] == 0.0
    assert values[-1] == 1.0
    assert math.isclose(mp_exp(math.log(0.3)), 0.3, abs_tol=1e-15)


def test_semiring_instances():
    assert MAX_PLUS.sum(()) is MAX_PLUS.zero is BOTTOM
    assert SUM_PRODUCT.sum(()) == SUM_PRODUCT.zero == 0.0
    assert MAX_PLUS.times(-1.0, 2.5) == 1.5 and MAX_PLUS.times(0.0, BOTTOM) is BOTTOM
    assert SUM_PRODUCT.times(0.5, 3.0) == 1.5
    # dot is the fold of times over aligned pairs.
    w, v = (0.0, BOTTOM, -2.0), (1.0, 7.0, 4.0)
    assert MAX_PLUS.dot(w, v) == MAX_PLUS.sum(map(MAX_PLUS.times, w, v)) == 2.0
    assert MAX_PLUS.dot((BOTTOM,), (1.0,)) is BOTTOM
    w, v = (0.25, 0.0, 0.75), (4.0, 9.0, -1.0)
    assert SUM_PRODUCT.dot(w, v) == SUM_PRODUCT.sum(map(SUM_PRODUCT.times, w, v)) == 0.25
