"""The package's two number rules, ``documents.check_int`` and ``documents.check_number``."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alarmhmm import DomainError
from alarmhmm.alarms import MeasurementTrace, fit_limits
from alarmhmm.documents import check_int, check_number
from alarmhmm.plantsim import ScenarioSpec

INT_TYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)

#: values of every kind an argument can arrive as
VALUES = st.one_of(
    st.integers(-2**70, 2**70),
    st.sampled_from([2**63, -2**63 - 1, 2**64, 2**1024 - 2**970 - 1, 2**1024 - 2**970,
                     -10**309]),
    st.sampled_from(INT_TYPES).flatmap(
        lambda kind: st.integers(int(np.iinfo(kind).min), int(np.iinfo(kind).max)).map(kind)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True, width=32).map(np.float32),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(max_size=4),
    st.none(),
)

INT_BOUNDS = st.none() | st.integers(-2**66, 2**66)
REAL_BOUNDS = INT_BOUNDS | st.floats(allow_nan=False, allow_infinity=False)


def exact(value):
    """``value`` as an exact rational, or ``None`` if it is not a finite real number."""
    if isinstance(value, (bool, np.bool_, str)) or value is None:
        return None
    if isinstance(value, (int, np.integer)):
        # a larger integer rounds to 2**1024, beyond the float range
        return Fraction(int(value)) if abs(int(value)) < 2**1024 - 2**970 else None
    if not math.isfinite(float(value)):
        return None
    return Fraction(float(value))


def within(number, low, high, strict=False) -> bool:
    above = low is None or (number > Fraction(low) if strict else number >= Fraction(low))
    return above and (high is None or number <= Fraction(high))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(value=VALUES, low=INT_BOUNDS, high=INT_BOUNDS)
def test_integer_rule(value, low, high):
    is_integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    accepted = is_integer and within(Fraction(int(value)), low, high)
    try:
        check_int(value, "n", low, high)
    except DomainError as exc:
        assert not accepted, exc
        assert str(exc).startswith("n must "), exc
    else:
        assert accepted


@settings(max_examples=500, deadline=None, derandomize=True)
@given(value=VALUES, low=REAL_BOUNDS, high=REAL_BOUNDS, strict=st.booleans())
def test_real_number_rule(value, low, high, strict):
    number = exact(value)
    accepted = number is not None and within(number, low, high, strict)
    try:
        check_number(value, "x", low, high, strict=strict)
    except DomainError as exc:
        assert not accepted, exc
        assert str(exc).startswith("x must be finite"), exc
    else:
        assert accepted


@pytest.mark.parametrize("call, message", [
    (lambda: check_int(-1, "seed", 0), "seed must be non-negative, got -1"),
    (lambda: check_int(0, "n_clusters", 1, 8), "n_clusters must lie in [1, 8], got 0"),
    (lambda: check_int(np.int64(0), "k", 1), "k must be >= 1, got 0"),
    (lambda: check_int(9, "k", None, 8), "k must be <= 8, got 9"),
    (lambda: check_int(2.0, "k", 1), "k must be an integer, got 2.0"),
    pytest.param(lambda: check_int(np.float64(2.0), "k", 1), "k must be an integer, got 2.0",
                 id="numpy-float-k"),
    (lambda: check_number(-1.0, "kappa", 0), "kappa must be finite and non-negative, got -1.0"),
    (lambda: check_number(0.0, "rel_tol", 0, strict=True),
     "rel_tol must be finite and positive, got 0.0"),
    (lambda: check_number(math.nan, "p", 0, 1), "p must be finite and lie in [0, 1], got nan"),
    (lambda: check_number(0, "m", 0, 1, strict=True), "m must be finite and lie in (0, 1], got 0"),
    (lambda: check_number("1", "x"), "x must be finite, got '1'"),
    pytest.param(lambda: check_number(np.float32("nan"), "x"), "x must be finite, got nan",
                 id="numpy-nan-x"),
])
def test_messages(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


def normal_traces():
    values = np.random.default_rng(0).normal(size=(20, 2))
    return [MeasurementTrace(sample_period=1.0, values=values, meas_ids=["a", "b"])]


@pytest.mark.parametrize("call, message", [
    (lambda: ScenarioSpec(fault=0, magnitude=0.5, seed=1, swap_prob=True),
     "swap_prob must be finite and lie in [0, 1], got True"),
    (lambda: ScenarioSpec(fault=0, magnitude=0.5, seed=1, drop_prob="0.1"),
     "drop_prob must be finite and lie in [0, 1], got '0.1'"),
    (lambda: ScenarioSpec(fault=0, magnitude="0.5", seed=1),
     "magnitude must be finite and lie in (0, 1], got '0.5'"),
    (lambda: fit_limits(normal_traces(), kappa="3"),
     "kappa must be finite and non-negative, got '3'"),
])
def test_settings_are_not_coerced(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


def test_numpy_floats_pass():
    assert fit_limits(normal_traces(), kappa=np.float32(3)).kappa == 3.0
    assert ScenarioSpec(fault=0, magnitude=np.float32(0.5), seed=1, swap_prob=np.float64(0.1))
