import json
import math
import os

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relaylab.specfun import (
    exp_integral_e1,
    exp_scaled_e1,
    exp_scaled_en,
)

mp.mp.dps = 40

_ORACLE = os.path.join(os.path.dirname(__file__), "data", "e1_oracle.json")


def _oracle_points(tag):
    with open(_ORACLE, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return [p for p in data["points"] if p["tag"] == tag]


def test_e1_against_frozen_oracle():
    for p in _oracle_points("unit"):
        got = exp_integral_e1(p["x"])
        if p["e1"] == 0.0:
            assert got == 0.0
        else:
            assert abs(got - p["e1"]) <= 1e-12 * abs(p["e1"])


def test_scaled_e1_against_frozen_oracle():
    for p in _oracle_points("unit"):
        got = exp_scaled_e1(p["x"])
        assert abs(got - p["exp_scaled_e1"]) <= 1e-12 * abs(p["exp_scaled_e1"])


def test_e1_domain_errors():
    for bad in (0.0, -1.0, -1e-12):
        with pytest.raises(ValueError):
            exp_integral_e1(bad)
        with pytest.raises(ValueError):
            exp_scaled_e1(bad)


def test_e1_deep_tail_underflows_gracefully():
    assert exp_integral_e1(800.0) == 0.0
    assert exp_scaled_e1(800.0) == pytest.approx(1.0 / 800.0, rel=2e-3)


def test_scaled_en_matches_mpmath():
    for order in (1, 2, 3, 5, 12, 24, 25):
        for x in np.geomspace(1e-8, 1e6, 40):
            got = exp_scaled_en(order, float(x))
            ref = float(mp.e ** mp.mpf(float(x)) * mp.expint(order, mp.mpf(float(x))))
            assert abs(got - ref) <= 1e-12 * abs(ref), (order, x)


def test_scaled_en_large_x_matches_mpmath():
    # the continued fraction's convergence test can stall once its steps
    # stop changing (seen from x ~ 1e15, e.g. x = 5e300); large x takes
    # the asymptotic series instead
    rng = np.random.default_rng(2024)
    xs = np.exp(rng.uniform(math.log(1e3), math.log(1.7e308), 120))
    for x in [*xs.tolist(), 2.01e17, 5e300, 2.0**48, 1.7e308]:
        for order in range(1, 17):
            got = exp_scaled_en(order, x)
            ref = float(mp.expint(order, mp.mpf(x)) * mp.exp(mp.mpf(x)))
            assert abs(got - ref) <= 1e-14 * ref, (order, x)
    assert exp_integral_e1(5e300) == 0.0


def test_scaled_en_recurrence():
    # n * S_{n+1}(x) = 1 - x * S_n(x) for the scaled functions
    for order in (1, 2, 5, 11):
        for x in np.geomspace(1e-4, 100.0, 25):
            lhs = order * exp_scaled_en(order + 1, float(x))
            rhs = 1.0 - float(x) * exp_scaled_en(order, float(x))
            assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), 1e-30)


def test_scaled_en_monotone_and_bounded():
    xs = np.geomspace(1e-6, 1e4, 30)
    for order in (1, 2, 6):
        vals = [exp_scaled_en(order, float(x)) for x in xs]
        assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))
        assert all(v <= 1.0 / x for v, x in zip(vals, xs))
    for x in (0.3, 3.0, 300.0):
        by_order = [exp_scaled_en(n, x) for n in range(1, 10)]
        assert all(a > b for a, b in zip(by_order, by_order[1:]))


def test_scaled_en_argument_validation():
    with pytest.raises(ValueError):
        exp_scaled_en(0, 1.0)
    with pytest.raises(ValueError):
        exp_scaled_en(1.5, 1.0)
    with pytest.raises(ValueError):
        exp_scaled_en(2, 0.0)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    x=st.floats(min_value=1e-300, max_value=1.7e308),
    order=st.integers(min_value=1, max_value=300),
)
def test_scaled_en_bounds_across_double_range(x, order):
    # 1/(x+n) < e^x E_n(x) <= 1/(x+n-1), and decreasing in n. The lower gap
    # is about n/x^2 relative, below an ulp once x passes ~1e8, so both
    # bounds get a few ulps for their own rounding.
    value = exp_scaled_en(order, x)
    lower, upper = 1.0 / (x + order), 1.0 / (x + (order - 1))
    assert lower - 4 * math.ulp(lower) < value <= upper + 4 * math.ulp(upper)
    assert exp_scaled_en(order + 1, x) <= value
