"""Scalar special functions behind the closed-form throughput expressions.

Exponential integrals E_n(x), plain and exponentially scaled. Everything
here is a deterministic pure function; no numpy required.
"""

import math
import sys

__all__ = ["exp_integral_e1", "exp_scaled_e1", "exp_scaled_en"]

EULER_GAMMA = 0.5772156649015328606

_EPS = 0.5 * sys.float_info.epsilon
_TINY = 1e-300
_MAX_ITER = 400
# Above this the asymptotic series replaces the continued fraction.
_LARGE_X = 2.0**48


def _en_series(order: int, x: float) -> float:
    """Power series for E_n(x), reliable for 0 < x <= 1.

    Uses the expansion
        E_n(x) = (-x)^(n-1)/(n-1)! * (psi(n) - ln x) - sum_{m!=n-1} (-x)^m / (m! (m-n+1))
    accumulating terms until they fall below machine precision relative to the
    running sum. For x <= 1 the terms decay fast and cancellation is mild.
    """
    if order == 1:
        total = -math.log(x) - EULER_GAMMA
    else:
        total = 1.0 / (order - 1)
    term = 1.0
    for m in range(1, _MAX_ITER + 1):
        term *= -x / m
        if m == order - 1:
            # digamma(order) = -gamma + H_{order-1}
            psi = -EULER_GAMMA + sum(1.0 / i for i in range(1, order))
            delta = term * (psi - math.log(x))
        else:
            delta = -term / (m - order + 1)
        total += delta
        if abs(delta) < abs(total) * _EPS:
            return total
    raise ArithmeticError(f"E_{order} series failed to converge at x={x!r}")


def _en_cf_scaled(order: int, x: float) -> float:
    """Modified Lentz evaluation of exp(x) * E_n(x), reliable for x >= 1.

    The underlying continued fraction is
        E_n(x) = e^-x / (x + n - 1*n/(x + n + 2 - 2(n+1)/(x + n + 4 - ...)))
    and dropping the e^-x prefactor yields the scaled value directly, so the
    result stays representable out to arbitrarily large x.
    """
    b = x + order
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        a = -i * (order - 1 + i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"E_{order} continued fraction stalled at x={x!r}")


def _en_asymptotic_scaled(order: int, x: float) -> float:
    """Asymptotic series exp(x) * E_n(x) ~ (1/x) sum_k (-1)^k (n)_k / x^k,
    used for x >= _LARGE_X. There the continued fraction's steps stop
    changing and its convergence test can stall (seen from x ~ 1e15), while
    each term here is (n + k)/x times the last, so a few terms reach
    machine precision."""
    total = term = 1.0
    for k in range(_MAX_ITER):
        term *= -(order + k) / x
        total += term
        if abs(term) < abs(total) * _EPS:
            return total / x
    raise ArithmeticError(f"E_{order} asymptotic series diverged at x={x!r}")


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = int_x^inf e^-t / t dt, x > 0.

    Power series below x = 1, e^-x times exp_scaled_en(1, x) above.
    Relative error is a few ulps across [1e-8, 700]; underflows to 0.0
    gracefully once e^-x itself leaves the double range.
    """
    if not x > 0.0:
        raise ValueError(f"E1 requires x > 0, got {x!r}")
    if x <= 1.0:
        return _en_series(1, x)
    return math.exp(-x) * exp_scaled_en(1, x)


def exp_scaled_e1(x: float) -> float:
    """exp(x) * E1(x) for x > 0; stays O(1/x) instead of underflowing."""
    return exp_scaled_en(1, x)


def exp_scaled_en(order: int, x: float) -> float:
    """exp(x) * E_order(x) for integer order >= 1 and x > 0.

    Series up to x = 1, continued fraction above, asymptotic series from
    x = _LARGE_X on. Monotone decreasing in x and in order, bounded above by
    1/x.
    """
    if order < 1 or int(order) != order:
        raise ValueError(f"order must be an integer >= 1, got {order!r}")
    if not x > 0.0:
        raise ValueError(f"E_n requires x > 0, got {x!r}")
    order = int(order)
    if x <= 1.0:
        return math.exp(x) * _en_series(order, x)
    if x >= _LARGE_X:
        return _en_asymptotic_scaled(order, x)
    return _en_cf_scaled(order, x)

