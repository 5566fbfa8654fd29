"""Closed-form ergodic-rate terms for the alternating two-group scheme.

Four per-group terms: the broadcast rate to the weakest relay of a group
(exact, via min-of-Erlang) and the coherent beamforming rate of a group
(approximate, via a moment-matched Nakagami sum; exact for single-relay
groups). Each expectation E[log2(1 + P*X)] reduces to finite positive sums of
scaled exponential integrals e^x E_n(x), so no alternating-series cancellation
occurs anywhere.

The reduction used throughout: for integer p >= 0 and mu, beta > 0,

    int_0^inf z^p e^(-mu z) / (z + beta) dz = p! mu^(-p) e^x E_{p+1}(x),

with x = beta*mu. Expanding the CDF-survival form of E[ln(1 + z/beta)]
against Erlang/gamma densities leaves only such integrals. For the minimum of
g Erlang(s) gains the survival is e^(-g z) (sum_{r<s} z^r/r!)^g in unit-rate
z, and the coefficients of that power come from exact integer counts N_p
(p labelled balls in g boxes, fewer than s per box), so every weight is
positive and correctly rounded.
"""

import math

from .channel import ChannelConfig, _check_group_args
from .specfun import exp_scaled_en

__all__ = [
    "c11_closed",
    "c22_closed",
    "adb_closed",
]

_LN2 = math.log(2.0)


def _check_term_args(power, group_size, shape, sigma2):
    if not power > 0:
        raise ValueError(f"power must be > 0, got {power!r}")
    _check_group_args(group_size, shape, sigma2)


def _box_counts(group_size: int, shape: int) -> list:
    """N_p = p! [y^p] (sum_{r<shape} y^r/r!)^group_size for p = 0..P, the
    number of ways to put p labelled balls into group_size boxes with fewer
    than shape balls in each. Built one box at a time in exact integers:
    r of the p + r balls go into the new box."""
    # C(p + r, r) for every p a round reads; each is used once per round
    binom = [
        [math.comb(p + r, r) for r in range(shape)]
        for p in range((group_size - 1) * (shape - 1) + 1)
    ]
    counts = [1]
    for _ in range(group_size):
        nxt = [0] * (len(counts) + shape - 1)
        for p, n in enumerate(counts):
            row = binom[p]
            for r in range(shape):
                nxt[p + r] += n * row[r]
        counts = nxt
    return counts


def c11_closed(ps: float, group_size: int, shape: int, sigma_g2: float) -> float:
    """Exact E[log2(1 + ps * min of group_size i.i.d. Erlang(shape) gains)],
    gains scaled so each has mean 2*shape*sigma_g2.

    The min-of-Erlang survival raised to group_size has polynomial part
    sum_p N_p z^p / p! with N_p from _box_counts, so

        c11 = sum_p N_p / group_size^p * e^x E_{p+1}(x) / ln 2,

    all with the common argument x = group_size / (2 * ps * sigma_g2).
    N_p <= group_size^p, and the integer quotient is correctly rounded.
    """
    _check_term_args(ps, group_size, shape, sigma_g2)
    group_size, shape = int(group_size), int(shape)
    scale = 2.0 * ps * sigma_g2
    x = group_size / scale if scale else math.inf
    if not 0 < x < math.inf:  # ps so large or small that x over/underflows
        raise ArithmeticError(f"c11 argument x={x!r} out of range at ps={ps!r}")
    return math.fsum(
        n / group_size**p * exp_scaled_en(p + 1, x)
        for p, n in enumerate(_box_counts(group_size, shape))
    ) / _LN2


def c22_closed(pr: float, group_size: int, shape: int, sigma_h2: float) -> float:
    """Approximate E[log2(1 + pr * (sum of group_size channel norms)^2)].

    Under the moment-matched Nakagami approximation the squared sum is
    gamma with nm = shape*group_size and rate mu = 1/(2*group_size*sigma_h2),
    giving sum_{k<nm} e^x E_{k+1}(x) / ln 2 at x = mu / pr. Exact when
    group_size = 1; the gap is largest at shape=1, group_size=2.
    """
    _check_term_args(pr, group_size, shape, sigma_h2)
    group_size, shape = int(group_size), int(shape)
    scale = 2.0 * pr * group_size * sigma_h2
    x = 1.0 / scale if scale else math.inf
    if not 0 < x < math.inf:
        raise ArithmeticError(f"c22 argument x={x!r} out of range at pr={pr!r}")
    return math.fsum(
        exp_scaled_en(k + 1, x) for k in range(shape * group_size)
    ) / _LN2


def adb_closed(ps: float, pr: float, cfg: ChannelConfig) -> float:
    """Closed-form throughput of the alternating scheme for cfg,
    0.5*min(c11, c22) + 0.5*min(c21, c12).

    Source-side terms see ps/noise_r, destination-side terms pr/noise_d.
    Group one (size M) contributes c11/c22, group two (size L-M) c21/c12.
    """
    a = ps / cfg.noise_r
    b = pr / cfg.noise_d
    c11 = c11_closed(a, cfg.M, cfg.N_R, cfg.sigma_g2)
    c21 = c11_closed(a, cfg.L - cfg.M, cfg.N_R, cfg.sigma_g2)
    c22 = c22_closed(b, cfg.M, cfg.N_R, cfg.sigma_h2)
    c12 = c22_closed(b, cfg.L - cfg.M, cfg.N_R, cfg.sigma_h2)
    return 0.5 * min(c11, c22) + 0.5 * min(c21, c12)
