"""Closed-form ergodic-rate terms for the alternating two-group scheme.

Four per-group terms: the broadcast rate to the weakest relay of a group
(exact, via min-of-Erlang) and a bound on the coherent beamforming rate of a
group. By Cauchy-Schwarz the beam gain (sum_i r_i)^2 of a group of M channel
norms r_i is at most M * sum_i r_i^2 in every slot, and the beamforming term
is the exact mean rate of that bound, whose law is the Nakagami sum's gamma:
it matches the moments of the bound, not of the beam, so it is an upper
bound on the beam rate, exact for single-relay groups. Each expectation
E[log2(1 + P*X)] reduces to finite positive sums of scaled exponential
integrals e^x E_n(x), so no alternating-series cancellation occurs anywhere.

The reduction used throughout: for integer p >= 0 and mu, beta > 0,

    int_0^inf z^p e^(-mu z) / (z + beta) dz = p! mu^(-p) e^x E_{p+1}(x),

with x = beta*mu. Expanding the CDF-survival form of E[ln(1 + z/beta)]
against Erlang/gamma densities leaves only such integrals. For the minimum of
g Erlang(s) gains the survival is e^(-g z) (sum_{r<s} z^r/r!)^g in unit-rate
z, and the coefficients of that power come from exact integer counts N_p
(p labelled balls in g boxes, fewer than s per box), so every weight is
positive and correctly rounded.
"""

import itertools
import math

from .channel import ChannelConfig, _check_group_args
from .specfun import exp_scaled_en

__all__ = [
    "c11_closed",
    "c22_closed",
    "adb_weights",
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
    # C(p + r, r) for every p a round reads, each row the running sums of
    # the row before (math.comb's cost grows with r); each is used once a round
    binom = [[1] * shape]
    for _ in range((group_size - 1) * (shape - 1)):
        binom.append(list(itertools.accumulate(binom[-1])))
    counts = [1]
    for _ in range(group_size):
        nxt = [0] * (len(counts) + shape - 1)
        for p, n in enumerate(counts):
            row = binom[p]
            for r in range(shape):
                nxt[p + r] += n * row[r]
        counts = nxt
    return counts


def _c11_weights(group_size: int, shape: int) -> list:
    """c11's power-independent weights N_p / group_size^p, N_p from
    _box_counts: N_p <= group_size^p, and each quotient is correctly rounded."""
    return [n / group_size**p for p, n in enumerate(_box_counts(group_size, shape))]


def _en_sum(num, scale, weights, term, name, power):
    """sum_p weights[p] e^x E_{p+1}(x) / ln 2 at x = num / scale, c11's and
    c22's one sum; ArithmeticError, naming term and its power name=power,
    where x leaves (0, inf), as at scale 0."""
    x = num / scale if scale else math.inf
    if not 0 < x < math.inf:  # a power so large or small that x over/underflows
        raise ArithmeticError(f"{term} argument x={x!r} out of range at {name}={power!r}")
    return math.fsum(w * exp_scaled_en(p + 1, x) for p, w in enumerate(weights)) / _LN2


def _c11(ps, group_size, sigma_g2, weights):
    return _en_sum(group_size, 2.0 * ps * sigma_g2, weights, "c11", "ps", ps)


def _c22(pr, group_size, shape, sigma_h2):
    ones = itertools.repeat(1.0, group_size * shape)  # 1.0 * v == v: every bit kept
    return _en_sum(1.0, 2.0 * pr * group_size * sigma_h2, ones, "c22", "pr", pr)


def c11_closed(ps: float, group_size: int, shape: int, sigma_g2: float) -> float:
    """Exact E[log2(1 + ps * min of group_size i.i.d. Erlang(shape) gains)],
    gains scaled so each has mean 2*shape*sigma_g2: by the module's reduction,
    sum_p N_p / group_size^p * e^x E_{p+1}(x) / ln 2, all at the common
    argument x = group_size / (2 * ps * sigma_g2), with N_p from _box_counts.
    """
    _check_term_args(ps, group_size, shape, sigma_g2)
    group_size = int(group_size)
    return _c11(ps, group_size, sigma_g2, _c11_weights(group_size, int(shape)))


def c22_closed(pr: float, group_size: int, shape: int, sigma_h2: float) -> float:
    """Exact E[log2(1 + pr * group_size * sum of squared channel norms)],
    an upper bound on the beam rate E[log2(1 + pr * (sum of group_size
    channel norms)^2)].

    By Cauchy-Schwarz (sum_i r_i)^2 <= group_size * sum_i r_i^2 in every
    slot. The bound is gamma with nm = shape*group_size and rate mu =
    1/(2*group_size*sigma_h2), the Nakagami sum's law, which matches the
    bound's moments, not the beam's, giving sum_{k<nm} e^x E_{k+1}(x) / ln 2
    at x = mu / pr. Exact when group_size = 1; the gap is largest at
    shape=1, group_size=2.
    """
    _check_term_args(pr, group_size, shape, sigma_h2)
    return _c22(pr, int(group_size), int(shape), sigma_h2)


def adb_weights(cfg: ChannelConfig) -> dict:
    """adb's table for cfg, built once for every split: c11's weights by group size."""
    return {g: _c11_weights(int(g), int(cfg.N_R)) for g in {cfg.M, cfg.L - cfg.M}}


def adb_closed(a: float, b: float, cfg: ChannelConfig, weights: dict) -> tuple:
    """The alternating scheme's parts (c11, c22, c21, c12) for cfg at a =
    ps/noise_r and b = pr/noise_d, from weights = adb_weights(cfg): group
    one's M relays, then group two's L-M; equal groups share their terms.
    Combined (0.5*min(c11, c22) + 0.5*min(c21, c12)), an upper bound on the
    mean-level throughput 0.5*min(E r11, E r22) + 0.5*min(E r21, E r12):
    c11 and c21 are exact, c22 and c12 bound the beam rates, min is monotone."""
    def group(g):  # its broadcast and beamforming parts
        return _c11(a, g, cfg.sigma_g2, weights[g]), _c22(b, g, cfg.N_R, cfg.sigma_h2)

    one = group(cfg.M)
    return one * 2 if cfg.L == 2 * cfg.M else one + group(cfg.L - cfg.M)
