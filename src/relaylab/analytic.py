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
against Erlang/gamma densities leaves only such integrals.
"""

import math
from dataclasses import dataclass

from .channel import ChannelConfig
from .specfun import (
    compositions,
    exp_scaled_en,
    log_factorial,
    log_multinomial,
)

__all__ = [
    "AdbClosedForm",
    "c11_closed",
    "c22_closed",
    "adb_closed",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class AdbClosedForm:
    """The four closed-form rate terms (bps/Hz), their min-combination
    c_adb = 0.5*min(c11, c22) + 0.5*min(c21, c12), and the branch taken,
    e.g. "c11+c12" when c11 <= c22 and c12 < c21."""

    c11: float
    c12: float
    c21: float
    c22: float
    c_adb: float
    branch: str


def _check_term_args(power, group_size, shape, sigma2):
    if not power > 0:
        raise ValueError(f"power must be > 0, got {power!r}")
    for name, v in (("group_size", group_size), ("shape", shape)):
        if int(v) != v or v < 1:
            raise ValueError(f"{name} must be a positive integer, got {v!r}")
    if not sigma2 > 0:
        raise ValueError(f"sigma2 must be > 0, got {sigma2!r}")


def c11_closed(ps: float, group_size: int, shape: int, sigma_g2: float) -> float:
    """Exact E[log2(1 + ps * min of group_size i.i.d. Erlang(shape) gains)],
    gains scaled so each has mean 2*shape*sigma_g2.

    The min-of-Erlang survival raised to group_size expands by the
    multinomial theorem over compositions (n_1..n_shape) of group_size; a
    composition with weighted degree p = sum_i (i-1)*n_i contributes

        multinom(group_size; n) / prod_i ((i-1)!)^n_i * p! / group_size^p
            * e^x E_{p+1}(x) / ln 2,

    all with the common argument x = group_size / (2 * ps * sigma_g2).
    """
    _check_term_args(ps, group_size, shape, sigma_g2)
    group_size, shape = int(group_size), int(shape)
    x = group_size / (2.0 * ps * sigma_g2)
    log_g = math.log(group_size)
    scaled = {}
    terms = []
    for comp in compositions(group_size, shape):
        p = sum(i * n for i, n in enumerate(comp))
        if p not in scaled:
            scaled[p] = exp_scaled_en(p + 1, x)
        log_coef = (
            log_multinomial(group_size, comp)
            - math.fsum(n * log_factorial(i) for i, n in enumerate(comp))
            + log_factorial(p)
            - p * log_g
        )
        terms.append(math.exp(log_coef) * scaled[p])
    return math.fsum(terms) / _LN2


def c22_closed(pr: float, group_size: int, shape: int, sigma_h2: float) -> float:
    """Approximate E[log2(1 + pr * (sum of group_size channel norms)^2)].

    Under the moment-matched Nakagami approximation the squared sum is
    gamma with nm = shape*group_size and rate mu = 1/(2*group_size*sigma_h2),
    giving sum_{k<nm} e^x E_{k+1}(x) / ln 2 at x = mu / pr. Exact when
    group_size = 1; the gap is largest at shape=1, group_size=2.
    """
    _check_term_args(pr, group_size, shape, sigma_h2)
    group_size, shape = int(group_size), int(shape)
    x = 1.0 / (2.0 * pr * group_size * sigma_h2)
    return math.fsum(
        exp_scaled_en(k + 1, x) for k in range(shape * group_size)
    ) / _LN2


def adb_closed(ps: float, pr: float, cfg: ChannelConfig) -> AdbClosedForm:
    """All four closed-form terms for cfg and their throughput combination.

    Source-side terms see ps/noise_r, destination-side terms pr/noise_d.
    Group one (size M) contributes c11/c22, group two (size L-M) c21/c12.
    """
    a = ps / cfg.noise_r
    b = pr / cfg.noise_d
    c11 = c11_closed(a, cfg.M, cfg.N_R, cfg.sigma_g2)
    c21 = c11_closed(a, cfg.L - cfg.M, cfg.N_R, cfg.sigma_g2)
    c22 = c22_closed(b, cfg.M, cfg.N_R, cfg.sigma_h2)
    c12 = c22_closed(b, cfg.L - cfg.M, cfg.N_R, cfg.sigma_h2)
    first = "c11" if c11 <= c22 else "c22"
    second = "c21" if c21 <= c12 else "c12"
    value = 0.5 * min(c11, c22) + 0.5 * min(c21, c12)
    return AdbClosedForm(
        c11=c11, c12=c12, c21=c21, c22=c22,
        c_adb=value, branch=f"{first}+{second}",
    )
