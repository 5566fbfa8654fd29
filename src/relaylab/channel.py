"""Network configuration, fading samplers, and link-gain distributions.

Channels are i.i.d. Rayleigh with E|h|^2 = 2*sigma^2 per coefficient (the
convention the Erlang gain CDF fixes), so a squared N_R-antenna vector norm is
Erlang(N_R) with mean 2*N_R*sigma^2. Gains are drawn directly as sums of unit
exponentials instead of complex vectors; every protocol quantity depends only
on the norms.

Sampling uses a counter-based generator (Philox) addressed by (seed, slot), so
slot ranges can be drawn in any partition, in any order, on any number of
workers, and still reproduce the sequential stream bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox

__all__ = [
    "ChannelConfig",
    "sample_gains",
    "min_erlang_cdf",
    "nakagami_sum_cdf",
]

_U64_MAX = 2**64 - 1
# Philox emits 4 64-bit words per counter tick; per-slot draw counts are
# padded up to a full tick so slot s starts at counter s * (draws/4).
_WORDS_PER_TICK = 4


@dataclass(frozen=True)
class ChannelConfig:
    """Relay-network layout and fading/noise parameters.

    Relays 0..M-1 form group one, relays M..L-1 group two; both groups must
    be non-empty. sigma_g2/sigma_h2 are per-quadrature variances of the
    source-side and destination-side coefficients (E|h|^2 = 2*sigma^2).
    """

    L: int
    M: int
    N_R: int = 1
    sigma_g2: float = 1.0
    sigma_h2: float = 1.0
    noise_r: float = 1.0
    noise_d: float = 1.0

    def __post_init__(self):
        for name in ("L", "M", "N_R"):
            v = getattr(self, name)
            if isinstance(v, (bool, float)) or int(v) != v:
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.L < 2:
            raise ValueError(f"need at least two relays, got L={self.L}")
        if not 1 <= self.M <= self.L - 1:
            raise ValueError(
                f"M={self.M} leaves an empty relay group (L={self.L})"
            )
        if self.N_R < 1:
            raise ValueError(f"N_R must be >= 1, got {self.N_R}")
        for name in ("sigma_g2", "sigma_h2", "noise_r", "noise_d"):
            v = getattr(self, name)
            if isinstance(v, bool) or not 0 < v < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")


def _draws_per_slot(cfg: ChannelConfig) -> int:
    need = 2 * cfg.L * cfg.N_R
    return -(-need // _WORDS_PER_TICK) * _WORDS_PER_TICK


def _pairwise_sum(rows):
    """Sum over axis 0 in the order numpy's pairwise summation adds the same
    values along a contiguous axis, so it equals ``.sum(axis=-1)`` of the
    transposed layout bit for bit: left to right below 8 terms, eight
    strided accumulators up to 128, halves split at a multiple of 8 above.
    A left-to-right sum differs from 8 terms on. Each step is one long
    elementwise pass, which beats numpy's reduction over a short axis."""
    n = rows.shape[0]
    if n < 8:
        out = rows[0].copy()
        for row in rows[1:]:
            out += row
        return out
    if n <= 128:
        acc = rows[:8].copy()
        tail = n - n % 8
        for i in range(8, tail, 8):
            acc += rows[i:i + 8]
        out = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + (
            (acc[4] + acc[5]) + (acc[6] + acc[7])
        )
        for row in rows[tail:]:
            out += row
        return out
    half = n // 2
    half -= half % 8
    return _pairwise_sum(rows[:half]) + _pairwise_sum(rows[half:])


def sample_gains(cfg: ChannelConfig, seed: int, start_slot: int, count: int):
    """Draw fading for slots [start_slot, start_slot + count).

    Returns (sr_gain, rd_norm), each of shape (count, L). The value of slot s
    depends only on (seed, s, cfg), never on the partition into calls.
    """
    if not 0 <= seed <= _U64_MAX:
        raise ValueError(f"seed must be a 64-bit integer, got {seed!r}")
    if start_slot < 0 or count < 1:
        raise ValueError("need start_slot >= 0 and count >= 1")
    per_slot = _draws_per_slot(cfg)
    need = 2 * cfg.L * cfg.N_R
    bits = Philox(
        key=seed,
        counter=[start_slot * (per_slot // _WORDS_PER_TICK), 0, 0, 0],
    )
    raw = bits.random_raw(count * per_slot).reshape(count, per_slot)
    # 53-bit uniform strictly inside (0,1): log stays finite. Each step
    # works in place; negating after the antenna sum, folded into the
    # scale, gives the same bits as summing negated logs, because rounding
    # is symmetric in sign.
    np.right_shift(raw, 11, out=raw)
    u = raw[:, :need].astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    np.log(u, out=u)
    # Each link's N_R logs are contiguous: sum the strided antenna columns.
    links = _pairwise_sum(u.reshape(-1, cfg.N_R).T).reshape(count, 2 * cfg.L)
    sr = links[:, :cfg.L] * (-2.0 * cfg.sigma_g2)
    rd2 = links[:, cfg.L:] * (-2.0 * cfg.sigma_h2)
    return sr, np.sqrt(rd2, out=rd2)


# the group arguments of the gain distributions and of the closed forms
def _check_group_args(group_size, shape, sigma2):
    for name, v in (("group_size", group_size), ("shape", shape)):
        if int(v) != v or v < 1:
            raise ValueError(f"{name} must be a positive integer, got {v!r}")
    if not sigma2 > 0:
        raise ValueError(f"sigma2 must be > 0, got {sigma2!r}")


def _check_cdf_args(z, group_size, shape, sigma2):
    _check_group_args(group_size, shape, sigma2)
    if z < 0:
        raise ValueError(f"z must be >= 0, got {z!r}")


def _poisson_tail(x: float, n: int) -> float:
    """e^-x * sum_{r<n} x^r / r!, evaluated term-by-term in log space."""
    if x == 0.0:
        return 1.0
    lx = math.log(x)
    return math.fsum(
        math.exp(-x + r * lx - math.lgamma(r + 1)) for r in range(n)
    )


def min_erlang_cdf(z: float, group_size: int, shape: int, sigma2: float) -> float:
    """CDF of the minimum of group_size i.i.d. Erlang(shape) gains, each the
    squared norm of a shape-antenna channel with mean 2*shape*sigma2."""
    _check_cdf_args(z, group_size, shape, sigma2)
    survival = _poisson_tail(z / (2.0 * sigma2), int(shape))
    return min(max(1.0 - survival ** int(group_size), 0.0), 1.0)


def nakagami_sum_cdf(z: float, group_size: int, shape: int, sigma2: float) -> float:
    """Moment-matched Nakagami CDF of a sum of group_size i.i.d. channel norms
    (shape antennas each), exact at group_size = 1: the squared sum is taken
    as gamma(shape*group_size) of rate 1/(2*group_size*sigma2)."""
    _check_cdf_args(z, group_size, shape, sigma2)
    nm = int(shape) * int(group_size)
    s = _poisson_tail(z * z / (2.0 * group_size * sigma2), nm)
    return min(max(1.0 - s, 0.0), 1.0)
