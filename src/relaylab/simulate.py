"""Monte Carlo throughput estimators for the four relaying protocols.

All estimators share one fading sequence per (cfg, slots, seed): the sampled
gain arrays are cached and each protocol reduces them to its own per-slot
sufficient statistics, so protocol comparisons are paired (common random
numbers) and repeated power points reuse the same draws. The cache holds one
stream at a time, relay-major with shape (L, slots), so every reduction over
relays is a sweep over contiguous rows; sums over relays keep numpy's
pairwise order, so the statistics match a slot-major reduction bit for bit.

Slots are sampled in draw-sized blocks (about 2^17 draws each, so a block's
temporaries stay near cache) addressed by absolute slot index; the block
size and the worker count only change how slots are dispatched, never any
value, so results are bit-identical at any parallelism level.
"""

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Union

import numpy as np

from .channel import ChannelConfig, _pairwise_sum, sample_gains

__all__ = [
    "PROTOCOLS",
    "TERMS",
    "SimConfig",
    "ThroughputEstimate",
    "estimate",
    "stream_bytes",
]

# Draws per sampling block: 2^16 to 2^18 measured alike, 2^19 slower.
_BLOCK_DRAWS = 1 << 17
_INV_LN2 = 1.0 / math.log(2.0)


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run settings. workers > 1 parallelizes block sampling
    across at most os.cpu_count() threads without changing any estimate."""

    slots: int = 1_000_000
    seed: int = 42
    workers: int = 1

    def __post_init__(self):
        for name in ("slots", "seed", "workers"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.slots < 1:
            raise ValueError(f"slots must be >= 1, got {self.slots}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit integer, got {self.seed!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class ThroughputEstimate:
    """A throughput value (bps/Hz) with its standard error and provenance.

    boundary_ambiguous marks min-of-means results whose two operands were
    closer than one combined standard error; the reported std_error is then
    the larger of the two component errors.
    """

    value: float
    std_error: float
    method: str
    boundary_ambiguous: bool = False

    def __post_init__(self):
        if self.value < 0 or self.std_error < 0:
            raise ValueError("value and std_error must be non-negative")
        if self.method not in ("monte-carlo", "analytic"):
            raise ValueError(f"unknown method tag {self.method!r}")
        if self.method == "analytic" and self.std_error != 0.0:
            raise ValueError("analytic estimates carry no standard error")


def _block_slots(cfg: ChannelConfig) -> int:
    """Slots per sampling block: _BLOCK_DRAWS draws, at least one slot."""
    return max(1, _BLOCK_DRAWS // (2 * cfg.L * cfg.N_R))


def stream_bytes(cfg: ChannelConfig, sim: SimConfig) -> int:
    """Upper estimate, in bytes, of what the cached fading stream of (cfg,
    sim) holds at its peak: the two (L, slots) gain arrays; crs's (L, slots)
    square plus 17 slot-long rows of statistics and probe temporaries (16.0
    measured at L >= 8, from df's relay sum beside adb's statistics; 15.0
    below); one sampling block per thread at 4 float64 copies per draw (2
    measured)."""
    threads = min(sim.workers, os.cpu_count() or 1)
    block = min(_block_slots(cfg), sim.slots) * 2 * cfg.L * cfg.N_R * 4
    return 8 * (sim.slots * (3 * cfg.L + 17) + threads * block)


def _sample(cfg: ChannelConfig, sim: SimConfig):
    """Sampled (sr_gain, rd_norm) arrays of shape (L, slots), read-only."""
    slots = sim.slots
    block = _block_slots(cfg)
    sr = np.empty((cfg.L, slots))
    rd = np.empty((cfg.L, slots))

    def fill(start):
        n = min(block, slots - start)
        block_sr, block_rd = sample_gains(cfg, sim.seed, start, n)
        sr[:, start:start + n] = block_sr.T
        rd[:, start:start + n] = block_rd.T

    starts = range(0, slots, block)
    workers = min(sim.workers, os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, starts))
    else:
        for s in starts:
            fill(s)
    sr.setflags(write=False)
    rd.setflags(write=False)
    return sr, rd


class _GainCache:
    """Single-entry cache: the relay-major gains of one fading stream and,
    beside them, each protocol's power-independent statistics. Moving to
    another stream evicts all of them together."""

    def __init__(self):
        self._lock = threading.RLock()
        self.clear()

    def clear(self):
        with self._lock:
            self._key = None
            self._gains = None
            self._stats = {}

    def gains(self, cfg: ChannelConfig, sim: SimConfig):
        """(sr_gain, rd_norm) of shape (L, slots) for this stream."""
        # Exactly what sample_gains reads: M, the noise powers and the
        # worker count never change a draw.
        key = (cfg.L, cfg.N_R, cfg.sigma_g2, cfg.sigma_h2, sim.slots, sim.seed)
        with self._lock:
            if key != self._key:
                self.clear()
                self._gains = _sample(cfg, sim)
                self._key = key
            return self._gains

    def stats(self, build, cfg: ChannelConfig, sim: SimConfig, *args):
        """build(sr_gain, rd_norm, *args) for this stream, computed once per
        args and returned read-only."""
        with self._lock:
            sr, rd = self.gains(cfg, sim)
            hit = self._stats.get(build)
            if hit is None or hit[0] != args:
                out = build(sr, rd, *args)
                for a in out:
                    a.setflags(write=False)
                hit = self._stats[build] = (args, out)
            return hit[1]


_cache = _GainCache()


def _top2(rows):
    """Per-slot largest and second-largest values over the relay rows, and
    the row of the largest; ties go to the lowest index, as argmax gives."""
    first = rows[0].copy()
    second = np.full_like(first, -np.inf)
    best = np.zeros(first.shape, dtype=np.intp)
    low = np.empty_like(first)
    for i in range(1, rows.shape[0]):
        row = rows[i]
        np.minimum(first, row, out=low)
        np.maximum(second, low, out=second)
        best[row > first] = i
        np.maximum(first, row, out=first)
    return first, second, best


def _adb_stats(sr, rd, m):
    return (
        sr[:m].min(axis=0),
        _pairwise_sum(rd[:m]) ** 2,
        sr[m:].min(axis=0),
        _pairwise_sum(rd[m:]) ** 2,
    )


def _crs_stats(sr, rd):
    return sr, rd**2


def _df_stats(sr, rd):
    return sr.min(axis=0), _pairwise_sum(rd) ** 2


def _sfd_stats(sr, rd):
    """Power-independent selection statistics: the best source-side gains
    and destination-side squared norms, the slots where one relay is best
    on both sides, and the second-best of each side on those slots only."""
    sr1, sr2, r1 = _top2(sr)
    rd1, rd2, t1 = _top2(rd)
    collide = np.flatnonzero(r1 == t1)
    return sr1, rd1**2, collide, sr2[collide], rd2[collide] ** 2


def _rate(x):
    """log2(1 + x) elementwise, in place: x must be a temporary. One
    slot-long buffer per rate, not three, keeps probes off freshly mapped,
    page-faulting memory."""
    np.log1p(x, out=x)
    x *= _INV_LN2
    return x


def _mean_se(x, se=True):
    """Mean of x and its standard error; the error is NaN when se is false,
    which saves its second pass over x."""
    n = x.shape[0]
    mean = float(x.mean())
    if not se:
        return mean, math.nan
    if n < 2:
        return mean, 0.0
    return mean, float(x.std(ddof=1) / math.sqrt(n))


def _min_of_means(a, b):
    """Pick the smaller of two (mean, se) pairs; flag a boundary ambiguity
    when they differ by less than one combined standard error."""
    ambiguous = abs(a[0] - b[0]) <= math.hypot(a[1], b[1])
    value, se = a if a[0] <= b[0] else b
    if ambiguous:
        se = max(a[1], b[1])
    return value, se, ambiguous


def _term_reduce(i, stats, a, b, se):
    """Component rate i of _adb_stats: c11, c22 (group one), c21, c12 (group
    two); the broadcast rates (even i) see power a, the beamforming rates
    b."""
    return (*_mean_se(_rate((b if i % 2 else a) * stats[i]), se), False)


def _adb_reduce(stats, a, b, se):
    """Alternating groups: the four component rates are averaged over slots,
    then 0.5*min(mean11, mean22) + 0.5*min(mean21, mean12)."""
    e11, e22, e21, e12 = (_term_reduce(i, stats, a, b, se)[:2] for i in range(4))
    v1, s1, amb1 = _min_of_means(e11, e22)
    v2, s2, amb2 = _min_of_means(e21, e12)
    return 0.5 * (v1 + v2), 0.5 * math.hypot(s1, s2), amb1 or amb2


def _crs_reduce(stats, a, b, se):
    """Best-relay selection: half the capacity of the strongest end-to-end
    min link."""
    sr, rd2 = stats
    best = np.full(sr.shape[1], -np.inf)
    link = np.empty(sr.shape[1])
    other = np.empty(sr.shape[1])
    for sr_row, rd2_row in zip(sr, rd2):
        np.multiply(a, sr_row, out=link)
        np.multiply(b, rd2_row, out=other)
        np.minimum(link, other, out=link)
        np.maximum(best, link, out=best)
    rate = _rate(best)
    rate *= 0.5
    return (*_mean_se(rate, se), False)


def _df_reduce(stats, a, b, se):
    """All-relay decode-and-forward: the weakest relay must decode, all
    relays beamform."""
    min_all, beam_all = stats
    link = a * min_all
    np.minimum(link, b * beam_all, out=link)
    rate = _rate(link)
    rate *= 0.5
    return (*_mean_se(rate, se), False)


def _sfd_links(stats, a, b):
    """Per-slot SNRs of the receive and transmit links chosen for
    full-duplex mimicking, from _sfd_stats at normalized powers a and b.

    Best receive and best transmit relays are chosen independently; on a
    collision the weaker of the two swap options is dropped: keep (r2, t1)
    if min(g_sr[r2], g_rd[t1]) >= min(g_sr[r1], g_rd[t2]), else (r1, t2).
    Ties go to the lowest relay index. The rule only runs on the colliding
    slots.
    """
    sr1, rd1, collide, sr2, rd2 = stats
    recv = a * sr1
    trans = b * rd1
    g_sr1 = recv[collide]
    g_rd1 = trans[collide]
    g_sr2 = a * sr2
    g_rd2 = b * rd2
    demote_recv = np.minimum(g_sr2, g_rd1) >= np.minimum(g_sr1, g_rd2)
    recv[collide] = np.where(demote_recv, g_sr2, g_sr1)
    trans[collide] = np.where(demote_recv, g_rd1, g_rd2)
    return recv, trans


def _sfd_reduce(stats, a, b, se):
    """Full-duplex-mimicking selection: the smaller of the mean receive-link
    and mean transmit-link capacities, no half prefactor."""
    recv, trans = _sfd_links(stats, a, b)
    return _min_of_means(_mean_se(_rate(recv), se), _mean_se(_rate(trans), se))


# label -> (stats, ChannelConfig fields stats reads beyond the gains,
# reduce). stats(sr_gain, rd_norm, *fields) gives the power-independent
# per-slot arrays, cached with the stream; reduce(stats, a, b, se) gives
# (mean, se, boundary_ambiguous) at a = ps/noise_r, b = pr/noise_d, with
# the standard error NaN, and the flag meaningless, if se is false. The four
# protocols come first, in protocol (and row) order; the alternating
# scheme's component rates follow, one per _adb_stats array, so they share
# its statistics.
_TABLE = {
    "adb": (_adb_stats, ("M",), _adb_reduce),
    "crs": (_crs_stats, (), _crs_reduce),
    "df": (_df_stats, (), _df_reduce),
    "sfd-mmrs": (_sfd_stats, (), _sfd_reduce),
    "c11": (_adb_stats, ("M",), partial(_term_reduce, 0)),
    "c22": (_adb_stats, ("M",), partial(_term_reduce, 1)),
    "c21": (_adb_stats, ("M",), partial(_term_reduce, 2)),
    "c12": (_adb_stats, ("M",), partial(_term_reduce, 3)),
}
PROTOCOLS = tuple(_TABLE)[:4]
TERMS = tuple(_TABLE)[4:]


def _stats(label, cfg: ChannelConfig, sim: SimConfig):
    build, fields, _ = _TABLE[label]
    return _cache.stats(build, cfg, sim, *(getattr(cfg, f) for f in fields))


def estimate(
    label: str, cfg: ChannelConfig, sim: SimConfig, ps, pr, std_error: bool = True
) -> Union[ThroughputEstimate, float]:
    """Monte Carlo throughput of one protocol, or rate of one adb component
    term ("c11", "c22", "c21", "c12"), at source power ps and relay power
    pr, from the shared fading stream of (cfg, sim), as a
    ThroughputEstimate. With std_error false only the value is computed, and
    returned as a float, for searches that compare values: the standard
    error takes a second pass over the slots."""
    if not ps > 0 or not pr > 0:
        raise ValueError(f"powers must be > 0, got ps={ps!r}, pr={pr!r}")
    reduce = _TABLE[label][2]
    # an overflowing rate shows as a non-finite value, which callers check
    with np.errstate(over="ignore", invalid="ignore"):
        mean, se, ambiguous = reduce(
            _stats(label, cfg, sim), ps / cfg.noise_r, pr / cfg.noise_d, std_error
        )
    if not std_error:
        return mean
    return ThroughputEstimate(mean, se, "monte-carlo", ambiguous)
