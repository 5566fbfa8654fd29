"""Monte Carlo throughput estimators for the four relaying protocols.

All estimators share one fading sequence per (cfg, slots, seed), so protocol
comparisons are paired (common random numbers) and repeated power points
reuse the same draws. The gains are never held whole. Slots are sampled in
draw-sized blocks (about 2^17 draws each, so a block's temporaries stay near
cache) addressed by absolute slot index; each block is turned relay-major,
with shape (L, block slots), and reduced at once to every requested
protocol's power-independent per-slot statistics, all that is kept of a
stream: prepare() returns them to its caller and estimate() reads them, or
prefix()'s views of their first slots, which a shorter stream would give.
Reductions over relays sweep contiguous rows, and sums over relays keep
numpy's pairwise order, so the statistics match a slot-major reduction of
the whole stream bit for bit. Every statistic is per slot, so the block
size and the worker count only change how slots are dispatched, never any
value: results are bit-identical at any parallelism level.
"""

import math
import os
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
    "prefix",
    "prepare",
    "stream_bytes",
    "stream_key",
]

# Draws per sampling block: 2^16 to 2^18 measured alike, 2^19 slower.
_BLOCK_DRAWS = 1 << 17
# Slots per probe chunk: a chunk's few rows stay in cache; 2^12 to 2^14
# measured alike for df, 2^14 best for crs.
_CHUNK = 1 << 14
_INV_LN2 = 1.0 / math.log(2.0)

# glibc gives a freed heap top above its trim threshold back to the OS, so
# sampling blocks and probes whose temporaries outgrew it page-faulted them
# in afresh every time (92k minor faults in relay-sweep's first stream at
# 200k slots). The threshold rises to the largest mapping freed, up to 32
# MiB, and never falls: freeing one untouched 16 MiB mapping here keeps
# their memory mapped for the life of the process.
np.empty(1 << 21)


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


def stream_key(cfg: ChannelConfig, sim: SimConfig) -> tuple:
    """What identifies the fading stream of (cfg, sim): exactly what
    sample_gains reads. M, the noise powers and the worker count never
    change a draw."""
    return (cfg.L, cfg.N_R, cfg.sigma_g2, cfg.sigma_h2, sim.slots, sim.seed)


def _statistic(label, cfg: ChannelConfig):
    """The (build, args) statistic that estimate(label, cfg, ...) reads."""
    build, fields, _ = _TABLE[label]
    return build, tuple(getattr(cfg, f) for f in fields)


def stream_bytes(requests, sim: SimConfig) -> int:
    """Upper estimate, in bytes, of what one fading stream needs at its peak
    while the statistics of the (label, cfg) pairs of requests, all on that
    stream, are built and probed. In slot-long float64 rows: the
    statistics (adb and its terms 4 per M value, df 2, crs and sfd-mmrs
    together 4, plus 3 per level, H_L - 2 + 1/L a slot, and 3 per
    collision, 1/L a slot) and 3 rows of temporaries (2.2 measured for
    sfd-mmrs's probe, 1.0 to 1.1 for the others) plus two _CHUNK-long
    buffers (crs's); beside them one sampling block per thread at 5
    float64 copies per draw (4.1 measured)."""
    requests = list(requests)
    cfg = requests[0][1]
    # levels a slot, H_L - 2 + 1/L, through H_L < ln L + gamma + 1/(2L)
    levels = math.log(cfg.L) + 0.5772156649015329 + 1.5 / cfg.L - 2
    rows = {_adb_stats: 4, _df_stats: 2, _select_stats: 4 + 3 * levels + 3 / cfg.L}
    held = sum(rows[build] for build, _ in {_statistic(*r) for r in requests})
    threads = min(sim.workers, os.cpu_count() or 1)
    block = min(_block_slots(cfg), sim.slots) * 2 * cfg.L * cfg.N_R * 5
    return math.ceil(8 * (sim.slots * (held + 3) + 2 * _CHUNK + threads * block))


def _stream(cfg: ChannelConfig, sim: SimConfig, statistics):
    """Build each (build, args) of statistics over the whole stream of (cfg,
    sim) in one sampling pass: each block is sampled, turned relay-major
    while it is still in cache and reduced by every build, whose per-slot
    outputs are written straight into their slot-long arrays. The gains are
    never held beyond one block per thread; each thread writes its own
    blocks' slices. build(sr_gain, rd_norm, *args) takes a relay-major block
    and gives (per_slot, sparse): arrays whose last axis is the block's
    slots, and a tuple of sparse parts, each (slot indices in the block,
    values at those slots...), whose arrays are joined in slot order after
    the pass and follow the per-slot arrays in the result."""
    slots, block = sim.slots, _block_slots(cfg)
    starts = range(0, slots, block)
    dense = {}
    sparse = {}  # key -> one list per sparse array, of its blocks' pieces

    def fill(i):
        start = starts[i]
        n = min(block, slots - start)
        sr, rd = sample_gains(cfg, sim.seed, start, n)
        sr, rd = np.ascontiguousarray(sr.T), np.ascontiguousarray(rd.T)
        for key in statistics:
            build, args = key
            per_slot, parts = build(sr, rd, *args)
            if i == 0:
                dense[key] = tuple(
                    np.empty(a.shape[:-1] + (slots,), a.dtype) for a in per_slot
                )
                sparse[key] = [[None] * len(starts) for p in parts for _ in p]
            for out, a in zip(dense[key], per_slot):
                out[..., start:start + n] = a
            for part in parts:
                np.add(part[0], start, out=part[0])
            for pieces, a in zip(sparse[key], (a for p in parts for a in p)):
                pieces[i] = a

    # the first block alone allocates the outputs; the rest may run in
    # threads
    fill(0)
    rest = range(1, len(starts))
    workers = min(sim.workers, os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, rest))
    else:
        for i in rest:
            fill(i)

    def join(pieces):
        # one sparse array is held twice at a time, not all of them
        out = np.concatenate(pieces)
        pieces.clear()
        return out

    return {key: dense[key] + tuple(map(join, sparse[key])) for key in statistics}


def prepare(requests, sim: SimConfig) -> dict:
    """The statistics that estimate() reads for each (label, cfg) of
    requests, which must share one fading stream, built in one sampling
    pass and returned read-only, keyed (build, args): several M values of a
    stream are built together, and labels that read one statistic share
    it."""
    requests = list(requests)
    if len({stream_key(cfg, sim) for _, cfg in requests}) != 1:
        raise ValueError("prepare needs requests on exactly one fading stream")
    stats = _stream(requests[0][1], sim, dict.fromkeys(_statistic(*r) for r in requests))
    for out in stats.values():
        for a in out:
            a.setflags(write=False)
    return stats


def _top2(rows):
    """Per-slot largest and second-largest values over the relay rows, and
    the row of the largest; ties go to the lowest index, as argmax gives."""
    first = rows[0].copy()
    second = np.full_like(first, -np.inf)
    best = np.zeros(first.shape, dtype=np.intp)
    low = np.empty_like(first)
    up = np.empty(first.shape, dtype=bool)
    cand = np.empty_like(best)
    for i in range(1, rows.shape[0]):
        row = rows[i]
        np.minimum(first, row, out=low)
        np.maximum(second, low, out=second)
        # i only grows, so the newest strictly greater row has the largest
        # index and a max keeps it, with no masked store
        np.greater(row, first, out=up)
        np.multiply(up, i, out=cand)
        np.maximum(best, cand, out=best)
        np.maximum(first, row, out=first)
    return first, second, best


def _adb_stats(sr, rd, m):
    return (
        sr[:m].min(axis=0),
        _pairwise_sum(rd[:m]) ** 2,
        sr[m:].min(axis=0),
        _pairwise_sum(rd[m:]) ** 2,
    ), ()


def _df_stats(sr, rd):
    return (sr.min(axis=0), _pairwise_sum(rd) ** 2), ()


def _select_stats(sr, rd):
    """Power-independent statistics of crs and sfd-mmrs, in relay gains g =
    sr and squared norms h = rd**2: per slot, (g, h) of the best source-side
    relay r1 and of the best destination-side relay t1, ties to the lowest
    index; sparse, in slot order, the levels, (slot, g, h) of every other
    relay on the Pareto front of (g, h) (no relay matches or beats it on
    both sides, an exact twin only from a lower index), and the collisions,
    the slots where r1 is t1, with the second-best g and h there. Such a
    relay, and any that beats it, beats t1 on g and r1 on h: only those
    candidates are compared, each slot's with each other, d apart."""
    L, n = sr.shape
    h = rd**2
    g1, g2nd, r1 = _top2(sr)
    rd1, rd2nd, t1 = _top2(rd)
    cols = np.arange(n)
    h1, g2 = h.take(r1 * n + cols), sr.take(t1 * n + cols)
    slot, relay = np.divmod(np.flatnonzero(((sr > g2) & (h > h1)).T), L)
    at = relay * n + slot
    g, hg = sr.take(at), h.take(at)
    beaten = np.zeros(slot.size, dtype=bool)
    for d in range(1, L - 2):
        pair = slot[d:] == slot[:-d]
        if not pair.any():
            break
        low = pair & (g[:-d] >= g[d:]) & (hg[:-d] >= hg[d:])
        beaten[d:] |= low
        beaten[:-d] |= pair & (g[d:] >= g[:-d]) & (hg[d:] >= hg[:-d]) & ~low
    front = ~beaten
    collide = np.flatnonzero(r1 == t1)
    return (g1, h1, g2, rd1**2), (
        (slot[front], g[front], hg[front]),
        (collide, g2nd[collide], rd2nd[collide] ** 2),
    )


def _rate(x):
    """log2(1 + x) elementwise, in place: x must be a temporary. One
    slot-long buffer per rate, not three, keeps probes off freshly mapped,
    page-faulting memory."""
    np.log1p(x, out=x)
    x *= _INV_LN2
    return x


def _mean_se(x, se=True):
    """Mean of x and its standard error; the error is NaN when se is false,
    which saves its second pass over x. x is consumed: the error is
    computed in place, in numpy's own steps for x.std(ddof=1), so its bits
    are the same."""
    n = x.shape[0]
    mean = float(x.mean())
    if not se:
        return mean, math.nan
    if n < 2:
        return mean, 0.0
    x -= mean
    np.square(x, out=x)
    return mean, math.sqrt(float(x.sum()) / (n - 1)) / math.sqrt(n)


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


def _half_rate(n, snr):
    """0.5 * log2(1 + x) of n per-slot SNRs, in one slot-long buffer:
    snr(out, s) writes the SNRs of slots s:s + out.size into out, one
    cache-sized chunk at a time, so a probe's temporaries are chunk-sized."""
    rate = np.empty(n)
    for s in range(0, n, _CHUNK):
        out = rate[s:s + _CHUNK]
        snr(out, s)
        _rate(out)
        out *= 0.5
    return rate


def _crs_snr(stats, a, b, best, s):
    """Write into best the SNRs of the strongest end-to-end min links on
    slots s:s + best.size, from _select_stats at powers a and b: r1's or
    t1's, raised on the level slots. Rounding is monotone and max exact, so
    a relay off the front never wins, and this is the max over all relays
    bit for bit."""
    g1, h1, g2, h2, level, g, h = stats[:7]
    e = s + best.size
    x, y = np.empty((2, best.size))
    np.minimum(np.multiply(a, g1[s:e], out=best), np.multiply(b, h1[s:e], out=y), out=best)
    np.minimum(np.multiply(a, g2[s:e], out=x), np.multiply(b, h2[s:e], out=y), out=x)
    np.maximum(best, x, out=best)
    lo, hi = np.searchsorted(level, (s, e))
    np.maximum.at(best, level[lo:hi] - s, np.minimum(a * g[lo:hi], b * h[lo:hi]))


def _crs_reduce(stats, a, b, se):
    """Best-relay selection: half the capacity of the strongest end-to-end
    min link."""
    n = stats[0].shape[0]
    return (*_mean_se(_half_rate(n, partial(_crs_snr, stats, a, b)), se), False)


def _df_reduce(stats, a, b, se):
    """All-relay decode-and-forward: the weakest relay must decode, all
    relays beamform."""
    min_all, beam_all = stats
    other = np.empty(min(min_all.shape[0], _CHUNK))

    def snr(link, s):
        e = s + link.size
        y = other[:link.size]
        np.multiply(a, min_all[s:e], out=link)
        np.multiply(b, beam_all[s:e], out=y)
        np.minimum(link, y, out=link)

    return (*_mean_se(_half_rate(min_all.shape[0], snr), se), False)


def _sfd_links(stats, a, b, s, recv, trans):
    """Write into recv and trans the SNRs of the receive and transmit links
    chosen for full-duplex mimicking on slots s:s + recv.size, from
    _select_stats at normalized powers a and b.

    Best receive and best transmit relays are chosen independently; on a
    collision the weaker of the two swap options is dropped: keep (r2, t1)
    if min(g_sr[r2], g_rd[t1]) >= min(g_sr[r1], g_rd[t2]), else (r1, t2).
    Ties go to the lowest relay index. The rule only runs on the colliding
    slots; collide is sorted, so the chunk's collisions are one slice.
    """
    sr1, rd1 = stats[0], stats[3]
    collide, sr2, rd2 = stats[7:]
    e = s + recv.size
    np.multiply(a, sr1[s:e], out=recv)
    np.multiply(b, rd1[s:e], out=trans)
    lo, hi = np.searchsorted(collide, (s, e))
    at = collide[lo:hi] - s
    g_sr1 = recv[at]
    g_rd1 = trans[at]
    g_sr2 = a * sr2[lo:hi]
    g_rd2 = b * rd2[lo:hi]
    demote_recv = np.minimum(g_sr2, g_rd1) >= np.minimum(g_sr1, g_rd2)
    recv[at] = np.where(demote_recv, g_sr2, g_sr1)
    trans[at] = np.where(demote_recv, g_rd1, g_rd2)


def _sfd_reduce(stats, a, b, se):
    """Full-duplex-mimicking selection: the smaller of the mean receive-link
    and mean transmit-link capacities, no half prefactor. The links are
    computed, and turned into rates, one cache-sized chunk at a time."""
    n = stats[0].shape[0]
    recv, trans = np.empty((2, n))
    for s in range(0, n, _CHUNK):
        x, y = recv[s:s + _CHUNK], trans[s:s + _CHUNK]
        _sfd_links(stats, a, b, s, x, y)
        _rate(x)
        _rate(y)
    return _min_of_means(_mean_se(recv, se), _mean_se(trans, se))


# label -> (stats, ChannelConfig fields stats reads beyond the gains,
# reduce). stats(sr_gain, rd_norm, *fields) gives the power-independent
# per-slot arrays and sparse parts of one relay-major block, as _stream
# describes; joined over the stream they are what prepare returns, and
# reduce(stats, a, b, se) gives (mean, se, boundary_ambiguous) at a =
# ps/noise_r, b = pr/noise_d, with the standard error NaN, and the flag
# meaningless, if se is false. The four protocols come first, in protocol
# (and row) order; crs and sfd-mmrs share one statistic, and the
# alternating scheme's component rates follow, one per _adb_stats array,
# so they share its statistics.
_TABLE = {
    "adb": (_adb_stats, ("M",), _adb_reduce),
    "crs": (_select_stats, (), _crs_reduce),
    "df": (_df_stats, (), _df_reduce),
    "sfd-mmrs": (_select_stats, (), _sfd_reduce),
    "c11": (_adb_stats, ("M",), partial(_term_reduce, 0)),
    "c22": (_adb_stats, ("M",), partial(_term_reduce, 1)),
    "c21": (_adb_stats, ("M",), partial(_term_reduce, 2)),
    "c12": (_adb_stats, ("M",), partial(_term_reduce, 3)),
}
PROTOCOLS = tuple(_TABLE)[:4]
TERMS = tuple(_TABLE)[4:]
# build -> the array counts of its sparse parts, which follow its per-slot
# arrays; a build not listed has none
_SPARSE_PARTS = {_select_stats: (3, 3)}


def prefix(stats: dict, slots: int) -> dict:
    """The statistics of the first slots slots of the stream that prepare()
    built stats on, as views of them: per-slot arrays sliced, each sparse
    part cut at its first slot index past the prefix. Equal bit for bit to
    prepare() on a stream of slots slots with the same seed, which draws
    its slots at the same counters."""
    out = {}
    for key, arrays in stats.items():
        parts = _SPARSE_PARTS.get(key[0], ())
        start = len(arrays) - sum(parts)
        view = [a[..., :slots] for a in arrays[:start]]
        for size in parts:
            end = np.searchsorted(arrays[start], slots)
            view += [a[:end] for a in arrays[start:start + size]]
            start += size
        out[key] = tuple(view)
    return out


def estimate(
    label: str, cfg: ChannelConfig, stats: dict, ps, pr, std_error: bool = True
) -> Union[ThroughputEstimate, float]:
    """Monte Carlo throughput of one protocol, or rate of one adb component
    term ("c11", "c22", "c21", "c12"), at source power ps and relay power
    pr, as a ThroughputEstimate, from stats, which prepare() built with
    (label, cfg) among its requests; nothing is sampled here. With
    std_error false only the value is computed, and returned as a float,
    for searches that compare values: the standard error takes a second
    pass over the slots."""
    if not ps > 0 or not pr > 0:
        raise ValueError(f"powers must be > 0, got ps={ps!r}, pr={pr!r}")
    reduce = _TABLE[label][2]
    # an overflowing rate shows as a non-finite value, which callers check
    with np.errstate(over="ignore", invalid="ignore"):
        mean, se, ambiguous = reduce(
            stats[_statistic(label, cfg)],
            ps / cfg.noise_r, pr / cfg.noise_d, std_error
        )
    if not std_error:
        return mean
    return ThroughputEstimate(mean, se, "monte-carlo", ambiguous)
