"""Monte Carlo throughput estimators for the four relaying protocols.

All estimators share one fading sequence per (cfg, slots, seed), so protocol
comparisons are paired (common random numbers) and repeated power points
reuse the same draws. The gains are never held whole. Slots are sampled in
blocks of about 2^17 doubles, of draws or of a build's temporaries, so that
a block stays near cache, addressed by absolute slot index; each block is turned relay-major,
with shape (L, block slots), and reduced at once to every requested
protocol's power-independent per-slot statistics, all that is kept of a
stream: prepare() returns them to its caller and estimate() reads them,
over all their slots or their first n, which a stream of n slots gives.
Each statistic is built once however many labels read it: adb's group
minima serve df too, whose weakest relay is the weaker group's.
Reductions over relays sweep contiguous rows, and sums over relays keep
numpy's pairwise order, so the statistics match a slot-major reduction of
the whole stream bit for bit. Every statistic is per slot, so the block
size and the worker count only change how slots are dispatched, never any
value: results are bit-identical at any parallelism level. Probes sum
their rates chunk by chunk in numpy's pairwise order: no rate row is held.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Union

import numpy as np

from .channel import ChannelConfig, _is_count, _pairwise_sum, sample_gains

__all__ = [
    "PROTOCOLS",
    "TERMS",
    "SimConfig",
    "ThroughputEstimate",
    "estimate",
    "prepare",
    "stream_bytes",
    "stream_key",
]

# Doubles a sampling block holds, its draws or a build's temporaries
# (_slot_doubles): 2^16 to 2^18 measured alike, 2^19 slower.
_BLOCK_DOUBLES = 1 << 17
# Slots per probe chunk, _walk's leaf (any size gives the same bits): a
# chunk's few rows stay in cache; 2^12 to 2^14 alike for df, 2^14 best for crs.
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
            if not _is_count(v):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.slots < 1:
            raise ValueError(f"slots must be >= 1, got {self.slots}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit integer, got {self.seed!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class ThroughputEstimate:
    """A throughput value (bps/Hz) with its standard error and provenance,
    as _combine makes them of a label's component means. boundary_ambiguous
    marks results where some pair's two means were closer than one combined
    standard error; that pair's error is then the larger of its two."""

    value: float
    std_error: float
    method: str
    boundary_ambiguous: bool = False

    def __post_init__(self):
        if not (0 <= self.value < math.inf and 0 <= self.std_error < math.inf):
            raise ValueError("value and std_error must be finite and non-negative")
        if self.method not in ("monte-carlo", "analytic"):
            raise ValueError(f"unknown method tag {self.method!r}")
        if self.method == "analytic" and self.std_error != 0.0:
            raise ValueError("analytic estimates carry no standard error")


def _slot_doubles(cfg: ChannelConfig, builds) -> int:
    """Doubles a sampling block holds a slot while builds reduce it: its 2
    L N_R draws, or the most temporaries a build takes (_LAYOUT) where they
    are more."""
    return max(2 * cfg.L * cfg.N_R, 0, *(c * cfg.L + d for c, d in (_LAYOUT[b][2] for b in builds)))


def _block_slots(cfg: ChannelConfig, builds) -> int:
    """Slots per sampling block: _BLOCK_DOUBLES doubles, at least one slot."""
    return max(1, _BLOCK_DOUBLES // _slot_doubles(cfg, builds))


def stream_key(cfg: ChannelConfig, sim: SimConfig) -> tuple:
    """What identifies the fading stream of (cfg, sim): exactly what
    sample_gains reads. M, the noise powers and the worker count never
    change a draw."""
    return (cfg.L, cfg.N_R, cfg.sigma_g2, cfg.sigma_h2, sim.slots, sim.seed)


def _statistics(label, cfg: ChannelConfig) -> tuple:
    """The (build, args) statistics that estimate(label, cfg, ...) reads, in
    the order it reads their arrays."""
    return tuple(
        (build, tuple(getattr(cfg, f) for f in fields)) for build, fields in _TABLE[label][0]
    )


def _rows(stats: dict, label, cfg: ChannelConfig) -> tuple:
    """The arrays of stats that label's parts read at cfg: those of each of
    its statistics, in order."""
    return tuple(a for key in _statistics(label, cfg) for a in stats[key])


def stream_bytes(requests, sim: SimConfig) -> int:
    """Upper estimate, in bytes, of what one fading stream needs at its peak
    while the statistics of the (label, cfg) pairs of requests, all on that
    stream, are built and probed; a statistic several labels read is
    charged once. In slot-long rows, the statistics: each build's rows and
    its sparse parts' arrays at the entries _stream allocates for them, as
    _LAYOUT gives them; so adb and its terms hold 4 per M value, df 1
    beside adb at its M and 3 alone (no sweep runs df without adb), crs and
    sfd-mmrs together 4 and their sparse parts. In _CHUNK-long rows, a
    probe's: 5, plus 4 per level for crs (7.9 measured at 48 relays). Per
    thread, 2.5 sampling blocks of _slot_doubles a slot: the block and its
    builds' temporaries (2.07 measured for adb at one antenna a relay, 1.3
    to 1.9 with crs)."""
    requests = list(requests)
    cfg = requests[0][1]
    builds = [build for build, _ in {key for r in requests for key in _statistics(*r)}]
    dense = sim.slots * sum(_LAYOUT[b][0] for b in builds)
    sparse = sum(
        size * _entries(rate(cfg.L), sim.slots)
        for b in builds for size, rate in _LAYOUT[b][1]
    )
    probe = math.ceil((5 + 4 * _levels(cfg.L)) * _CHUNK)
    block = min(_block_slots(cfg, builds), sim.slots) * _slot_doubles(cfg, builds)
    blocks = min(sim.workers, os.cpu_count() or 1) * block * 5 // 2
    return 8 * (dense + sparse + probe + blocks)


def _append(store, part, start):
    """Write a block's sparse part, its slot indices offset by start, after
    the entries so far of store, (arrays, entries); gives the new store.
    Arrays too short for it are first grown to a quarter past its end."""
    arrays, count = store
    end = count + part[0].size
    if end > arrays[0].size:
        grown = [np.empty(end + end // 4, a.dtype) for a in arrays]
        for new, old in zip(grown, arrays):
            new[:count] = old[:count]
        arrays = grown
    np.add(part[0], start, out=arrays[0][count:end])
    for out, a in zip(arrays[1:], part[1:]):
        out[count:end] = a
    return arrays, end


def _stream(cfg: ChannelConfig, sim: SimConfig, statistics):
    """Build each (build, args) of statistics over the whole stream of (cfg,
    sim) in one sampling pass: each block is sampled, turned relay-major
    while it is still in cache and reduced by every build. The gains are
    never held beyond one block per thread. build(sr_gain, rd_norm, *args)
    takes a relay-major block and gives (per_slot, sparse): its rows over
    the block's slots, which each thread writes straight into slot-long
    rows, and a tuple of sparse parts, each (slot indices in the block,
    values at those slots...), which follow the rows in the result. Every
    output is allocated from _LAYOUT before sampling; each sparse part is
    appended in slot order, block by block, grown only where the stream
    overflows its expected entries. The result holds views of them."""
    slots = sim.slots
    block = _block_slots(cfg, {build for build, _ in statistics})
    dense = {}
    sparse = {}  # key -> per sparse part, (its arrays, their entries so far)
    for key in statistics:
        rows, parts, _ = _LAYOUT[key[0]]
        dense[key] = tuple(np.empty(slots) for _ in range(rows))
        sparse[key] = [([
            np.empty(_entries(rate(cfg.L), slots), np.float64 if i else np.intp) for i in range(size)
        ], 0) for size, rate in parts]

    def fill(start):
        n = min(block, slots - start)
        sr, rd = sample_gains(cfg, sim.seed, start, n)
        sr, rd = np.ascontiguousarray(sr.T), np.ascontiguousarray(rd.T)
        parts = {}
        for key in statistics:
            build, args = key
            per_slot, parts[key] = build(sr, rd, *args)
            for out, a in zip(dense[key], per_slot, strict=True):
                out[start:start + n] = a
        return start, parts

    # blocks may run in threads, whose results map gives back in block order
    workers = min(sim.workers, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for start, parts in (pool.map if pool else map)(fill, range(0, slots, block)):
            for key, blocks in parts.items():
                stores = zip(sparse[key], blocks, strict=True)
                sparse[key] = [_append(store, part, start) for store, part in stores]
    return {
        key: dense[key] + tuple(a[:count] for arrays, count in sparse[key] for a in arrays)
        for key in statistics
    }


def prepare(requests, sim: SimConfig) -> dict:
    """The statistics that estimate() reads for each (label, cfg) of
    requests, which must share one fading stream, built in one sampling
    pass and returned read-only, keyed (build, args): several M values of a
    stream are built together, and labels that read one statistic share
    it, as df shares adb's group minima at its M."""
    requests = list(requests)
    if len({stream_key(cfg, sim) for _, cfg in requests}) != 1:
        raise ValueError("prepare needs requests on exactly one fading stream")
    keys = dict.fromkeys(key for r in requests for key in _statistics(*r))
    stats = _stream(requests[0][1], sim, keys)
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


def _group_mins(sr, rd, m):
    """Each relay group's weakest source-side gain: min sr[:m], min sr[m:]."""
    return (sr[:m].min(axis=0), sr[m:].min(axis=0)), ()


def _group_beams(sr, rd, m):
    """Each relay group's beamforming gain: (sum rd[:m])^2, (sum rd[m:])^2."""
    return (_pairwise_sum(rd[:m]) ** 2, _pairwise_sum(rd[m:]) ** 2), ()


def _beam_all(sr, rd):
    """The beamforming gain of all relays, (sum rd)^2."""
    return (_pairwise_sum(rd) ** 2,), ()


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
    """log2(1 + x) elementwise, in place: x must be a temporary."""
    np.log1p(x, out=x)
    x *= _INV_LN2
    return x


def _min_of_means(a, b=None):
    """Pick the smaller of two (mean, se) pairs; flag a boundary ambiguity
    when they differ by less than one combined standard error. A lone pair
    is its own min, never ambiguous."""
    if b is None:
        return (*a, False)
    ambiguous = abs(a[0] - b[0]) < math.hypot(a[1], b[1])
    value, se = a if a[0] <= b[0] else b
    if ambiguous:
        se = max(a[1], b[1])
    return value, se, ambiguous


def _walk(rows, s, e):
    """The per-row sums of rows(i, j), a chunk of some rows over slots i:j,
    over slots s:e in numpy's pairwise order, so with x.sum()'s bits: a node
    of over _CHUNK slots adds its halves' sums, split at a multiple of 8."""
    if e - s <= _CHUNK:
        return np.add.reduce(rows(s, e), axis=1, initial=0.0)
    half = (e - s) // 2 // 8 * 8
    return _walk(rows, s, s + half) + _walk(rows, s + half, e)


def _std_errors(rates, n, means):
    """x.std(ddof=1) / sqrt(n), in numpy's steps and bits (0 for one slot),
    of each n-slot row x: rates(s, e, means) gives x[s:e]'s squared deviations."""
    return np.sqrt(_walk(partial(rates, means=means), 0, n) / max(n - 1, 1)) / math.sqrt(n)


def _means(snr, k, stats, a, b, se, means=None, slots=None):
    """The (mean, se) of each of k per-slot rates over slots 0:slots of
    stats (all of them if None), errors NaN unless se; means, if given, are
    theirs already, and only the errors walk the slots. snr(stats, a, b, s,
    *rows) writes the SNRs of slots s:s + rows[0].size into the k rows of a
    chunk buffer, which become rates while in cache."""
    length = stats[0].shape[0]
    n = length if slots is None else slots
    if not (isinstance(n, (int, np.integer)) and 1 <= n <= length):
        raise ValueError(f"slots must be an integer in [1, {length}], got {slots!r}")
    buf = np.empty((k, min(n, _CHUNK)))

    def rates(s, e, means=None):
        rows = buf[:, :e - s]
        snr(stats, a, b, s, *rows)
        _rate(rows)
        if means is not None:
            rows -= means[:, None]
            np.square(rows, out=rows)
        return rows

    means = _walk(rates, 0, n) / n if means is None else np.array(means)
    errors = _std_errors(rates, n, means) if se else [math.nan] * k
    return [(float(m), float(e)) for m, e in zip(means, errors)]


def _adb_snr(stats, a, b, s, *rows, parts=range(4)):
    """Write into rows the SNRs of adb's parts on slots s:s + row.size, by
    index c11, c22, c21, c12, from the group minima and then the group
    beams: broadcasts (even) at power a, beams at b, group one's first."""
    for i, row in zip(parts, rows):
        np.multiply(b if i % 2 else a, stats[2 * (i % 2) + i // 2][s:s + row.size], out=row)


def _crs_snr(stats, a, b, s, best):
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


def _df_snr(stats, a, b, s, link):
    """Write into link the SNRs of all-relay decode-and-forward on slots
    s:s + link.size: the weakest relay must decode, all relays beamform.
    The weakest relay is the weaker group minimum; min is exact, so this
    is a times the minimum over all relays bit for bit."""
    min1, min2, beam_all = stats
    e = s + link.size
    np.minimum(min1[s:e], min2[s:e], out=link)
    np.multiply(a, link, out=link)
    np.minimum(link, b * beam_all[s:e], out=link)


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


# label -> (statistics, parts, prelog). statistics lists the (build,
# ChannelConfig fields build reads beyond the gains) that the label reads,
# and no other: build(sr_gain, rd_norm, *fields) gives the
# power-independent per-slot arrays and sparse parts of one relay-major
# block, as _stream describes; gathered over the stream they are what
# prepare returns, each build once however many labels list it. adb and
# its terms read the group minima and the group beams at M; df the same
# minima and the all-relay beam; crs and sfd-mmrs one shared statistic.
# parts(rows, a, b, se, means=None, slots=None), _means over the label's
# SNR writer, gives its component rates as (mean, se) pairs at a =
# ps/noise_r, b = pr/noise_d from its statistics' arrays in order (_rows),
# over their first slots slots (the writers find sparse entries by slot), a
# pair's source-side rate first, which _combine makes the label's value
# with its prelog. The four protocols come first, in row order, and adb's
# four parts follow.
_MINS = (_group_mins, ("M",))
_ADB = (_MINS, (_group_beams, ("M",)))
_SELECT = ((_select_stats, ()),)
_TABLE = {
    "adb": (_ADB, partial(_means, _adb_snr, 4), 0.5),
    "crs": (_SELECT, partial(_means, _crs_snr, 1), 0.5),
    "df": ((_MINS, (_beam_all, ())), partial(_means, _df_snr, 1), 0.5),
    "sfd-mmrs": (_SELECT, partial(_means, _sfd_links, 2), 1.0),
} | {
    term: (_ADB, partial(_means, partial(_adb_snr, parts=(i,)), 1), 1.0)
    for i, term in enumerate(("c11", "c22", "c21", "c12"))
}
PROTOCOLS = tuple(_TABLE)[:4]
TERMS = tuple(_TABLE)[4:]


def _levels(L):
    """Pareto-front levels expected a slot at L relays, H_L - 2 + 1/L (the
    front of L i.i.d. relays holds H_L of them on average; r1 and t1 are on
    it, one relay on the 1/L of slots where they collide), from above:
    H_L < ln L + gamma + 1/(2L) - 1/(12L^2) + 1/(120L^4)."""
    harmonic = math.log(L) + 0.5772156649015329 + 1 / (2 * L) - 1 / (12 * L * L) + 1 / (120 * L**4)
    return harmonic - 2 + 1 / L


# build -> (rows, parts, temporaries), from which _stream allocates its
# outputs and stream_bytes charges them: its per-slot float64 rows; its
# sparse parts, which follow them, each (array count, entries expected a
# slot at L relays), slot indices (intp) first; and the c L + d doubles
# (c, d) a slot it holds while it builds (20.4 measured for crs at 2x1).
_LAYOUT = {
    _group_mins: (2, (), (0, 0)),
    _group_beams: (2, (), (0, 0)),
    _beam_all: (1, (), (0, 0)),
    _select_stats: (4, ((3, _levels), (3, lambda L: 1 / L)), (4, 13)),
}


def _entries(rate, slots):
    """Sparse entries allocated for slots slots at rate expected a slot: 2%
    more, and 4096, so that a stream seldom grows them (ties, short
    streams). Exact integers: slots may lie past a double's range."""
    num, den = (1.02 * rate).as_integer_ratio()
    return slots * num // den + 4096


def estimate(
    label: str, cfg: ChannelConfig, stats: dict, ps, pr, std_error: bool = True,
    memo: dict = None, slots: int = None,
) -> Union[ThroughputEstimate, tuple]:
    """Monte Carlo throughput of one protocol, or rate of one adb component
    term ("c11", "c22", "c21", "c12"), at source power ps and relay power
    pr, from stats, which prepare() built with (label, cfg) among its
    requests; nothing is sampled here, and only the statistics _TABLE lists
    for label are read, in order. _combine makes the parts a
    ThroughputEstimate, or without std_error (value, gaps) for searches,
    skipping the errors' second pass over the slots. slots, from 1 to the
    stream's length, limits the estimate to its first slots slots, bit for
    bit that of a stream so long. memo, a dict its caller keeps for one
    label, cfg, stats and slots, records the means at each split it
    estimates, so one already probed walks the slots only for its errors."""
    if not ps > 0 or not pr > 0:
        raise ValueError(f"powers must be > 0, got ps={ps!r}, pr={pr!r}")
    rows = _rows(stats, label, cfg)
    known = None if memo is None else memo.get((ps, pr))
    # an overflowing rate shows as a non-finite value, raised by _combine
    with np.errstate(over="ignore", invalid="ignore"):
        means = _TABLE[label][1](rows, ps / cfg.noise_r, pr / cfg.noise_d, std_error, known, slots)
    if memo is not None:
        memo[ps, pr] = [m for m, _ in means]
    return _combine(label, "monte-carlo", ps, pr, means, std_error)


def _combine(label, method, ps, pr, means, std_error):
    """label's estimate by method at (ps, pr) from its parts' (mean, se)
    pairs, by one rule for every label and both methods: prelog times the
    sum of the min of each consecutive pair (a lone part is its own min),
    its error prelog times the root sum of squares of the mins' errors. A
    ThroughputEstimate, or without std_error (value, gaps), each pair's
    source-side mean minus its relay-side one; ArithmeticError if not finite."""
    prelog = _TABLE[label][2]
    pairs = [_min_of_means(*means[i:i + 2]) for i in range(0, len(means), 2)]
    # prelog * mean has the bits of the mean of prelog-scaled rates (a power
    # of two scales exactly); each min is scaled first, so no sum overflows
    value = sum(prelog * v for v, _, _ in pairs)
    if not math.isfinite(value):
        raise ArithmeticError(f"objective returned {value!r} at ps={ps}, pr={pr}")
    if not std_error:
        return value, tuple(s[0] - r[0] for s, r in zip(means[::2], means[1::2]))
    se = prelog * math.hypot(*(s for _, s, _ in pairs))
    return ThroughputEstimate(value, se, method, any(f for _, _, f in pairs))
