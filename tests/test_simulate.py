import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import _slot_major
from _oracles import select_sfd
from _slot_major import streamed_gains
from relaylab import simulate
from relaylab.channel import ChannelConfig, _pairwise_sum, sample_gains
from relaylab.simulate import (
    PROTOCOLS,
    SimConfig,
    ThroughputEstimate,
    _min_of_means,
    _adb_stats,
    _crs_snr,
    _df_stats,
    _mean_se,
    _rate,
    _select_stats,
    _sfd_links,
    estimate,
    prefix,
    prepare,
    stream_bytes,
)

CFG = ChannelConfig(L=4, M=2, N_R=3)
SIM = SimConfig(slots=100_000, seed=42)


@pytest.fixture(scope="module")
def stats():
    """Every label's statistics of the stream of (CFG, SIM)."""
    return prepare([(label, CFG) for label in simulate._TABLE], SIM)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(slots=0)
    with pytest.raises(ValueError):
        SimConfig(seed=-1)
    with pytest.raises(ValueError):
        SimConfig(workers=0)
    # integers only, bools rejected
    for bad in ({"slots": 2000.5}, {"slots": True}, {"seed": 1.5}, {"workers": 2.5}):
        with pytest.raises(ValueError):
            SimConfig(**bad)
    # one prepare call builds one fading stream
    other = replace(CFG, N_R=CFG.N_R + 1)
    with pytest.raises(ValueError):
        prepare([("adb", CFG), ("adb", other)], SimConfig(slots=10))


def test_estimate_validation():
    with pytest.raises(ValueError):
        ThroughputEstimate(-0.1, 0.0, "monte-carlo")
    with pytest.raises(ValueError):
        ThroughputEstimate(1.0, 0.1, "analytic")
    with pytest.raises(ValueError):
        ThroughputEstimate(1.0, 0.0, "guess")


def _whole(build, sr, rd, *args):
    """build's statistics of relay-major gains taken as a single block."""
    per_slot, sparse = build(sr, rd, *args)
    return per_slot + tuple(a for part in sparse for a in part)


def _slot_rate(protocol, sr_gain, rd_norm, ps, pr, m=None):
    """One slot's rate through the protocol table: stats on (L, 1) arrays,
    reduced at powers ps, pr (unit noise)."""
    build, fields, reduce = simulate._TABLE[protocol]
    sr = np.asarray(sr_gain, dtype=np.float64).reshape(-1, 1)
    rd = np.asarray(rd_norm, dtype=np.float64).reshape(-1, 1)
    stats = _whole(build, sr, rd, *([m] if fields else []))
    return reduce(stats, ps, pr, True)[0]


def test_adb_hand_state():
    # L=2, M=1: group rates are (log2 5, log2 2) and (log2 10, log2 5),
    # so the slot rate is (log2 2 + log2 5)/2
    val = _slot_rate("adb", [4.0, 9.0], [1.0, 2.0], 1.0, 1.0, m=1)
    assert val == pytest.approx(0.5 * math.log2(5) + 0.5 * math.log2(2), rel=1e-12)
    assert round(val, 4) == 1.6610


def test_crs_hand_state():
    val = _slot_rate("crs", [3.0, 1.0], [math.sqrt(2), math.sqrt(5)], 1.0, 1.0)
    assert val == pytest.approx(0.5 * math.log2(3), rel=1e-12)
    assert round(val, 4) == 0.7925


def test_crs_single_relay_reduction():
    val = _slot_rate("crs", [3.0], [math.sqrt(2)], 1.0, 1.0)
    assert val == pytest.approx(0.5 * math.log2(3), rel=1e-12)


def test_df_hand_state():
    val = _slot_rate("df", [4.0, 9.0], [1.0, 2.0], 1.0, 1.0)
    assert val == pytest.approx(0.5 * math.log2(5), rel=1e-12)
    assert round(val, 4) == 1.1610


def test_df_single_relay_equals_crs():
    sr, rd = [2.7], [1.4]
    assert _slot_rate("df", sr, rd, 2.0, 3.0) == _slot_rate("crs", sr, rd, 2.0, 3.0)


def _links(stats, ps, pr, chunk):
    """The selected links' SNRs of every slot of the sfd statistics stats,
    computed chunk slots at a time."""
    recv, trans = np.empty((2, stats[0].size))
    for s in range(0, stats[0].size, chunk):
        _sfd_links(stats, ps, pr, s, recv[s:s + chunk], trans[s:s + chunk])
    return recv, trans


def _sfd_pair(sr_gain, rd_norm, ps, pr):
    """The oracle's (receive, transmit) relays for one slot, after checking
    that the table's selected links are exactly those relays' SNRs."""
    r, t = select_sfd(sr_gain, rd_norm, ps, pr)
    sr = np.asarray(sr_gain, dtype=np.float64).reshape(-1, 1)
    rd = np.asarray(rd_norm, dtype=np.float64).reshape(-1, 1)
    recv, trans = _links(_whole(_select_stats, sr, rd), ps, pr, 1)
    assert recv[0] == ps * sr[r, 0]
    assert trans[0] == pr * rd[t, 0] ** 2
    return r, t


def test_select_sfd_cases():
    # distinct winners
    assert _sfd_pair([3.0, 1.0], np.sqrt([2.0, 5.0]), 1.0, 1.0) == (0, 1)
    # collision resolved by dropping the weaker swap option
    assert _sfd_pair([5.0, 1.0], np.sqrt([4.0, 2.0]), 1.0, 1.0) == (0, 1)
    assert _sfd_pair([1.0, 5.0], np.sqrt([2.0, 9.0]), 1.0, 1.0) == (1, 0)


def test_select_sfd_tie_breaks_low_index():
    assert _sfd_pair([5.0, 5.0], [2.0, 2.0], 1.0, 1.0) == (1, 0)
    assert _sfd_pair([7.0, 5.0, 7.0], [3.0, 3.0, 1.0], 1.0, 1.0) == (2, 0)


def test_select_sfd_power_dependence():
    # the collision rule compares post-power SNRs, so powers can flip it:
    # source-starved slots keep the best receiver, source-rich slots keep
    # the best transmitter
    assert _sfd_pair([5.0, 1.0], np.sqrt([4.0, 3.0]), 1.0, 1.0) == (0, 1)
    assert _sfd_pair([5.0, 1.0], np.sqrt([4.0, 3.0]), 100.0, 1.0) == (1, 0)


def test_estimators_deterministic(stats):
    for protocol in PROTOCOLS:
        a = estimate(protocol, CFG, stats, 3.0, 2.0)
        b = estimate(protocol, CFG, stats, 3.0, 2.0)
        assert a == b


def test_worker_count_does_not_change_values(monkeypatch):
    # each run builds its own statistics, the second in a thread pool; 70k
    # slots leave a partial last block. The pool is capped at the CPU
    # count, so four CPUs are reported to get four threads on any host.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    gains, estimates = [], []
    for workers in (1, 4):
        sim = SimConfig(slots=70_000, seed=9, workers=workers)
        gains.append([a.tobytes() for a in streamed_gains(CFG, sim)])
        stats = prepare([(p, CFG) for p in PROTOCOLS], sim)
        estimates.append([estimate(p, CFG, stats, 3.0, 2.0) for p in PROTOCOLS])
    assert gains[0] == gains[1]
    assert estimates[0] == estimates[1]


@pytest.mark.parametrize("cpus, pools", [(3, [3]), (None, [])])
def test_sampling_threads_capped_at_cpu_count(monkeypatch, cpus, pools):
    # the fake pool records its requested size and fills blocks inline, so
    # an absurd worker count starts no thread; 70k slots make 13 blocks
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    gains = []
    for workers in (10**6, 1):
        sim = SimConfig(slots=70_000, seed=9, workers=workers)
        gains.append([a.tobytes() for a in streamed_gains(CFG, sim)])
    assert sizes == pools
    assert gains[0] == gains[1]


@pytest.mark.parametrize("L, N_R, slots", [
    (2, 24, 150_000),
    (12, 4, 150_000),
    (4, 1, 150_000),
    # about 2.5 levels a slot, 3 rows each, outweigh the dense rows;
    # fewer slots keep the test small
    (48, 1, 30_000),
], ids=["2-24", "12-4", "4-1", "48-1"])
def test_stream_bytes_bounds_traced_peak(L, N_R, slots):
    # sampling, every protocol's statistics and one probe each, measured by
    # tracemalloc, which numpy reports its buffers to; the slot-long rows
    # outweigh the sampling block, and the last block is partial; the
    # estimate bounds the peak and overcharges it by at most 60%
    cfg = ChannelConfig(L=L, M=L // 2, N_R=N_R)
    sim = SimConfig(slots=slots, seed=1)
    requests = [(p, cfg) for p in PROTOCOLS]
    tracemalloc.start()
    try:
        stats = prepare(requests, sim)
        for protocol in PROTOCOLS:
            estimate(protocol, cfg, stats, 2.0, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for out in stats.values() for a in out)
    assert held < peak <= stream_bytes(requests, sim) <= 1.6 * peak


def test_adb_holds_no_gain_array():
    # no statistic keeps per-relay rows: adb and its terms, at the relay
    # sweep's widest shape, peak below a single (L, slots) array
    cfg = ChannelConfig(L=12, M=6, N_R=4)
    sim = SimConfig(slots=150_000, seed=1)
    labels = ("adb", "c11", "c22", "c21", "c12")
    tracemalloc.start()
    try:
        stats = prepare([(label, cfg) for label in labels], sim)
        for label in labels:
            estimate(label, cfg, stats, 2.0, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * cfg.L * sim.slots


@pytest.mark.parametrize("n", [*range(1, 21), 64, 129, 300])
def test_relay_sum_matches_slot_major_sum(n):
    # numpy sums a contiguous axis pairwise: left to right below 8 terms,
    # eight accumulators up to 128, split in halves above
    rng = np.random.default_rng(n)
    x = rng.exponential(size=(3_000, n)) * rng.exponential(1e3, size=(3_000, 1))
    assert np.array_equal(_pairwise_sum(np.ascontiguousarray(x.T)), x.sum(axis=1))
    m = n // 2
    assert np.array_equal(_pairwise_sum(x.T[m:]), x[:, m:].sum(axis=1))


def _same_bits(got, want):
    return len(got) == len(want) and all(
        g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        for g, w in zip(got, want)
    )


def test_relay_major_statistics_match_slot_major():
    # group sizes 1 to 19 cross numpy's 8-term pairwise threshold
    n = 5_000
    sr, rd = sample_gains(ChannelConfig(L=20, M=10, N_R=2), 21, 0, n)
    rows_sr, rows_rd = np.ascontiguousarray(sr.T), np.ascontiguousarray(rd.T)
    for m in range(1, 20):
        assert _same_bits(
            _whole(_adb_stats, rows_sr, rows_rd, m), _slot_major.adb_stats(sr, rd, m)
        )
    assert _same_bits(
        _whole(_df_stats, rows_sr, rows_rd), _slot_major.df_stats(sr, rd)
    )
    # crs and sfd-mmrs keep the two best relays' gains per slot, the other
    # Pareto-front relays at their slots (none below three relays), and the
    # second-best gains on the colliding slots only
    for L in (2, 3, 20):
        got = _whole(_select_stats, rows_sr[:L], rows_rd[:L])
        want = _slot_major.select_stats(sr[:, :L], rd[:, :L])
        assert want[7].size > 0 and (want[4].size > 0) == (L > 2)
        assert _same_bits(got, want)


@pytest.mark.parametrize("L, N_R, slots, workers, seed, straddle", [
    # 1638-slot blocks, the last one partial; every M value of one stream
    (20, 2, 5_000, 1, 21, ()),
    (20, 2, 5_000, 2, 21, ()),
    # 32768-slot blocks; half the slots collide
    (2, 1, 70_000, 1, 10, (7,)),
    # 16384-slot blocks; a third of the slots have levels
    (4, 1, 70_000, 1, 10, (4, 7)),
    # 131076 draws a slot exceed a block's 2^17: one slot per block
    (3, 21846, 8, 1, 3, (7,)),
], ids=["partial-block", "two-workers", "sfd-boundary", "level-boundary", "one-slot-blocks"])
def test_streamed_statistics_match_whole_stream(
    monkeypatch, L, N_R, slots, workers, seed, straddle
):
    # one sampling pass builds every builder's statistics, adb's at every M
    # value, block by block; each must equal the slot-major reduction of the
    # stream drawn in one sample_gains call
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = ChannelConfig(L=L, M=1, N_R=N_R)
    sim = SimConfig(slots=slots, seed=seed, workers=workers)
    requests = [("adb", replace(cfg, M=m)) for m in range(1, L)]
    requests += [(p, cfg) for p in ("crs", "df", "sfd-mmrs")]
    passes = []
    stream = simulate._stream
    monkeypatch.setattr(
        simulate, "_stream", lambda *args: passes.append(args) or stream(*args)
    )
    stats = prepare(requests, sim)
    assert len(passes) == 1
    assert not any(a.flags.writeable for out in stats.values() for a in out)
    got = [stats[simulate._statistic(*r)] for r in requests]
    sr, rd = sample_gains(cfg, seed, 0, slots)
    for m, stats in zip(range(1, L), got):
        assert _same_bits(stats, _slot_major.adb_stats(sr, rd, m))
    crs, df, sfd = got[L - 1:]
    assert crs is sfd
    want = _slot_major.select_stats(sr, rd)
    assert _same_bits(crs, want)
    assert _same_bits(df, _slot_major.df_stats(sr, rd))
    # level and colliding slots (indices 4 and 7) on both sides of a block
    # boundary
    assert all(_straddles(want[k], simulate._block_slots(cfg)) for k in straddle)


@pytest.fixture(scope="module")
def long_stream():
    """Every builder's statistics, adb's at every M value, on a 70000-slot
    stream of 16384-slot blocks where a third of the slots have levels and
    a quarter collide."""
    cfg = ChannelConfig(L=4, M=1, N_R=1)
    requests = [("adb", replace(cfg, M=m)) for m in range(1, cfg.L)]
    requests += [(p, cfg) for p in ("crs", "df", "sfd-mmrs")]
    sim = SimConfig(slots=70_000, seed=10)
    return cfg, requests, sim, prepare(requests, sim)


@pytest.mark.parametrize("cut", ["between-levels", "after-a-collision", "block-boundary"])
def test_prefix_views_match_a_shorter_stream(long_stream, cut):
    # the stream is counter-addressed, so the statistics of its first n
    # slots are those of a stream of n slots, bit for bit; prefix() gives
    # them as read-only views of the whole stream's, copying nothing
    cfg, requests, sim, stats = long_stream
    key = simulate._statistic("crs", cfg)
    level, collide = stats[key][4], stats[key][7]
    if cut == "between-levels":
        # one past a level slot, with the next level slot further on
        k = np.flatnonzero(np.diff(level) > 2)[len(level) // 3]
        n = int(level[k]) + 1
        assert level[k] < n < level[k + 1] - 1
    elif cut == "after-a-collision":
        n = int(collide[len(collide) // 2]) + 1
    else:
        n = 2 * simulate._block_slots(cfg)
    head = prefix(stats, n)
    want = prepare(requests, replace(sim, slots=n))
    assert head.keys() == want.keys() == stats.keys()
    for key in stats:
        assert _same_bits(head[key], want[key])
        for view, whole in zip(head[key], stats[key]):
            assert not view.flags.writeable and not view.flags.owndata
            assert view.size == 0 or np.shares_memory(view, whole)
    # each sparse part is cut at its first slot index past the prefix
    got = head[simulate._statistic("crs", cfg)]
    assert got[4].size == np.searchsorted(level, n) and got[7].size == np.searchsorted(collide, n)
    if cut == "after-a-collision":
        assert got[7][-1] == n - 1


def _tied_gains(L, n):
    """Relay-major gains and norms from a three-value set, so that argmax
    ties, receive/transmit collisions and tied Pareto fronts are common."""
    rng = np.random.default_rng(L)
    sr = rng.integers(1, 4, size=(L, n)).astype(np.float64)
    rd = np.sqrt(rng.integers(1, 4, size=(L, n)).astype(np.float64))
    return sr, rd


def _straddles(slots, chunk):
    """Whether the slot indices hold both sides of a chunk boundary."""
    at = set(slots.tolist())
    return any({b - 1, b} <= at for b in range(chunk, max(at, default=0) + 1, chunk))


@pytest.mark.parametrize("L", [2, 3, 5])
def test_sfd_statistics_match_scalar_rule_with_ties(L):
    # each slot's selected links must equal the scalar rule's
    n = 2_000
    sr, rd = _tied_gains(L, n)
    stats = _whole(_select_stats, sr, rd)
    # 7-slot chunks, the last one partial, split the collisions
    assert stats[7].size > 0.2 * n and _straddles(stats[7], 7)
    for ps, pr in ((1.0, 1.0), (2.0, 0.5), (100.0, 1.0), (0.01, 3.0)):
        recv, trans = _links(stats, ps, pr, 7)
        for i in range(n):
            r, t = select_sfd(sr[:, i], rd[:, i], ps, pr)
            assert recv[i] == ps * sr[r, i]
            assert trans[i] == pr * rd[t, i] ** 2


def _crs_snrs(stats, a, b, chunk):
    """crs's per-slot best SNRs from its statistics, chunk slots at a
    time."""
    best = np.empty(stats[0].size)
    for s in range(0, best.size, chunk):
        _crs_snr(stats, a, b, best[s:s + chunk], s)
    return best


@pytest.mark.parametrize("L", [2, 3, 5])
def test_crs_over_the_front_matches_every_relay_with_ties(L):
    # the best min link over r1, t1 and the levels must be the best over
    # every relay, slot by slot and bit for bit, tied fronts included
    n = 2_000
    sr, rd = _tied_gains(L, n)
    stats = _whole(_select_stats, sr, rd)
    # 7-slot chunks, the last one partial, split the levels (a twentieth
    # of the slots have one at L=3, none at L=2)
    assert (stats[4].size > 0) == (L > 2)
    if L == 5:
        assert _straddles(stats[4], 7)
    for a, b in ((1.0, 1.0), (2.0, 0.5), (100.0, 1.0), (0.01, 3.0)):
        want = _slot_major.crs_snr(sr.T, rd.T, a, b)
        assert _crs_snrs(stats, a, b, 7).tobytes() == want.tobytes()


def test_crs_over_the_front_matches_every_relay_at_48_relays():
    # five sampling blocks, about 2.5 levels a slot
    cfg = ChannelConfig(L=48, M=24, N_R=1)
    sim = SimConfig(slots=6_000, seed=4)
    stats = prepare([("crs", cfg)], sim)
    sr, rd = sample_gains(cfg, sim.seed, 0, sim.slots)
    for ps, pr in ((2.0, 1.5), (30.0, 0.2)):
        assert estimate("crs", cfg, stats, ps, pr) == _slot_major.sim_crs(cfg, sim, ps, pr)
        best = _crs_snrs(stats[simulate._statistic("crs", cfg)], ps, pr, 7)
        assert best.tobytes() == _slot_major.crs_snr(sr, rd, ps, pr).tobytes()


@pytest.mark.parametrize("n", [2, 3, 8, 9, 129, 200_000])
def test_standard_error_in_place_matches_numpy_std(n):
    x = np.random.default_rng(n).exponential(size=n)
    want = float(x.mean()), float(x.std(ddof=1) / math.sqrt(n))
    assert _mean_se(x.copy()) == want


def test_statistics_rows_at_four_relays(stats):
    # all four protocols' statistics at L=4 in slot-long rows: adb 4, df 2,
    # crs and sfd-mmrs together 4 dense and about 1.75 of levels and
    # collisions
    rows = sum(a.nbytes for out in stats.values() for a in out) / (8 * SIM.slots)
    assert rows <= 12.5


def test_estimators_match_manual_reduction():
    # all four estimators must consume exactly the shared sampled sequence
    n = 20_000
    stats = prepare([(p, CFG) for p in PROTOCOLS], SimConfig(slots=n, seed=3))
    sr, rd = sample_gains(CFG, 3, 0, n)

    est = estimate("crs", CFG, stats, 2.0, 1.5)
    manual = 0.5 * _rate(np.minimum(2.0 * sr, 1.5 * rd**2).max(axis=1))
    assert est.value == float(manual.mean())

    est = estimate("df", CFG, stats, 2.0, 1.5)
    rate = 0.5 * np.log2(1 + np.minimum(2.0 * sr.min(1), 1.5 * rd.sum(1) ** 2))
    assert est.value == pytest.approx(float(rate.mean()), rel=1e-15)

    est = estimate("adb", CFG, stats, 2.0, 1.5)
    r11 = np.log2(1 + 2.0 * sr[:, :2].min(1)).mean()
    r22 = np.log2(1 + 1.5 * rd[:, :2].sum(1) ** 2).mean()
    r21 = np.log2(1 + 2.0 * sr[:, 2:].min(1)).mean()
    r12 = np.log2(1 + 1.5 * rd[:, 2:].sum(1) ** 2).mean()
    expect = 0.5 * min(r11, r22) + 0.5 * min(r21, r12)
    assert est.value == pytest.approx(expect, rel=1e-12)

    est = estimate("sfd-mmrs", CFG, stats, 2.0, 1.5)
    c_sr, c_rd = [], []
    for i in range(n):
        recv, trans = select_sfd(sr[i], rd[i], 2.0, 1.5)
        c_sr.append(math.log2(1 + 2.0 * sr[i, recv]))
        c_rd.append(math.log2(1 + 1.5 * rd[i, trans] ** 2))
    assert est.value == pytest.approx(min(np.mean(c_sr), np.mean(c_rd)), rel=1e-12)


def test_sfd_symmetric_links_balanced():
    # with i.i.d. links and symmetric powers the receive-side and
    # transmit-side mean capacities coincide up to noise; also cross-check
    # the estimator against an independent reconstruction of the selection
    cfg = ChannelConfig(L=2, M=1, N_R=2)
    n = 400_000
    sr, rd = sample_gains(cfg, 17, 0, n)
    rd2 = rd**2
    rows = np.arange(n)
    r1 = sr.argmax(axis=1)
    t1 = rd2.argmax(axis=1)
    r2, t2 = 1 - r1, 1 - t1
    collide = r1 == t1
    keep_t1 = np.minimum(sr[rows, r2], rd2[rows, t1]) >= np.minimum(
        sr[rows, r1], rd2[rows, t2]
    )
    recv = np.where(collide & keep_t1, r2, r1)
    trans = np.where(collide & ~keep_t1, t2, t1)
    c_sr = np.log2(1 + sr[rows, recv])
    c_rd = np.log2(1 + rd2[rows, trans])
    se = math.hypot(
        c_sr.std(ddof=1) / math.sqrt(n), c_rd.std(ddof=1) / math.sqrt(n)
    )
    assert abs(c_sr.mean() - c_rd.mean()) <= 3 * se
    stats = prepare([("sfd-mmrs", cfg)], SimConfig(slots=n, seed=17))
    est = estimate("sfd-mmrs", cfg, stats, 1.0, 1.0)
    assert est.value == pytest.approx(min(c_sr.mean(), c_rd.mean()), rel=1e-12)


def test_sfd_has_no_half_prefactor(stats):
    # at generous symmetric powers the full-duplex-mimicking rate exceeds
    # the half-rate selection protocol roughly twofold
    crs = estimate("crs", CFG, stats, 10.0, 10.0)
    sfd = estimate("sfd-mmrs", CFG, stats, 10.0, 10.0)
    assert sfd.value > 1.5 * crs.value


def test_se_shrinks_with_sqrt_slots(stats):
    protocols = ("adb", "crs", "df")
    doubled = prepare([(p, CFG) for p in protocols], SimConfig(slots=200_000, seed=42))
    for protocol in protocols:
        small = estimate(protocol, CFG, stats, 3.0, 2.0)
        big = estimate(protocol, CFG, doubled, 3.0, 2.0)
        ratio = small.std_error / big.std_error
        assert math.sqrt(2) * 0.9 <= ratio <= math.sqrt(2) * 1.1


def test_adb_symmetric_half_terms_agree(stats):
    comps = {}
    for term in ("c11", "c22", "c21", "c12"):
        est = estimate(term, CFG, stats, 3.0, 2.0)
        comps[term] = (est.value, est.std_error)
    v1, s1, _ = _min_of_means(comps["c11"], comps["c22"])
    v2, s2, _ = _min_of_means(comps["c21"], comps["c12"])
    assert abs(v1 - v2) <= 3 * math.hypot(s1, s2)


def test_component_terms_rebuild_adb_estimate():
    # the four term entries read adb's statistics and reduce them with
    # adb's per-term helper, so they recombine to adb's value exactly
    cfg = ChannelConfig(L=5, M=2, N_R=2, noise_r=2.0)
    labels = ("c11", "c22", "c21", "c12")
    stats = prepare([(t, cfg) for t in labels], SimConfig(slots=20_000, seed=3))
    assert list(stats) == [simulate._statistic("adb", cfg)]
    terms = {t: estimate(t, cfg, stats, 3.0, 2.0) for t in labels}
    pair = {t: (e.value, e.std_error) for t, e in terms.items()}
    v1, _, _ = _min_of_means(pair["c11"], pair["c22"])
    v2, _, _ = _min_of_means(pair["c21"], pair["c12"])
    assert estimate("adb", cfg, stats, 3.0, 2.0).value == 0.5 * (v1 + v2)


def test_estimates_nonnegative_and_power_monotone(stats):
    for protocol in PROTOCOLS:
        lo = estimate(protocol, CFG, stats, 1.0, 0.5)
        hi = estimate(protocol, CFG, stats, 2.0, 1.0)
        assert lo.value >= 0.0
        assert hi.value > lo.value


def test_min_of_means_boundary_flag():
    value, se, amb = _min_of_means((1.00, 0.10), (1.05, 0.10))
    assert (value, se, amb) == (1.00, 0.10, True)
    value, se, amb = _min_of_means((2.0, 0.01), (1.0, 0.02))
    assert (value, se, amb) == (1.0, 0.02, False)


def test_power_validation(stats):
    for protocol in PROTOCOLS:
        with pytest.raises(ValueError):
            estimate(protocol, CFG, stats, 0.0, 1.0)
        with pytest.raises(ValueError):
            estimate(protocol, CFG, stats, 1.0, -2.0)
