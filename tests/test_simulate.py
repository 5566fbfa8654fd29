import math
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import _slot_major
from _oracles import select_sfd
from _slot_major import streamed_gains
from relaylab import simulate
from relaylab.channel import ChannelConfig, _pairwise_sum, sample_gains
from relaylab.simulate import (
    PROTOCOLS,
    TERMS,
    SimConfig,
    ThroughputEstimate,
    _min_of_means,
    _crs_snr,
    _rate,
    _rows,
    _select_stats,
    _sfd_links,
    estimate,
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
    # nan < 0 is False: a sign check alone lets NaN through
    for value, se in ((math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            ThroughputEstimate(value, se, "monte-carlo")


@pytest.mark.parametrize("std_error", [True, False], ids=["estimate", "value-only"])
@pytest.mark.parametrize("label", list(simulate._TABLE))
def test_overflowing_value_raises_naming_the_split(recwarn, label, std_error):
    # at 1e308 every rate of a gain above 1.8 overflows, so the value is
    # not finite: estimate raises before building an estimate or its gaps
    stats = prepare([(label, CFG)], SimConfig(slots=1000, seed=3))
    with pytest.raises(ArithmeticError, match=r"objective returned .* at ps=1e\+308, pr=1e\+308"):
        estimate(label, CFG, stats, 1e308, 1e308, std_error=std_error)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def _whole(build, sr, rd, *args):
    """build's statistics of relay-major gains taken as a single block."""
    per_slot, sparse = build(sr, rd, *args)
    return per_slot + tuple(a for part in sparse for a in part)


def _slot_rate(protocol, sr_gain, rd_norm, ps, pr, m=None):
    """One slot's rate through estimate: stats on (L, 1) arrays, at powers
    ps, pr (unit noise). estimate reads only the noise powers and the
    table's fields of cfg, so a single relay needs no ChannelConfig."""
    cfg = SimpleNamespace(M=m, noise_r=1.0, noise_d=1.0)
    sr = np.asarray(sr_gain, dtype=np.float64).reshape(-1, 1)
    rd = np.asarray(rd_norm, dtype=np.float64).reshape(-1, 1)
    stats = {
        key: _whole(key[0], sr, rd, *key[1]) for key in simulate._statistics(protocol, cfg)
    }
    return estimate(protocol, cfg, stats, ps, pr).value


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
    val = _slot_rate("df", [4.0, 9.0], [1.0, 2.0], 1.0, 1.0, m=1)
    assert val == pytest.approx(0.5 * math.log2(5), rel=1e-12)
    assert round(val, 4) == 1.1610


def test_df_single_relay_equals_crs():
    # with m None both group minima are the one relay's gain
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


@pytest.mark.parametrize("L, N_R", [(2, 24), (4, 12), (6, 8), (8, 6), (12, 4)])
def test_sampling_pass_holds_under_two_blocks(L, N_R):
    # the relay sweep's shapes: each block is converted in its own buffer
    # and at most four antenna accumulators live at once, so the sampling
    # pass holds at most 1.75 blocks of 2^17 doubles above the statistics
    cfg = ChannelConfig(L=L, M=L // 2, N_R=N_R)
    sim = SimConfig(slots=200_000, seed=42)
    tracemalloc.start()
    try:
        stats = prepare([("adb", cfg)], sim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for out in stats.values() for a in out)
    assert peak - held <= 1.75 * 8 * simulate._BLOCK_DOUBLES


@pytest.mark.parametrize("L", [2, 4, 16])
def test_one_antenna_sampling_pass_copies_its_log_block_once(L):
    # at one antenna a relay the antenna sum is the log block itself, and
    # only scaling it into the source-side and destination-side gains
    # copies it: adb's sampling pass holds at most 2.5 blocks of 2^17
    # doubles above its statistics (2.07 measured; 3.07 with a copy)
    cfg = ChannelConfig(L=L, M=L // 2, N_R=1)
    sim = SimConfig(slots=200_000, seed=42)
    tracemalloc.start()
    try:
        stats = prepare([("adb", cfg)], sim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for out in stats.values() for a in out)
    assert peak - held <= 2.5 * 8 * simulate._BLOCK_DOUBLES


@pytest.mark.parametrize("L", [2, 4, 8, 16, 48])
def test_every_protocol_sampling_pass_holds_under_two_blocks(L):
    # with crs and sfd-mmrs, a block is sized by _select_stats' temporaries
    # where they outgrow its draws, and their levels and collisions are
    # written in place, never joined: prepare with all four protocols at
    # one antenna a relay holds at most 1.75 blocks of 2^17 doubles above
    # its statistics (1.37 to 1.58 measured; 2.4 to 5.1 with joined parts
    # in blocks of 2^17 draws)
    cfg = ChannelConfig(L=L, M=L // 2, N_R=1)
    sim = SimConfig(slots=200_000, seed=42)
    tracemalloc.start()
    try:
        stats = prepare([(p, cfg) for p in PROTOCOLS], sim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for out in stats.values() for a in out)
    assert peak - held <= 1.75 * 8 * simulate._BLOCK_DOUBLES


def test_prepare_holds_each_sparse_part_once():
    # tracemalloc's peak falls after a join of the sparse parts, so it
    # cannot see them held twice; the process's peak RSS can. A 4x1 stream
    # of 1M slots with crs and sfd-mmrs raises it by at most its statistics
    # and 4 MiB (1.65 MiB measured; the parts, 14 MB, held twice raised
    # it by 17.9 MiB). The child reads VmHWM, its own memory's peak: Linux
    # carries the spawning process's peak over exec into ru_maxrss
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs Linux's /proc/self/status")
    code = (
        "import re, relaylab.simulate as s\n"
        "from relaylab.channel import ChannelConfig\n"
        "def peak():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return int(re.search(r'VmHWM:\\s*(\\d+) kB', fh.read())[1]) << 10\n"
        "cfg = ChannelConfig(L=4, M=2, N_R=1)\n"
        "before = peak()\n"
        "stats = s.prepare([('crs', cfg), ('sfd-mmrs', cfg)], s.SimConfig(slots=1_000_000))\n"
        "print(peak() - before, sum(a.nbytes for out in stats.values() for a in out))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(simulate.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout
    grown, held = map(int, out.split())
    assert grown <= held + (4 << 20), (grown, held)


def _joined(cfg, sim):
    """_select_stats' sparse parts over the stream of (cfg, sim), built
    block by block, as _stream blocks it, from simulate.sample_gains and
    joined with np.concatenate: levels (slot, g, h), then collisions."""
    block = simulate._block_slots(cfg, [_select_stats])
    pieces = []
    for start in range(0, sim.slots, block):
        sr, rd = simulate.sample_gains(cfg, sim.seed, start, min(block, sim.slots - start))
        _, parts = _select_stats(np.ascontiguousarray(sr.T), np.ascontiguousarray(rd.T))
        pieces.append([a for slot, *values in parts for a in (slot + start, *values)])
    return [np.concatenate(arrays) for arrays in zip(*pieces)]


def _tied_sampler(cfg, seed, start, count):
    """sample_gains' shapes from _tied_gains' three-value sets, drawn anew
    for each block, so that a shorter stream's blocks begin alike."""
    sr, rd = (
        np.random.default_rng([seed, start, side]).integers(1, 4, size=(count, cfg.L))
        .astype(np.float64) for side in (0, 1)
    )
    return sr, np.sqrt(rd)


@pytest.mark.parametrize("L, slots, workers, tied", [
    # three-value gains collide on 31% of the slots, past the 1/L that
    # their arrays are allocated for: they grow
    (4, 150_000, 1, True),
    (4, 1, 1, False),
    # two relays have no levels
    (2, 50_000, 1, False),
    # 1409-slot blocks that finish out of order
    (20, 5_000, 3, False),
], ids=["tied-growth", "one-slot", "no-levels", "three-workers"])
def test_sparse_parts_in_place_match_joined_blocks(monkeypatch, L, slots, workers, tied):
    # the levels and collisions, appended in place block by block, equal
    # the blocks' parts joined in slot order, bit for bit
    monkeypatch.setattr(os, "cpu_count", lambda: workers)
    cfg = ChannelConfig(L=L, M=1, N_R=2 if L == 20 else 1)
    sim = SimConfig(slots=slots, seed=5, workers=workers)
    sample = _tied_sampler if tied else simulate.sample_gains
    monkeypatch.setattr(simulate, "sample_gains", sample)
    want = _joined(cfg, sim)
    block = simulate._block_slots(cfg, [_select_stats])
    finished = []

    def sampling(cfg, seed, start, count):
        # the pool's blocks sleep the longer the earlier they start
        if workers > 1 and start:
            time.sleep(0.04 * (4 - start // block))
        out = sample(cfg, seed, start, count)
        finished.append(start)
        return out

    monkeypatch.setattr(simulate, "sample_gains", sampling)
    stats = prepare([("crs", cfg)], sim)
    assert _same_bits(_rows(stats, "crs", cfg)[4:], want)
    if L == 2:
        assert want[0].size == 0 < want[3].size
    if workers > 1:
        assert len(finished) == 4 and finished != sorted(finished)
    if tied:
        assert want[3].size > simulate._entries(1 / L, slots)


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
    for build in (simulate._group_mins, simulate._group_beams):
        for m in range(1, 20):
            assert _same_bits(
                _whole(build, rows_sr, rows_rd, m), _slot_major.STATS[build](sr, rd, m)
            )
    assert _same_bits(
        _whole(simulate._beam_all, rows_sr, rows_rd), _slot_major.beam_all(sr, rd)
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
    # 1409-slot blocks, the last one partial; every M value of one stream
    (20, 2, 5_000, 1, 21, ()),
    (20, 2, 5_000, 2, 21, ()),
    # 6241-slot blocks; half the slots collide
    (2, 1, 70_000, 1, 10, (7,)),
    # 4519-slot blocks; a third of the slots have levels (at seed 10 no
    # two colliding slots meet across a boundary of these blocks)
    (4, 1, 70_000, 1, 11, (4, 7)),
    # 131076 draws a slot exceed a block's 2^17: one slot per block
    (3, 21846, 8, 1, 3, (7,)),
], ids=["partial-block", "two-workers", "sfd-boundary", "level-boundary", "one-slot-blocks"])
def test_streamed_statistics_match_whole_stream(
    monkeypatch, L, N_R, slots, workers, seed, straddle
):
    # one sampling pass builds every builder's statistics, adb's at every M
    # value, block by block, each once: df reads adb's group minima at its
    # M. Each must equal the slot-major reduction of the stream drawn in
    # one sample_gains call
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
    # group minima and beams at each M, the all-relay beam and the one
    # statistic crs and sfd-mmrs share
    assert len(stats) == 2 * (L - 1) + 2
    assert simulate._statistics("crs", cfg) == simulate._statistics("sfd-mmrs", cfg)
    sr, rd = sample_gains(cfg, seed, 0, slots)
    for (build, args), got in stats.items():
        assert _same_bits(got, _slot_major.STATS[build](sr, rd, *args))
    want = _slot_major.select_stats(sr, rd)
    # level and colliding slots (indices 4 and 7) on both sides of a block
    # boundary
    block = simulate._block_slots(cfg, [simulate._select_stats])
    assert all(_straddles(want[k], block) for k in straddle)


@pytest.fixture(scope="module")
def long_stream():
    """Every builder's statistics, adb's at every M value, on a 70000-slot
    stream of 4519-slot blocks where a third of the slots have levels and
    a quarter collide."""
    cfg = ChannelConfig(L=4, M=1, N_R=1)
    requests = [("adb", replace(cfg, M=m)) for m in range(1, cfg.L)]
    requests += [(p, cfg) for p in ("crs", "df", "sfd-mmrs")]
    sim = SimConfig(slots=70_000, seed=10)
    return cfg, requests, sim, prepare(requests, sim)


def _bits(result):
    """An estimate, or a value-only (value, gaps) pair, as its floats' bits."""
    if isinstance(result, ThroughputEstimate):
        return result.value.hex(), result.std_error.hex(), result.boundary_ambiguous
    value, gaps = result
    return value.hex(), [g.hex() for g in gaps]


@pytest.mark.parametrize(
    "cut", ["between-levels", "after-a-collision", "block-boundary", "after-tied-growth"]
)
def test_slot_count_matches_a_shorter_stream(monkeypatch, long_stream, cut):
    # the stream is counter-addressed, so its first n slots are a stream of
    # n slots: estimate(..., slots=n) of every label, with and without its
    # standard error, equals estimate on that stream, bit for bit
    cfg, requests, sim, stats = long_stream
    if cut == "after-tied-growth":
        # three-value gains collide on 31% of the slots: their arrays grew
        monkeypatch.setattr(simulate, "sample_gains", _tied_sampler)
        sim = SimConfig(slots=150_000, seed=5)
        stats = prepare(requests, sim)
    rows = _rows(stats, "crs", cfg)
    level, collide = rows[4], rows[7]
    if cut == "between-levels":
        # one past a level slot, with the next level slot further on
        k = np.flatnonzero(np.diff(level) > 2)[len(level) // 3]
        n = int(level[k]) + 1
        assert level[k] < n < level[k + 1] - 1
    elif cut == "after-a-collision":
        n = int(collide[len(collide) // 2]) + 1
    elif cut == "block-boundary":
        n = 2 * simulate._block_slots(cfg, [build for build, _ in stats])
    else:
        # one past the first collision beyond the entries first allocated
        first = simulate._entries(1 / cfg.L, sim.slots)
        assert collide.size > first
        n = int(collide[first]) + 1
    short = prepare(requests, replace(sim, slots=n))
    for label, at in requests + [(term, cfg) for term in TERMS]:
        for ps, pr in ((3.0, 2.0), (0.2, 5.0)):
            for std_error in (True, False):
                got = estimate(label, at, stats, ps, pr, std_error, slots=n)
                assert _bits(got) == _bits(estimate(label, at, short, ps, pr, std_error))


@pytest.mark.parametrize("label", list(simulate._TABLE))
def test_slot_count_must_lie_in_the_stream(stats, label):
    # a slot count from 1 to the stream's length is estimated; the whole
    # length is the default
    whole = estimate(label, CFG, stats, 3.0, 2.0)
    assert estimate(label, CFG, stats, 3.0, 2.0, slots=SIM.slots) == whole
    assert estimate(label, CFG, stats, 3.0, 2.0, slots=np.int64(1)).std_error == 0.0
    for slots in (0, -5, SIM.slots + 1, 2**70, 100.0, 0.5, math.nan):
        with pytest.raises(ValueError, match=rf"slots must be an integer in \[1, {SIM.slots}\]"):
            estimate(label, CFG, stats, 3.0, 2.0, std_error=False, slots=slots)


@pytest.mark.parametrize("L", [2, 4, 48])
def test_each_build_gives_what_its_layout_declares(L):
    # _stream allocates every output from _LAYOUT before sampling: one
    # block of each build must give the per-slot float64 rows and sparse
    # parts it declares, each part's slot indices intp and values float64
    cfg = ChannelConfig(L=L, M=L // 2, N_R=1)
    n = 3_000
    sr, rd = (np.ascontiguousarray(x.T) for x in sample_gains(cfg, 8, 0, n))
    builds = dict(key for label in simulate._TABLE for key in simulate._statistics(label, cfg))
    assert builds.keys() == simulate._LAYOUT.keys()
    for build, args in builds.items():
        rows, parts, _ = simulate._LAYOUT[build]
        per_slot, sparse = build(sr, rd, *args)
        assert [(a.dtype, a.shape) for a in per_slot] == [(np.float64, (n,))] * rows
        assert [len(part) for part in sparse] == [size for size, _ in parts]
        for slot, *values in sparse:
            assert slot.dtype == np.intp and slot.ndim == 1
            assert all(v.dtype == np.float64 and v.shape == slot.shape for v in values)


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
        _crs_snr(stats, a, b, s, best[s:s + chunk])
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
        assert estimate("crs", cfg, stats, ps, pr) == _slot_major.sim_crs(cfg, sim, ps, pr)[0]
        best = _crs_snrs(_rows(stats, "crs", cfg), ps, pr, 7)
        assert best.tobytes() == _slot_major.crs_snr(sr, rd, ps, pr).tobytes()


@pytest.mark.parametrize("n", [
    1, 2, 3, 7, 8, 9, 127, 128, 129,
    simulate._CHUNK - 1, simulate._CHUNK, simulate._CHUNK + 1, simulate._CHUNK + 8,
    12_500, 200_000, 777_777, 1_000_000,
])
def test_standard_error_in_place_matches_numpy_std(n):
    # probes never hold a slot-long rate row: they walk numpy's pairwise
    # summation tree over chunks. Each mean and error must still have the
    # bits of numpy's own x.mean() and x.std(ddof=1) / sqrt(n) over the
    # whole row x, so a numpy whose summation order changed fails here
    rng = np.random.default_rng(n)
    snr = rng.exponential(size=(2, n)) * [[1.0], [1e3]]

    def copy(stats, a, b, s, *rows):
        for row, x in zip(rows, stats):
            row[:] = x[s:s + row.size]

    got = simulate._means(copy, 2, snr, 1.0, 1.0, True)
    for (mean, se), x in zip(got, _rate(snr.copy())):
        want = x.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0
        assert (mean.hex(), se.hex()) == (float(x.mean()).hex(), float(want).hex())


def test_statistics_rows_at_four_relays(stats):
    # all four protocols' statistics at L=4 in slot-long rows: adb 4, df
    # the all-relay beam beside adb's group minima, crs and sfd-mmrs
    # together 4 dense and about 1.75 of levels and collisions
    rows = sum(a.nbytes for out in stats.values() for a in out) / (8 * SIM.slots)
    assert rows <= 11.5


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
    assert list(stats) == list(simulate._statistics("adb", cfg))
    terms = {t: estimate(t, cfg, stats, 3.0, 2.0) for t in labels}
    pair = {t: (e.value, e.std_error) for t, e in terms.items()}
    v1, _, _ = _min_of_means(pair["c11"], pair["c22"])
    v2, _, _ = _min_of_means(pair["c21"], pair["c12"])
    assert estimate("adb", cfg, stats, 3.0, 2.0).value == 0.5 * (v1 + v2)


@pytest.mark.parametrize("n", [40_000, 12_345], ids=["whole", "prefix"])
def test_df_reads_adbs_group_minima_bit_for_bit(n):
    # df's weakest relay is the weaker of adb's group minima: its estimate
    # and gaps from a df-only prepare, from a four-protocol one and from
    # the slot-major oracle, which takes the minimum over all relays, are
    # identical, on the whole stream and over its first n slots, which a
    # stream of n slots draws alike
    cfg = ChannelConfig(L=5, M=2, N_R=2)
    sim = SimConfig(slots=40_000, seed=7)
    oracle = _slot_major.simulators(replace(sim, slots=n))["df"]
    alone = prepare([("df", cfg)], sim)
    shared = prepare([(p, cfg) for p in PROTOCOLS], sim)
    for ps, pr in ((2.0, 1.5), (0.3, 7.0), (40.0, 0.05)):
        for std_error in (True, False):
            want = oracle(cfg, None, ps, pr, std_error=std_error)
            for stats in (alone, shared):
                assert estimate("df", cfg, stats, ps, pr, std_error=std_error, slots=n) == want


def test_df_at_another_m_reads_its_own_minima():
    # df requested at another M than adb's gets its own group minima, and
    # the same estimate: the weaker group minimum is the weakest relay at
    # any split
    cfg = ChannelConfig(L=5, M=1, N_R=1)
    other = replace(cfg, M=3)
    sim = SimConfig(slots=20_000, seed=3)
    stats = prepare([("adb", cfg), ("df", other)], sim)
    assert list(stats) == [
        (simulate._group_mins, (1,)), (simulate._group_beams, (1,)),
        (simulate._group_mins, (3,)), (simulate._beam_all, ()),
    ]
    at_m = prepare([("df", cfg)], sim)
    assert estimate("df", other, stats, 2.0, 1.5) == estimate("df", cfg, at_m, 2.0, 1.5)


@pytest.mark.parametrize("labels, rows", [
    (PROTOCOLS, 9),
    (("adb",) + TERMS, 4),
    (("df",), 3),
    (("crs", "sfd-mmrs"), 4),
], ids=["four-protocols", "adb-and-terms", "df-alone", "crs-and-sfd"])
def test_dense_rows_held_a_stream(labels, rows):
    # each statistic is held once, and no label holds a row it never
    # reads: at L=4, M=2 the four protocols hold 9 slot-long rows (group
    # minima 2, group beams 2, all-relay beam 1, crs and sfd-mmrs's 4)
    cfg = ChannelConfig(L=4, M=2, N_R=1)
    sim = SimConfig(slots=10_000, seed=1)
    stats = prepare([(label, cfg) for label in labels], sim)
    dense = sum(
        a.nbytes for (build, _), out in stats.items()
        for a in out[:simulate._LAYOUT[build][0]]
    )
    assert dense == rows * 8 * sim.slots


def test_each_build_runs_once_per_block(monkeypatch):
    # prepare over all eight labels on one cfg calls each distinct build
    # once per sampling block: df's minima are adb's, not built again
    calls, blocks, wrapped = Counter(), [], {}

    def counting(build):
        def counted(sr, rd, *args):
            calls[build, args] += 1
            return build(sr, rd, *args)
        return wrapped.setdefault(build, counted)

    builds = (simulate._group_mins, simulate._group_beams, simulate._beam_all, _select_stats)
    for build in builds:
        monkeypatch.setattr(simulate, build.__name__, counting(build))
    monkeypatch.setattr(simulate, "_TABLE", {
        label: (tuple((wrapped[b], f) for b, f in statistics), *rest)
        for label, (statistics, *rest) in simulate._TABLE.items()
    })
    monkeypatch.setattr(simulate, "_LAYOUT", {
        wrapped[b]: layout for b, layout in simulate._LAYOUT.items()
    })
    sample = simulate.sample_gains
    monkeypatch.setattr(
        simulate, "sample_gains", lambda *args: blocks.append(args) or sample(*args)
    )
    sim = SimConfig(slots=20_000, seed=3)
    stats = prepare([(label, CFG) for label in simulate._TABLE], sim)
    assert len(blocks) == -(-sim.slots // simulate._block_slots(CFG, [wrapped[_select_stats]])) > 1
    keys = zip(builds, ((CFG.M,), (CFG.M,), (), ()))
    assert calls == dict.fromkeys(keys, len(blocks))
    assert len(stats) == 4


@pytest.mark.parametrize("ps, pr", [(3.0, 2.0), (0.2, 5.0), (40.0, 0.5)])
def test_estimate_is_the_prelog_times_the_sum_of_pair_mins(stats, ps, pr):
    # each label gives its component (mean, se) pairs and a prelog; the
    # estimate is the prelog times the sum of the min of each consecutive
    # pair of parts (a lone part is its own min, never ambiguous), bit for
    # bit, and adb's four parts are the four term estimates. The value-only
    # form gives, beside the value, each pair's first mean minus its second
    shapes = {"adb": (4, 0.5), "crs": (1, 0.5), "df": (1, 0.5), "sfd-mmrs": (2, 1.0)}
    shapes |= dict.fromkeys(TERMS, (1, 1.0))
    assert list(simulate._TABLE) == list(shapes)
    for label, (_, parts, prelog) in simulate._TABLE.items():
        means = parts(_rows(stats, label, CFG), ps, pr, True)
        assert (len(means), prelog) == shapes[label]
        if len(means) == 1:
            mins = [(*means[0], False)]
        else:
            mins = [_min_of_means(a, b) for a, b in zip(means[::2], means[1::2])]
        value = prelog * sum(v for v, _, _ in mins)
        se = prelog * math.hypot(*(e for _, e, _ in mins))
        flag = any(f for _, _, f in mins)
        est = estimate(label, CFG, stats, ps, pr)
        assert (est.value.hex(), est.std_error.hex(), est.boundary_ambiguous) == (
            value.hex(), se.hex(), flag
        )
        only, gaps = estimate(label, CFG, stats, ps, pr, std_error=False)
        assert only.hex() == value.hex()
        want = [a[0] - b[0] for a, b in zip(means[::2], means[1::2])]
        assert [g.hex() for g in gaps] == [g.hex() for g in want]
    adb = simulate._TABLE["adb"][1](_rows(stats, "adb", CFG), ps, pr, True)
    terms = [estimate(t, CFG, stats, ps, pr) for t in TERMS]
    assert [(m.hex(), e.hex()) for m, e in adb] == [
        (t.value.hex(), t.std_error.hex()) for t in terms
    ]


@pytest.mark.parametrize("M", [1, 2, 3])
def test_adb_gaps_rise_in_the_power_ratio(M):
    # along a total-power budget, each of adb's pair gaps (broadcast mean
    # minus beamforming mean) rises strictly in ln(ps/pr), for equal and
    # unequal groups
    cfg = replace(CFG, M=M)
    stats = prepare([("adb", cfg)], SimConfig(slots=20_000, seed=3))
    gaps = []
    for u in np.linspace(math.log(1e-2), math.log(1e2), 401):
        pr = 10.0 / (math.exp(u) + cfg.L / 2)
        gaps.append(estimate("adb", cfg, stats, math.exp(u) * pr, pr, std_error=False)[1])
    gaps = np.array(gaps)
    assert gaps.shape == (401, 2)
    assert (np.diff(gaps, axis=0) > 0).all()
    assert (gaps[0] < 0).all() and (gaps[-1] > 0).all()


@pytest.mark.parametrize("L, N_R", [(12, 4), (4, 3)])
def test_probe_temporaries_stay_within_their_rows(L, N_R):
    # what one probe allocates above what is held after prepare does not
    # grow with the slots: every label walks them in chunks, in a few
    # _CHUNK-long float64 rows (adb 4.0 measured, crs up to 5.0 at 12
    # relays), at 150k slots as at 600k
    labels = list(simulate._TABLE)
    cfg = ChannelConfig(L=L, M=L // 2, N_R=N_R)
    rows = {}
    for slots in (150_000, 600_000):
        tracemalloc.start()
        try:
            stats = prepare([(label, cfg) for label in labels], SimConfig(slots=slots, seed=1))
            for label in labels:
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                estimate(label, cfg, stats, 2.0, 1.5)
                peak = tracemalloc.get_traced_memory()[1] - held
                rows[label, slots] = peak / (8 * simulate._CHUNK)
        finally:
            tracemalloc.stop()
        del stats
    assert max(rows.values()) <= 6, rows


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
