import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from relaylab.channel import (
    ChannelConfig,
    min_erlang_cdf,
    nakagami_sum_cdf,
    sample_gains,
)
from relaylab.simulate import SimConfig

from _oracles import (
    dkw_band,
    empirical_cdf,
    min_erlang_samples,
    nakagami_sum_pdf,
    norm_sum_samples,
)
from _slot_major import reference_gains, streamed_gains


def test_config_rejects_degenerate_groups():
    with pytest.raises(ValueError):
        ChannelConfig(L=4, M=0)
    with pytest.raises(ValueError):
        ChannelConfig(L=4, M=4)
    with pytest.raises(ValueError):
        ChannelConfig(L=1, M=1)


def test_config_rejects_bad_scalars():
    with pytest.raises(ValueError):
        ChannelConfig(L=4, M=2, N_R=0)
    with pytest.raises(ValueError):
        ChannelConfig(L=4, M=2, sigma_g2=0.0)
    with pytest.raises(ValueError):
        ChannelConfig(L=4, M=2, noise_d=-1.0)


def test_sample_state_single_antenna_mean():
    cfg = ChannelConfig(L=2, M=1, N_R=1, sigma_g2=1.0)
    sr, _ = sample_gains(cfg, seed=42, start_slot=0, count=1_000_000)
    assert abs(sr[:, 0].mean() - 2.0) <= 0.01


def test_sample_state_erlang_mean():
    cfg = ChannelConfig(L=2, M=1, N_R=3, sigma_g2=1.0)
    sr, _ = sample_gains(cfg, seed=42, start_slot=0, count=1_000_000)
    assert abs(sr[:, 1].mean() - 6.0) <= 0.02


def test_sample_marginals_within_three_se():
    cfg = ChannelConfig(L=3, M=1, N_R=2, sigma_g2=0.7, sigma_h2=1.3)
    n = 400_000
    sr, rd = sample_gains(cfg, seed=5, start_slot=0, count=n)
    for i in range(cfg.L):
        mean = sr[:, i].mean()
        se = sr[:, i].std(ddof=1) / math.sqrt(n)
        assert abs(mean - 2 * cfg.N_R * cfg.sigma_g2) <= 3 * se
        rd2 = rd[:, i] ** 2
        mean = rd2.mean()
        se = rd2.std(ddof=1) / math.sqrt(n)
        assert abs(mean - 2 * cfg.N_R * cfg.sigma_h2) <= 3 * se


def test_stream_determinism_and_partition_invariance():
    cfg = ChannelConfig(L=3, M=1, N_R=2)
    whole_sr, whole_rd = sample_gains(cfg, seed=99, start_slot=0, count=7)
    a_sr, a_rd = sample_gains(cfg, seed=99, start_slot=0, count=3)
    b_sr, b_rd = sample_gains(cfg, seed=99, start_slot=3, count=4)
    assert np.array_equal(np.vstack([a_sr, b_sr]), whole_sr)
    assert np.array_equal(np.vstack([a_rd, b_rd]), whole_rd)

    for i in range(7):
        sr, rd = sample_gains(cfg, seed=99, start_slot=i, count=1)
        assert np.array_equal(sr[0], whole_sr[i])
        assert np.array_equal(rd[0], whole_rd[i])

    other_sr, _ = sample_gains(cfg, seed=100, start_slot=0, count=7)
    assert not np.array_equal(other_sr, whole_sr)


STREAM_HASHES = Path(__file__).parent.parent / "bench" / "reference" / "stream_hashes.json"


def test_stream_matches_frozen_digests():
    # the digests the benchmark's stream guard checks, recomputed the same
    # way, so a change to any sampled bit fails here too
    cases = json.loads(STREAM_HASHES.read_text())
    assert cases
    for case in cases:
        sr, rd = sample_gains(
            ChannelConfig(**case["cfg"]), case["seed"], case["slot"], case["count"]
        )
        h = hashlib.sha256()
        for a in (sr, rd):
            h.update(repr(a.shape).encode())
            h.update(a.astype("<f8", order="C", copy=False).tobytes())
        assert h.hexdigest() == case["sha256"], (
            f"seed {case['seed']} slot {case['slot']} count {case['count']}"
            f" cfg {case['cfg']}"
        )


@pytest.mark.parametrize("L, N_R, start, count", [
    # 6 and 30 words a slot, padded to 8 and 32
    (3, 1, 0, 20_000),
    (5, 3, 101, 3_000),
    # numpy's pairwise sum: left to right below 8 antennas, eight
    # accumulators from 8 to 128, halves above
    (2, 1, 0, 30_000),
    (2, 7, 9, 5_000),
    (2, 8, 0, 5_000),
    (3, 9, 77, 3_000),
    (2, 16, 0, 3_000),
    (2, 129, 5, 300),
    # a partial block at an offset: fewer slots than prepare's 5461 a block
    (4, 3, 2 * 5461 + 17, 1_000),
], ids=["3-1-padded", "5-3-padded", "2-1", "2-7", "2-8", "3-9", "2-16", "2-129",
        "partial-block"])
def test_sampler_matches_plain_numpy(L, N_R, start, count):
    cfg = ChannelConfig(L=L, M=1, N_R=N_R, sigma_g2=0.7, sigma_h2=1.3)
    got = sample_gains(cfg, 2020, start, count)
    want = reference_gains(cfg, 2020, start, count)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("L, N_R, slots, workers", [
    # 24 draws a slot: 5461-slot blocks, the last one partial
    (4, 3, 12_000, 1),
    (4, 3, 12_000, 2),
    # 131076 draws a slot exceed a block's 2^17: one slot per block
    (2, 32769, 3, 1),
], ids=["partial-block", "two-workers", "one-slot-blocks"])
def test_sample_blocks_match_one_call(monkeypatch, L, N_R, slots, workers):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = ChannelConfig(L=L, M=1, N_R=N_R)
    want = sample_gains(cfg, 13, 0, slots)
    got = streamed_gains(cfg, SimConfig(slots=slots, seed=13, workers=workers))
    for g, w in zip(got, want):
        assert g.tobytes() == np.ascontiguousarray(w.T).tobytes()


def test_stream_seed_validation():
    for seed in (-3, 2**64):
        with pytest.raises(ValueError):
            sample_gains(ChannelConfig(L=2, M=1), seed=seed, start_slot=0, count=1)
    for start, count in ((-1, 1), (0, 0)):
        with pytest.raises(ValueError):
            sample_gains(ChannelConfig(L=2, M=1), seed=1, start_slot=start, count=count)


def test_slot_autocorrelation_negligible():
    cfg = ChannelConfig(L=2, M=1, N_R=2)
    sr, _ = sample_gains(cfg, seed=42, start_slot=0, count=100_000)
    x = sr[:, 0]
    x = x - x.mean()
    r1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
    assert abs(r1) <= 0.01


def test_erlang_cdf_values():
    # a single Erlang gain is the minimum over a group of one
    assert min_erlang_cdf(0.0, 1, 1, 1.0) == 0.0
    assert min_erlang_cdf(2.0, 1, 1, 1.0) == pytest.approx(1 - math.exp(-1), abs=1e-12)
    assert min_erlang_cdf(2.0, 1, 2, 1.0) == pytest.approx(1 - 2 * math.exp(-1), abs=1e-12)
    with pytest.raises(ValueError):
        min_erlang_cdf(-0.1, 1, 1, 1.0)


def test_min_erlang_cdf_values():
    assert min_erlang_cdf(0.0, 2, 1, 1.0) == 0.0
    assert min_erlang_cdf(1.0, 2, 1, 1.0) == pytest.approx(1 - math.exp(-1), abs=1e-12)
    with pytest.raises(ValueError):
        min_erlang_cdf(-1.0, 2, 1, 1.0)


def test_min_erlang_cdf_against_independent_sampler():
    rng = np.random.default_rng(7)
    z = np.sort(min_erlang_samples(rng, 10_000_000, 2, 3))
    target = min_erlang_cdf(4.0, 2, 3, 1.0)
    emp = empirical_cdf(z, np.array([4.0]))[0]
    se = math.sqrt(target * (1 - target) / z.size)
    assert abs(emp - target) <= 3 * se


def test_min_erlang_cdf_dkw_band_package_sampler():
    cfg = ChannelConfig(L=4, M=2, N_R=3)
    n = 1_000_000
    sr, _ = sample_gains(cfg, seed=42, start_slot=0, count=n)
    z = np.sort(sr[:, : cfg.M].min(axis=1))
    grid = np.quantile(z, np.linspace(0.02, 0.98, 20))
    emp = empirical_cdf(z, grid)
    ref = np.array([min_erlang_cdf(float(t), cfg.M, cfg.N_R, 1.0) for t in grid])
    assert np.abs(emp - ref).max() <= dkw_band(n, 0.99)


def test_cdfs_monotone_bounded():
    grid = np.linspace(0.0, 40.0, 200)
    for fn in (
        lambda t: min_erlang_cdf(float(t), 1, 3, 0.8),
        lambda t: min_erlang_cdf(float(t), 3, 2, 1.2),
        lambda t: nakagami_sum_cdf(float(t), 2, 3, 1.0),
    ):
        vals = np.array([fn(t) for t in grid])
        assert (vals >= 0).all() and (vals <= 1).all()
        assert (np.diff(vals) >= 0).all()


def test_nakagami_sum_pdf_single_group_exact():
    # at group_size=1 the density is the exact channel-norm law, the
    # push-forward of the Erlang gain law through sqrt
    shape, sigma2 = 3, 1.0
    for z in (0.3, 1.0, 2.5):
        step = 1e-6
        exact = (min_erlang_cdf((z + step) ** 2, 1, shape, sigma2)
                 - min_erlang_cdf((z - step) ** 2, 1, shape, sigma2)) / (2 * step)
        assert nakagami_sum_pdf(z, 1, shape, sigma2) == pytest.approx(exact, rel=1e-6)


def test_nakagami_sum_pdf_normalizes():
    for g in (1, 2, 3):
        for s in (1, 2, 3):
            total, _ = integrate.quad(
                lambda z: nakagami_sum_pdf(z, g, s, 1.0), 0.0, np.inf
            )
            assert abs(total - 1.0) <= 1e-8


def test_nakagami_sum_second_moment_gap():
    # the approximation's second moment is 8 at group=2, shape=1; the true
    # value is 4+pi, a documented ~12% overshoot
    rng = np.random.default_rng(11)
    z = norm_sum_samples(rng, 10_000_000, 2, 1)
    emp = float((z**2).mean())
    assert emp == pytest.approx(4 + math.pi, rel=2e-3)
    model, _ = integrate.quad(
        lambda t: t * t * nakagami_sum_pdf(t, 2, 1, 1.0), 0.0, np.inf
    )
    assert model == pytest.approx(8.0, abs=1e-6)
    assert (model - emp) / emp == pytest.approx(0.1202, abs=0.01)


def test_nakagami_sum_cdf_values_and_pdf_consistency():
    assert nakagami_sum_cdf(0.0, 2, 1, 1.0) == 0.0
    assert nakagami_sum_cdf(math.sqrt(2.0), 1, 1, 1.0) == pytest.approx(
        1 - math.exp(-1), abs=1e-12
    )
    with pytest.raises(ValueError):
        nakagami_sum_cdf(-0.5, 1, 1, 1.0)
    for g, s in ((1, 2), (2, 1), (3, 3)):
        for z in (0.5, 1.5, 3.0, 6.0):
            step = 1e-5
            diff = (nakagami_sum_cdf(z + step, g, s, 1.0)
                    - nakagami_sum_cdf(z - step, g, s, 1.0)) / (2 * step)
            pdf = nakagami_sum_pdf(z, g, s, 1.0)
            if pdf > 1e-12:
                # the quotient inherits ~eps/(2*step) cancellation noise where
                # the cdf sits near 1, hence the absolute floor beside the
                # relative band
                assert diff == pytest.approx(pdf, rel=1e-6, abs=5e-11)
