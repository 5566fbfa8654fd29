"""Slot-major reference estimators for the four protocols.

The package builds each protocol's statistics block by block, from
relay-major blocks of shape (L, block slots), reducing over relays row by
row, and never holds the whole stream's gains. These oracles draw the same
stream slot-major, with shape (slots, L), in one sample_gains call, and
reduce along axis 1 with plain numpy, the layout and order the streamed
statistics must reproduce bit for bit.
"""

import math
from functools import lru_cache

import numpy as np

from relaylab import simulate
from relaylab.channel import ChannelConfig, sample_gains
from relaylab.simulate import (
    ThroughputEstimate,
    _mean_se,
    _min_of_means,
    _rate,
)


@lru_cache(maxsize=1)
def _stream(L, N_R, sigma_g2, sigma_h2, slots, seed):
    cfg = ChannelConfig(L=L, M=1, N_R=N_R, sigma_g2=sigma_g2, sigma_h2=sigma_h2)
    return sample_gains(cfg, seed, 0, slots)


def _gains(cfg, sim):
    return _stream(cfg.L, cfg.N_R, cfg.sigma_g2, cfg.sigma_h2, sim.slots, sim.seed)


def _whole_gains(sr, rd):
    """A statistic that keeps a relay-major block's gains as they are."""
    return (sr, rd), ()


def streamed_gains(cfg, sim):
    """The (L, slots) gains as the package's block streaming assembles
    statistics, through a statistic that keeps every block whole (the
    package builds none that does)."""
    key = (_whole_gains, ())
    return simulate._stream(cfg, sim, [key])[key]


def _estimate(mean_se_pair):
    mean, se = mean_se_pair
    return ThroughputEstimate(mean, se, "monte-carlo")


def adb_stats(sr, rd, m):
    return (
        sr[:, :m].min(axis=1),
        rd[:, :m].sum(axis=1) ** 2,
        sr[:, m:].min(axis=1),
        rd[:, m:].sum(axis=1) ** 2,
    )


def df_stats(sr, rd):
    return sr.min(axis=1), rd.sum(axis=1) ** 2


def sfd_stats(sr, rd):
    """Second-best relays found by masking the best with -inf and taking
    argmax again, on full copies of both gain arrays."""
    rows = np.arange(sr.shape[0])
    r1 = sr.argmax(axis=1)
    t1 = rd.argmax(axis=1)
    masked = sr.copy()
    masked[rows, r1] = -np.inf
    r2 = masked.argmax(axis=1)
    masked = rd.copy()
    masked[rows, t1] = -np.inf
    t2 = masked.argmax(axis=1)
    return (
        sr[rows, r1],
        sr[rows, r2],
        rd[rows, t1] ** 2,
        rd[rows, t2] ** 2,
        r1 == t1,
    )


def sim_adb(cfg, sim, ps, pr):
    min1, beam1, min2, beam2 = adb_stats(*_gains(cfg, sim), cfg.M)
    a = ps / cfg.noise_r
    b = pr / cfg.noise_d
    e11 = _mean_se(_rate(a * min1))
    e22 = _mean_se(_rate(b * beam1))
    e21 = _mean_se(_rate(a * min2))
    e12 = _mean_se(_rate(b * beam2))
    v1, s1, amb1 = _min_of_means(e11, e22)
    v2, s2, amb2 = _min_of_means(e21, e12)
    return ThroughputEstimate(
        value=0.5 * (v1 + v2),
        std_error=0.5 * math.hypot(s1, s2),
        method="monte-carlo",
        boundary_ambiguous=amb1 or amb2,
    )


def sim_crs(cfg, sim, ps, pr):
    sr, rd = _gains(cfg, sim)
    best = np.minimum((ps / cfg.noise_r) * sr, (pr / cfg.noise_d) * rd**2).max(axis=1)
    return _estimate(_mean_se(0.5 * _rate(best)))


def sim_df(cfg, sim, ps, pr):
    min_all, beam_all = df_stats(*_gains(cfg, sim))
    gain = np.minimum((ps / cfg.noise_r) * min_all, (pr / cfg.noise_d) * beam_all)
    return _estimate(_mean_se(0.5 * _rate(gain)))


def sim_sfd_mmrs(cfg, sim, ps, pr):
    sr1, sr2, rd1, rd2, collide = sfd_stats(*_gains(cfg, sim))
    a = ps / cfg.noise_r
    b = pr / cfg.noise_d
    g_sr1, g_sr2, g_rd1, g_rd2 = a * sr1, a * sr2, b * rd1, b * rd2
    demote_recv = collide & (np.minimum(g_sr2, g_rd1) >= np.minimum(g_sr1, g_rd2))
    demote_trans = collide & ~demote_recv
    c_sr = _mean_se(_rate(np.where(demote_recv, g_sr2, g_sr1)))
    c_rd = _mean_se(_rate(np.where(demote_trans, g_rd2, g_rd1)))
    value, se, ambiguous = _min_of_means(c_sr, c_rd)
    return ThroughputEstimate(value, se, "monte-carlo", ambiguous)


def simulators(sim):
    """The oracles on the fading stream of sim, with
    relaylab.simulate.estimate's calling convention: the prepared
    statistics passed in are ignored, and with std_error false only the
    value is returned."""

    def bind(sim_fn):
        def call(cfg, stats, ps, pr, std_error=True):
            est = sim_fn(cfg, sim, ps, pr)
            return est if std_error else est.value

        return call

    return {
        "adb": bind(sim_adb),
        "crs": bind(sim_crs),
        "df": bind(sim_df),
        "sfd-mmrs": bind(sim_sfd_mmrs),
    }
