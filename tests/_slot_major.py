"""Slot-major reference estimators for the four protocols.

The package builds each protocol's statistics block by block, from
relay-major blocks of shape (L, block slots), reducing over relays row by
row, and never holds the whole stream's gains. These oracles draw the same
stream slot-major, with shape (slots, L), in one sample_gains call, and
reduce along axis 1 with plain numpy, the layout and order the streamed
statistics must reproduce bit for bit, and take each whole rate row's mean
and standard error from numpy's own x.mean() and x.std(ddof=1), which the
package's chunked probes must reproduce bit for bit. Each sim_* gives
(estimate, pair gaps): per min pair, its source-side mean minus its
relay-side one.
"""

import math
from functools import lru_cache
from unittest import mock

import numpy as np
from numpy.random import Philox

from relaylab import simulate
from relaylab.channel import ChannelConfig, sample_gains
from relaylab.simulate import ThroughputEstimate, _min_of_means, _rate


def reference_gains(cfg, seed, start_slot, count):
    """sample_gains as plain numpy writes it: each slot's words padded to a
    whole Philox tick, the first 2*L*N_R of them copied to 53-bit uniforms,
    their logs summed over each link's N_R antennas by numpy's own
    reduction, then negated and scaled. The package converts each block in
    its own buffer and sums antennas row by row; both must give these bits."""
    need = 2 * cfg.L * cfg.N_R
    per_slot = -(-need // 4) * 4
    bits = Philox(key=seed, counter=[start_slot * (per_slot // 4), 0, 0, 0])
    raw = bits.random_raw(count * per_slot).reshape(count, per_slot) >> 11
    u = (raw[:, :need].astype(np.float64) + 0.5) * 2.0**-53
    links = np.log(u).reshape(count, 2 * cfg.L, cfg.N_R).sum(axis=-1)
    sr = links[:, :cfg.L] * (-2.0 * cfg.sigma_g2)
    return sr, np.sqrt(links[:, cfg.L:] * (-2.0 * cfg.sigma_h2))


@lru_cache(maxsize=1)
def _stream(L, N_R, sigma_g2, sigma_h2, slots, seed):
    cfg = ChannelConfig(L=L, M=1, N_R=N_R, sigma_g2=sigma_g2, sigma_h2=sigma_h2)
    return sample_gains(cfg, seed, 0, slots)


def _gains(cfg, sim):
    return _stream(cfg.L, cfg.N_R, cfg.sigma_g2, cfg.sigma_h2, sim.slots, sim.seed)


def _whole_gains(sr, rd):
    """A statistic that keeps a relay-major block's gains as they are, a
    row per relay and side."""
    return (*sr, *rd), ()


def streamed_gains(cfg, sim):
    """The (L, slots) gains as the package's block streaming assembles
    statistics, through a statistic that keeps every block whole (the
    package builds none that does), laid out in _LAYOUT while it runs."""
    key = (_whole_gains, ())
    with mock.patch.dict(simulate._LAYOUT, {_whole_gains: (2 * cfg.L, (), (0, 0))}):
        rows = simulate._stream(cfg, sim, [key])[key]
    return np.stack(rows[:cfg.L]), np.stack(rows[cfg.L:])


def _mean_se(x):
    """numpy's own mean of the rate row x and its standard error,
    x.std(ddof=1) / sqrt(n); a lone slot's error is 0.0, as the package
    gives."""
    n = x.size
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0


def _estimate(mean_se_pair):
    mean, se = mean_se_pair
    return ThroughputEstimate(mean, se, "monte-carlo"), ()


def group_mins(sr, rd, m):
    return sr[:, :m].min(axis=1), sr[:, m:].min(axis=1)


def group_beams(sr, rd, m):
    return rd[:, :m].sum(axis=1) ** 2, rd[:, m:].sum(axis=1) ** 2


def beam_all(sr, rd):
    return (rd.sum(axis=1) ** 2,)


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


def select_stats(sr, rd):
    """crs's and sfd-mmrs's shared statistics in the package's layout: the
    (g, h) pairs of the best source-side relay r1 and the best
    destination-side relay t1, the other Pareto-front relays' (slot, g, h)
    and the collisions' (slot, second-best g, second-best h). The front is
    found by sorting each slot's relays by g, then h, descending, then
    index: a relay is on it when its h beats every h sorted before it."""
    rows = np.arange(sr.shape[0])
    r1 = sr.argmax(axis=1)
    t1 = rd.argmax(axis=1)
    h = rd**2
    relays = np.broadcast_to(np.arange(sr.shape[1]), sr.shape)
    order = np.lexsort((relays, -h, -sr), axis=1)
    h_sorted = np.take_along_axis(h, order, axis=1)
    above = h_sorted[:, 1:] > np.maximum.accumulate(h_sorted, axis=1)[:, :-1]
    front = np.zeros(sr.shape, dtype=bool)
    np.put_along_axis(front, order, np.column_stack([np.ones(len(rows), bool), above]), axis=1)
    front[rows, r1] = front[rows, t1] = False
    slot, relay = np.nonzero(front)
    _, sr2, _, rd2, collide = sfd_stats(sr, rd)
    collide = np.flatnonzero(collide)
    return (
        sr[rows, r1], h[rows, r1], sr[rows, t1], h[rows, t1],
        slot, sr[slot, relay], h[slot, relay],
        collide, sr2[collide], rd2[collide],
    )


# the package's builds -> their oracles, which give the same arrays from
# the slot-major gains
STATS = {
    simulate._group_mins: group_mins,
    simulate._group_beams: group_beams,
    simulate._beam_all: beam_all,
    simulate._select_stats: select_stats,
}


def crs_snr(sr, rd, a, b):
    """Per slot, the SNR of the strongest end-to-end min link over every
    relay."""
    return np.minimum(a * sr, b * rd**2).max(axis=1)


def sim_adb(cfg, sim, ps, pr):
    sr, rd = _gains(cfg, sim)
    (min1, min2), (beam1, beam2) = group_mins(sr, rd, cfg.M), group_beams(sr, rd, cfg.M)
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
    ), (e11[0] - e22[0], e21[0] - e12[0])


def sim_crs(cfg, sim, ps, pr):
    best = crs_snr(*_gains(cfg, sim), ps / cfg.noise_r, pr / cfg.noise_d)
    return _estimate(_mean_se(0.5 * _rate(best)))


def sim_df(cfg, sim, ps, pr):
    # the minimum over all relays, not over the group minima the package reads
    sr, rd = _gains(cfg, sim)
    a, b = ps / cfg.noise_r, pr / cfg.noise_d
    gain = np.minimum(a * sr.min(axis=1), b * rd.sum(axis=1) ** 2)
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
    return ThroughputEstimate(value, se, "monte-carlo", ambiguous), (c_sr[0] - c_rd[0],)


def simulators(sim):
    """The oracles on the fading stream of sim, with
    relaylab.simulate.estimate's calling convention: the prepared
    statistics and the memo passed in are ignored, and with std_error false
    only the value and the pair gaps are returned."""

    def bind(sim_fn):
        def call(cfg, stats, ps, pr, std_error=True, memo=None):
            est, gaps = sim_fn(cfg, sim, ps, pr)
            return est if std_error else (est.value, gaps)

        return call

    return {
        "adb": bind(sim_adb),
        "crs": bind(sim_crs),
        "df": bind(sim_df),
        "sfd-mmrs": bind(sim_sfd_mmrs),
    }
