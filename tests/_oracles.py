"""Shared Monte Carlo oracles for the tests.

Everything here samples through numpy's default generator, a code path
disjoint from the package's counter-based sampler, so agreement between the
two is evidence rather than tautology.
"""

import math

import numpy as np


def min_erlang_samples(rng, n, group_size, shape, sigma2=1.0):
    """n draws of the minimum of group_size i.i.d. Erlang(shape) gains with
    per-stage mean 2*sigma2."""
    g = rng.standard_gamma(shape, size=(n, group_size))
    return g.min(axis=1) * (2.0 * sigma2)


def norm_sum_samples(rng, n, group_size, shape, sigma2=1.0):
    """n draws of the sum of group_size i.i.d. channel norms (sqrt of
    Erlang(shape) gains with per-stage mean 2*sigma2)."""
    g = rng.standard_gamma(shape, size=(n, group_size)) * (2.0 * sigma2)
    return np.sqrt(g).sum(axis=1)


def capacity_mean_se(gains, power):
    """Sample mean and SE of log2(1 + power * gain)."""
    rates = np.log2(1.0 + power * gains)
    n = rates.size
    return float(rates.mean()), float(rates.std(ddof=1) / math.sqrt(n))


def empirical_cdf(samples_sorted, grid):
    return np.searchsorted(samples_sorted, grid, side="right") / samples_sorted.size


def dkw_band(n, confidence=0.99):
    """Dvoretzky-Kiefer-Wolfowitz sup-norm band at the given confidence."""
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * n))


def select_sfd(sr_gain, rd_norm, ps, pr):
    """Receive and transmit relay of sfd-mmrs for one slot, by the scalar
    rule in plain Python: the best receive relay r1 and best transmit relay
    t1 are chosen independently; on a collision the weaker swap option is
    dropped, keeping (r2, t1) if min(g_sr[r2], g_rd[t1]) >= min(g_sr[r1],
    g_rd[t2]), else (r1, t2). Ties go to the lowest relay index."""
    g_sr = [ps * float(g) for g in sr_gain]
    g_rd = [pr * float(n) * float(n) for n in rd_norm]
    relays = range(len(g_sr))
    r1 = max(relays, key=g_sr.__getitem__)
    t1 = max(relays, key=g_rd.__getitem__)
    if r1 != t1:
        return r1, t1
    others = [i for i in relays if i != r1]
    r2 = max(others, key=g_sr.__getitem__)
    t2 = max(others, key=g_rd.__getitem__)
    if min(g_sr[r2], g_rd[t1]) >= min(g_sr[r1], g_rd[t2]):
        return r2, t1
    return r1, t2
