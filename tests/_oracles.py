"""Shared oracles for the tests.

The samplers here draw through numpy's default generator, a code path
disjoint from the package's counter-based sampler, so agreement between the
two is evidence rather than tautology. The rest are plain-Python references
the package itself has no use for: the Nakagami density behind
nakagami_sum_cdf, the scalar sfd-mmrs rule, and a CSV reader.
"""

import csv
import math

import numpy as np

from relaylab.experiments import CSV_COLUMNS, SweepRow


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


def nakagami_sum_pdf(z, group_size, shape, sigma2):
    """Moment-matched Nakagami density approximating a sum of group_size
    i.i.d. channel norms (each Nakagami with shape antennas), the density
    of relaylab.channel.nakagami_sum_cdf. Exact at group_size = 1.
    pdf(z) = 2 mu^nm z^(2nm-1) e^(-mu z^2)/(nm-1)! with nm = shape*group_size
    and mu = 1/(2*group_size*sigma2)."""
    if z == 0.0:
        return 0.0
    nm = shape * group_size
    mu = 1.0 / (2.0 * group_size * sigma2)
    return math.exp(
        math.log(2.0)
        + nm * math.log(mu)
        + (2 * nm - 1) * math.log(z)
        - mu * z * z
        - math.lgamma(nm)
    )


def parse_csv(path):
    """Read a sweep CSV back into SweepRows (exact round trip of
    relaylab.experiments.write_csv)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames or ()) == CSV_COLUMNS
        return [
            SweepRow(
                protocol=rec["protocol"],
                L=int(rec["L"]),
                M=int(rec["M"]),
                N_R=int(rec["N_R"]),
                snr_db=float(rec["snr_db"]),
                ps=float(rec["ps"]),
                pr=float(rec["pr"]),
                throughput=float(rec["throughput"]),
                std_error=float(rec["std_error"]),
                method=rec["method"],
            )
            for rec in reader
        ]
