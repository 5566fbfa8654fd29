import itertools
import math
import sys
import time
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from relaylab.analytic import (
    _box_bytes,
    _box_counts,
    adb_closed,
    adb_weights,
    c11_closed,
    c22_closed,
)
from relaylab.channel import ChannelConfig, min_erlang_cdf, nakagami_sum_cdf, sample_gains
from relaylab.simulate import SimConfig, _combine, estimate, prepare

from _oracles import capacity_mean_se, min_erlang_samples, norm_sum_samples

mp.mp.dps = 30

LN2 = math.log(2.0)


def test_single_rayleigh_value():
    # one relay, one antenna: E[log2(1+10 t)], t ~ exponential mean 2,
    # equals e^0.05 E1(0.05)/ln 2
    expect = float(mp.e**mp.mpf("0.05") * mp.e1(mp.mpf("0.05"))) / LN2
    assert c11_closed(10.0, 1, 1, 1.0) == pytest.approx(expect, rel=1e-12)
    assert c22_closed(10.0, 1, 1, 1.0) == pytest.approx(expect, rel=1e-12)
    assert c11_closed(10.0, 1, 1, 1.0) == pytest.approx(3.74297180, abs=5e-8)


def test_broadcast_term_matches_mc():
    rng = np.random.default_rng(21)
    for group, shape, power in ((2, 3, 10.0), (3, 2, 5.0), (1, 4, 0.5), (3, 1, 100.0)):
        z = min_erlang_samples(rng, 1_000_000, group, shape)
        mean, se = capacity_mean_se(z, power)
        assert abs(c11_closed(power, group, shape, 1.0) - mean) <= 3 * se


def test_broadcast_term_nonunit_sigma():
    rng = np.random.default_rng(22)
    z = min_erlang_samples(rng, 1_000_000, 2, 2, sigma2=0.4)
    mean, se = capacity_mean_se(z, 3.0)
    assert abs(c11_closed(3.0, 2, 2, 0.4) - mean) <= 3 * se


def test_beamforming_term_exact_at_single_relay():
    rng = np.random.default_rng(23)
    for shape in (1, 2, 3):
        z = norm_sum_samples(rng, 1_000_000, 1, shape) ** 2
        mean, se = capacity_mean_se(z, 10.0)
        assert abs(c22_closed(10.0, 1, shape, 1.0) - mean) <= 3 * se


def test_beamforming_term_approximation_gap():
    rng = np.random.default_rng(24)
    z = norm_sum_samples(rng, 1_000_000, 2, 3) ** 2
    mean, _ = capacity_mean_se(z, 5.0)
    assert abs(c22_closed(5.0, 2, 3, 1.0) - mean) / mean <= 0.05
    z = norm_sum_samples(rng, 1_000_000, 3, 1) ** 2
    mean, _ = capacity_mean_se(z, 0.1)
    assert abs(c22_closed(0.1, 3, 1, 1.0) - mean) / mean <= 0.12


@pytest.mark.parametrize(
    "M, N_R, b",
    [(2, 1, 0.1), (2, 1, 10.0), (3, 2, 1.0), (4, 1, 1.0), (2, 3, 10.0), (1, 2, 1.0)],
)
def test_beamforming_term_is_the_mean_of_a_per_slot_bound(M, N_R, b):
    # by Cauchy-Schwarz (sum_i r_i)^2 <= M * sum_i r_i^2 in every slot, and
    # c22_closed is the exact mean of log2(1 + b * M * sum_i r_i^2): an
    # upper bound on the beam rate, not a moment match of the beam
    cfg = ChannelConfig(L=M + 1, M=M, N_R=N_R)
    _, rd = sample_gains(cfg, 7, 0, 200_000)
    norms = rd[:, :M]
    beam = norms.sum(axis=1) ** 2
    bound = M * (norms**2).sum(axis=1)
    assert np.all(beam <= bound * (1 + 8 * np.finfo(float).eps))
    mean, se = capacity_mean_se(bound, b)
    assert abs(mean - c22_closed(b, M, N_R, 1.0)) <= 3 * se


def test_terms_monotone_in_power():
    powers = np.geomspace(1e-2, 1e3, 20)
    for fn, (g, s) in (
        (c11_closed, (2, 3)), (c11_closed, (3, 1)),
        (c22_closed, (2, 3)), (c22_closed, (1, 4)),
    ):
        vals = [fn(float(p), g, s, 1.0) for p in powers]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_terms_vanish_at_zero_power():
    assert c11_closed(1e-9, 2, 3, 1.0) < 1e-6
    assert c22_closed(1e-9, 2, 3, 1.0) < 1e-6


def test_numerical_stability_extremes():
    boxes = [(1, 24), (2, 12), (3, 8), (4, 6), (6, 4), (8, 3), (12, 2), (24, 1)]
    for group, shape in boxes:
        for power in (1e-3, 1.0, 1e4):
            for fn in (c11_closed, c22_closed):
                v = fn(power, group, shape, 1.0)
                assert math.isfinite(v) and v >= 0.0, (fn.__name__, group, shape, power)


def test_out_of_range_argument_is_arithmetic_error():
    # 2*power*sigma2 overflows (x = 0), underflows far enough that x = inf,
    # or underflows to 0 itself, which must not become a ZeroDivisionError
    for name, fn in (("c11", c11_closed), ("c22", c22_closed)):
        for power, sigma2 in ((1e308, 1.0), (1e-310, 1e-10), (5e-324, 1e-10)):
            with pytest.raises(ArithmeticError, match=f"{name} argument .* out of range"):
                fn(power, 1, 1, sigma2)


def test_box_counts_match_brute_force():
    # N_p sums p!/prod(r_i!) over box fillings (r_1..r_g), each r_i < s
    for g in range(1, 5):
        for s in range(1, 5):
            expect = [0] * (g * (s - 1) + 1)
            for fill in itertools.product(range(s), repeat=g):
                p = sum(fill)
                expect[p] += math.factorial(p) // math.prod(map(math.factorial, fill))
            assert _box_counts(g, s) == expect, (g, s)


@pytest.mark.parametrize("g, s", [(16, 16), (2, 200), (200, 2), (6, 4)])
def test_box_bytes_bounds_traced_peak(g, s):
    # the exact-count table's estimate bounds what tracemalloc sees it hold,
    # and overcharges it at most threefold
    tracemalloc.start()
    try:
        _box_counts(g, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _box_bytes(g, s) <= 3 * peak


def _c11_weights(g, s):
    # [y^p](sum_{r<s} y^r/r!)^g * p!/g^p from an ordinary power of the
    # integer polynomial sum_r (s-1)!/r! y^r, scaled back exactly
    base = [math.factorial(s - 1) // math.factorial(r) for r in range(s)]
    coef = [1]
    for _ in range(g):
        nxt = [0] * (len(coef) + s - 1)
        for i, c in enumerate(coef):
            for r, b in enumerate(base):
                nxt[i + r] += c * b
        coef = nxt
    return [
        mp.mpf(c * math.factorial(p)) / (math.factorial(s - 1) ** g * g**p)
        for p, c in enumerate(coef)
    ]


def test_c11_matches_mpmath_up_to_sixteen():
    powers = (1e-3, 1e-1, 10.0, 1e4)
    worst = 0.0
    # mpmath's E_n loses digits at 30 places for orders ~200 near x ~ 80
    with mp.workdps(60):
        for g in range(1, 17):
            scaled = {}
            for power in powers:
                x = mp.mpf(g) / (2 * mp.mpf(power))
                scaled[power] = [mp.exp(x) * mp.expint(n, x) for n in range(1, 15 * g + 2)]
            for s in range(1, 17):
                weights = _c11_weights(g, s)
                for power in powers:
                    ref = mp.fsum(w * e for w, e in zip(weights, scaled[power])) / mp.log(2)
                    got = c11_closed(power, g, s, 1.0)
                    worst = max(worst, float(abs(got - ref) / ref))
    assert worst <= 1e-12, worst


def test_c11_matches_quadrature():
    # the counting expansion against the survival integral itself
    for power, g, s in ((0.5, 3, 2), (20.0, 2, 4), (3.0, 5, 3)):
        def integrand(z):
            tail = sum((z / 2) ** r / mp.factorial(r) for r in range(s))
            return (mp.exp(-z / 2) * tail) ** g * power / (1 + power * z)
        ref = mp.quad(integrand, [0, 1, 10, mp.inf]) / mp.log(2)
        assert c11_closed(power, g, s, 1.0) == pytest.approx(float(ref), rel=1e-12)


def test_c11_sixteen_by_sixteen_wall_bound():
    # generous bound: the count build is O(g^2 s^2), while enumerating
    # compositions would take C(31, 15) ~ 3e8 terms here
    start = time.perf_counter()
    value = c11_closed(10.0, 16, 16, 1.0)
    assert time.perf_counter() - start < 1.0
    assert math.isfinite(value) and value > 0.0


def test_power_validation():
    for fn in (c11_closed, c22_closed):
        with pytest.raises(ValueError):
            fn(0.0, 2, 2, 1.0)
        with pytest.raises(ValueError):
            fn(-1.0, 2, 2, 1.0)
    with pytest.raises(ValueError):
        c11_closed(1.0, 0, 2, 1.0)
    with pytest.raises(ValueError):
        c22_closed(1.0, 2, 2, 0.0)


@pytest.mark.parametrize("fn, scalar, bad, message", [
    (c11_closed, 1.0, 0.0, "power must be > 0"),
    (c22_closed, 1.0, -1.0, "power must be > 0"),
    (min_erlang_cdf, 0.5, -0.5, "z must be >= 0"),
    (nakagami_sum_cdf, 0.5, -0.5, "z must be >= 0"),
], ids=["c11", "c22", "min-erlang-cdf", "nakagami-sum-cdf"])
def test_group_arguments_checked_alike(fn, scalar, bad, message):
    # the closed forms and the gain CDFs share one check of the group
    # arguments, and each keeps its own scalar check
    for args, want in (
        ((scalar, 0, 2, 1.0), "group_size must be a positive integer"),
        ((scalar, 2, 1.5, 1.0), "shape must be a positive integer"),
        ((scalar, 2, 2, 0.0), "sigma2 must be > 0"),
        ((bad, 2, 2, 1.0), message),
    ):
        with pytest.raises(ValueError, match=want):
            fn(*args)
    assert math.isfinite(fn(scalar, 2, 2, 1.0))


def _terms(ps, pr, cfg):
    """c11, c22, c21, c12 of cfg, straight from the term functions."""
    a, b, n = ps / cfg.noise_r, pr / cfg.noise_d, cfg.N_R
    return (
        c11_closed(a, cfg.M, n, cfg.sigma_g2),
        c22_closed(b, cfg.M, n, cfg.sigma_h2),
        c11_closed(a, cfg.L - cfg.M, n, cfg.sigma_g2),
        c22_closed(b, cfg.L - cfg.M, n, cfg.sigma_h2),
    )


def _adb(ps, pr, cfg):
    """adb's closed-form parts c11, c22, c21, c12 at (ps, pr), and the
    throughput the shared combine rule makes of them."""
    parts = adb_closed(ps / cfg.noise_r, pr / cfg.noise_d, cfg, adb_weights(cfg))
    est = _combine("adb", "analytic", ps, pr, [(v, 0.0) for v in parts], True)
    assert est.std_error == 0.0 and not est.boundary_ambiguous
    return parts, est.value


def test_adb_closed_symmetric_config():
    cfg = ChannelConfig(L=4, M=2, N_R=3)
    # equal groups share one table of c11 weights
    assert list(adb_weights(cfg)) == [2]
    parts, value = _adb(5.0, 2.0, cfg)
    c11, c22, c21, c12 = parts
    assert parts == _terms(5.0, 2.0, cfg)
    assert c11 == c21
    assert c22 == c12
    assert value == pytest.approx(min(c11, c22), rel=1e-15)


def test_adb_closed_branch_consistency():
    cfg = ChannelConfig(L=5, M=2, N_R=2)
    assert sorted(adb_weights(cfg)) == [2, 3]
    for ps, pr in ((0.1, 10.0), (10.0, 0.1), (3.0, 3.0), (100.0, 0.01)):
        parts, value = _adb(ps, pr, cfg)
        # the parts are the term functions' bit for bit
        assert parts == _terms(ps, pr, cfg)
        c11, c22, c21, c12 = parts
        assert value == 0.5 * min(c11, c22) + 0.5 * min(c21, c12)
        assert min(parts) >= 0.0


_POSITIVE_NORMAL = st.floats(min_value=sys.float_info.min, max_value=sys.float_info.max)


@given(st.tuples(*[_POSITIVE_NORMAL] * 4))
def test_shared_combine_is_half_min_plus_half_min(parts):
    # the combine rule that Monte Carlo and closed forms share gives, at
    # adb's prelog 0.5, the bits of the closed form's own former combine,
    # 0.5*min(c11, c22) + 0.5*min(c21, c12), and the two pair gaps
    c11, c22, c21, c12 = parts
    means = [(v, 0.0) for v in parts]
    value, gaps = _combine("adb", "analytic", 1.0, 1.0, means, False)
    assert value.hex() == (0.5 * min(c11, c22) + 0.5 * min(c21, c12)).hex()
    assert gaps == (c11 - c22, c21 - c12)
    est = _combine("adb", "analytic", 1.0, 1.0, means, True)
    assert (est.value, est.std_error, est.boundary_ambiguous) == (value, 0.0, False)


def test_adb_closed_relay_limited_regime():
    cfg = ChannelConfig(L=4, M=2, N_R=2)
    c11, c22, c21, c12 = _terms(1e4, 1e-3, cfg)
    assert c22 < c11 and c12 < c21
    assert _adb(1e4, 1e-3, cfg)[1] == pytest.approx(0.5 * (c22 + c12), rel=1e-12)


def test_adb_closed_noise_scaling():
    quiet = ChannelConfig(L=4, M=2, N_R=2)
    loud = ChannelConfig(L=4, M=2, N_R=2, noise_r=2.0, noise_d=4.0)
    assert _adb(3.0, 2.0, loud)[1] == pytest.approx(_adb(1.5, 0.5, quiet)[1], rel=1e-12)


def test_adb_closed_tracks_simulation():
    cfg = ChannelConfig(L=4, M=2, N_R=3)
    stats = prepare([("adb", cfg)], SimConfig(slots=200_000, seed=42))
    est = estimate("adb", cfg, stats, 6.0, 2.0)
    closed = _adb(6.0, 2.0, cfg)[1]
    assert abs(closed - est.value) / est.value <= 0.05
