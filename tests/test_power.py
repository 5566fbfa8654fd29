import itertools
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize_scalar

from relaylab import power, simulate
from relaylab.analytic import adb_closed
from relaylab.channel import ChannelConfig
from relaylab.power import (
    PROTOCOLS,
    OptimizationError,
    PowerBudget,
    PowerPoint,
    at_ratio_bound,
    evaluate_split,
    maximize_throughput,
    ratio_point,
    refine_split,
)
from relaylab.simulate import SimConfig, ThroughputEstimate, estimate, prepare


def _analytic(value):
    return ThroughputEstimate(value, 0.0, "analytic")


def _search(budget, evaluator, **kwargs):
    """The split a search on evaluator's values returns, and its estimate
    there."""
    point = maximize_throughput(
        budget, lambda ps, pr: evaluator(ps, pr).value, evaluator, **kwargs
    )
    return point, evaluate_split(evaluator, point)


def _counted(budget, evaluator, tolerance):
    """The split a search on evaluator's values returns, and the value
    probes it made."""
    probes = []

    def value(ps, pr):
        probes.append((ps, pr))
        return evaluator(ps, pr).value

    return maximize_throughput(budget, value, evaluator, tolerance), len(probes)


def _two_peaks(ps, pr):
    """Two near-equal narrow peaks with nonzero reported noise."""
    u = math.log(ps / pr)
    a = 1.00 * math.exp(-((u + 2.3) ** 2) / 0.05)
    b = 1.02 * math.exp(-((u - 2.3) ** 2) / 0.05)
    return ThroughputEstimate(a + b, 0.01, "monte-carlo")


def test_budget_pr_examples():
    # the relay power that exhausts each budget at ps = 6, reached through
    # the ratio ps/pr = 6/pr
    for protocol, pr in (("adb", 2.0), ("crs", 3.5), ("df", 3.5), ("sfd-mmrs", 1.0)):
        pt = ratio_point(PowerBudget(protocol, 10.0, 4), 6.0 / pr)
        assert pt.ps == pytest.approx(6.0) and pt.pr == pytest.approx(pr)
    # ps at the whole budget leaves no relay power; ps = 0 is no split
    with pytest.raises(ValueError):
        ratio_point(PowerBudget("sfd-mmrs", 10.0, 4), math.inf)
    with pytest.raises(ValueError):
        ratio_point(PowerBudget("adb", 10.0, 4), 0.0)


def test_ratio_point_underflow_is_numerical_failure():
    # 1e-323 total power: pr is the smallest subnormal and ps rounds to 0
    with pytest.raises(OptimizationError):
        ratio_point(PowerBudget("adb", 1e-323, 4), 0.01)


def test_budget_validation():
    with pytest.raises(ValueError):
        PowerBudget("unknown", 10.0, 4)
    with pytest.raises(ValueError):
        PowerBudget("adb", 0.0, 4)
    with pytest.raises(ValueError):
        PowerBudget("adb", 10.0, 1)
    with pytest.raises(ValueError):
        PowerPoint(0.0, 1.0)


def test_ratio_point_meets_budget_with_equality():
    for protocol in PROTOCOLS:
        budget = PowerBudget(protocol, 7.3, 6)
        for ratio in np.geomspace(1e-2, 1e2, 9):
            pt = ratio_point(budget, float(ratio))
            spent = pt.ps + budget.relay_weight * pt.pr
            assert abs(spent - budget.total) <= 1e-9 * budget.total
            assert pt.ps / pt.pr == pytest.approx(ratio, rel=1e-12)


def test_maximize_synthetic_unimodal():
    budget = PowerBudget("adb", 10.0, 4)

    def evaluator(ps, pr):
        return _analytic(math.exp(-math.log(ps / pr) ** 2))

    point, est = _search(budget, evaluator, tolerance=1e-3)
    assert point.ps / point.pr == pytest.approx(1.0, abs=1e-3)
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_maximize_interior_peak_beats_extremes():
    cfg = ChannelConfig(L=4, M=2, N_R=3)
    budget = PowerBudget("adb", 10.0, cfg.L)

    def evaluator(ps, pr):
        return _analytic(adb_closed(ps, pr, cfg))

    point, est = _search(budget, evaluator, tolerance=1e-3)
    for extreme in (1e-2, 1e2):
        pt = ratio_point(budget, extreme)
        assert est.value > evaluator(pt.ps, pt.pr).value
    assert 1e-2 < point.ps / point.pr < 1e2


def test_maximize_matches_dense_grid():
    cfg = ChannelConfig(L=4, M=2, N_R=3)
    stats = prepare([("crs", cfg)], SimConfig(slots=50_000, seed=42))
    for protocol, evaluator in (
        ("adb", lambda ps, pr: _analytic(adb_closed(ps, pr, cfg))),
        ("crs", lambda ps, pr: estimate("crs", cfg, stats, ps, pr)),
    ):
        budget = PowerBudget(protocol, 10.0, cfg.L)
        _, est = _search(budget, evaluator, tolerance=1e-3)
        dense = 0.0
        for r in np.geomspace(1e-2, 1e2, 500):
            pt = ratio_point(budget, float(r))
            dense = max(dense, evaluator(pt.ps, pt.pr).value)
        assert est.value >= dense * (1 - 1e-3)


def test_mc_and_analytic_optima_agree():
    cfg = ChannelConfig(L=4, M=2, N_R=3)
    budget = PowerBudget("adb", 10.0, cfg.L)
    stats = prepare([("adb", cfg)], SimConfig(slots=200_000, seed=42))
    pt_mc, _ = _search(budget, lambda ps, pr: estimate("adb", cfg, stats, ps, pr))
    pt_an, _ = _search(budget, lambda ps, pr: _analytic(adb_closed(ps, pr, cfg)))
    assert abs(math.log(pt_mc.ps / pt_mc.pr) - math.log(pt_an.ps / pt_an.pr)) <= math.log(1.10)


def test_cmax_nondecreasing_in_budget():
    cfg = ChannelConfig(L=4, M=2, N_R=2)
    stats = prepare([("crs", cfg)], SimConfig(slots=50_000, seed=42))
    for protocol, evaluator in (
        ("adb", lambda ps, pr: _analytic(adb_closed(ps, pr, cfg))),
        ("crs", lambda ps, pr: estimate("crs", cfg, stats, ps, pr)),
    ):
        values = []
        for snr in (1.0, 3.0, 10.0, 30.0, 100.0):
            _, est = _search(PowerBudget(protocol, snr, cfg.L), evaluator)
            values.append(est.value)
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_optimizer_stays_feasible():
    budget = PowerBudget("sfd-mmrs", 5.0, 4)
    seen = []

    def evaluator(ps, pr):
        seen.append((ps, pr))
        return _analytic(math.exp(-math.log(ps / pr) ** 2))

    _search(budget, evaluator)
    for ps, pr in seen:
        assert ps > 0 and pr > 0
        assert ps + budget.relay_weight * pr <= budget.total * (1 + 1e-12)


@pytest.mark.parametrize("protocol", ["crs", "df"])
def test_smooth_search_finds_reference_optimum(protocol):
    # the 9-point grid and Brent's steps land within the ratio tolerance of
    # a bounded reference optimiser's peak: a synthetic interior peak, one
    # past the upper ratio bound (the best grid point is an edge, where the
    # search starts), and the protocol's Monte Carlo throughput. At 1e-16,
    # far below an ulp of the ratio bounds, the search must end and pass
    # the same checks
    cfg = ChannelConfig(L=4, M=2, N_R=2)
    stats = prepare([(protocol, cfg)], SimConfig(slots=50_000, seed=42))
    budget = PowerBudget(protocol, 10.0, cfg.L)
    ulo, uhi = (math.log(r) for r in power._RATIO_BOUNDS)
    past_the_bound = lambda ps, pr: _analytic(1.0 / (1.0 + (math.log(ps / pr) - 6.0) ** 2))
    for tolerance, evaluator in itertools.product((1e-3, 1e-16), (
        lambda ps, pr: _analytic(math.exp(-((math.log(ps / pr) - 0.7) ** 2))),
        past_the_bound,
        partial(estimate, protocol, cfg, stats),
    )):
        point, probes = _counted(budget, evaluator, tolerance)
        est = evaluate_split(evaluator, point)
        if evaluator is past_the_bound and tolerance == 1e-3:
            assert probes <= 20

        def loss(u):
            pt = ratio_point(budget, math.exp(u))
            return -evaluator(pt.ps, pt.pr).value

        ref = minimize_scalar(
            loss, bounds=(ulo, uhi), method="bounded", options={"xatol": 1e-7}
        )
        assert abs(math.log(point.ps / point.pr) - ref.x) <= math.log1p(1e-3)
        assert est.value >= -ref.fun - 1e-9 * abs(ref.fun)


def _grid_u(i):
    """ln(ratio) of point i of the 9-point coarse grid."""
    ulo, uhi = (math.log(r) for r in power._RATIO_BOUNDS)
    return ulo + i * (uhi - ulo) / (power._BRENT_POINTS - 1)


@pytest.mark.parametrize("kink, best", [
    (_grid_u(5) + 0.37, None),
    (_grid_u(6), None),
    (_grid_u(8) + 0.8, _grid_u(8)),
], ids=["between-grid-points", "on-a-grid-point", "past-the-upper-bound"])
@pytest.mark.parametrize("rise, fall", [(1.0, -1.0), (0.2, -3.0), (5.0, -0.1)])
def test_kinked_search_finds_the_crossing(kink, best, rise, fall):
    # the min of a rising and a falling curve, both bent, peaks where they
    # cross; past the upper ratio bound the best split is the bound itself,
    # where the search starts. Every search ends; below 1e-9 the values
    # near the kink tie to within their rounding, so they are checked to
    # 1e-9 only
    budget = PowerBudget("sfd-mmrs", 10.0, 4)

    def evaluator(ps, pr):
        t = math.log(ps / pr) - kink
        return _analytic(100.0 + min(rise * t - 0.05 * t * t, fall * t - 0.03 * t * t))

    for tolerance in (1e-3, 1e-9, 1e-16):
        point, probes = _counted(budget, evaluator, tolerance)
        want = kink if best is None else best
        assert abs(math.log(point.ps / point.pr) - want) <= math.log1p(max(tolerance, 1e-9))
        if best is not None and tolerance == 1e-3:
            assert probes <= 20


def _ending(search):
    """search, with every call of the objective it is handed counted, cache
    hits included; past 500 calls it raises, so a search that would never
    end fails."""
    def run(f, *args):
        calls = 0

        def counted(u):
            nonlocal calls
            calls += 1
            if calls > 500:
                raise AssertionError("the search made 500 calls and has not ended")
            return f(u)

        return search(counted, *args)
    return run


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    protocol=st.sampled_from(["adb", "crs", "sfd-mmrs"]),
    kinked=st.booleans(),
    peak=st.floats(_grid_u(0) - 1.0, _grid_u(8) + 1.0),
    rise=st.floats(0.05, 5.0),
    fall=st.floats(0.05, 5.0),
    tolerance=st.floats(math.log(1e-16), math.log(0.5)).map(math.exp),
)
@example(protocol="sfd-mmrs", kinked=True, peak=_grid_u(6), rise=1.0, fall=1.0, tolerance=1e-9)
@example(protocol="sfd-mmrs", kinked=True, peak=0.37, rise=0.2, fall=3.0, tolerance=1e-16)
@example(protocol="crs", kinked=False, peak=0.7, rise=1.0, fall=1.0, tolerance=1e-16)
# values tie within their rounding over many tolerance widths at this peak
@example(
    protocol="sfd-mmrs", kinked=False, peak=0.9850455997205838, rise=3.2917718511820064,
    fall=1.613223904162754, tolerance=1.0844185318094242e-12,
)
@example(protocol="adb", kinked=False, peak=0.7, rise=1.0, fall=1.0, tolerance=1e-16)
def test_every_search_ends(protocol, kinked, peak, rise, fall, tolerance):
    # golden section (adb), Brent's parabolas (crs) and its tent steps
    # (sfd-mmrs) all end, on a peak or a kink anywhere in the ratio range or
    # just past it, at any tolerance in (0, 1) down to far below an ulp of
    # the ratio bounds; a search that returns has ended
    budget = PowerBudget(protocol, 10.0, 4)

    def evaluator(ps, pr):
        t = math.log(ps / pr) - peak
        if kinked:
            return _analytic(1000.0 + min(rise * t - 0.05 * t * t, -fall * t - 0.03 * t * t))
        return _analytic(1000.0 - rise * t * t - 0.01 * fall * t * t * t)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(power, "_brent", _ending(power._brent))
        patch.setattr(power, "_golden", _ending(power._golden))
        _counted(budget, evaluator, tolerance)


def _bump(peak, kinked):
    """An objective peaking at ln(ps/pr) = peak: smooth, or the min of a
    rising and a falling bent line."""
    def evaluator(ps, pr):
        t = math.log(ps / pr) - peak
        if kinked:
            return _analytic(1000.0 + min(t - 0.05 * t * t, -2.0 * t - 0.03 * t * t))
        return _analytic(1.0 / (1.0 + t * t))
    return evaluator


def _polished(budget, evaluator, start, tolerance=1e-3):
    """refine_split's point from start on evaluator's values, and the value
    probes it made."""
    probes = []

    def value(ps, pr):
        probes.append((ps, pr))
        return evaluator(ps, pr).value

    return refine_split(budget, value, start, tolerance), len(probes)


def _u(point):
    return math.log(point.ps / point.pr)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("shift", [0.0, 0.1, -0.4, 0.7, 3.0, -6.0])
def test_polish_reaches_the_peak_from_a_shifted_prefix_optimum(protocol, shift):
    # the search on a prefix objective that peaks shift away from the whole
    # objective's peak, then the polish on the whole one: past its +-0.15
    # bracket the polish ends on an edge, so the bracket doubles until it
    # holds the peak. At -6.0 the prefix optimum is the upper ratio bound,
    # 4.1 away. A polish that starts on the peak or near it stays cheap
    budget = PowerBudget(protocol, 10.0, 4)
    kinked = protocol in ("adb", "sfd-mmrs")
    truth = 0.5
    start, _ = _search(budget, _bump(truth - shift, kinked))
    uhi = math.log(power._RATIO_BOUNDS[1])
    assert abs(_u(start) - truth) == pytest.approx(min(abs(shift), uhi - truth), abs=1e-3)
    point, probes = _polished(budget, _bump(truth, kinked), start)
    assert abs(_u(point) - truth) <= math.log1p(1e-3)
    assert not at_ratio_bound(point, 1e-3)
    if abs(shift) <= 0.1:
        assert probes <= 12


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_polish_stops_on_a_ratio_bound(protocol):
    # past the upper ratio bound the best split is the bound itself: the
    # polish doubles its bracket until it reaches the bound, and ends there;
    # each bracket costs one polish, about 15 probes on a rising objective
    budget = PowerBudget(protocol, 10.0, 4)
    evaluator = _bump(6.0, protocol in ("adb", "sfd-mmrs"))
    start = ratio_point(budget, math.exp(3.0))
    point, probes = _polished(budget, evaluator, start)
    assert at_ratio_bound(point, 1e-3)
    assert _u(point) == pytest.approx(math.log(power._RATIO_BOUNDS[1]), abs=1e-3)
    assert probes <= 80


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    protocol=st.sampled_from(PROTOCOLS),
    kinked=st.booleans(),
    peak=st.floats(_grid_u(0) - 1.0, _grid_u(8) + 1.0),
    start=st.floats(_grid_u(0), _grid_u(8)),
    rise=st.floats(0.05, 5.0),
    fall=st.floats(0.05, 5.0),
    tolerance=st.floats(math.log(1e-16), math.log(0.5)).map(math.exp),
)
@example(protocol="adb", kinked=True, peak=_grid_u(8) + 1.0, start=_grid_u(0),
         rise=1.0, fall=1.0, tolerance=1e-16)
@example(protocol="crs", kinked=False, peak=_grid_u(0), start=_grid_u(0),
         rise=1.0, fall=1.0, tolerance=1e-9)
def test_every_polish_ends(protocol, kinked, peak, start, rise, fall, tolerance):
    # the polish, from any start in the ratio range, on a peak or a kink
    # anywhere in it or past it, at any tolerance in (0, 1): each Brent's
    # loop ends, the bracket doubles at most until it spans the ratio
    # bounds, and the split returned lies within them
    budget = PowerBudget(protocol, 10.0, 4)

    def evaluator(ps, pr):
        t = math.log(ps / pr) - peak
        if kinked:
            return _analytic(1000.0 + min(rise * t - 0.05 * t * t, -fall * t - 0.03 * t * t))
        return _analytic(1000.0 - rise * t * t - 0.01 * fall * t * t * t)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(power, "_brent", _ending(power._brent))
        point, _ = _polished(budget, evaluator, ratio_point(budget, math.exp(start)), tolerance)
    ulo, uhi = (math.log(r) for r in power._RATIO_BOUNDS)
    assert ulo - 1e-12 <= _u(point) <= uhi + 1e-12


def _sfd_means(cfg, stats, budget, u):
    """sfd-mmrs's mean receive and mean transmit rates at ln(ps/pr) = u."""
    point = ratio_point(budget, math.exp(u))
    recv, trans = np.empty((2, stats[0].shape[0]))
    simulate._sfd_links(
        stats, point.ps / cfg.noise_r, point.pr / cfg.noise_d, 0, recv, trans
    )
    return simulate._rate(recv).mean(), simulate._rate(trans).mean()


@pytest.mark.parametrize("L, N_R, snr_db", [(2, 1, 0.0), (4, 2, 10.0), (6, 3, 20.0)])
def test_sfd_search_lands_on_the_crossing_of_its_means(L, N_R, snr_db):
    # the receive mean rises in ln(ps/pr) and the transmit mean falls; the
    # search must land within the ratio tolerance of where they cross, as
    # found on a 201-point grid and then on a 1001-point grid inside the
    # cell where their order flips
    cfg = ChannelConfig(L=L, M=L // 2, N_R=N_R)
    stats = prepare([("sfd-mmrs", cfg)], SimConfig(slots=50_000, seed=42))
    budget = PowerBudget("sfd-mmrs", 10.0 ** (snr_db / 10.0), L)
    point, _ = _search(budget, partial(estimate, "sfd-mmrs", cfg, stats), tolerance=1e-3)
    sfd = stats[simulate._statistic("sfd-mmrs", cfg)]

    def flip(lo, hi, n):
        us = np.linspace(lo, hi, n)
        gaps = [np.subtract(*_sfd_means(cfg, sfd, budget, float(u))) for u in us]
        i = next(i for i in range(n) if gaps[i] >= 0)
        return us[i - 1], us[i], gaps[i - 1], gaps[i]

    lo, hi, _, _ = flip(*(math.log(r) for r in power._RATIO_BOUNDS), 201)
    lo, hi, g0, g1 = flip(lo, hi, 1001)
    crossing = lo - g0 * (hi - lo) / (g1 - g0)
    assert abs(math.log(point.ps / point.pr) - crossing) <= math.log1p(1e-3)


def test_multimodal_fallback_finds_global_peak():
    # two near-equal narrow peaks with nonzero reported noise force the
    # dense-grid fallback, which must land on the taller one, before golden
    # section (adb), before Brent's parabolic steps (crs) and before its
    # steps to a crossing (sfd-mmrs)
    for protocol in ("adb", "crs", "sfd-mmrs"):
        budget = PowerBudget(protocol, 10.0, 4)
        calls = []

        def two_peaks(ps, pr):
            calls.append((ps, pr))
            return _two_peaks(ps, pr)

        point, est = _search(budget, two_peaks, tolerance=1e-3)
        assert math.log(point.ps / point.pr) == pytest.approx(2.3, abs=0.01)
        assert est.value == pytest.approx(1.02, rel=1e-3)
        assert len(calls) > 200


def test_nonfinite_objective_raises():
    budget = PowerBudget("adb", 10.0, 4)
    with pytest.raises(OptimizationError):
        _search(budget, lambda ps, pr: _analytic(math.nan))


def test_parameter_validation():
    budget = PowerBudget("adb", 10.0, 4)
    ev = lambda ps, pr: _analytic(1.0)
    with pytest.raises(ValueError):
        _search(budget, ev, tolerance=0.0)
    with pytest.raises(ValueError):
        ratio_point(budget, 0.0)


@pytest.mark.parametrize("case", [*PROTOCOLS, "adb-analytic", "two-peaks"])
def test_value_only_probes_give_the_same_optimum(monkeypatch, case):
    # the search compares values alone and reads standard errors only at
    # the coarse-grid points of a grid with two interior maxima; it must
    # return exactly what a search on full estimates' values returns
    cfg = ChannelConfig(L=4, M=2, N_R=2)
    protocol = case if case in PROTOCOLS else "adb"
    if case in PROTOCOLS:
        stats = prepare([(case, cfg)], SimConfig(slots=20_000, seed=11))
        full = partial(estimate, case, cfg, stats)
        value = partial(full, std_error=False)
    elif case == "adb-analytic":
        full = lambda ps, pr: _analytic(adb_closed(ps, pr, cfg))
        value = lambda ps, pr: adb_closed(ps, pr, cfg)
    else:
        full = _two_peaks
        value = lambda ps, pr: _two_peaks(ps, pr).value
    budget = PowerBudget(protocol, 10.0, cfg.L)
    want, _ = _search(budget, full)

    # log every call, and every standard error computed under it
    calls, stds = [], []
    mean_se = simulate._mean_se

    def counting_mean_se(x, se=True):
        if se:
            stds.append(calls[-1])
        return mean_se(x, se)

    def logged(kind, fn):
        def call(ps, pr):
            calls.append((kind, ps, pr))
            return fn(ps, pr)
        return call

    monkeypatch.setattr(simulate, "_mean_se", counting_mean_se)
    point = maximize_throughput(budget, logged("value", value), logged("full", full))
    assert point == want
    # the coarse grid is probed first; full estimates are made only where
    # it has two interior maxima (only two-peaks has), once each, on
    # coarse-grid points only, and value-only probes compute no std
    brent = protocol in power._SMOOTH + power._KINKED
    points = power._BRENT_POINTS if brent else power._COARSE_POINTS
    grid = {(ps, pr) for _, ps, pr in calls[:points]}
    full_points = [(ps, pr) for kind, ps, pr in calls if kind == "full"]
    assert bool(full_points) == (case == "two-peaks")
    assert len(set(full_points)) == len(full_points)
    assert set(full_points) <= grid
    assert not stds
    # probe budget: Brent's method takes crs and df to their peak, and
    # sfd-mmrs to its crossing, in at most 20 value probes; golden section
    # takes 41 for adb
    if case != "two-peaks":
        probes = sum(kind == "value" for kind, _, _ in calls)
        assert (probes <= 20) if brent else (probes == 41)
