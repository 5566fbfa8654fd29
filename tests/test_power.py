import itertools
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize_scalar

from relaylab import power, simulate
from relaylab.analytic import adb_closed, adb_weights
from relaylab.channel import ChannelConfig
from relaylab.power import (
    PROTOCOLS,
    OptimizationError,
    PowerBudget,
    PowerPoint,
    at_ratio_bound,
    maximize_throughput,
    ratio_point,
)
from relaylab.simulate import SimConfig, ThroughputEstimate, _combine, estimate, prepare


def _analytic(value, gaps=()):
    """An objective's (value, pair gaps) at one split: a smooth one has no
    gaps, and a min of a rising and a falling curve the rising one minus
    the falling one."""
    return value, gaps


def _kinked(rising, falling):
    """The min of a rising and a falling curve's values at one split."""
    return _analytic(min(rising, falling), (rising - falling,))


def _adb_closed(cfg):
    """adb's closed-form objective at cfg, as an analytic sweep point's
    search reads it: c11's weights built once, each probe's four parts
    combined by the rule estimate uses into its value and pair gaps."""
    weights = adb_weights(cfg)

    def value(ps, pr):
        parts = adb_closed(ps / cfg.noise_r, pr / cfg.noise_d, cfg, weights)
        return _combine("adb", "analytic", ps, pr, [(v, 0.0) for v in parts], False)

    return value


def _mc(protocol, cfg, stats):
    """The protocol's Monte Carlo objective: value and gaps, no standard
    error."""
    return partial(estimate, protocol, cfg, stats, std_error=False)


def _at(objective, point):
    """objective's value at point, as a sweep row's estimate."""
    return ThroughputEstimate(objective(point.ps, point.pr)[0], 0.0, "analytic")


def _search(budget, objective, **kwargs):
    """The split a search on objective returns, and its estimate there."""
    point = maximize_throughput(budget, objective, **kwargs)
    return point, _at(objective, point)


def _counted(budget, objective, tolerance):
    """The split a search on objective returns, and the value probes it
    made."""
    probes = []

    def value(ps, pr):
        probes.append((ps, pr))
        return objective(ps, pr)

    return maximize_throughput(budget, value, tolerance), len(probes)


def _two_peaks(ps, pr):
    """Two near-equal narrow peaks, each an interior local maximum of the
    coarse grids."""
    u = math.log(ps / pr)
    a = 1.00 * math.exp(-((u + 2.3) ** 2) / 0.05)
    b = 1.02 * math.exp(-((u - 2.3) ** 2) / 0.05)
    return _analytic(a + b)


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

    evaluator = _adb_closed(cfg)
    point, est = _search(budget, evaluator, tolerance=1e-3)
    for extreme in (1e-2, 1e2):
        pt = ratio_point(budget, extreme)
        assert est.value > evaluator(pt.ps, pt.pr)[0]
    assert 1e-2 < point.ps / point.pr < 1e2


def test_maximize_matches_dense_grid():
    cfg = ChannelConfig(L=4, M=2, N_R=3)
    stats = prepare([("crs", cfg)], SimConfig(slots=50_000, seed=42))
    for protocol, evaluator in (
        ("adb", _adb_closed(cfg)),
        ("crs", _mc("crs", cfg, stats)),
    ):
        budget = PowerBudget(protocol, 10.0, cfg.L)
        _, est = _search(budget, evaluator, tolerance=1e-3)
        dense = 0.0
        for r in np.geomspace(1e-2, 1e2, 500):
            pt = ratio_point(budget, float(r))
            dense = max(dense, evaluator(pt.ps, pt.pr)[0])
        assert est.value >= dense * (1 - 1e-3)


def test_mc_and_analytic_optima_agree():
    cfg = ChannelConfig(L=4, M=2, N_R=3)
    budget = PowerBudget("adb", 10.0, cfg.L)
    stats = prepare([("adb", cfg)], SimConfig(slots=200_000, seed=42))
    pt_mc, _ = _search(budget, _mc("adb", cfg, stats))
    pt_an, _ = _search(budget, _adb_closed(cfg))
    assert abs(math.log(pt_mc.ps / pt_mc.pr) - math.log(pt_an.ps / pt_an.pr)) <= math.log(1.10)


def test_cmax_nondecreasing_in_budget():
    cfg = ChannelConfig(L=4, M=2, N_R=2)
    stats = prepare([("crs", cfg)], SimConfig(slots=50_000, seed=42))
    for protocol, evaluator in (
        ("adb", _adb_closed(cfg)),
        ("crs", _mc("crs", cfg, stats)),
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
        _mc(protocol, cfg, stats),
    )):
        point, probes = _counted(budget, evaluator, tolerance)
        est = _at(evaluator, point)
        if evaluator is past_the_bound and tolerance == 1e-3:
            assert probes <= 20

        def loss(u):
            pt = ratio_point(budget, math.exp(u))
            return -evaluator(pt.ps, pt.pr)[0]

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
        return _kinked(100.0 + (rise * t - 0.05 * t * t), 100.0 + (fall * t - 0.03 * t * t))

    for tolerance in (1e-3, 1e-9, 1e-16):
        point, probes = _counted(budget, evaluator, tolerance)
        want = kink if best is None else best
        assert abs(math.log(point.ps / point.pr) - want) <= math.log1p(max(tolerance, 1e-9))
        if best is not None and tolerance == 1e-3:
            assert probes <= 20
        # each probe's gaps cut the bracket to the peak's side: past the
        # bound the best grid point's sign ends the search on the grid
        if tolerance == 1e-3:
            assert probes <= (12 if best is None else power._BRENT_POINTS)


def _two_crossings(at):
    """adb's shape: half the sum of two mins of a rising and a falling
    curve, crossing at ln(ps/pr) = at - 1 and at + 1, and smooth between
    them, where it peaks at at. The summed gap meets zero near the lower
    crossing, far from the peak."""
    def objective(ps, pr):
        t = math.log(ps / pr) - at
        r1, f1 = 50.0 * (t + 1), -(t + 1) - (t + 1) ** 2
        r2, f2 = 3.0 * (t - 1), -0.1 * (t - 1)
        return 0.5 * (min(r1, f1) + min(r2, f2)), (r1 - f1, r2 - f2)
    return objective


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_peak_between_two_crossings_takes_parabolic_steps(protocol):
    # between the crossings the two pair gaps differ in sign, so a probe's
    # gaps cut nothing and the summed gap's root is no model of the peak:
    # Brent's parabolas find it, in a polish from a prefix optimum 0.05
    # away and in a search from the 9-point grid (adb's grid and golden
    # section find it too, in their 41 probes)
    budget = PowerBudget(protocol, 10.0, 4)
    for tolerance in (1e-3, 1e-9):
        point, probes = _polished(budget, _two_crossings(0.25), _two_crossings(0.3), tolerance)
        assert abs(_u(point) - 0.3) <= math.log1p(tolerance)
        assert probes <= 8
        if protocol != "adb":
            point, probes = _counted(budget, _two_crossings(0.3), tolerance)
            assert abs(_u(point) - 0.3) <= math.log1p(tolerance)
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
            return _kinked(1000.0 + (rise * t - 0.05 * t * t), 1000.0 + (-fall * t - 0.03 * t * t))
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
            return _kinked(1000.0 + (t - 0.05 * t * t), 1000.0 + (-2.0 * t - 0.03 * t * t))
        return _analytic(1.0 / (1.0 + t * t))
    return evaluator


def _polished(budget, head, objective, tolerance=1e-3):
    """The point of a search on head polished on objective, and the value
    probes it made on objective."""
    probes = []

    def value(ps, pr):
        probes.append((ps, pr))
        return objective(ps, pr)

    point = maximize_throughput(budget, value, tolerance, head=head)
    return point, len(probes)


def _u(point):
    return math.log(point.ps / point.pr)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("shift", [0.0, 0.1, -0.4, 0.7, 3.0, -6.0])
def test_polish_reaches_the_peak_from_a_shifted_prefix_optimum(protocol, shift):
    # the search on a prefix objective that peaks shift away from the whole
    # objective's peak, then the polish on the whole one: past its +-0.15
    # bracket the polish ends on an edge, so the whole objective is searched
    # again. At -6.0 the prefix optimum is the upper ratio bound, 4.1 away.
    # A polish that starts on the peak or near it stays cheap
    budget = PowerBudget(protocol, 10.0, 4)
    kinked = protocol in ("adb", "sfd-mmrs")
    truth = 0.5
    head = _bump(truth - shift, kinked)
    start, _ = _search(budget, head)
    uhi = math.log(power._RATIO_BOUNDS[1])
    assert abs(_u(start) - truth) == pytest.approx(min(abs(shift), uhi - truth), abs=1e-3)
    point, probes = _polished(budget, head, _bump(truth, kinked))
    assert abs(_u(point) - truth) <= math.log1p(1e-3)
    assert not at_ratio_bound(point, 1e-3)
    if abs(shift) <= 0.1:
        assert probes <= 12


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_polish_stops_on_a_ratio_bound(protocol):
    # past the upper ratio bound the best split is the bound itself: the
    # polish from a prefix optimum at 3.0 ends on its open upper edge, and
    # the search on the whole objective ends on the bound
    budget = PowerBudget(protocol, 10.0, 4)
    kinked = protocol in ("adb", "sfd-mmrs")
    point, probes = _polished(budget, _bump(3.0, kinked), _bump(6.0, kinked))
    assert at_ratio_bound(point, 1e-3)
    assert _u(point) == pytest.approx(math.log(power._RATIO_BOUNDS[1]), abs=1e-3)
    assert probes <= 80


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_polish_on_an_open_edge_searches_the_whole_objective(protocol):
    # a prefix optimum 3.0 below the whole objective's peak: the polish ends
    # on the open upper edge of its bracket, and the split returned is the
    # one a search on the whole objective alone gives, for that search's
    # probes and the polish's. From 1e-13 down the values near the edge tie
    # within their rounding, and the polish's optimum need not lie within
    # the tolerance of the edge
    budget = PowerBudget(protocol, 10.0, 4)
    kinked = protocol in ("adb", "sfd-mmrs")
    for tolerance in (1e-3, 1e-13, 1e-16):
        point, probes = _polished(budget, _bump(-2.5, kinked), _bump(0.5, kinked), tolerance)
        want, searched = _counted(budget, _bump(0.5, kinked), tolerance)
        assert point == want
        assert searched < probes
        if tolerance == 1e-3:
            assert probes <= 60


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
    # the polish, from a prefix optimum anywhere in the ratio range, on a
    # peak or a kink anywhere in it or past it, at any tolerance in (0, 1):
    # the prefix search, the polish and a search on the whole objective
    # after it all end, and the split returned lies within the ratio bounds
    budget = PowerBudget(protocol, 10.0, 4)

    def shape(at):
        def evaluator(ps, pr):
            t = math.log(ps / pr) - at
            if kinked:
                return _kinked(
                    1000.0 + (rise * t - 0.05 * t * t), 1000.0 + (-fall * t - 0.03 * t * t)
                )
            return _analytic(1000.0 - rise * t * t - 0.01 * fall * t * t * t)
        return evaluator

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(power, "_brent", _ending(power._brent))
        patch.setattr(power, "_golden", _ending(power._golden))
        point, _ = _polished(budget, shape(start), shape(peak), tolerance)
    ulo, uhi = (math.log(r) for r in power._RATIO_BOUNDS)
    assert ulo - 1e-12 <= _u(point) <= uhi + 1e-12


def _sfd_means(cfg, stats, budget, u):
    """sfd-mmrs's mean receive and mean transmit rates at ln(ps/pr) = u."""
    point = ratio_point(budget, math.exp(u))
    parts = simulate._TABLE["sfd-mmrs"][1]
    (recv, _), (trans, _) = parts(
        stats, point.ps / cfg.noise_r, point.pr / cfg.noise_d, False
    )
    return recv, trans


@pytest.mark.parametrize("L, N_R, snr_db", [(2, 1, 0.0), (4, 2, 10.0), (6, 3, 20.0)])
def test_sfd_search_lands_on_the_crossing_of_its_means(L, N_R, snr_db):
    # the receive mean rises in ln(ps/pr) and the transmit mean falls; the
    # search must land within the ratio tolerance of where they cross, as
    # found on a 201-point grid and then on a 1001-point grid inside the
    # cell where their order flips
    cfg = ChannelConfig(L=L, M=L // 2, N_R=N_R)
    stats = prepare([("sfd-mmrs", cfg)], SimConfig(slots=50_000, seed=42))
    budget = PowerBudget("sfd-mmrs", 10.0 ** (snr_db / 10.0), L)
    point, _ = _search(budget, _mc("sfd-mmrs", cfg, stats), tolerance=1e-3)
    sfd = simulate._rows(stats, "sfd-mmrs", cfg)

    def flip(lo, hi, n):
        us = np.linspace(lo, hi, n)
        gaps = [np.subtract(*_sfd_means(cfg, sfd, budget, float(u))) for u in us]
        i = next(i for i in range(n) if gaps[i] >= 0)
        return us[i - 1], us[i], gaps[i - 1], gaps[i]

    lo, hi, _, _ = flip(*(math.log(r) for r in power._RATIO_BOUNDS), 201)
    lo, hi, g0, g1 = flip(lo, hi, 1001)
    crossing = lo - g0 * (hi - lo) / (g1 - g0)
    assert abs(math.log(point.ps / point.pr) - crossing) <= math.log1p(1e-3)


@pytest.mark.parametrize("L, N_R, slots, seed", [
    (2, 1, 2000, 1), (2, 2, 1000, 4), (2, 2, 500, 1), (3, 2, 1000, 4), (3, 3, 500, 5),
])
def test_sfd_search_holds_where_its_gap_is_not_monotone(L, N_R, slots, seed):
    # on a short stream the swap rule couples the receive and transmit
    # means, so their gap falls on some steps of a fine grid, and it may
    # cross zero three times: a probe's sign need not say which side the
    # peak is on. The search must still land within 0.5 standard errors of
    # the best point of an 8001-point grid at 0 dB
    cfg = ChannelConfig(L=L, M=1, N_R=N_R)
    stats = prepare([("sfd-mmrs", cfg)], SimConfig(slots=slots, seed=seed))
    budget = PowerBudget("sfd-mmrs", 1.0, L)
    point, found = _search(budget, _mc("sfd-mmrs", cfg, stats))
    sfd = simulate._rows(stats, "sfd-mmrs", cfg)
    us = np.linspace(*(math.log(r) for r in power._RATIO_BOUNDS), 8001)
    means = np.array([_sfd_means(cfg, sfd, budget, float(u)) for u in us])
    assert (np.diff(means[:, 0] - means[:, 1]) < 0).any()
    best = ratio_point(budget, math.exp(us[means.min(axis=1).argmax()]))
    want = estimate("sfd-mmrs", cfg, stats, best.ps, best.pr)
    assert found.value >= want.value - 0.5 * want.std_error


def test_multimodal_fallback_finds_global_peak():
    # two near-equal narrow peaks, two interior maxima of the coarse grid,
    # force the dense-grid fallback, which must land on the taller one,
    # before golden section (adb), before Brent's parabolic steps (crs) and
    # before its steps to a crossing (sfd-mmrs)
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


@pytest.mark.parametrize("protocol, points", [
    ("adb", power._COARSE_POINTS),
    ("crs", power._BRENT_POINTS),
    ("sfd-mmrs", power._BRENT_POINTS),
])
def test_a_taller_peak_the_grid_half_sees_is_found(protocol, points):
    # a closed form, with no noise, whose coarse grid has two interior
    # maxima: a wide peak of 1.00 on a grid point, and a taller (1.05)
    # narrow one in the middle of a grid cell, so narrow that the grid sees
    # half its height. The dense grid must find the taller one
    ulo, uhi = (math.log(r) for r in power._RATIO_BOUNDS)
    step = (uhi - ulo) / (points - 1)
    narrow = ulo + (points // 2 + 1.5) * step
    width = (step / 2.0) ** 2 / math.log(2.0)

    def two_peaks(u):
        return math.exp(-((u + 2.3) ** 2)) + 1.05 * math.exp(-((u - narrow) ** 2) / width)

    grid = [two_peaks(ulo + i * step) for i in range(points)]
    maxima = [i for i in range(1, points - 1) if grid[i - 1] <= grid[i] >= grid[i + 1]]
    assert len(maxima) == 2
    assert max(grid) == pytest.approx(1.0, abs=1e-3)
    budget = PowerBudget(protocol, 10.0, 4)
    point, probes = _counted(
        budget, lambda ps, pr: _analytic(two_peaks(math.log(ps / pr))), 1e-3
    )
    assert _u(point) == pytest.approx(narrow, abs=0.01)
    assert two_peaks(_u(point)) == pytest.approx(1.05, rel=1e-3)
    assert probes > 200


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
    # the search compares values and reads gaps alone: on value-only probes
    # it must return exactly what a search on full estimates' values (with
    # the same gaps) returns, and compute no standard error
    cfg = ChannelConfig(L=4, M=2, N_R=2)
    protocol = case if case in PROTOCOLS else "adb"
    stats = prepare([(protocol, cfg)], SimConfig(slots=20_000, seed=11))
    if case in PROTOCOLS:
        value = _mc(case, cfg, stats)
        full = lambda ps, pr: (estimate(case, cfg, stats, ps, pr).value, value(ps, pr)[1])
    elif case == "adb-analytic":
        full = value = _adb_closed(cfg)
    else:
        full = value = _two_peaks
    budget = PowerBudget(protocol, 10.0, cfg.L)
    want, _ = _search(budget, full)

    # log every call, and every standard error computed under it
    calls, stds = [], []
    std_errors = simulate._std_errors

    def counting_std_errors(*args):
        stds.append(calls[-1])
        return std_errors(*args)

    def logged(ps, pr):
        calls.append((ps, pr))
        return value(ps, pr)

    monkeypatch.setattr(simulate, "_std_errors", counting_std_errors)
    point = maximize_throughput(budget, logged)
    assert point == want
    assert not stds
    # the counter sees the standard-error walk of a full estimate
    calls.append("full")
    estimate(protocol, cfg, stats, point.ps, point.pr)
    calls.pop()
    assert stds == ["full"]
    # probe budget: Brent's method takes crs and df to their peak, and
    # sfd-mmrs to its crossing, in at most 20 value probes; golden section
    # takes 41 for adb; two interior maxima on the coarse grid (only
    # two-peaks has them) send the search over the 200-point grid first
    if case == "two-peaks":
        assert len(calls) > 200
    elif protocol != "adb":
        assert len(calls) <= 20
    else:
        assert len(calls) == 41
