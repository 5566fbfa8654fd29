import math
from functools import partial

import numpy as np
import pytest

from relaylab import simulate
from relaylab.analytic import adb_closed
from relaylab.channel import ChannelConfig
from relaylab.power import (
    PROTOCOLS,
    OptimizationError,
    PowerBudget,
    PowerPoint,
    maximize_throughput,
    ratio_point,
)
from relaylab.simulate import SimConfig, ThroughputEstimate, estimate, prepare


def _analytic(value):
    return ThroughputEstimate(value, 0.0, "analytic")


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

    point, est = maximize_throughput(budget, evaluator, tolerance=1e-3)
    assert point.ps / point.pr == pytest.approx(1.0, abs=1e-3)
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_maximize_interior_peak_beats_extremes():
    cfg = ChannelConfig(L=4, M=2, N_R=3)
    budget = PowerBudget("adb", 10.0, cfg.L)

    def evaluator(ps, pr):
        return _analytic(adb_closed(ps, pr, cfg))

    point, est = maximize_throughput(budget, evaluator, tolerance=1e-3)
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
        _, est = maximize_throughput(budget, evaluator, tolerance=1e-3)
        dense = 0.0
        for r in np.geomspace(1e-2, 1e2, 500):
            pt = ratio_point(budget, float(r))
            dense = max(dense, evaluator(pt.ps, pt.pr).value)
        assert est.value >= dense * (1 - 1e-3)


def test_mc_and_analytic_optima_agree():
    cfg = ChannelConfig(L=4, M=2, N_R=3)
    budget = PowerBudget("adb", 10.0, cfg.L)
    stats = prepare([("adb", cfg)], SimConfig(slots=200_000, seed=42))
    pt_mc, _ = maximize_throughput(budget, lambda ps, pr: estimate("adb", cfg, stats, ps, pr))
    pt_an, _ = maximize_throughput(
        budget, lambda ps, pr: _analytic(adb_closed(ps, pr, cfg))
    )
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
            _, est = maximize_throughput(PowerBudget(protocol, snr, cfg.L), evaluator)
            values.append(est.value)
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_optimizer_stays_feasible():
    budget = PowerBudget("sfd-mmrs", 5.0, 4)
    seen = []

    def evaluator(ps, pr):
        seen.append((ps, pr))
        return _analytic(math.exp(-math.log(ps / pr) ** 2))

    maximize_throughput(budget, evaluator)
    for ps, pr in seen:
        assert ps > 0 and pr > 0
        assert ps + budget.relay_weight * pr <= budget.total * (1 + 1e-12)


def test_multimodal_fallback_finds_global_peak():
    # two near-equal narrow peaks with nonzero reported noise force the
    # dense-grid fallback, which must land on the taller one
    budget = PowerBudget("adb", 10.0, 4)
    calls = []

    def two_peaks(ps, pr):
        calls.append((ps, pr))
        return _two_peaks(ps, pr)

    point, est = maximize_throughput(budget, two_peaks, tolerance=1e-3)
    assert math.log(point.ps / point.pr) == pytest.approx(2.3, abs=0.01)
    assert est.value == pytest.approx(1.02, rel=1e-3)
    assert len(calls) > 200


def test_nonfinite_objective_raises():
    budget = PowerBudget("adb", 10.0, 4)
    with pytest.raises(OptimizationError):
        maximize_throughput(budget, lambda ps, pr: _analytic(math.nan))


def test_parameter_validation():
    budget = PowerBudget("adb", 10.0, 4)
    ev = lambda ps, pr: _analytic(1.0)
    with pytest.raises(ValueError):
        maximize_throughput(budget, ev, tolerance=0.0)
    with pytest.raises(ValueError):
        ratio_point(budget, 0.0)


@pytest.mark.parametrize("case", [*PROTOCOLS, "adb-analytic", "two-peaks"])
def test_value_only_probes_give_the_same_optimum(monkeypatch, case):
    # the search compares values from `means` and reads standard errors
    # only at coarse-grid points and the returned point; it must return
    # exactly what a search on full estimates returns
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
    want_point, want = maximize_throughput(budget, full)

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
    point, got = maximize_throughput(
        budget, logged("full", full), means=logged("value", value)
    )
    assert point == want_point
    assert (got.value, got.std_error, got.boundary_ambiguous) == (
        want.value, want.std_error, want.boundary_ambiguous
    )
    # the coarse grid is probed first; full estimates are made once each,
    # on grid points or at the returned point, and only they compute a std
    grid = {(ps, pr) for _, ps, pr in calls[:25]}
    full_points = [(ps, pr) for kind, ps, pr in calls if kind == "full"]
    assert full_points and len(set(full_points)) == len(full_points)
    assert set(full_points) <= grid | {(point.ps, point.pr)}
    assert all(kind == "full" for kind, _, _ in stds)
    if case in PROTOCOLS:
        assert len(stds) >= len(full_points)
