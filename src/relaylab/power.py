"""Per-protocol total-power budgets and the source/relay power split search.

Each protocol spends its budget as ps + weight*pr <= total, where the weight
counts transmitting relays per slot (L/2 for the alternating scheme since only
one group beamforms at a time, L otherwise) and two-slot protocols get the
budget counted per transmission phase (total = 2*snr_total). Throughput is
increasing in both powers, so the optimum sits on the equality curve and the
search is one-dimensional in the ratio ps/pr. A Monte Carlo search may run in
two stages: maximize_throughput on a prefix of the fading stream, where each
probe is cheap, then refine_split on the whole stream, from the prefix's
optimum.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable

from .simulate import PROTOCOLS, ThroughputEstimate

__all__ = [
    "PowerBudget",
    "PowerPoint",
    "ratio_point",
    "evaluate_split",
    "maximize_throughput",
    "refine_split",
    "at_ratio_bound",
    "OptimizationError",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# The ps/pr range the search covers, and the points of its coarse log grid.
_RATIO_BOUNDS = (1e-2, 1e2)
_COARSE_POINTS = 25
# Protocols searched with Brent's loop, by the shape of their objective, and
# the points of their coarse grid (see maximize_throughput).
_SMOOTH = ("crs", "df")
_KINKED = ("sfd-mmrs",)
_BRENT_POINTS = 9
# Half the ln(ratio) bracket refine_split starts from, around a search's
# optimum on a stream prefix: 6x the largest prefix-to-stream shift
# measured, 0.023.
_POLISH_HALF_WIDTH = 0.15


class OptimizationError(RuntimeError):
    """A power split gave a non-finite throughput, or underflowed to zero
    power."""


@dataclass(frozen=True)
class PowerBudget:
    """Total-power constraint for one protocol: ps + weight*pr <= total."""

    protocol: str
    snr_total: float
    L: int

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if not self.snr_total > 0:
            raise ValueError(f"snr_total must be > 0, got {self.snr_total!r}")
        if self.L < 2 or int(self.L) != self.L:
            raise ValueError(f"L must be an integer >= 2, got {self.L!r}")

    @property
    def relay_weight(self) -> float:
        return self.L / 2.0 if self.protocol == "adb" else float(self.L)

    @property
    def total(self) -> float:
        # Two-slot protocols average their spend over both phases.
        if self.protocol in ("crs", "df"):
            return 2.0 * self.snr_total
        return self.snr_total


@dataclass(frozen=True)
class PowerPoint:
    ps: float
    pr: float

    def __post_init__(self):
        if not self.ps > 0 or not self.pr > 0:
            raise ValueError(
                f"powers must be > 0, got ps={self.ps!r}, pr={self.pr!r}"
            )


def ratio_point(budget: PowerBudget, ratio: float) -> PowerPoint:
    """Budget-equality point with ps/pr = ratio. A split that underflows to
    zero power is a numerical failure, not a config error."""
    if not 0 < ratio < math.inf:
        raise ValueError(f"ratio must be positive and finite, got {ratio!r}")
    pr = budget.total / (ratio + budget.relay_weight)
    ps = ratio * pr
    if ps == 0 or pr == 0:
        raise OptimizationError(f"power split underflows to ps={ps!r}, pr={pr!r}")
    return PowerPoint(ps=ps, pr=pr)


Evaluator = Callable[[float, float], ThroughputEstimate]


def _finite(value: float, point: PowerPoint) -> float:
    if not math.isfinite(value):
        raise OptimizationError(
            f"objective returned {value!r} at ps={point.ps}, pr={point.pr}"
        )
    return value


def evaluate_split(evaluator: Evaluator, point: PowerPoint) -> ThroughputEstimate:
    """evaluator at a power split; a non-finite value is a numerical failure."""
    est = evaluator(point.ps, point.pr)
    _finite(est.value, point)
    return est


def _several_maxima(us, vals, std_error):
    """Whether two or more interior local maxima of the grid rise within
    combined Monte Carlo noise of its best value; with fewer than two no
    standard error is read."""
    peaks = [i for i in range(1, len(us) - 1) if vals[i - 1] <= vals[i] >= vals[i + 1]]
    if len(peaks) < 2:
        return False
    best = max(range(len(us)), key=vals.__getitem__)
    best_se = std_error(us[best])
    return sum(
        vals[i] >= vals[best] - 3.0 * math.hypot(std_error(us[i]), best_se)
        for i in peaks
    ) > 1


def _golden(f, a, b, width):
    """Golden-section search for a maximum of f on [a, b], until the
    bracket is at most width wide."""
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > width:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)


def _crossing(values, x, fx):
    """Where the line through the two probes (values: u -> f(u)) nearest x
    on its rising left side meets the one through the two nearest on its
    falling right side, counting probes no higher than fx; or None."""
    left = sorted((u for u, fu in values.items() if u < x and fu <= fx), reverse=True)[:2]
    right = sorted(u for u, fu in values.items() if u > x and fu <= fx)[:2]
    if len(left) < 2 or len(right) < 2:
        return None
    (l0, l1), (r0, r1) = left, right
    rise = (values[l0] - values[l1]) / (l0 - l1)
    fall = (values[r0] - values[r1]) / (r0 - r1)
    if not rise > fall:
        return None
    return (values[r0] - values[l0] + rise * l0 - fall * r0) / (rise - fall)


def _brent(f, a, b, x, width, tent):
    """Brent's search for a maximum of f on [a, b] from x, inside it or at
    an end: steps to a model's peak, golden-section steps where that lands
    outside the bracket, and no step shorter than width/4. Ends once the
    bracket is at most width wide (Brent 1973, ch. 5, for -f). With tent
    None the model is the parabola through the three best points, which
    must also halve the step before last. Otherwise f is the min of a
    rising and a falling curve, tent the dict of every probed u -> f(u),
    which f keeps up to date, and the model's peak is _crossing's; once that
    is within width/4 of x, steps of width/2 either side close the bracket.
    A probe only as high as x narrows the bracket and leaves x, so values
    that tie within their rounding do not walk x across them a step at a
    time."""
    tol = width / 4.0
    fx = fw = fv = f(x)
    w = v = x
    d = e = 0.0
    while abs(x - 0.5 * (a + b)) + 0.5 * (b - a) > 2.0 * tol:
        golden = True
        if tent is not None:
            c = _crossing(tent, x, fx)
            if c is not None and a < c < b:
                d, golden = c - x, False
        elif abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0 else (p, -q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d, golden = d, p / q, False
        if golden:
            e = (a if x >= 0.5 * (a + b) else b) - x
            d = (1.0 - _GOLDEN) * e
        elif tent is not None and abs(d) < tol:
            # on an open side, the crossing's if both are; just inside
            # width/2, by a few ulps of x at least, so that x + d rounds
            # inside it and the rounded bracket closes
            side = d if min(x - a, b - x) > 2.0 * tol else 0.5 * (a + b) - x
            step = min(2.0 * tol * (1.0 - 1e-9), 2.0 * tol - 4.0 * math.ulp(x))
            d = math.copysign(step, side)
        elif min(x + d - a, b - x - d) < 2.0 * tol:
            d = math.copysign(tol, 0.5 * (a + b) - x)
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu > fx:
            a, b = (x, b) if u >= x else (a, x)
            v, w, x, fv, fw, fx = w, x, u, fw, fx, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu >= fw or w == x:
                v, w, fv, fw = w, u, fw, fu
            elif fu >= fv or v in (x, w):
                v, fv = u, fu


def _prober(budget, value):
    """(probe, values): probe(u) is value at ln(ratio) = u, finite or an
    OptimizationError, each u computed once; values maps every probed u to
    its value, in probe order."""
    values = {}

    def probe(u):
        if u not in values:
            point = ratio_point(budget, math.exp(u))
            values[u] = _finite(value(point.ps, point.pr), point)
        return values[u]

    return probe, values


def _width_goal(tolerance: float) -> float:
    """The ln(ratio) bracket width a search ends at: the relative ratio
    tolerance, but at least a few ulps of the ratio bounds, or steps round
    onto probed points."""
    if not tolerance > 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance!r}")
    return max(math.log1p(tolerance), 16.0 * math.ulp(math.log(_RATIO_BOUNDS[1])))


def _best(budget, values) -> PowerPoint:
    """The first probed point of highest value."""
    return ratio_point(budget, math.exp(max(values, key=values.get)))


def maximize_throughput(
    budget: PowerBudget,
    value: Callable[[float, float], float],
    evaluator: Evaluator,
    tolerance: float = 1e-3,
) -> PowerPoint:
    """The best split along the budget-equality curve by value(ps, pr).

    Log-spaced coarse grid over the ps/pr ratio, then refinement of
    ln(ratio) in the bracket of the best grid point down to the given
    relative ratio tolerance. If the coarse grid shows several local maxima
    beyond combined Monte Carlo noise, a 200-point grid re-locates the peak
    first. Returns the first probed point of highest value.

    The refinement follows the objective's shape, one of three. crs and df
    are each the mean of one rate, smooth in ln(ratio): a 9-point grid,
    then Brent's parabolic steps. sfd-mmrs is the min of a rising and a
    falling mean, kinked where they cross: a 9-point grid, then Brent's
    loop with secant steps on the crossing. Either starts from the best
    grid point, an edge one too. adb sums two such mins, with two kinks: a
    25-point grid, golden section. That makes 41 value probes for adb and
    about 16 and 17 for the others.

    value must return evaluator's value alone (a Monte Carlo mean without
    its standard error, say). The search compares values only. Only when
    the coarse grid has two or more interior local maxima does it call
    evaluator, once at each of them and at the grid's best, for their
    standard errors.

    A Monte Carlo search may run on a prefix of the stream, at a fraction
    of the cost; refine_split then polishes its optimum on the whole
    stream.
    """
    width_goal = _width_goal(tolerance)
    probe, values = _prober(budget, value)

    @functools.cache
    def std_error(u):
        return evaluate_split(evaluator, ratio_point(budget, math.exp(u))).std_error

    brent = budget.protocol in _SMOOTH + _KINKED
    points = _BRENT_POINTS if brent else _COARSE_POINTS
    ulo, uhi = (math.log(r) for r in _RATIO_BOUNDS)
    step = (uhi - ulo) / (points - 1)
    us = [ulo + i * step for i in range(points)]
    vals = [probe(u) for u in us]
    if _several_maxima(us, vals, std_error):
        step = (uhi - ulo) / 199
        us = [ulo + i * step for i in range(200)]
        vals = [probe(u) for u in us]
    best = max(range(len(us)), key=vals.__getitem__)
    a = us[max(best - 1, 0)]
    b = us[min(best + 1, len(us) - 1)]

    if brent:
        _brent(probe, a, b, us[best], width_goal, values if budget.protocol in _KINKED else None)
    else:
        _golden(probe, a, b, width_goal)
    return _best(budget, values)


def refine_split(
    budget: PowerBudget,
    value: Callable[[float, float], float],
    start: PowerPoint,
    tolerance: float,
) -> PowerPoint:
    """The best split by value(ps, pr) near start, the optimum of a search
    on a cheaper estimate of the same objective (a Monte Carlo stream's
    prefix): Brent's loop in a bracket of +-0.15 in ln(ratio) around start,
    cut at the ratio bounds, with secant steps on the crossing for adb and
    sfd-mmrs and parabolic steps for crs and df. Where it ends within the
    tolerance of an edge that is no ratio bound, the optimum may lie past
    it, so the bracket doubles and the loop runs again from there; probed
    points are never probed again. Returns the first probed point of
    highest value."""
    width_goal = _width_goal(tolerance)
    probe, values = _prober(budget, value)
    ulo, uhi = (math.log(r) for r in _RATIO_BOUNDS)
    tent = None if budget.protocol in _SMOOTH else values
    x = min(max(math.log(start.ps / start.pr), ulo), uhi)
    half = _POLISH_HALF_WIDTH
    while True:
        a, b = max(x - half, ulo), min(x + half, uhi)
        _brent(probe, a, b, x, width_goal, tent)
        x = max(values, key=values.get)
        at_a = a > ulo and x - a <= width_goal
        at_b = b < uhi and b - x <= width_goal
        if not (at_a or at_b):
            return _best(budget, values)
        half *= 2.0


def at_ratio_bound(point: PowerPoint, tolerance: float) -> bool:
    """Whether point's ps/pr lies within the relative tolerance of a ratio
    bound of the split search: the search's optimum there may be clipped,
    the best split lying past the bound."""
    u = math.log(point.ps / point.pr)
    return min(abs(u - math.log(r)) for r in _RATIO_BOUNDS) <= _width_goal(tolerance)
