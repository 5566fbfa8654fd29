"""Per-protocol total-power budgets and the source/relay power split search.

Each protocol spends its budget as ps + weight*pr <= total, where the weight
counts transmitting relays per slot (L/2 for the alternating scheme since only
one group beamforms at a time, L otherwise) and two-slot protocols get the
budget counted per transmission phase (total = 2*snr_total). Throughput is
increasing in both powers, so the optimum sits on the equality curve and the
search is one-dimensional in the ratio ps/pr; it reads the objective's
values and pair gaps only, never a standard error or an estimate, and steps
on the signs of the gaps. A Monte Carlo search may run in two stages, in
one maximize_throughput call: on a prefix of the fading stream, where each
probe is cheap, then a polish on the whole stream, from the prefix's
optimum.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .simulate import PROTOCOLS

__all__ = [
    "PowerBudget",
    "PowerPoint",
    "ratio_point",
    "maximize_throughput",
    "at_ratio_bound",
    "OptimizationError",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# The ps/pr range the search covers, and the points of its coarse log grid.
_RATIO_BOUNDS = (1e-2, 1e2)
_COARSE_POINTS = 25
# The coarse grid of every protocol but adb, which Brent's loop refines
# (see maximize_throughput).
_BRENT_POINTS = 9
# Half the ln(ratio) bracket the polish starts from, around a search's
# optimum on a stream prefix: 6x the largest prefix-to-stream shift
# measured, 0.023.
_POLISH_HALF_WIDTH = 0.15


class OptimizationError(RuntimeError):
    """A split search's objective gave a non-finite value (the sweep's own
    objectives raise ArithmeticError first), or a power split underflowed to
    zero power."""


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


def _several_maxima(vals):
    """Whether the grid values have two or more interior local maxima."""
    peaks = [i for i in range(1, len(vals) - 1) if vals[i - 1] <= vals[i] >= vals[i + 1]]
    return len(peaks) > 1


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


def _side(gaps):
    """Which side of a probe its pair gaps put the peak on: +1 above, where
    every gap is below zero; -1 at or below, where every one is at or above
    zero; 0 where they differ in sign, or there are none."""
    if gaps and max(gaps) < 0:
        return 1
    return -1 if gaps and min(gaps) >= 0 else 0


def _secant(gaps):
    """Where the line through the last probe whose summed pair gaps are
    below zero and the next probe up (gaps: u -> the gaps probed there)
    meets zero; None where there is no such pair of probes, or where both
    lie between two pairs' crossings, their gaps differing in sign."""
    us = sorted(gaps)
    sums = [sum(gaps[u]) for u in us]
    i = max((i for i, s in enumerate(sums) if s < 0), default=len(us) - 1)
    if i == len(us) - 1 or _side(gaps[us[i]]) == _side(gaps[us[i + 1]]) == 0:
        return None
    return us[i] - sums[i] * (us[i + 1] - us[i]) / (sums[i + 1] - sums[i])


def _brent(f, a, b, x, width, gaps):
    """Brent's search for a maximum of f on [a, b] from x, inside it or at
    an end: steps to a model's peak, golden-section steps where that lands
    outside the bracket, and no step shorter than width/4. Ends once the
    bracket is at most width wide (Brent 1973, ch. 5, for -f). gaps maps
    every probed u to its pair gaps, each rising in u, its pair's min
    peaking where it crosses zero; f keeps it up to date. The model's peak
    is _secant's where it has one (Brent 1973, ch. 4), else the parabola's
    through the three best points, which must halve the step before last.
    A probe whose gaps all have one sign cuts the bracket to its side, x
    kept. A probe only as high as x narrows the bracket and leaves x, so
    values that tie within their rounding do not walk x across it."""
    tol = width / 4.0
    fx = fw = fv = f(x)
    w = v = u = x
    d = e = 0.0
    while True:
        side = _side(gaps[u])
        a = max(a, min(u, x)) if side > 0 else a
        b = min(b, max(u, x)) if side < 0 else b
        if abs(x - 0.5 * (a + b)) + 0.5 * (b - a) <= 2.0 * tol:
            return
        golden = True
        c = _secant(gaps)
        if c is not None and a <= c <= b:
            e, d, golden = d, c - x, False
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
    """(probe, values, gaps): probe(u) is value's value at ln(ratio) = u,
    each u computed once; values maps every probed u to its value, in probe
    order, and gaps to its pair gaps. A value that is not finite raises
    OptimizationError: the sweep's Monte Carlo and closed-form objectives
    raise their own first, so this catches callers' own."""
    values, gaps = {}, {}

    def probe(u):
        if u not in values:
            point = ratio_point(budget, math.exp(u))
            fu, gaps[u] = value(point.ps, point.pr)
            if not math.isfinite(fu):
                raise OptimizationError(
                    f"objective returned {fu!r} at ps={point.ps}, pr={point.pr}"
                )
            values[u] = fu
        return values[u]

    return probe, values, gaps


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
    value: Callable[[float, float], Tuple[float, tuple]],
    tolerance: float = 1e-3,
    head: Optional[Callable[[float, float], Tuple[float, tuple]]] = None,
) -> PowerPoint:
    """The best split along the budget-equality curve by value(ps, pr):
    the objective's value and its pair gaps, as simulate.estimate gives
    them without a standard error (a smooth objective has none).

    Log-spaced coarse grid over the ps/pr ratio, then refinement of
    ln(ratio) in the bracket of the best grid point down to the given
    relative ratio tolerance. If the coarse grid has two or more interior
    local maxima, a 200-point grid re-locates the peak first. Returns the
    first probed point of highest value. adb takes a 25-point grid, then
    golden section, 41 value probes, the splits bench/reference/ holds its
    analytic rows at. The others take a 9-point grid, then _brent's loop
    from its best point, an edge one too: 15 to 20 probes for crs and df,
    10 to 12 for sfd-mmrs.

    With head, a cheaper estimate of the same objective (a Monte Carlo
    stream's prefix), the search above runs on head. One _brent's loop
    then polishes its optimum on value, in a bracket of +-0.15 in
    ln(ratio) around it, cut at the ratio bounds. Where an edge is no
    ratio bound, no polish probe between it and the polish's optimum is
    lower, and the optimum's gaps do not put the peak on its other side,
    the peak may lie past the edge: the search runs again on value alone.
    """
    width_goal = _width_goal(tolerance)
    probe, values, gaps = _prober(budget, value if head is None else head)
    brent = budget.protocol != "adb"
    points = _BRENT_POINTS if brent else _COARSE_POINTS
    ulo, uhi = (math.log(r) for r in _RATIO_BOUNDS)
    for n in (points, 200):
        step = (uhi - ulo) / (n - 1)
        us = [ulo + i * step for i in range(n)]
        vals = [probe(u) for u in us]
        if not _several_maxima(vals):
            break
    best = max(range(len(us)), key=vals.__getitem__)
    a = us[max(best - 1, 0)]
    b = us[min(best + 1, len(us) - 1)]

    if brent:
        _brent(probe, a, b, us[best], width_goal, gaps)
    else:
        _golden(probe, a, b, width_goal)
    point = _best(budget, values)
    if head is None:
        return point

    probe, values, gaps = _prober(budget, value)
    x = min(max(math.log(point.ps / point.pr), ulo), uhi)
    a, b = max(x - _POLISH_HALF_WIDTH, ulo), min(x + _POLISH_HALF_WIDTH, uhi)
    _brent(probe, a, b, x, width_goal, gaps)
    x = max(values, key=values.get)
    fx, side = values[x], _side(gaps[x])
    for edge, s in ((a > ulo, -1), (b < uhi, 1)):
        if edge and side != -s and not any(values[u] < fx for u in values if (u - x) * s > 0):
            return maximize_throughput(budget, value, tolerance)
    return _best(budget, values)


def at_ratio_bound(point: PowerPoint, tolerance: float) -> bool:
    """Whether point's ps/pr lies within the relative tolerance of a ratio
    bound of the split search: the search's optimum there may be clipped,
    the best split lying past the bound."""
    u = math.log(point.ps / point.pr)
    return min(abs(u - math.log(r)) for r in _RATIO_BOUNDS) <= _width_goal(tolerance)
