"""Per-protocol total-power budgets and the source/relay power split search.

Each protocol spends its budget as ps + weight*pr <= total, where the weight
counts transmitting relays per slot (L/2 for the alternating scheme since only
one group beamforms at a time, L otherwise) and two-slot protocols get the
budget counted per transmission phase (total = 2*snr_total). Throughput is
increasing in both powers, so the optimum sits on the equality curve and the
search is one-dimensional in the ratio ps/pr. It reads the objective's
values and pair gaps only, never a standard error or an estimate, steps on
the signs of the gaps, and follows a rising value past its coarse grid's
span to any ratio a double holds. A Monte Carlo search may run in two
stages, in one maximize_throughput call: on a prefix of the fading stream,
where each probe is cheap, then a polish on the whole stream from the
prefix's optimum, which climbs past its bracket as the grid does.
"""

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .channel import _is_count
from .simulate import PROTOCOLS

__all__ = [
    "PowerBudget",
    "PowerPoint",
    "ratio_point",
    "maximize_throughput",
    "OptimizationError",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# The ps/pr span of the search's coarse log grid, and its points. A best
# edge of the grid steps outward while the value rises.
_RATIO_BOUNDS = (1e-2, 1e2)
_COARSE_POINTS = 25
# The coarse grid of every protocol but adb, which Brent's loop refines
# (see maximize_throughput).
_BRENT_POINTS = 9
# Half the ln(ratio) bracket the polish starts from, around a search's
# optimum on a stream prefix: 6x the largest prefix-to-stream shift
# measured, 0.023.
_POLISH_HALF_WIDTH = 0.15
# The ln(ratio) range whose ratios a double holds, finite and above zero.
_U_RANGE = (math.log(math.ulp(0.0)), math.log(sys.float_info.max))


class OptimizationError(RuntimeError):
    """A split search's objective gave a non-finite value (the sweep's own
    objectives raise ArithmeticError first), a power split underflowed to
    zero power, or the value still rose where ps/pr leaves the doubles."""


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
        if not _is_count(self.L) or self.L < 2:
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
    raise their own first, so this catches callers' own. So does a u past
    the ratios a double holds, which only a value rising toward it reaches."""
    values, gaps = {}, {}

    def probe(u):
        if u not in values:
            if not _U_RANGE[0] <= u <= _U_RANGE[1]:
                raise OptimizationError(f"objective rises toward ps/pr = e^{u}, past any double")
            point = ratio_point(budget, math.exp(u))
            fu, gaps[u] = value(point.ps, point.pr)
            if not math.isfinite(fu):
                raise OptimizationError(
                    f"objective returned {fu!r} at ps={point.ps}, pr={point.pr}"
                )
            values[u] = fu
        return values[u]

    return probe, values, gaps


def _width_goal(tolerance: float, a: float, b: float) -> float:
    """The width a search of the ln(ratio) bracket [a, b] ends at: the
    relative ratio tolerance, but at least a few ulps of the bracket's
    larger end, or steps round onto probed points."""
    return max(math.log1p(tolerance), 16.0 * math.ulp(max(abs(a), abs(b))))


def _climb(probe, inner, x, d):
    """Steps x by d, 2d, 4d, ... while each is strictly higher: the top's bracket (a, x, b)."""
    while probe(x + d) > probe(x):
        inner, x, d = x, x + d, 2.0 * d
    return min(inner, x + d), x, max(inner, x + d)


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

    Log-spaced coarse grid over the ps/pr span _RATIO_BOUNDS, then
    refinement of ln(ratio) in the bracket of the best grid point down to
    the given relative ratio tolerance. If the coarse grid has two or more
    interior local maxima, a 200-point grid re-locates the peak first. A
    best edge climbs outward (_climb), its first step the grid step.
    Returns the first probed point of highest value. adb takes a 25-point
    grid, then golden section, 41 value probes from an interior grid
    point, the splits bench/reference/ holds its analytic rows at. The
    others take a 9-point grid, then _brent's loop from its best point:
    15 to 20 probes for crs and df, 10 to 12 for sfd-mmrs.

    With head, a cheaper estimate of the same objective (a Monte Carlo
    stream's prefix), the search above runs on head. One _brent's loop
    then polishes its optimum on value, in a bracket of +-0.15 in
    ln(ratio) around it. A side of the polish's optimum with no lower
    probe, unless the optimum's gaps put the peak on the other, climbs
    from a 0.15 step, and one more _brent's loop refines its bracket.
    """
    if not tolerance > 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance!r}")
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
    best = max(range(n), key=vals.__getitem__)
    a, x, b = us[max(best - 1, 0)], us[best], us[min(best + 1, n - 1)]
    if best in (0, n - 1):
        a, x, b = _climb(probe, b, x, -step) if best == 0 else _climb(probe, a, x, step)

    if brent:
        _brent(probe, a, b, x, _width_goal(tolerance, a, b), gaps)
    else:
        _golden(probe, a, b, _width_goal(tolerance, a, b))
    point = _best(budget, values)
    if head is None:
        return point

    probe, values, gaps = _prober(budget, value)
    x = math.log(point.ps / point.pr)
    a, b = x - _POLISH_HALF_WIDTH, x + _POLISH_HALF_WIDTH
    _brent(probe, a, b, x, _width_goal(tolerance, a, b), gaps)
    for d in (-_POLISH_HALF_WIDTH, _POLISH_HALF_WIDTH):
        x = max(values, key=values.get)
        if _side(gaps[x]) * d >= 0 and all(values[u] >= values[x] for u in values if (u - x) * d > 0):
            a, x, b = _climb(probe, x - d, x, d)
            _brent(probe, a, b, x, _width_goal(tolerance, a, b), gaps)
    return _best(budget, values)
