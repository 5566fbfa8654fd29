"""Experiments: config resolution, one sweep executor, CSV and summary emission.

What each experiment sweeps is one entry of _SWEEPS, which turns its grid
into a list of (label, channel, snr_db, split) points that one executor runs
by the methods the spec asks for, one row per (point, method) in a fixed
order with a fixed CSV schema, so identical specs yield byte-identical
files. A JSON sidecar records the fully resolved spec, the package version
and the experiment's summary.
"""

import itertools
import json
import logging
import math
import os
import platform
import resource
import subprocess
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from . import __version__
from .analytic import _box_bytes, adb_closed, adb_weights, c11_closed, c22_closed
from .channel import ChannelConfig
from .power import (
    PowerBudget,
    PowerPoint,
    at_ratio_bound,
    maximize_throughput,
    ratio_point,
)
from .simulate import (
    PROTOCOLS,
    TERMS,
    SimConfig,
    _combine,
    estimate,
    prepare,
    stream_bytes,
    stream_key,
)

__all__ = [
    "EXPERIMENTS",
    "CSV_COLUMNS",
    "ConfigError",
    "ExperimentSpec",
    "SweepRow",
    "SweepResult",
    "resolve_spec",
    "read_config",
    "load_spec",
    "run_experiment",
    "write_csv",
    "write_summary",
    "emit",
]

log = logging.getLogger("relaylab")

CSV_COLUMNS = (
    "protocol", "L", "M", "N_R", "snr_db",
    "ps", "pr", "throughput", "std_error", "method",
)

METHODS = ("analytic", "monte-carlo")

# A Monte Carlo split search runs on the first 1/_PREFIX_SHARE of a stream's
# slots, then polishes its optimum on the whole stream (maximize_throughput's
# head); a prefix shorter than _MIN_PREFIX_SLOTS is too noisy to steer by,
# so shorter streams are searched whole.
_PREFIX_SHARE = 16
_MIN_PREFIX_SLOTS = 8192

# label (protocol or adb component term) -> callable(cfg, stats, ps, pr),
# with stats what prepare returned for the point's stream, looked up as
# each sweep point builds its evaluators.
_SIMULATORS = {label: partial(estimate, label) for label in PROTOCOLS + TERMS}


def _term_closed(i, cfg, table, a, b):
    """adb's part i alone, c11, c22, c21, c12 by index, as in simulate's _TABLE."""
    g = cfg.L - cfg.M if i > 1 else cfg.M
    form, power, sigma2 = (c22_closed, b, cfg.sigma_h2) if i % 2 else (c11_closed, a, cfg.sigma_g2)
    return (form(power, g, cfg.N_R, sigma2),)


# label -> (build(cfg), parts(cfg, table, a, b)), split as prepare and
# estimate split Monte Carlo: build gives the table once a point (none for
# a term, called once a point), parts the values at a = ps/noise_r and b =
# pr/noise_d by this module's closed forms, looked up at call time.
_CLOSED_FORMS = {
    "adb": (adb_weights, lambda cfg, weights, a, b: adb_closed(a, b, cfg, weights)),
} | {term: (lambda cfg: None, partial(_term_closed, i)) for i, term in enumerate(TERMS)}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentSpec:
    experiment: str
    channel: ChannelConfig
    sim: SimConfig
    grid: tuple
    snr_db: float
    total_antennas: int
    tolerance: float
    methods: tuple
    output_path: str


@dataclass(frozen=True)
class SweepRow:
    protocol: str
    L: int
    M: int
    N_R: int
    snr_db: float
    ps: float
    pr: float
    throughput: float
    std_error: float
    method: str
    # sidecar only, not a CSV column (see ThroughputEstimate), so rows that
    # round-trip through the CSV compare equal
    boundary_ambiguous: bool = field(default=False, compare=False)


@dataclass
class SweepResult:
    spec: ExperimentSpec
    rows: List[SweepRow]
    summary: dict
    # how the run went (statistics bytes per stream, value probes per split
    # search, peak RSS); the sidecar's diagnostics block, never a CSV byte
    diagnostics: dict = field(default_factory=dict)


def _snr_linear(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def _reject_unknown(raw: dict, cls, where: str):
    """Reject keys of raw that name no field of the dataclass cls."""
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")


def _section(raw: dict, name: str, cls) -> dict:
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object, got {section!r}")
    _reject_unknown(section, cls, name)
    return section


def _build(cls, raw: dict, where: str):
    try:
        return cls(**raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {where} section: {exc}") from exc


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


# Caps on a closed form's larger group, g relays of N_R antennas: about
# g(g(N_R - 1) + 1)N_R multiply-adds in _box_counts, built once a point,
# and g N_R terms in c22, summed each probe. At the caps a build took up to
# 0.08 s, a c22 sum 0.11 s (2-core host); the build at g = N_R = 50 took 2.9 s.
_MAX_BOX_WORK = 1 << 19
_MAX_TERMS = 1 << 15


def _check_memory(sim: SimConfig, methods: tuple, entries: int, requests):
    """Raise ConfigError when a sweep of grid entries that estimates the
    (label, cfg) pairs of requests would need more than physical memory: 8
    KiB per entry (four points of two rows; a point with its row measured
    about 700 bytes) plus, for Monte Carlo, the largest fading stream with
    the statistics of all its requests, and for closed forms, the largest
    exact-count table a c11 term of a request's larger group builds; or
    when such a group passes the caps above, which would let a closed form
    run for minutes (a searched adb row sums c22 at 41 probes)."""
    need = entries * 8192
    groups = {
        (max(cfg.M, cfg.L - cfg.M), cfg.N_R)
        for label, cfg in requests if "analytic" in methods and label in _CLOSED_FORMS
    }
    need += max((_box_bytes(g, s) for g, s in groups), default=0)
    if "monte-carlo" in methods:
        streams = {}
        for label, cfg in requests:
            streams.setdefault(stream_key(cfg, sim), []).append((label, cfg))
        need += max(stream_bytes(group, sim) for group in streams.values())
    limit = _physical_memory()
    if need > limit:
        # str() refuses integers of over 4300 digits
        about = f"about {need >> 20} MiB" if need < 1 << 80 else f"over 2^{need.bit_length() - 1} bytes"
        raise ConfigError(f"sweep needs {about}; physical memory is {limit >> 20} MiB")
    if any(g * (g * (s - 1) + 1) * s > _MAX_BOX_WORK or g * s > _MAX_TERMS for g, s in groups):
        raise ConfigError("closed forms at this group size and N_R would take too long; use --mc-only")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_snr_db(v) -> bool:
    """A dB value whose linear power is a positive finite double."""
    try:
        return _is_number(v) and 0.0 < _snr_linear(v) < math.inf
    except OverflowError:
        return False


def _is_positive(v) -> bool:
    """A positive number that a double holds: an integer past the double
    range is below inf, but float() overflows on it."""
    return _is_number(v) and 0 < v <= sys.float_info.max


def _peaks(spec: ExperimentSpec, rows: list) -> dict:
    """Per protocol/method, the first grid ratio of highest throughput."""
    peaks = {}
    for key in dict.fromkeys(f"{r.protocol}/{r.method}" for r in rows):
        series = [r.throughput for r in rows if f"{r.protocol}/{r.method}" == key]
        i = max(range(len(series)), key=series.__getitem__)
        peaks[key] = {"ratio": spec.grid[i], "throughput": series[i]}
    return {"peaks": peaks}


def _gaps(spec: ExperimentSpec, rows: list) -> dict:
    """Closed form against Monte Carlo for every validate term, grid-major.

    Broadcast terms (c11/c21) are exact, so gaps should sit at Monte Carlo
    noise level; beamforming terms (c22/c12) carry the gap of the
    Cauchy-Schwarz bound whose exact mean they are. Both methods are needed, so a single-method run has
    no gaps."""
    n = len(spec.grid)
    pairs = list(zip(rows[::2], rows[1::2])) if len(spec.methods) == 2 else []
    summary = {"gaps": [], "max_exact_gap_se": 0.0, "max_approx_gap_rel": 0.0}
    for _, (closed, mc) in sorted(enumerate(pairs), key=lambda e: e[0] % n):
        a, m, se = closed.throughput, mc.throughput, mc.std_error
        rel = (a - m) / m if m else 0.0
        summary["gaps"].append({
            "term": closed.protocol,
            "group_size": closed.M,
            "shape": closed.N_R,
            "power": closed.ps,
            "analytic": a,
            "monte_carlo": m,
            "std_error": se,
            "rel_gap": rel,
        })
        if closed.protocol in ("c22", "c12"):
            summary["max_approx_gap_rel"] = max(summary["max_approx_gap_rel"], abs(rel))
        elif se:
            summary["max_exact_gap_se"] = max(summary["max_exact_gap_se"], abs(a - m) / se)
    return summary


class _Sweep(NamedTuple):
    """What one experiment sweeps: its labels in row order; its default
    grid(channel); valid(spec, entry), and the error for a bad entry,
    formatted with spec and entry; store(entry), as the spec holds it; an
    entry's channel(spec, entry) and snr_db(spec, entry); a point's fixed
    split(label, cfg, snr_db, entry), None where it is searched; and the
    sidecar's summary(spec, rows), if any."""

    labels: tuple
    grid: Callable
    valid: Callable
    error: str
    store: Callable = lambda entry: entry
    channel: Callable = lambda spec, entry: spec.channel
    snr_db: Callable = lambda spec, entry: spec.snr_db
    split: Optional[Callable] = None
    summary: Optional[Callable] = None


_SWEEPS = {
    "ratio-sweep": _Sweep(
        PROTOCOLS,
        grid=lambda channel: np.geomspace(1e-2, 1e2, 25),
        valid=lambda spec, r: _is_positive(r),
        error="ratio grid entries must be positive finite numbers, got {entry!r}",
        store=float,
        split=lambda label, cfg, snr_db, r: ratio_point(
            PowerBudget(label, _snr_linear(snr_db), cfg.L), r
        ),
        summary=_peaks,
    ),
    "snr-sweep": _Sweep(
        PROTOCOLS,
        grid=lambda channel: range(0, 21, 2),
        valid=lambda spec, s: _is_snr_db(s),
        error="snr grid entries must be dB numbers with 10^(dB/10) a positive "
        "finite double, got {entry!r}",
        store=float,
        snr_db=lambda spec, s: s,
    ),
    "grouping-sweep": _Sweep(
        ("adb",),
        grid=lambda channel: range(1, channel.L),
        valid=lambda spec, m: _is_int(m) and 1 <= m <= spec.channel.L - 1,
        error="grouping grid entries must be integers in [1, L - 1] for "
        "L={spec.channel.L}, got {entry!r}",
        channel=lambda spec, m: replace(spec.channel, M=m),
    ),
    "antenna-sweep": _Sweep(
        PROTOCOLS,
        grid=lambda channel: range(1, 7),
        valid=lambda spec, n: _is_int(n) and n >= 1,
        error="antenna grid entries must be positive integers, got {entry!r}",
        channel=lambda spec, n: replace(spec.channel, N_R=n),
    ),
    # a fixed antenna total split over L relays, M = L/2
    "relay-sweep": _Sweep(
        ("adb",),
        grid=lambda channel: (2, 4, 6, 8, 12),
        valid=lambda spec, L: _is_int(L) and L >= 2 and L % 2 == 0
        and spec.total_antennas % L == 0,
        error="relay grid entries must be even integers >= 2 that divide "
        "total_antennas={spec.total_antennas}, got {entry!r}",
        channel=lambda spec, L: replace(
            spec.channel, L=L, M=L // 2, N_R=spec.total_antennas // L
        ),
    ),
    # each (g, s) is one two-group channel, run at ps = pr = power for each
    # of adb's terms in name order
    "validate": _Sweep(
        tuple(sorted(TERMS)),
        grid=lambda channel: itertools.product((1, 2, 3), (1, 2, 3), (0.1, 1.0, 10.0)),
        valid=lambda spec, e: isinstance(e, (list, tuple)) and len(e) == 3
        and _is_int(e[0]) and _is_int(e[1]) and min(e[:2]) >= 1 and _is_positive(e[2]),
        error="validate grid entries must be [group_size, shape, power], two "
        "positive integers and a positive finite power, got {entry!r}",
        store=lambda e: (e[0], e[1], float(e[2])),
        channel=lambda spec, e: replace(spec.channel, L=2 * e[0], M=e[0], N_R=e[1]),
        snr_db=lambda spec, e: 10.0 * math.log10(e[2]),
        split=lambda label, cfg, snr_db, e: PowerPoint(e[2], e[2]),
        summary=_gaps,
    ),
}
EXPERIMENTS = tuple(_SWEEPS)


def resolve_spec(raw: dict) -> ExperimentSpec:
    """Build a fully validated ExperimentSpec from a raw config mapping.

    Unknown keys anywhere are rejected; omitted sections fall back to the
    defaults (L=4, M=2, N_R=3 channel; 10^6 slots, seed 42; per-experiment
    grid). A sweep estimated to need more than physical memory, or whose
    closed forms would take too long, is rejected before any of it is
    built."""
    _reject_unknown(raw, ExperimentSpec, "config")
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {', '.join(EXPERIMENTS)}; got {experiment!r}"
        )

    channel_raw = {"L": 4, "M": 2, "N_R": 3, **_section(raw, "channel", ChannelConfig)}
    channel = _build(ChannelConfig, channel_raw, "channel")
    sim = _build(SimConfig, _section(raw, "sim", SimConfig), "sim")

    methods = raw.get("methods", list(METHODS))
    if isinstance(methods, str):
        methods = [methods]
    if not isinstance(methods, (list, tuple)) or not methods or not all(
        m in METHODS for m in methods
    ):
        raise ConfigError(f"methods must be a non-empty subset of {METHODS}")
    methods = tuple(m for m in METHODS if m in methods)

    snr_db = raw.get("snr_db", 10.0)
    if not _is_snr_db(snr_db):
        raise ConfigError(
            f"snr_db must be a dB number with 10^(dB/10) a positive finite double, got {snr_db!r}"
        )
    total_antennas = raw.get("total_antennas", 48)
    if not _is_int(total_antennas) or total_antennas < 2:
        raise ConfigError(f"total_antennas must be an integer >= 2, got {total_antennas!r}")
    tolerance = raw.get("tolerance", 1e-3)
    if not isinstance(tolerance, (int, float)) or not 0 < tolerance < 1:
        raise ConfigError(f"tolerance must be in (0, 1), got {tolerance!r}")
    if not isinstance(raw.get("grid", []), (list, tuple)):
        raise ConfigError(f"grid must be a list, got {raw['grid']!r}")
    output_path = raw.get("output_path", f"{experiment}.csv")
    if not isinstance(output_path, str) or not output_path:
        raise ConfigError("output_path must be a non-empty string")

    sweep = _SWEEPS[experiment]
    grid = raw["grid"] if "grid" in raw else sweep.grid(channel)
    # more entries than memory holds at 8 KiB each (see _check_memory) are
    # rejected after reading one past them: a grouping sweep's default
    # grid has L - 1
    most = _physical_memory() // 8192
    grid = tuple(itertools.islice(grid, most + 1))
    if len(grid) > most:
        raise ConfigError(f"grid has over {most} entries, which physical memory cannot hold")
    if not grid:
        raise ConfigError("grid must be non-empty")
    spec = ExperimentSpec(
        experiment=experiment,
        channel=channel,
        sim=sim,
        grid=grid,
        snr_db=float(snr_db),
        total_antennas=total_antennas,
        tolerance=float(tolerance),
        methods=methods,
        output_path=output_path,
    )
    for entry in grid:
        if not sweep.valid(spec, entry):
            raise ConfigError(sweep.error.format(spec=spec, entry=entry))
    spec = replace(spec, grid=tuple(map(sweep.store, grid)))
    requests = [(label, sweep.channel(spec, e)) for label in sweep.labels for e in spec.grid]
    _check_memory(sim, methods, len(spec.grid), requests)
    return spec


def read_config(path: str) -> dict:
    """Read a JSON config file into its raw mapping."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer of too many digits
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def load_spec(path: str) -> ExperimentSpec:
    """Read and resolve a JSON config file."""
    return resolve_spec(read_config(path))


def _row(label, cfg, snr_db, point, est, search) -> SweepRow:
    # the log line ends with the value probes of the split's search, if
    # any: on the stream prefix, if it had one, and on the whole stream
    after = ""
    if search:
        prefix_probes = f"{search['prefix_probes']} prefix and " if search["prefix_probes"] else ""
        after = f" after {prefix_probes}{search['probes']} probes"
    log.info(
        "%s L=%d M=%d N_R=%d snr_db=%g %s %.6g%s",
        label, cfg.L, cfg.M, cfg.N_R, snr_db, est.method, est.value, after,
    )
    return SweepRow(
        protocol=label,
        L=cfg.L,
        M=cfg.M,
        N_R=cfg.N_R,
        snr_db=float(snr_db),
        ps=float(point.ps),
        pr=float(point.pr),
        throughput=est.value,
        std_error=est.std_error,
        method=est.method,
        boundary_ambiguous=est.boundary_ambiguous,
    )


def _evaluators(spec, label, cfg, stats):
    """(evaluate, value, head_value) for one label in method order, for the
    methods the spec asks for that the label has: its closed form, if
    _CLOSED_FORMS has one, its table built here, and Monte Carlo from stats,
    the statistics of the point's stream. value gives evaluate's value and
    pair gaps for the split search; head_value the Monte Carlo one on the
    stream's first 1/_PREFIX_SHARE of slots, or None for a whole-stream one."""
    out = []
    if "analytic" in spec.methods and label in _CLOSED_FORMS:
        build, parts = _CLOSED_FORMS[label]
        parts = partial(parts, cfg, build(cfg))

        def closed(ps, pr, std_error):
            means = [(v, 0.0) for v in parts(ps / cfg.noise_r, pr / cfg.noise_d)]
            return _combine(label, "analytic", ps, pr, means, std_error)

        out.append((partial(closed, std_error=True), partial(closed, std_error=False), None))
    if "monte-carlo" in spec.methods:
        # the final estimate reuses the means its search probed at its split
        mc = partial(_SIMULATORS[label], cfg, stats, memo={})
        head_value = None
        slots = spec.sim.slots // _PREFIX_SHARE
        if slots >= _MIN_PREFIX_SLOTS:
            head_value = partial(_SIMULATORS[label], cfg, stats, std_error=False, slots=slots)
        out.append((mc, partial(mc, std_error=False), head_value))
    return out


def _search(budget, tolerance, value, head_value) -> Tuple[PowerPoint, dict]:
    """The best split of budget, and the search's sidecar entry: its value
    probes on the stream prefix and on the whole stream, and whether the
    optimum sits on a ratio bound. With head_value, the search runs on the
    prefix and polishes its optimum on the whole stream."""
    entry = {"prefix_probes": 0, "probes": 0}

    def counted(fn, key):  # a new callable each search: the search caches
        def probe(ps, pr):
            entry[key] += 1
            return fn(ps, pr)
        return probe

    point = maximize_throughput(
        budget, counted(value, "probes"), tolerance,
        head_value and counted(head_value, "prefix_probes"),
    )
    entry["at_bound"] = at_ratio_bound(point, tolerance)
    return point, entry


def _points(spec: ExperimentSpec) -> list:
    """(label, cfg, snr_db, split) of every sweep point, label-major in row
    order. split is a fixed PowerPoint, or None where the split is
    optimised."""
    sweep = _SWEEPS[spec.experiment]
    points = []
    for label in sweep.labels:
        for entry in spec.grid:
            cfg, snr_db = sweep.channel(spec, entry), sweep.snr_db(spec, entry)
            split = sweep.split(label, cfg, snr_db, entry) if sweep.split else None
            points.append((label, cfg, snr_db, split))
    return points


def _run_stream(spec: ExperimentSpec, points: list, group: list, rows: list):
    """Run the points of one fading stream (indices group of points) into
    their (row, sidecar entry of its split search or None) pairs; for Monte
    Carlo, one sampling pass first builds the statistics of every label and
    M value of the stream. They live as long as this call (nothing built
    from them, evaluator or memo, goes into rows or searches), so one
    stream's are freed before the next stream's are built. Gives the stream's
    diagnostics, with the bytes its statistics hold (a sparse part's whole
    allocation, not just its entries), or None without Monte Carlo."""
    stats = diagnostics = None
    if "monte-carlo" in spec.methods:
        stats = prepare([points[i][:2] for i in group], spec.sim)
        cfg = points[group[0]][1]
        held = [a if a.base is None else a.base for out in stats.values() for a in out]
        diagnostics = {"L": cfg.L, "N_R": cfg.N_R, "stats_bytes": sum(a.nbytes for a in held)}
    for i in group:
        label, cfg, snr_db, split = points[i]
        for evaluate, value, head_value in _evaluators(spec, label, cfg, stats):
            point, search = split, None
            if split is None:
                budget = PowerBudget(label, _snr_linear(snr_db), cfg.L)
                point, search = _search(budget, spec.tolerance, value, head_value)
            est = evaluate(point.ps, point.pr)
            rows[i].append((_row(label, cfg, snr_db, point, est, search), search))
    return diagnostics


def _peak_rss_mb() -> float:
    """This process's own peak RSS in MiB: VmHWM, where /proc/self/status
    has it, for Linux carries the peak of the process that spawned this one
    over fork and exec into ru_maxrss, the fallback elsewhere (KiB on
    Linux, bytes on macOS)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1024.0)


def run_experiment(spec: ExperimentSpec) -> SweepResult:
    """Evaluate every sweep point of spec by each method it asks for, at its
    fixed split or at the best split on the protocol's budget curve.

    Points run grouped by fading stream, in order of first appearance, one
    stream's statistics held at a time. Rows are emitted in point order,
    method-ordered within a point."""
    points = _points(spec)
    groups = {}
    for i, (_, cfg, _, _) in enumerate(points):
        groups.setdefault(stream_key(cfg, spec.sim), []).append(i)
    rows = [[] for _ in points]
    streams = [_run_stream(spec, points, group, rows) for group in groups.values()]
    streams = [s for s in streams if s is not None]
    pairs = [pair for point_rows in rows for pair in point_rows]
    rows = [row for row, _ in pairs]
    summarize = _SWEEPS[spec.experiment].summary
    diagnostics = {
        "streams": streams,
        "max_stats_bytes": max((s["stats_bytes"] for s in streams), default=0),
        # one per optimised row: its value probes on the stream prefix and
        # on the whole stream (over 200 in one stage: the dense-grid
        # fallback), and whether its optimum sits on a ratio bound
        "searches": [
            {"row": i, "protocol": row.protocol, "method": row.method, **search}
            for i, (row, search) in enumerate(pairs) if search
        ],
        "peak_rss_mb": _peak_rss_mb(),
    }
    return SweepResult(
        spec, rows, summarize(spec, rows) if summarize else {}, diagnostics
    )


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(result: SweepResult, path: str):
    """Emit rows in the fixed schema; shortest round-trip float text, LF
    line endings, so identical results are identical bytes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in result.rows:
            rec = asdict(row)
            fh.write(",".join(_format_cell(rec[c]) for c in CSV_COLUMNS) + "\n")


def _version_info() -> dict:
    """The package, numpy and platform versions, and git's description of
    relaylab's own checkout, or None where the package is not its src/relaylab
    (installed, perhaps inside another repository) or git cannot tell."""
    here = os.path.dirname(os.path.abspath(__file__))
    git = partial(subprocess.run, cwd=here, capture_output=True, text=True, timeout=5)
    described = None
    try:
        # this directory's path in its repository: src/relaylab/ in relaylab's
        if git(["git", "rev-parse", "--show-prefix"]).stdout.strip() == "src/relaylab/":
            described = git(["git", "describe", "--always", "--dirty"]).stdout.strip() or None
    except Exception:
        pass
    # CSV bytes also depend on numpy's Philox and log, and on the platform
    return {"package": __version__, "git": described,
            "numpy": np.__version__, "platform": platform.platform()}


def _ambiguous_rows(rows) -> list:
    """Index and key columns of each row whose value min-combines two means
    that lie within one standard error of each other."""
    keys = [c for c in CSV_COLUMNS if c not in ("throughput", "std_error")]
    return [
        {"row": i, **{c: getattr(row, c) for c in keys}}
        for i, row in enumerate(rows) if row.boundary_ambiguous
    ]


def write_summary(result: SweepResult, path: str):
    """JSON sidecar with the resolved spec, version, run summary, the
    boundary-ambiguous rows and the run's diagnostics."""
    payload = {
        "experiment": result.spec.experiment,
        "spec": asdict(result.spec),
        "version": _version_info(),
        "row_count": len(result.rows),
        "summary": result.summary,
        "boundary_ambiguous_rows": _ambiguous_rows(result.rows),
        "diagnostics": result.diagnostics,
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit(result: SweepResult) -> Tuple[str, str]:
    """Write the CSV and its sidecar; returns both paths."""
    path = result.spec.output_path
    stem = os.path.splitext(path)[0]
    summary_path = stem + ".summary.json"
    write_csv(result, path)
    write_summary(result, summary_path)
    return path, summary_path
