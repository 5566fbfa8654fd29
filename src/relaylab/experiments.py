"""Experiments: config resolution, one sweep executor, CSV and summary emission.

Every experiment is a list of (label, channel, snr_db, split) points that one
executor runs by the methods the spec asks for, one row per (point, method)
in a fixed order with a fixed CSV schema, so identical specs yield
byte-identical files. A JSON sidecar records the fully resolved spec, the
package version and the experiment's summary.
"""

import json
import logging
import math
import os
import resource
import subprocess
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from typing import List, Tuple

import numpy as np

from . import __version__
from .analytic import adb_closed, c11_closed, c22_closed
from .channel import ChannelConfig
from .power import (
    PowerBudget,
    PowerPoint,
    evaluate_split,
    maximize_throughput,
    ratio_point,
)
from .simulate import (
    PROTOCOLS,
    TERMS,
    SimConfig,
    ThroughputEstimate,
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

EXPERIMENTS = (
    "ratio-sweep",
    "snr-sweep",
    "grouping-sweep",
    "antenna-sweep",
    "relay-sweep",
    "validate",
)

CSV_COLUMNS = (
    "protocol", "L", "M", "N_R", "snr_db",
    "ps", "pr", "throughput", "std_error", "method",
)

METHODS = ("analytic", "monte-carlo")

# label (protocol or adb component term) -> callable(cfg, stats, ps, pr),
# with stats what prepare returned for the point's stream, looked up as
# each sweep point builds its evaluators.
_SIMULATORS = {label: partial(estimate, label) for label in PROTOCOLS + TERMS}


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
    # how the run went (statistics bytes per stream, peak RSS); the
    # sidecar's diagnostics block, never a CSV byte
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


def _default_grid(experiment: str, channel: ChannelConfig) -> tuple:
    if experiment == "ratio-sweep":
        return tuple(float(r) for r in np.geomspace(1e-2, 1e2, 25))
    if experiment == "snr-sweep":
        return tuple(float(s) for s in range(0, 21, 2))
    if experiment == "grouping-sweep":
        return tuple(range(1, channel.L))
    if experiment == "antenna-sweep":
        return (1, 2, 3, 4, 5, 6)
    if experiment == "relay-sweep":
        return (2, 4, 6, 8, 12)
    return tuple(
        (g, s, p)
        for g in (1, 2, 3)
        for s in (1, 2, 3)
        for p in (0.1, 1.0, 10.0)
    )


def _check_memory(sim: SimConfig, methods: tuple, entries: int, requests):
    """Raise ConfigError when a sweep of grid entries that estimates the
    (label, cfg) pairs of requests would need more than physical memory: 8
    KiB per entry (four points of two rows; a point with its row measured
    about 700 bytes) plus, for Monte Carlo, the largest fading stream with
    the statistics of all its requests."""
    need = entries * 8192
    if "monte-carlo" in methods:
        streams = {}
        for label, cfg in requests:
            streams.setdefault(stream_key(cfg, sim), []).append((label, cfg))
        need += max(stream_bytes(group, sim) for group in streams.values())
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > limit:
        raise ConfigError(f"sweep needs about {need >> 20} MiB; physical memory is {limit >> 20} MiB")


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


def _validate_grid(spec: ExperimentSpec) -> tuple:
    exp, grid = spec.experiment, spec.grid
    if len(grid) == 0:
        raise ConfigError("grid must be non-empty")
    if exp == "ratio-sweep":
        if not all(_is_number(r) and 0 < r < math.inf for r in grid):
            raise ConfigError("ratio grid entries must be positive finite numbers")
        return tuple(float(r) for r in grid)
    if exp == "snr-sweep":
        if not all(_is_snr_db(s) for s in grid):
            raise ConfigError(
                "snr grid entries must be dB numbers with 10^(dB/10) a positive finite double"
            )
        return tuple(float(s) for s in grid)
    if exp == "grouping-sweep":
        if not all(_is_int(m) and 1 <= m <= spec.channel.L - 1 for m in grid):
            raise ConfigError(
                f"grouping grid entries must be integers in [1, {spec.channel.L - 1}]"
            )
        return tuple(grid)
    if exp == "antenna-sweep":
        if not all(_is_int(n) and n >= 1 for n in grid):
            raise ConfigError("antenna grid entries must be positive integers")
        return tuple(grid)
    if exp == "relay-sweep":
        for L in grid:
            if not _is_int(L) or L < 2 or L % 2:
                raise ConfigError(f"relay grid entries must be even integers >= 2, got {L!r}")
            if spec.total_antennas % L:
                raise ConfigError(
                    f"L={L} does not divide total_antennas={spec.total_antennas}"
                )
        return tuple(grid)
    cleaned = []
    for entry in grid:
        entry = tuple(entry) if isinstance(entry, (list, tuple)) else (entry,)
        if len(entry) != 3:
            raise ConfigError("validate grid entries must be [group_size, shape, power]")
        g, s, p = entry
        if not (_is_int(g) and g >= 1 and _is_int(s) and s >= 1):
            raise ConfigError("validate group_size and shape must be positive integers")
        if not (_is_number(p) and 0 < p < math.inf):
            raise ConfigError("validate power must be positive and finite")
        cleaned.append((g, s, float(p)))
    return tuple(cleaned)


def resolve_spec(raw: dict) -> ExperimentSpec:
    """Build a fully validated ExperimentSpec from a raw config mapping.

    Unknown keys anywhere are rejected; omitted sections fall back to the
    defaults (L=4, M=2, N_R=3 channel; 10^6 slots, seed 42; per-experiment
    grid). A sweep estimated to need more than physical memory is rejected
    before any of it is built."""
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

    if "grid" not in raw and experiment == "grouping-sweep":
        # bound its L - 1 default entries before building them
        _check_memory(sim, methods, channel.L - 1, [("adb", channel)])
    spec = ExperimentSpec(
        experiment=experiment,
        channel=channel,
        sim=sim,
        grid=tuple(raw["grid"]) if "grid" in raw else _default_grid(experiment, channel),
        snr_db=float(snr_db),
        total_antennas=total_antennas,
        tolerance=float(tolerance),
        methods=methods,
        output_path=output_path,
    )
    spec = replace(spec, grid=_validate_grid(spec))
    requests = [(label, _channel(spec, e)) for label in _labels(experiment) for e in spec.grid]
    _check_memory(sim, methods, len(spec.grid), requests)
    return spec


def read_config(path: str) -> dict:
    """Read a JSON config file into its raw mapping."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def load_spec(path: str) -> ExperimentSpec:
    """Read and resolve a JSON config file."""
    return resolve_spec(read_config(path))


def _closed_form(label, cfg, ps, pr) -> ThroughputEstimate:
    """Closed-form throughput of the alternating scheme, or of one of its
    component rates: c11 and c22 for group one (size M), c21 and c12 for
    group two (size L - M)."""
    size = cfg.M if label in ("c11", "c22") else cfg.L - cfg.M
    if label == "adb":
        value = adb_closed(ps, pr, cfg)
    elif label in ("c11", "c21"):
        value = c11_closed(ps / cfg.noise_r, size, cfg.N_R, cfg.sigma_g2)
    else:
        value = c22_closed(pr / cfg.noise_d, size, cfg.N_R, cfg.sigma_h2)
    return ThroughputEstimate(value, 0.0, "analytic")


def _row(label, cfg, snr_db, point, est) -> SweepRow:
    log.info(
        "%s L=%d M=%d N_R=%d snr_db=%g %s %.6g",
        label, cfg.L, cfg.M, cfg.N_R, snr_db, est.method, est.value,
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
    """(evaluator, means) for one label in method order, for the methods the
    spec asks for; the selection and decode-forward baselines have no closed
    form. Monte Carlo reads stats, the statistics of the point's stream.
    means gives a Monte Carlo value without its standard error, for the
    split search to compare; a closed form has none to skip."""
    out = []
    if "analytic" in spec.methods and label not in ("crs", "df", "sfd-mmrs"):
        out.append((partial(_closed_form, label, cfg), None))
    if "monte-carlo" in spec.methods:
        mc = partial(_SIMULATORS[label], cfg, stats)
        out.append((mc, partial(mc, std_error=False)))
    return out


def _channel(spec: ExperimentSpec, entry) -> ChannelConfig:
    """The channel of one grid entry."""
    base, exp = spec.channel, spec.experiment
    if exp == "validate":
        # each (g, s) is one two-group channel
        g, s, _ = entry
        return replace(base, L=2 * g, M=g, N_R=s)
    if exp == "antenna-sweep":
        return replace(base, N_R=entry)
    if exp == "grouping-sweep":
        return replace(base, M=entry)
    if exp == "relay-sweep":
        # a fixed antenna total split over L relays, M = L/2
        return replace(base, L=entry, M=entry // 2, N_R=spec.total_antennas // entry)
    return base


def _labels(experiment: str) -> tuple:
    """The labels a sweep estimates, in row order: validate's terms in name
    order, adb alone for the grouping and relay sweeps, else every
    protocol."""
    if experiment == "validate":
        return tuple(sorted(TERMS))
    if experiment in ("grouping-sweep", "relay-sweep"):
        return ("adb",)
    return PROTOCOLS


def _points(spec: ExperimentSpec) -> list:
    """(label, cfg, snr_db, split) of every sweep point, in row order. split
    is a fixed PowerPoint, or None where the split is optimised."""
    base, exp = spec.channel, spec.experiment
    labels = _labels(exp)
    if exp == "ratio-sweep":
        snr = _snr_linear(spec.snr_db)
        return [
            (p, base, spec.snr_db, ratio_point(PowerBudget(p, snr, base.L), r))
            for p in labels for r in spec.grid
        ]
    if exp == "validate":
        # label-major
        return [
            (term, _channel(spec, e), 10.0 * math.log10(e[2]), PowerPoint(e[2], e[2]))
            for term in labels for e in spec.grid
        ]
    if exp == "snr-sweep":
        return [(p, base, snr_db, None) for p in labels for snr_db in spec.grid]
    return [(p, _channel(spec, e), spec.snr_db, None) for p in labels for e in spec.grid]


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
    noise level; beamforming terms (c22/c12) carry the moment-matching
    approximation gap. Both methods are needed, so a single-method run has
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


def _run_stream(spec: ExperimentSpec, points: list, group: list, rows: list):
    """Run the points of one fading stream (indices group of points) into
    their rows; for Monte Carlo, one sampling pass first builds the
    statistics of every label and M value of the stream, which are freed
    when this returns, before the next stream's are built. Gives the
    stream's diagnostics, or None without Monte Carlo."""
    mc = "monte-carlo" in spec.methods
    stats = prepare([points[i][:2] for i in group], spec.sim) if mc else None
    for i in group:
        label, cfg, snr_db, split = points[i]
        for evaluate, means in _evaluators(spec, label, cfg, stats):
            if split is None:
                budget = PowerBudget(label, _snr_linear(snr_db), cfg.L)
                point, est = maximize_throughput(
                    budget, evaluate, spec.tolerance, means
                )
            else:
                point, est = split, evaluate_split(evaluate, split)
            rows[i].append(_row(label, cfg, snr_db, point, est))
    if mc:
        nbytes = sum(a.nbytes for out in stats.values() for a in out)
        return {"L": cfg.L, "N_R": cfg.N_R, "stats_bytes": nbytes}


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
    rows = [row for point_rows in rows for row in point_rows]
    summarize = {"ratio-sweep": _peaks, "validate": _gaps}.get(spec.experiment)
    diagnostics = {
        "streams": streams,
        "max_stats_bytes": max((s["stats_bytes"] for s in streams), default=0),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
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
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=5,
        ).stdout.strip() or None
    except Exception:
        described = None
    return {"package": __version__, "git": described}


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
