import json
import logging
import math
import os
import platform
import statistics
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import _slot_major
import relaylab
from relaylab import experiments, simulate
from relaylab.channel import ChannelConfig
from relaylab.experiments import (
    CSV_COLUMNS,
    EXPERIMENTS,
    ConfigError,
    SweepRow,
    emit,
    load_spec,
    resolve_spec,
    run_experiment,
    write_csv,
)
from relaylab.simulate import SimConfig

from _oracles import parse_csv

FAST_SIM = {"sim": {"slots": 30_000}}


def test_defaults_resolution():
    spec = resolve_spec({"experiment": "ratio-sweep"})
    assert spec.channel == ChannelConfig(L=4, M=2, N_R=3)
    assert spec.sim == SimConfig(slots=1_000_000, seed=42, workers=1)
    assert len(spec.grid) == 25
    assert spec.grid[0] == pytest.approx(1e-2) and spec.grid[-1] == pytest.approx(1e2)
    assert spec.snr_db == 10.0
    assert spec.methods == ("analytic", "monte-carlo")
    assert spec.output_path == "ratio-sweep.csv"


def test_default_grids_per_experiment():
    assert len(resolve_spec({"experiment": "snr-sweep"}).grid) == 11
    assert resolve_spec({"experiment": "snr-sweep"}).grid[:3] == (0.0, 2.0, 4.0)
    assert resolve_spec(
        {"experiment": "grouping-sweep", "channel": {"L": 6, "M": 3}}
    ).grid == (1, 2, 3, 4, 5)
    assert resolve_spec({"experiment": "antenna-sweep"}).grid == (1, 2, 3, 4, 5, 6)
    assert resolve_spec({"experiment": "relay-sweep"}).grid == (2, 4, 6, 8, 12)
    assert len(resolve_spec({"experiment": "validate"}).grid) == 27


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError):
        resolve_spec({"experiment": "ratio-sweep", "extra": 1})
    with pytest.raises(ConfigError):
        resolve_spec({"experiment": "ratio-sweep", "channel": {"LL": 4}})
    with pytest.raises(ConfigError):
        resolve_spec({"experiment": "ratio-sweep", "sim": {"slot": 10}})


def test_invalid_specs_rejected():
    with pytest.raises(ConfigError):
        resolve_spec({})
    with pytest.raises(ConfigError):
        resolve_spec({"experiment": "nope"})
    with pytest.raises(ConfigError):
        resolve_spec({"experiment": "ratio-sweep", "grid": []})
    with pytest.raises(ConfigError):
        resolve_spec({"experiment": "ratio-sweep", "grid": [0.1, -1.0]})
    with pytest.raises(ConfigError):
        resolve_spec({"experiment": "grouping-sweep", "grid": [0]})
    with pytest.raises(ConfigError):
        resolve_spec({"experiment": "grouping-sweep", "grid": [4]})
    with pytest.raises(ConfigError):
        resolve_spec({"experiment": "relay-sweep", "grid": [5]})
    with pytest.raises(ConfigError):
        resolve_spec({"experiment": "relay-sweep", "grid": [10]})
    with pytest.raises(ConfigError):
        resolve_spec({"experiment": "antenna-sweep", "grid": [2, 0]})
    with pytest.raises(ConfigError):
        resolve_spec({"experiment": "validate", "grid": [[1, 2]]})
    with pytest.raises(ConfigError):
        resolve_spec({"experiment": "validate", "grid": [[0, 2, 1.0]]})
    with pytest.raises(ConfigError):
        resolve_spec({"experiment": "validate", "grid": [[1, 2, 0.0]]})
    with pytest.raises(ConfigError):
        resolve_spec({"experiment": "ratio-sweep", "methods": ["psychic"]})
    with pytest.raises(ConfigError):
        resolve_spec({"experiment": "ratio-sweep", "channel": {"L": 4, "M": 4}})
    with pytest.raises(ConfigError):
        resolve_spec({"experiment": "ratio-sweep", "snr_db": math.inf})
    with pytest.raises(ConfigError):
        resolve_spec({"experiment": "ratio-sweep", "tolerance": 2.0})
    with pytest.raises(ConfigError):
        resolve_spec({"experiment": "ratio-sweep", "output_path": ""})


# one bad grid entry of each experiment, and one good entry beside it
_BAD_ENTRIES = {
    "ratio-sweep": (1.0, -1.0),
    "snr-sweep": (10.0, 4000),
    "grouping-sweep": (1, 4),
    "antenna-sweep": (2, 0),
    "relay-sweep": (4, 10),
    "validate": ([1, 2, 1.0], [1, 2]),
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_bad_grid_entry_is_named_in_one_line(experiment):
    # the sweep table holds every experiment, each with a grid check whose
    # message formats and names the entry it rejects
    assert EXPERIMENTS == tuple(experiments._SWEEPS)
    good, bad = _BAD_ENTRIES[experiment]
    with pytest.raises(ConfigError) as exc:
        resolve_spec({"experiment": experiment, "grid": [good, bad]})
    message = str(exc.value)
    assert repr(bad) in message and "\n" not in message


_KEY_PATHS = [
    (key,) for key in (
        "experiment", "channel", "sim", "grid", "snr_db",
        "total_antennas", "tolerance", "methods", "output_path",
    )
] + [
    ("channel", key)
    for key in ("L", "M", "N_R", "sigma_g2", "sigma_h2", "noise_r", "noise_d")
] + [("sim", key) for key in ("slots", "seed", "workers")]

_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 64)
    | st.sampled_from([2**63, 10**30, -(10**30)])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
@settings(derandomize=True, deadline=None)
@given(path=st.sampled_from(_KEY_PATHS), value=_JSON_VALUES)
@example(path=("channel", "L"), value=10**30)
def test_any_single_key_value_resolves_or_is_config_error(experiment, path, value):
    raw = {"experiment": experiment}
    if len(path) == 2:
        raw[path[0]] = {path[1]: value}
    else:
        raw[path[0]] = value
    try:
        resolve_spec(raw)
    except ConfigError:
        pass


def test_relay_sweep_requires_divisible_antennas():
    spec = resolve_spec(
        {"experiment": "relay-sweep", "grid": [6], "total_antennas": 48}
    )
    assert spec.grid == (6,)
    with pytest.raises(ConfigError):
        resolve_spec({"experiment": "relay-sweep", "grid": [6], "total_antennas": 40})


def test_methods_normalization():
    spec = resolve_spec({"experiment": "ratio-sweep", "methods": "monte-carlo"})
    assert spec.methods == ("monte-carlo",)
    spec = resolve_spec(
        {"experiment": "ratio-sweep", "methods": ["monte-carlo", "analytic"]}
    )
    assert spec.methods == ("analytic", "monte-carlo")


def test_ratio_sweep_rows_and_order():
    spec = resolve_spec(
        {"experiment": "ratio-sweep", "grid": [0.5, 2.0], **FAST_SIM}
    )
    result = run_experiment(spec)
    # 2 analytic rows for the beamforming scheme + 2 MC rows per protocol
    assert len(result.rows) == 2 + 8
    protocols = [r.protocol for r in result.rows]
    assert protocols == sorted(protocols)
    adb_rows = [r for r in result.rows if r.protocol == "adb"]
    assert [r.method for r in adb_rows] == ["analytic", "monte-carlo"] * 2
    assert all(r.snr_db == 10.0 for r in result.rows)
    assert all(r.throughput >= 0 for r in result.rows)
    assert "peaks" in result.summary


def test_ratio_sweep_respects_budgets():
    spec = resolve_spec(
        {"experiment": "ratio-sweep", "grid": [1.0], "snr_db": 10.0, **FAST_SIM}
    )
    rows = run_experiment(spec).rows
    snr = 10.0
    weight = {"adb": 2.0, "crs": 4.0, "df": 4.0, "sfd-mmrs": 4.0}
    total = {"adb": snr, "crs": 2 * snr, "df": 2 * snr, "sfd-mmrs": snr}
    for r in rows:
        spent = r.ps + weight[r.protocol] * r.pr
        assert spent == pytest.approx(total[r.protocol], rel=1e-9)


def test_grouping_sweep_symmetry_and_rows():
    spec = resolve_spec({
        "experiment": "grouping-sweep",
        "channel": {"L": 6, "M": 3},
        "sim": {"slots": 20_000},
        "tolerance": 1e-2,
    })
    result = run_experiment(spec)
    analytic = {r.M: r.throughput for r in result.rows if r.method == "analytic"}
    assert analytic[1] == analytic[5]
    assert analytic[2] == analytic[4]
    assert all(r.protocol == "adb" for r in result.rows)
    assert sorted(analytic) == [1, 2, 3, 4, 5]


def test_validate_rows_and_gaps():
    spec = resolve_spec({
        "experiment": "validate",
        "grid": [[1, 2, 1.0], [2, 1, 10.0]],
        "sim": {"slots": 150_000},
    })
    result = run_experiment(spec)
    terms = sorted({r.protocol for r in result.rows})
    assert terms == ["c11", "c12", "c21", "c22"]
    # 4 terms x 2 triples x 2 methods
    assert len(result.rows) == 16
    gaps = result.summary["gaps"]
    assert len(gaps) == 8
    # grid-major, terms in name order within each grid entry
    assert [(g["group_size"], g["term"]) for g in gaps] == [
        (size, term) for size in (1, 2) for term in ("c11", "c12", "c21", "c22")
    ]
    exact = [g for g in gaps if g["term"] in ("c11", "c21")]
    for g in exact:
        assert abs(g["analytic"] - g["monte_carlo"]) <= 3.5 * g["std_error"]
    approx_21 = [g for g in gaps if g["term"] in ("c22", "c12") and g["group_size"] == 2]
    assert approx_21 and all(abs(g["rel_gap"]) <= 0.12 for g in approx_21)
    exact_single = [g for g in gaps if g["term"] in ("c22", "c12") and g["group_size"] == 1]
    for g in exact_single:
        assert abs(g["analytic"] - g["monte_carlo"]) <= 3.5 * g["std_error"]


def test_validate_analytic_only_samples_nothing(monkeypatch):
    # a single-method run builds only that method's evaluators
    calls = []
    sample_gains = simulate.sample_gains

    def counting(*args):
        calls.append(args[2:])
        return sample_gains(*args)

    monkeypatch.setattr(simulate, "sample_gains", counting)
    result = run_experiment(resolve_spec({"experiment": "validate", "methods": ["analytic"]}))
    assert len(result.rows) == 4 * 27
    assert calls == []
    assert result.summary["gaps"] == []


def test_ratio_peaks_are_grid_values():
    # on the adb budget curve at 10 dB none of these ratios survives ps/pr
    grid = [0.1077872617411859, 0.9260624110733137, 12.614543385908233]
    spec = resolve_spec({"experiment": "ratio-sweep", "grid": grid, "methods": ["analytic"]})
    result = run_experiment(spec)
    rows = result.rows
    assert all(r.ps / r.pr != ratio for r, ratio in zip(rows, grid))
    best = max(range(3), key=lambda i: rows[i].throughput)
    assert result.summary["peaks"] == {
        "adb/analytic": {"ratio": grid[best], "throughput": rows[best].throughput}
    }


def test_snr_sweep_monotone():
    spec = resolve_spec({
        "experiment": "snr-sweep",
        "grid": [0, 10, 20],
        "sim": {"slots": 20_000},
        "tolerance": 1e-2,
    })
    result = run_experiment(spec)
    for protocol in ("adb", "crs", "df", "sfd-mmrs"):
        vals = [
            r.throughput for r in result.rows
            if r.protocol == protocol and r.method == "monte-carlo"
        ]
        assert len(vals) == 3
        assert vals == sorted(vals)


def test_csv_round_trip(tmp_path):
    spec = resolve_spec(
        {"experiment": "ratio-sweep", "grid": [0.7, 3.3], **FAST_SIM}
    )
    result = run_experiment(spec)
    path = tmp_path / "out.csv"
    write_csv(result, str(path))
    text = path.read_bytes().decode("utf-8")
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert "\r" not in text
    rows = parse_csv(str(path))
    assert rows == result.rows


def test_rerun_is_byte_identical(tmp_path):
    raw = {"experiment": "ratio-sweep", "grid": [0.4, 1.7], **FAST_SIM}
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_csv(run_experiment(resolve_spec(raw)), str(a))
    write_csv(run_experiment(resolve_spec(raw)), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_emit_sidecar_reproduces_spec(tmp_path):
    raw = {
        "experiment": "validate",
        "grid": [[1, 1, 1.0]],
        "sim": {"slots": 10_000},
        "output_path": str(tmp_path / "v.csv"),
    }
    spec = resolve_spec(raw)
    result = run_experiment(spec)
    csv_path, summary_path = emit(result)
    assert csv_path == raw["output_path"]
    payload = json.loads((tmp_path / "v.summary.json").read_text())
    assert payload["row_count"] == len(result.rows)
    assert payload["spec"]["sim"]["seed"] == 42
    assert payload["version"]["package"] == relaylab.__version__
    assert payload["version"]["numpy"] == np.__version__
    assert payload["version"]["platform"] == platform.platform()
    # the sidecar spec resolves back to the identical ExperimentSpec
    assert resolve_spec(payload["spec"]) == spec


def test_sidecar_lists_boundary_ambiguous_rows(tmp_path):
    # the flag rides on each row and is listed in the sidecar, never in the
    # CSV: clearing it leaves the CSV bytes as they are
    raw = {
        "experiment": "relay-sweep",
        "grid": [2, 4],
        "sim": {"slots": 20_000},
        "output_path": str(tmp_path / "r.csv"),
    }
    result = run_experiment(resolve_spec(raw))
    flagged = [i for i, row in enumerate(result.rows) if row.boundary_ambiguous]
    assert flagged
    csv_path, summary_path = emit(result)
    cleared = replace(
        result, rows=[replace(row, boundary_ambiguous=False) for row in result.rows]
    )
    write_csv(cleared, str(tmp_path / "cleared.csv"))
    with open(csv_path, "rb") as a, open(tmp_path / "cleared.csv", "rb") as b:
        assert a.read() == b.read()
    listed = json.loads((tmp_path / "r.summary.json").read_text())["boundary_ambiguous_rows"]
    assert [entry["row"] for entry in listed] == flagged
    row = result.rows[flagged[0]]
    assert listed[0] == {
        "row": flagged[0],
        **{c: getattr(row, c) for c in CSV_COLUMNS if c not in ("throughput", "std_error")},
    }


@pytest.mark.parametrize("raw, streams", [
    # three M values of one stream, built in one pass: 3 x 4 slot-long rows
    (
        {"experiment": "grouping-sweep", "channel": {"L": 4, "M": 2, "N_R": 2}},
        [(4, 2, 12)],
    ),
    # one stream a relay count, adb's 4 rows each
    ({"experiment": "relay-sweep", "grid": [2, 4]}, [(2, 24, 4), (4, 12, 4)]),
], ids=["grouping", "relay"])
def test_sidecar_diagnostics(tmp_path, raw, streams):
    # statistics bytes per stream, the value probes of each split search
    # and the peak RSS go to the sidecar, never to the CSV: clearing them
    # leaves its bytes
    slots = 20_000
    raw = {**raw, "sim": {"slots": slots}, "output_path": str(tmp_path / "d.csv")}
    result = run_experiment(resolve_spec(raw))
    csv_path, summary_path = emit(result)
    diagnostics = json.loads((tmp_path / "d.summary.json").read_text())["diagnostics"]
    assert set(diagnostics) == {"streams", "max_stats_bytes", "searches", "peak_rss_mb"}
    assert diagnostics["streams"] == [
        {"L": L, "N_R": N_R, "stats_bytes": rows * 8 * slots}
        for L, N_R, rows in streams
    ]
    assert diagnostics["max_stats_bytes"] == max(rows for *_, rows in streams) * 8 * slots
    # every row of these sweeps has its split optimised
    searches = diagnostics["searches"]
    assert [(s["row"], s["protocol"], s["method"]) for s in searches] == [
        (i, row.protocol, row.method) for i, row in enumerate(result.rows)
    ]
    # streams this short are searched whole, and no optimum is clipped
    assert all(s["probes"] >= 1 and s["prefix_probes"] == 0 for s in searches)
    assert not any(s["at_bound"] for s in searches)
    assert diagnostics["peak_rss_mb"] > 0
    write_csv(replace(result, diagnostics={}), str(tmp_path / "cleared.csv"))
    with open(csv_path, "rb") as a, open(tmp_path / "cleared.csv", "rb") as b:
        assert a.read() == b.read()


def test_probe_budget_per_protocol(tmp_path):
    # the sidecar's probe counts on a small antenna sweep: Brent's method
    # reaches crs's and df's peaks, and sfd-mmrs's crossing, in a median of
    # at most 20 value probes; adb's golden section takes 41, with either
    # method; fixed splits (validate) make no search
    raw = {"experiment": "antenna-sweep", "sim": {"slots": 2_000},
           "output_path": str(tmp_path / "a.csv")}
    emit(run_experiment(resolve_spec(raw)))
    searches = json.loads((tmp_path / "a.summary.json").read_text())["diagnostics"]["searches"]
    probes = {}
    for s in searches:
        probes.setdefault(s["protocol"], []).append(s["probes"])
    assert {p: len(n) for p, n in probes.items()} == {"adb": 12, "crs": 6, "df": 6, "sfd-mmrs": 6}
    for protocol in ("crs", "df", "sfd-mmrs"):
        assert statistics.median(probes[protocol]) <= 20, protocol
    assert statistics.median(probes["adb"]) == 41
    validate = run_experiment(resolve_spec({"experiment": "validate", "sim": {"slots": 2_000}}))
    assert validate.diagnostics["searches"] == []


def test_prefix_search_matches_whole_stream_search(monkeypatch, caplog):
    # just above the cut-off, each Monte Carlo split search runs on the
    # stream's first 1/16 and is polished on the whole stream. Its optimum
    # rows lie within 0.25 standard errors of a whole-stream search's,
    # analytic rows keep their bits, and the sidecar and the log count the
    # probes of each stage
    slots = experiments._PREFIX_SHARE * experiments._MIN_PREFIX_SLOTS
    spec = resolve_spec({"experiment": "antenna-sweep", "grid": [1, 4], "sim": {"slots": slots}})
    with caplog.at_level(logging.INFO, logger="relaylab"):
        two_stage = run_experiment(spec)
    # one line per row, logged in stream order: keyed by the row's columns
    lines = {
        " ".join(m.split()[:6]): m for m in
        (r.getMessage() for r in caplog.records if r.levelno == logging.INFO)
    }
    assert len(lines) == 10
    monkeypatch.setattr(experiments, "_MIN_PREFIX_SLOTS", experiments._MIN_PREFIX_SLOTS + 1)
    whole = run_experiment(spec)
    assert len(two_stage.rows) == len(whole.rows) == 10
    for a, b in zip(two_stage.rows, whole.rows):
        if a.method == "analytic":
            assert a == b
        else:
            assert abs(a.throughput - b.throughput) <= 0.25 * b.std_error, a
    searches = two_stage.diagnostics["searches"]
    assert [s["row"] for s in searches] == list(range(10))
    for s, r in zip(searches, two_stage.rows):
        line = lines[f"{r.protocol} L={r.L} M={r.M} N_R={r.N_R} snr_db=10 {r.method}"]
        if s["method"] == "analytic":
            assert s["prefix_probes"] == 0 and s["probes"] == 41
            assert line.endswith(" after 41 probes")
        else:
            assert s["prefix_probes"] >= 9 and 1 <= s["probes"] <= 15
            assert line.endswith(f" after {s['prefix_probes']} prefix and {s['probes']} probes")
    assert not any(s["at_bound"] for s in searches)
    assert all(s["prefix_probes"] == 0 for s in whole.diagnostics["searches"])


def test_search_on_a_ratio_bound_is_flagged(tmp_path):
    # 12 antennas on 12 relays: adb's best split lies past ps/pr = 100, so
    # both methods' searches end on the bound, and the sidecar says so
    raw = {
        "experiment": "relay-sweep",
        "total_antennas": 12,
        "grid": [4, 12],
        "sim": {"slots": 20_000},
        "output_path": str(tmp_path / "r.csv"),
    }
    result = run_experiment(resolve_spec(raw))
    emit(result)
    searches = json.loads((tmp_path / "r.summary.json").read_text())["diagnostics"]["searches"]
    assert [(s["method"], s["at_bound"]) for s in searches] == [
        ("analytic", False), ("monte-carlo", False), ("analytic", True), ("monte-carlo", True)
    ]
    assert [r.ps / r.pr for r in result.rows[2:]] == [pytest.approx(100.0)] * 2


def test_load_spec_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_spec(str(p))
    p2 = tmp_path / "list.json"
    p2.write_text("[1,2]")
    with pytest.raises(ConfigError):
        load_spec(str(p2))
    with pytest.raises(ConfigError):
        load_spec(str(tmp_path / "missing.json"))


def test_grouping_sweep_samples_each_stream_once(monkeypatch):
    # every group split and power probe reads one stream's statistics:
    # streams are keyed only on what sample_gains reads, not on M. The calls
    # tile [0, slots) once, in contiguous blocks of 2^17 draws at most.
    calls = []
    sample_gains = simulate.sample_gains

    def counting(*args):
        calls.append(args[2:])
        return sample_gains(*args)

    monkeypatch.setattr(simulate, "sample_gains", counting)
    slots = 70_000
    run_experiment(resolve_spec({
        "experiment": "grouping-sweep",
        "channel": {"L": 6, "M": 3, "N_R": 2},
        "sim": {"slots": slots, "seed": 5},
        "methods": ["monte-carlo"],
    }))
    block = simulate._BLOCK_DRAWS // (2 * 6 * 2)
    assert len(calls) == -(-slots // block)
    end = 0
    for start, count in sorted(calls):
        assert start == end and 1 <= count <= block
        end = start + count
    assert end == slots


def _mc_csv_bytes(tmp_path, name, raw):
    raw = {**raw, "methods": ["monte-carlo"], "output_path": str(tmp_path / name)}
    path, _ = emit(run_experiment(resolve_spec(raw)))
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("raw", [
    # Group sizes from 1 to 19 cross numpy's 8-term pairwise threshold. A
    # weak relay-destination side makes the beamforming sums bind at every
    # power split, so the rows come from the summed statistics.
    {
        "experiment": "grouping-sweep",
        "channel": {"L": 20, "M": 10, "N_R": 1, "sigma_h2": 1e-6},
        "grid": [1, 8, 9, 10, 17, 19],
        "sim": {"slots": 20_000, "seed": 8},
    },
    {
        "experiment": "antenna-sweep",
        "channel": {"L": 9, "M": 4, "N_R": 1, "sigma_h2": 1e-6},
        "grid": [1, 2],
        "sim": {"slots": 20_000, "seed": 9},
    },
], ids=["grouping-L20", "antenna-L9"])
def test_relay_major_sweep_matches_slot_major_oracle(tmp_path, monkeypatch, raw):
    fast = _mc_csv_bytes(tmp_path, "relay-major.csv", raw)
    for protocol, fn in _slot_major.simulators(SimConfig(**raw["sim"])).items():
        monkeypatch.setitem(experiments._SIMULATORS, protocol, fn)
    assert _mc_csv_bytes(tmp_path, "slot-major.csv", raw) == fast


def test_each_stream_is_freed_before_the_next_is_built(monkeypatch):
    # one stream's statistics are held at a time: when the next stream's
    # prepare starts, a weak reference to an array of every earlier one
    # is dead, without waiting for the garbage collector
    held = []
    prepare = experiments.prepare

    def tracking(requests, sim):
        assert all(ref() is None for ref in held)
        stats = prepare(requests, sim)
        held.append(weakref.ref(next(iter(stats.values()))[0]))
        return stats

    monkeypatch.setattr(experiments, "prepare", tracking)
    run_experiment(resolve_spec({
        "experiment": "relay-sweep",
        "grid": [2, 4, 6],
        "sim": {"slots": 5_000},
    }))
    assert len(held) == 3
    assert all(ref() is None for ref in held)


def test_each_statistic_is_freed_after_its_last_point(monkeypatch):
    # an antenna-sweep stream runs adb, crs, df and sfd-mmrs in that order;
    # adb's statistic is read by its own point alone, so it is dead before
    # sfd-mmrs's first probe, while the statistic crs and sfd-mmrs share
    # lives until then; the diagnostics still count every statistic
    _check_statistics_freed(monkeypatch)


def test_prefix_views_are_freed_with_their_statistic(monkeypatch):
    # with the cut-off lowered, 5000 slots have a 312-slot prefix whose
    # views hold their statistic's arrays: they go with it
    monkeypatch.setattr(experiments, "_MIN_PREFIX_SLOTS", 64)
    _check_statistics_freed(monkeypatch)


def _check_statistics_freed(monkeypatch):
    adb, shared, seen, sizes = [], [], [], []
    prepare, sfd = experiments.prepare, experiments._SIMULATORS["sfd-mmrs"]

    def tracking(requests, sim):
        stats = prepare(requests, sim)
        sizes.append(sum(a.nbytes for out in stats.values() for a in out))
        cfg = requests[0][1]
        adb.append(weakref.ref(stats[simulate._statistic("adb", cfg)][0]))
        shared.append(weakref.ref(stats[simulate._statistic("crs", cfg)][0]))
        return stats

    def probing(*args, **kwargs):
        seen.append((adb[-1]() is None, shared[-1]() is None))
        return sfd(*args, **kwargs)

    monkeypatch.setattr(experiments, "prepare", tracking)
    monkeypatch.setitem(experiments._SIMULATORS, "sfd-mmrs", probing)
    result = run_experiment(resolve_spec({
        "experiment": "antenna-sweep",
        "grid": [1, 2],
        "sim": {"slots": 5_000},
        "methods": ["monte-carlo"],
    }))
    assert len(adb) == 2 and seen
    assert set(seen) == {(True, False)}
    assert all(ref() is None for ref in adb + shared)
    assert [s["stats_bytes"] for s in result.diagnostics["streams"]] == sizes


def test_worker_counts_are_compared_in_one_process(tmp_path, monkeypatch):
    # criterion 9's runs at one and at several workers share a process;
    # each must sample its own stream, the second on pool threads, and
    # both must give the same CSV bytes
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    threads = []
    sample_gains = simulate.sample_gains

    def recording(*args):
        threads.append(threading.current_thread())
        return sample_gains(*args)

    monkeypatch.setattr(simulate, "sample_gains", recording)
    blobs, runs = [], []
    for workers in (1, 2):
        raw = {
            "experiment": "ratio-sweep",
            "grid": [0.5, 1.0, 2.0],
            "sim": {"slots": 50_000, "workers": workers},
        }
        blobs.append(_mc_csv_bytes(tmp_path, f"w{workers}.csv", raw))
        runs.append(threads[:])
        threads.clear()
    main = threading.main_thread()
    assert runs[0] and all(t is main for t in runs[0])
    assert runs[1] and any(t is not main for t in runs[1])
    assert blobs[0] == blobs[1]
