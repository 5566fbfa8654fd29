"""relaylab benchmark: three sweeps, each run as a CLI user runs it.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Every measurement is a fresh, single-threaded child process (bench/child.py)
that makes the CLI's public calls: load_spec -> run_experiment -> emit. Its
CSV is checked row by row against a frozen reference in bench/reference/.
Before measuring, the fading stream is checked against frozen sha256
digests; if one differs, the benchmark reports nothing and exits 3.

--trace 0 reports the end-to-end metrics, medians over the children that fit
in --seconds:
  wall_s       spawn of the child until it has written its CSV and summary
               and exited
  setup_s      spawn until the spec is resolved (interpreter start, numpy and
               relaylab import, config validation); also sampled by several
               children that stop right after resolving
  peak_rss_mb  the child's own peak RSS, from its os.wait4 rusage

--trace 1 runs untraced/traced child pairs instead and reports per-layer
metrics from the spans the traced child records (bench/spans.py). See
bench/README.md for what each layer metric should move, and on which
workload.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; an operation is one CSV row.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference")
WORK = os.path.join(HERE, "_work")

DEFAULT_SEED = 42
HELD_OUT_SEED = 20201
SLOTS = 200_000
SETUP_PROBES = 7

# Each workload stresses a different module; see bench/README.md.
# grouping-analytic is not listed in BENCHMARK.json: its pure-Python closed
# forms swing with the shared host's speed by more than the wall_s bound
# between sets of runs, so it is for manual runs only.
WORKLOADS = {
    "antenna-200k": {"experiment": "antenna-sweep"},
    "relay-200k": {"experiment": "relay-sweep"},
    "grouping-analytic": {
        "experiment": "grouping-sweep",
        "channel": {"L": 10, "M": 5, "N_R": 6},
        "methods": ["analytic"],
    },
}

KEY_COLUMNS = ("protocol", "L", "M", "N_R", "snr_db", "method")
NUMBER_COLUMNS = ("L", "M", "N_R", "snr_db", "ps", "pr", "throughput", "std_error")
# relaylab.power.PROTOCOLS; this process never imports relaylab (see guard.py).
PROTOCOLS = ("adb", "crs", "df", "sfd-mmrs")
CSV_NAME = "sweep.csv"
SUMMARY_NAME = "sweep.summary.json"

CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": SRC,
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def write_config(workload: str, seed: int, directory: str) -> str:
    raw = dict(WORKLOADS[workload])
    raw["sim"] = {"slots": SLOTS, "seed": seed, "workers": 1}
    raw["output_path"] = CSV_NAME
    path = os.path.join(directory, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    return path


def run_child(work: str, config: str, tag: str, *extra: str) -> dict:
    """Spawn one child in `work` and time it from spawn to exit. Peak RSS
    comes from this child's own rusage, never RUSAGE_CHILDREN, which is a
    running maximum over every child reaped so far."""
    for name in (CSV_NAME, SUMMARY_NAME):
        if os.path.exists(os.path.join(work, name)):
            os.remove(os.path.join(work, name))
    out = os.path.join(work, tag + ".json")
    err_path = os.path.join(work, tag + ".err")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), config, out, *extra]
    with open(err_path, "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=work, env=CHILD_ENV,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "wall": t_exit - t_spawn,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "returncode": proc.returncode,
    }
    if proc.returncode == 0:
        with open(out, "r", encoding="utf-8") as fh:
            record = json.load(fh)
        result["setup"] = record["t_resolved"] - t_spawn
        result["trace"] = record.get("trace")
    else:
        with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        print(f"child {tag} exited {proc.returncode}:\n{tail}", file=sys.stderr)
    return result


# ---- correctness ---------------------------------------------------------

def reference_path(workload: str, seed: int) -> str:
    return os.path.join(REFERENCE, f"{workload}-seed{seed}.csv")


def load_reference(workload: str, seed: int) -> dict:
    """The frozen CSV for this seed. Seeds without one are checked against
    the default seed's rows: same keys and schema, the same analytic values
    (closed forms do not depend on the seed), and Monte Carlo values within
    6 combined standard errors."""
    path = reference_path(workload, seed)
    seeded = os.path.exists(path) or WORKLOADS[workload].get("methods") == ["analytic"]
    if not os.path.exists(path):
        path = reference_path(workload, DEFAULT_SEED)
    with open(path, "rb") as fh:
        data = fh.read()
    header, rows = _parse_csv(data)
    return {"bytes": data, "header": header, "rows": rows, "seeded": seeded}


def _parse_csv(data: bytes):
    reader = csv.DictReader(io.StringIO(data.decode("utf-8"), newline=""))
    return tuple(reader.fieldnames or ()), list(reader)


def _row_ok(row: dict, want: dict, seeded: bool) -> bool:
    if any(row.get(c) != want[c] for c in KEY_COLUMNS):
        return False
    try:
        values = {c: float(row[c]) for c in NUMBER_COLUMNS}
    except (TypeError, ValueError):
        return False
    if not all(math.isfinite(v) for v in values.values()):
        return False
    value, se = values["throughput"], values["std_error"]
    if value < 0 or se < 0:
        return False
    ref_value, ref_se = float(want["throughput"]), float(want["std_error"])
    if row["method"] == "analytic":
        return se == 0.0 and abs(value - ref_value) <= 1e-12 * abs(ref_value)
    if seeded:
        return abs(value - ref_value) <= 3.0 * ref_se
    # Independent seeds: a loose check that still catches a biased estimator.
    return abs(value - ref_value) <= 6.0 * math.hypot(se, ref_se)


def check_output(work: str, child: dict, ref: dict):
    """(attempted, failed, identical) for one child's CSV. A failed child or
    a CSV with the wrong header or row count fails every expected row."""
    expected = ref["rows"]
    everything = len(expected), len(expected), False
    if child["returncode"] != 0 or not os.path.exists(os.path.join(work, SUMMARY_NAME)):
        return everything
    try:
        with open(os.path.join(work, CSV_NAME), "rb") as fh:
            data = fh.read()
        header, rows = _parse_csv(data)
    except (OSError, UnicodeDecodeError, csv.Error):
        return everything
    if header != ref["header"] or len(rows) != len(expected):
        return everything
    failed = sum(
        not _row_ok(row, want, ref["seeded"]) for row, want in zip(rows, expected)
    )
    return len(expected), failed, ref["seeded"] and data == ref["bytes"]


# ---- fading-stream guard -------------------------------------------------

def check_stream() -> dict:
    """Run bench/guard.py; its JSON names the numpy version and the frozen
    sample_gains cases whose digest changed."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "guard.py")], env=CHILD_ENV,
        stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"stream guard failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout)


# ---- per-layer metrics from one traced child ------------------------------

def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _distinct_slots(spans) -> int:
    ranges = defaultdict(set)
    for s in spans:
        ranges[(s["cfg"], s["seed"])].add((s["slot"], s["slot"] + s["count"]))
    total = 0
    for intervals in ranges.values():
        end = -1
        for lo, hi in sorted(intervals):
            total += max(0, hi - max(lo, end))
            end = max(end, hi)
    return total


def layer_metrics(trace: dict) -> dict:
    spans = trace["spans"]
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children[s["parent"]].append(i)
    dur = [s["end"] - s["start"] for s in spans]
    own = [
        dur[i] - sum(dur[j] for j in children[i]) - s["en_s"]
        for i, s in enumerate(spans)
    ]
    named = defaultdict(list)
    for i, s in enumerate(spans):
        named[s["name"]].append(i)

    m = {}
    sampled = [spans[i] for i in named["channel"]]
    slots = sum(s["count"] for s in sampled)
    draws = sum(s["count"] * 2 * s["L"] * s["N_R"] for s in sampled)
    sample_s = sum(dur[i] for i in named["channel"])
    m["channel.sample_calls"] = len(sampled)
    m["channel.slots_sampled"] = slots
    m["channel.sample_s"] = sample_s
    m["channel.ns_per_draw"] = sample_s * 1e9 / draws if draws else 0.0
    m["channel.unique_slot_ratio"] = _distinct_slots(sampled) / slots if slots else 0.0
    m["channel.bytes_computed"] = sum(s["count"] * s["L"] * 16 for s in sampled)

    probes = named["simulate"]
    cold = [i for i in probes if any(spans[j]["name"] == "channel" for j in children[i])]
    for p in PROTOCOLS:
        mine = [i for i in probes if spans[i]["protocol"] == p]
        m[f"simulate.probes.{p}"] = len(mine)
        m[f"simulate.probe_ms.{p}"] = 1e3 * _median(
            [own[i] for i in mine if i not in cold]
        )
    m["simulate.probe_self_s"] = sum(own[i] for i in probes)
    m["simulate.cold_probe_self_s"] = sum(own[i] for i in cold)

    opts = named["power"]
    per_opt = [
        sum(spans[j]["name"] in ("simulate", "analytic") for j in children[i])
        for i in opts
    ]
    m["power.optimizations"] = len(opts)
    m["power.probes_per_opt"] = sum(per_opt) / len(opts) if opts else 0.0
    m["power.dense_fallbacks"] = sum(n > 200 for n in per_opt)
    m["power.self_s"] = sum(own[i] for i in opts)

    closed = named["analytic"]
    m["analytic.calls"] = len(closed)
    m["analytic.self_s"] = sum(own[i] for i in closed)
    m["analytic.adb_closed_ms"] = 1e3 * _median(
        [dur[i] for i in closed if spans[i]["fn"] == "adb_closed"]
    )
    unspanned = trace["unspanned"]
    m["specfun.en_calls"] = sum(s["en_calls"] for s in spans) + unspanned["en_calls"]
    m["specfun.en_s"] = sum(s["en_s"] for s in spans) + unspanned["en_s"]

    m["experiments.resolve_s"] = sum(dur[i] for i in named["resolve"])
    m["experiments.emit_s"] = sum(dur[i] for i in named["emit"])
    m["experiments.self_s"] = sum(own[i] for i in named["run"])
    return m


# ---- reporting -----------------------------------------------------------

def load_metric_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def git_commit():
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "relaylab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def machine_and_inputs(args, numpy_version: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "slots": SLOTS,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def end_to_end(full: list, setups: list) -> dict:
    ok = [c for c in full if c["returncode"] == 0]
    return {
        "wall_s": _median([c["wall"] for c in ok]),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([c["rss_mb"] for c in ok]),
    }


def print_table(title: str, values: dict, units: dict):
    print(f"# {title}")
    for name, value in values.items():
        print(f"  {name:<32} {value:>16.6f} {units[name]}")


def measure(args, work: str, ref: dict, units: dict) -> dict:
    config = write_config(args.workload, args.seed, work)
    deadline = time.monotonic() + args.seconds
    attempted = failed = 0

    def full_child(tag, *extra):
        nonlocal attempted, failed
        child = run_child(work, config, tag, *extra)
        a, f, child["identical"] = check_output(work, child, ref)
        attempted += a
        failed += f
        return child

    if args.trace:
        pairs = []
        while not pairs or time.monotonic() + sum(c["wall"] for c in pairs[-1]) <= deadline:
            n = len(pairs)
            pair = {}
            # Alternate which side goes first, so drift hits both alike.
            for side in ("plain", "traced")[:: 1 if n % 2 == 0 else -1]:
                extra = ("--trace", f"{args.workload}-{args.seed}-{n}") if side == "traced" else ()
                pair[side] = full_child(f"{side}{n}", *extra)
            pairs.append((pair["plain"], pair["traced"]))
        plain = [p for p, _ in pairs]
        e2e = end_to_end(plain, [c["setup"] for c in plain if "setup" in c])
        per_run = []
        for p, t in pairs:
            if t["returncode"] != 0 or p["returncode"] != 0:
                continue
            m = layer_metrics(t["trace"])
            m["experiments.csv_identical"] = int(t["identical"])
            m["trace.wall_s"] = t["wall"]
            m["trace.overhead_s"] = t["wall"] - p["wall"]
            per_run.append(m)
        layers = {
            name: _median([m[name] for m in per_run]) for name in units["per_layer"]
        }
        print_table("end-to-end (untraced children)", e2e, units["end_to_end"])
        print_table(f"per-layer (median of {len(per_run)} traced children)", layers, units["per_layer"])
        metrics = layers
        kind = "per_layer"
    else:
        setups = []
        for i in range(SETUP_PROBES):
            probe = run_child(work, config, f"setup{i}", "--setup-only")
            if probe["returncode"] == 0:
                setups.append(probe["setup"])
        full = []
        while not full or time.monotonic() + full[-1]["wall"] <= deadline:
            full.append(full_child(f"run{len(full)}"))
        setups += [c["setup"] for c in full if "setup" in c]
        metrics = end_to_end(full, setups)
        print_table(f"end-to-end (median of {len(full)} runs, {len(setups)} set-ups)", metrics, units["end_to_end"])
        kind = "end_to_end"

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[kind][name]}
            for name, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=54.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")

    if not os.path.isfile(os.path.join(SRC, "relaylab", "__init__.py")):
        print(f"bench: no relaylab sources under {SRC}", file=sys.stderr)
        return 2
    stream = check_stream()
    if stream["changed"]:
        for c in stream["changed"]:
            print(f"bench: fading stream changed for {c}", file=sys.stderr)
        print("bench: refusing to report numbers", file=sys.stderr)
        return 3

    units = load_metric_units()
    ref = load_reference(args.workload, args.seed)
    print(json.dumps({"machine_and_inputs": machine_and_inputs(args, stream["numpy"])}))
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        result = measure(args, work, ref, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
