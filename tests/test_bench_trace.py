"""The benchmark's traced mode still sees every layer of the package.

bench/spans.py wraps module globals by name; a refactor that moves a call
off those names leaves its layer out of every traced run without an error.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from relaylab.simulate import PROTOCOLS, TERMS

ROOT = Path(__file__).parent.parent

_SCRIPT = """
import json, sys
from spans import Tracer, install

tracer = Tracer("test")
install(tracer)
from relaylab.experiments import resolve_spec, run_experiment

for experiment, grid in (
    ("relay-sweep", [2, 4]),
    ("validate", [[1, 2, 1.0], [2, 1, 10.0]]),
    ("antenna-sweep", [1, 3]),
):
    first = len(tracer.spans)
    spec = resolve_spec({"experiment": experiment, "grid": grid, "sim": {"slots": 2000}})
    result = run_experiment(spec)
# the antenna sweep's, run last: its first span, its searches, and the
# N_R, which sets the fading stream, of each of its rows
json.dump({
    "spans": tracer.dump()["spans"],
    "first": first,
    "searches": result.diagnostics["searches"],
    "N_R": [row.N_R for row in result.rows],
}, sys.stdout)
"""


def _traced(script):
    """What script, run in a child with bench/spans.py on its path, wrote
    to its stdout as JSON."""
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "bench"))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_traced_run_spans_every_layer_label_and_closed_form():
    out = _traced(_SCRIPT)
    spans = out["spans"]
    names = {s["name"] for s in spans}
    assert {"channel", "simulate", "power", "analytic"} <= names
    probed = {s["protocol"] for s in spans if s["name"] == "simulate"}
    assert probed == set(PROTOCOLS + TERMS)
    closed = {s["fn"] for s in spans if s["name"] == "analytic"}
    assert closed == {"adb_closed", "c11_closed", "c22_closed"}
    # each split search of the antenna sweep, in either method, shows its
    # every value probe as a simulate or analytic span under its power
    # span. The searches run stream by stream, in row order within each
    # stream, while the sidecar lists them in row order
    under = {}
    for i, s in enumerate(spans[out["first"]:], out["first"]):
        if s["name"] == "power":
            under[i] = []
        elif s["parent"] in under:
            under[s["parent"]].append(s["protocol"] if s["name"] == "simulate" else s["fn"])
    streams = list(dict.fromkeys(out["N_R"]))
    searches = sorted(
        out["searches"], key=lambda s: (streams.index(out["N_R"][s["row"]]), s["row"])
    )
    assert len(searches) == len(under) == 10
    for search, probed in zip(searches, (under[i] for i in sorted(under))):
        want = search["protocol"] if search["method"] == "monte-carlo" else "adb_closed"
        assert probed == [want] * search["probes"]


_PREFIX_SCRIPT = """
import json, sys
from spans import Tracer, install

tracer = Tracer("test")
install(tracer)
from relaylab import experiments

# 2000 slots get a 125-slot prefix
experiments._MIN_PREFIX_SLOTS = 2000 // experiments._PREFIX_SHARE
spec = experiments.resolve_spec({
    "experiment": "antenna-sweep", "grid": [1, 3], "sim": {"slots": 2000},
})
result = experiments.run_experiment(spec)
json.dump({
    "spans": tracer.dump()["spans"],
    "searches": result.diagnostics["searches"],
    "rows": [[row.protocol, row.method, row.N_R] for row in result.rows],
}, sys.stdout)
"""


def test_traced_power_span_holds_both_stages_of_a_prefix_search():
    # a Monte Carlo split search on a stream prefix probes the prefix, then
    # polishes on the whole stream, both inside its power span; the only
    # simulate span of a row outside every power span is its full estimate
    out = _traced(_PREFIX_SCRIPT)
    spans = out["spans"]

    def search_of(i):
        while i is not None and spans[i]["name"] != "power":
            i = spans[i]["parent"]
        return i

    under, outside = {}, []
    for i, span in enumerate(spans):
        if span["name"] == "power":
            under[i] = []
        elif span["name"] == "simulate":
            owner = search_of(span["parent"])
            (outside if owner is None else under[owner]).append(span["protocol"])
    # power spans run stream by stream, in row order within each stream
    rows = out["rows"]
    streams = list(dict.fromkeys(n for _, _, n in rows))
    searches = sorted(
        out["searches"], key=lambda s: (streams.index(rows[s["row"]][2]), s["row"])
    )
    assert len(searches) == len(under) == 10
    for search, probed in zip(searches, (under[i] for i in sorted(under))):
        if search["method"] == "analytic":
            assert probed == []
        else:
            assert search["prefix_probes"] > 0 and search["probes"] > 0
            assert probed == [search["protocol"]] * (search["prefix_probes"] + search["probes"])
    assert sorted(outside) == sorted(p for p, method, _ in rows if method == "monte-carlo")
