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
    spec = resolve_spec({"experiment": experiment, "grid": grid, "sim": {"slots": 2000}})
    result = run_experiment(spec)
searches = result.diagnostics["searches"]  # the antenna sweep's, run last
json.dump({"spans": tracer.dump()["spans"], "searches": searches}, sys.stdout)
"""


def test_traced_run_spans_every_layer_label_and_closed_form():
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "bench"))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    spans = out["spans"]
    names = {s["name"] for s in spans}
    assert {"channel", "simulate", "power", "analytic"} <= names
    probed = {s["protocol"] for s in spans if s["name"] == "simulate"}
    assert probed == set(PROTOCOLS + TERMS)
    closed = {s["fn"] for s in spans if s["name"] == "analytic"}
    assert closed == {"adb_closed", "c11_closed", "c22_closed"}
    # each sfd-mmrs split search shows its every value probe as a simulate
    # span under its power span (standard errors are read only on a coarse
    # grid with two peaks, which these searches do not have)
    under = {}
    for s in spans:
        parent = s["parent"]
        if s["name"] == "simulate" and s["protocol"] == "sfd-mmrs" and parent is not None:
            assert spans[parent]["name"] == "power"
            under[parent] = under.get(parent, 0) + 1
    searches = [s["probes"] for s in out["searches"] if s["protocol"] == "sfd-mmrs"]
    assert len(searches) == 2
    assert [under[i] for i in sorted(under)] == searches
