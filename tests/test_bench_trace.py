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
    run_experiment(spec)
json.dump(tracer.dump()["spans"], sys.stdout)
"""


def test_traced_run_spans_every_layer_label_and_closed_form():
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "bench"))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(proc.stdout)
    names = {s["name"] for s in spans}
    assert {"channel", "simulate", "power", "analytic"} <= names
    probed = {s["protocol"] for s in spans if s["name"] == "simulate"}
    assert probed == set(PROTOCOLS + TERMS)
    closed = {s["fn"] for s in spans if s["name"] == "analytic"}
    assert closed == {"adb_closed", "c11_closed", "c22_closed"}
