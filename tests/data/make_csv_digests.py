"""Regenerate csv_digests.json.

The sha256 of every experiment's CSV at fixed small specs: the six
experiments at their default grids and 20k slots under seeds 42 and 7; an
antenna sweep and a relay sweep at 200k slots, whose split searches run on
a stream prefix; and the analytic grouping sweep at its bench channel. A
CSV's bytes depend on numpy's Philox and log as well as
on this package, so the file also freezes the numpy version and the digest
of one sample_gains block (bench/guard.py's recipe); a test that finds
either changed cannot tell a package change from a numpy one. Regenerate
only where a change is meant to move the numbers, and say why.

Usage: PYTHONPATH=src python tests/data/make_csv_digests.py
"""

import hashlib
import json
import os
import tempfile

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "csv_digests.json")
STREAM = {"cfg": {"L": 4, "M": 2, "N_R": 3}, "seed": 42, "slot": 0, "count": 1000}


def cases() -> list:
    """The raw configs whose CSVs are frozen, each without output_path."""
    from relaylab.experiments import EXPERIMENTS

    out = [
        {"experiment": e, "sim": {"slots": 20_000, "seed": seed}}
        for seed in (42, 7) for e in EXPERIMENTS
    ]
    # past the 131072-slot cut-off of the prefix searches
    out.append(
        {"experiment": "antenna-sweep", "grid": [1, 3], "sim": {"slots": 200_000, "seed": 42}}
    )
    # the relay-200k bench rows, and grouping-analytic's channel (bench/run.py);
    # the test ids read every case's sim
    out.append({"experiment": "relay-sweep", "sim": {"slots": 200_000, "seed": 42}})
    out.append({
        "experiment": "grouping-sweep", "channel": {"L": 10, "M": 5, "N_R": 6},
        "methods": ["analytic"], "sim": {"slots": 200_000, "seed": 42},
    })
    return out


def stream_digest(cfg: dict, seed: int, slot: int, count: int) -> str:
    from relaylab.channel import ChannelConfig, sample_gains

    sr, rd = sample_gains(ChannelConfig(**cfg), seed, slot, count)
    h = hashlib.sha256()
    for a in (sr, rd):
        h.update(repr(a.shape).encode())
        h.update(a.astype("<f8", order="C", copy=False).tobytes())
    return h.hexdigest()


def csv_digest(raw: dict) -> str:
    from relaylab.experiments import resolve_spec, run_experiment, write_csv

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        write_csv(run_experiment(resolve_spec({**raw, "output_path": path})), path)
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def main():
    import numpy

    payload = {
        "numpy": numpy.__version__,
        "stream": {**STREAM, "sha256": stream_digest(**STREAM)},
        "csvs": [{"raw": raw, "sha256": csv_digest(raw)} for raw in cases()],
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(payload['csvs'])} digests to {OUT}")


if __name__ == "__main__":
    main()
