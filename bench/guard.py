"""Fading-stream guard: compare sample_gains output with frozen digests.

    PYTHONPATH=src python3 bench/guard.py

Prints one JSON object: the numpy version (byte identity depends on numpy's
Philox and log) and the frozen cases whose digest changed. run.py calls this
in a subprocess so that its own process never loads numpy: a child's peak
RSS includes the memory of the process that spawned it.
"""

import hashlib
import json
import os
import sys

HASHES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference", "stream_hashes.json")


def stream_digest(cfg: dict, seed: int, slot: int, count: int) -> str:
    from relaylab.channel import ChannelConfig, sample_gains

    sr, rd = sample_gains(ChannelConfig(**cfg), seed, slot, count)
    h = hashlib.sha256()
    for a in (sr, rd):
        h.update(repr(a.shape).encode())
        h.update(a.astype("<f8", order="C", copy=False).tobytes())
    return h.hexdigest()


def main() -> int:
    import numpy

    with open(HASHES, "r", encoding="utf-8") as fh:
        cases = json.load(fh)
    changed = [
        c for c in cases
        if stream_digest(c["cfg"], c["seed"], c["slot"], c["count"]) != c["sha256"]
    ]
    print(json.dumps({"numpy": numpy.__version__, "changed": changed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
