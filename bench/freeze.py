"""Regenerate the frozen references in bench/reference/.

    python3 bench/freeze.py

Writes each workload's CSV at the default and the held-out seed, and the
sha256 digests of sample_gains output for STREAM_CASES. run.py checks every
measurement against these files, so rerun this only for a change that is
meant to alter the fading stream or the CSV, and say so in the change.
"""

import json
import os
import shutil
import sys
import tempfile

import run
from guard import HASHES, stream_digest

# Each case is (cfg, seed, start slot, count). They include non-zero starts,
# counts that cross a 32k-slot sampling block, and wide and narrow layouts.
STREAM_CASES = [
    ({"L": 4, "M": 2, "N_R": 3}, 42, 0, 1000),
    ({"L": 4, "M": 2, "N_R": 3}, 42, 32000, 1536),
    ({"L": 2, "M": 1, "N_R": 24}, 7, 123457, 777),
    ({"L": 12, "M": 6, "N_R": 4, "sigma_g2": 0.5, "sigma_h2": 2.0}, 2**63 + 5, 5, 40000),
    ({"L": 10, "M": 5, "N_R": 6}, 20201, 199999, 3),
]


def main() -> int:
    sys.path.insert(0, run.SRC)
    os.makedirs(run.REFERENCE, exist_ok=True)
    hashes = [
        {"cfg": cfg, "seed": seed, "slot": slot, "count": count,
         "sha256": stream_digest(cfg, seed, slot, count)}
        for cfg, seed, slot, count in STREAM_CASES
    ]
    with open(HASHES, "w", encoding="utf-8") as fh:
        json.dump(hashes, fh, indent=1)
        fh.write("\n")

    os.makedirs(run.WORK, exist_ok=True)
    for workload in run.WORKLOADS:
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            work = tempfile.mkdtemp(prefix="freeze-", dir=run.WORK)
            try:
                config = run.write_config(workload, seed, work)
                child = run.run_child(work, config, "freeze")
                if child["returncode"] != 0:
                    return 1
                shutil.copyfile(
                    os.path.join(work, run.CSV_NAME),
                    run.reference_path(workload, seed),
                )
                print(f"{workload} seed {seed}: {child['wall']:.2f} s")
            finally:
                shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
