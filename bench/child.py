"""One benchmark child: the calls the relaylab CLI makes, in a fresh process.

    python3 bench/child.py CONFIG OUT [--setup-only] [--trace RUN_ID]

Resolves CONFIG with ``load_spec``, runs the experiment and emits the CSV and
summary sidecar, then writes to OUT the CLOCK_MONOTONIC time at which the
spec was resolved (plus the spans, when traced). ``--setup-only`` stops after
resolving. The parent times the process from spawn to exit.
"""

import json
import sys
import time


def main(argv) -> int:
    config, out = argv[0], argv[1]
    setup_only = "--setup-only" in argv
    run_id = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    from relaylab.experiments import emit, load_spec, run_experiment

    tracer = None
    if run_id is not None:
        from spans import Tracer, install

        tracer = Tracer(run_id)
        install(tracer)
        load_spec = tracer.wrap("resolve", load_spec)
        run_experiment = tracer.wrap("run", run_experiment)
        emit = tracer.wrap("emit", emit)

    spec = load_spec(config)
    record = {"t_resolved": time.monotonic()}
    if not setup_only:
        emit(run_experiment(spec))
    if tracer is not None:
        record["trace"] = tracer.dump()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
