"""In-memory span recorder for a traced benchmark child.

A span is one call across a layer boundary: its name, start and end
(``time.perf_counter``), the index of the span that was open when it began,
and a few attributes of the call. Spans stay in a list until the child ends
and are written out once. ``exp_scaled_en`` runs tens of thousands of times
per run, so it gets no span of its own: each call only adds its count and
duration to the innermost open span.
"""

from time import perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._open = []
        # Catches specfun calls made outside every span.
        self._root = {"name": "root", "en_calls": 0, "en_s": 0.0}

    def wrap(self, name, fn, attrs=None):
        """Return fn recorded as a span called `name`; `attrs(*args)` gives
        the attributes stored with it."""
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            rec = {
                "name": name,
                "parent": stack[-1] if stack else None,
                "en_calls": 0,
                "en_s": 0.0,
            }
            if attrs is not None:
                rec.update(attrs(*args, **kwargs))
            stack.append(len(spans))
            spans.append(rec)
            rec["start"] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec["end"] = perf_counter()
                stack.pop()

        return traced

    def count(self, fn):
        """Return fn with its calls and time charged to the open span."""
        spans, stack, root = self.spans, self._open, self._root

        def counted(*args):
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                rec = spans[stack[-1]] if stack else root
                rec["en_calls"] += 1
                rec["en_s"] += dt

        return counted

    def dump(self) -> dict:
        for rec in self.spans:
            rec["run"] = self.run_id
        return {"run": self.run_id, "spans": self.spans, "unspanned": self._root}


def install(tracer: Tracer):
    """Wrap the public functions each relaylab module exposes to its caller,
    at the names the caller looks up at call time."""
    from relaylab import analytic, experiments, simulate

    def gains_attrs(cfg, seed, start_slot, count):
        return {
            "cfg": repr(cfg), "L": cfg.L, "N_R": cfg.N_R,
            "seed": seed, "slot": start_slot, "count": count,
        }

    simulate.sample_gains = tracer.wrap("channel", simulate.sample_gains, gains_attrs)
    for protocol, fn in list(experiments._SIMULATORS.items()):
        experiments._SIMULATORS[protocol] = tracer.wrap(
            "simulate", fn, lambda *a, _p=protocol, **k: {"protocol": _p}
        )
    experiments.maximize_throughput = tracer.wrap(
        "power", experiments.maximize_throughput
    )
    for fname in ("adb_closed", "c11_closed", "c22_closed"):
        setattr(experiments, fname, tracer.wrap(
            "analytic", getattr(experiments, fname),
            lambda *a, _f=fname, **k: {"fn": _f},
        ))
    analytic.exp_scaled_en = tracer.count(analytic.exp_scaled_en)
