"""Spans and counters recorded around the benchmark's calls into beatnote.

Spans are kept in memory and summarised when the run ends.  Every span's
parent is the op it ran in (or "setup"); the benchmark records no span inside
the package.
"""

import statistics
import time
from collections import defaultdict

from metrics import COUNTS, RATES, SPANS


class Tracer:
    """Records spans and counters only while `active` is true."""

    def __init__(self, active):
        self.active = active  # set-up is traced in a traced run
        self.op = "setup"
        self.spans = []  # (name, op, start, end)
        self.counts = defaultdict(float)  # (op, counter) -> value

    def begin_op(self, op, traced):
        self.op = op
        self.active = traced

    def call(self, name, fn, *args, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, self.op, start, time.perf_counter()))

    def count(self, name, value=1):
        if self.active:
            self.counts[(self.op, name)] += value

    def per_layer(self, traced_ops):
        """Per-layer metric values over the traced ops (0 where never called)."""
        durations = defaultdict(list)
        per_op_time = defaultdict(float)
        for name, op, start, end in self.spans:
            durations[name].append(end - start)
            per_op_time[(op, name)] += end - start

        def op_median(values):
            return statistics.median(values) if values else 0.0

        out = {}
        for metric, span in SPANS.items():
            out[metric] = op_median(durations[span])
        for metric, counter in COUNTS.items():
            out[metric] = op_median([self.counts[(op, counter)] for op in traced_ops])
        for metric, (counter, spans) in RATES.items():
            rates = []
            for op in traced_ops:
                busy = sum(per_op_time[(op, s)] for s in spans)
                if busy > 0:
                    rates.append(self.counts[(op, counter)] / busy)
            out[metric] = op_median(rates)
        attempts = sum(self.counts[(op, "estimate.attempts")] for op in traced_ops)
        flagged = sum(self.counts[(op, "estimate.flagged")] for op in traced_ops)
        out["estimate.flagged_ratio"] = flagged / attempts if attempts else 0.0
        out["estimate.refusals"] = sum(
            self.counts[(op, "estimate.refusals")] for op in traced_ops)
        return out

    def dump(self):
        return [{"name": n, "parent": op, "start": s, "end": e}
                for n, op, s, e in self.spans]
