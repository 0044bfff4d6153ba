"""In-memory spans and counts for the traced benchmark pass.

A span records (name, start, end, parent).  Spans are opened by the
benchmark around calls into the package's public functions; nothing in the
package itself is instrumented.  A layer is the first dotted component of
a span name (simulate, reconstruct, patterns, wigner, formats, cli).
"""

import contextlib
import time
from collections import Counter


class Tracer:
    """Collects spans and counts in memory; `dump` hands them out at the end."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, parent=None):
        """Time the enclosed block.  The parent defaults to the innermost open
        span; replayed children pass the span they belong to explicitly."""
        idx = len(self.spans)
        if parent is None and self._stack:
            parent = self._stack[-1]
        rec = {"name": name, "start": time.perf_counter(), "end": None, "parent": parent}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield idx
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name, n=1):
        self.counts[name] += n

    def total(self, name):
        """Summed duration of every span with this name."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self):
        """Per-span duration minus the summed durations of its children."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def dump(self):
        return {"spans": self.spans, "counts": dict(self.counts)}


class NullTracer:
    """Tracing off: spans cost one context-manager enter and exit."""

    enabled = False

    def span(self, name, parent=None):
        return contextlib.nullcontext()

    def count(self, name, n=1):
        pass
