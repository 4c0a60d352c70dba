"""In-memory span tracer that instruments planefinder from the outside.

A traced run replaces module attributes (the names callers look up) with
wrappers that record one span per call: name, start, end and parent. Self
time of a span is its duration minus the part of that interval its direct
children cover. Counters are derived from call arguments and return values, and each
wrapper adds the time it spends outside its own span to `overhead_s`.
`restore()` puts every original function back.
"""

import functools
import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = {}
        self.overhead_s = 0.0  # wrapper time outside the spans it records
        self._stack = []
        self._patched = []  # (module, attribute, original), in patch order

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index):
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError("span %d closed out of order" % index)
        self._stack.pop()
        self.spans[index].end = self.clock()

    def wrap(self, module, attr, name, on_return=None):
        """Replace module.attr with a wrapper that records a span `name`.

        on_return(tracer, args, kwargs, result) derives counters after a
        successful call.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            entered = self.clock()
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            self.count(name + ".calls")
            if on_return is not None:
                on_return(self, args, kwargs, result)
            span = self.spans[index]
            self.overhead_s += (span.start - entered) + (self.clock() - span.end)
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self):
        """Summed self time per span name, in seconds."""
        children = {}
        for i, s in enumerate(self.spans):
            children.setdefault(s.parent, []).append(i)
        totals = {}
        for i, s in enumerate(self.spans):
            covered = _covered(s, [self.spans[c] for c in children.get(i, ())])
            totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start) - covered
        return totals

    def dump(self, path):
        """Write spans, counts and self times as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans], "counts": self.counts,
                       "self_s": self.self_times()}, fh)


def _covered(span, kids):
    """Length of the union of child intervals clipped to the parent's."""
    total = 0.0
    reach = span.start
    for k in sorted(kids, key=lambda k: k.start):
        lo, hi = max(k.start, reach), min(k.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
