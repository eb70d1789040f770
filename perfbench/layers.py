"""Layer tracing from outside the program.

A ``Tracer`` replaces module attributes of the program with timing wrappers
for the length of a ``with tracer.installed(plan)`` block and puts the
originals back on exit.  Each wrapped call is a span: its duration is added
to the span name's total, and its self time is the duration minus the part
covered by wrapped calls made inside it.  Counters count calls without
opening a span.  Everything stays in memory; nothing is written while the
wrappers are active.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    spans: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def span(self, name, fn, on_result=None):
        """Wrap ``fn`` as a span; ``on_result(result, *args, **kwargs)`` may
        inspect or replace the result."""
        stats = self.spans.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - frame[0]
            if on_result is not None:
                result = on_result(result, *args, **kwargs)
            return result

        return traced

    def counter(self, name, fn):
        """Wrap ``fn`` so that its calls are counted, without a span."""
        self.counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def stat(self, name) -> SpanStats:
        return self.spans.get(name, SpanStats())

    @contextlib.contextmanager
    def installed(self, plan):
        """Install ``plan``: (owner, attribute, make_wrapper) triples, where
        ``make_wrapper(original)`` returns the replacement callable."""
        saved = []
        try:
            for owner, attr, make in plan:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(make(raw.__func__))
                else:
                    new = make(raw)
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)
