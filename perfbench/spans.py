"""In-memory span recording around the package's public layer functions.

The traced run replaces functions on the package's classes and modules
with thin wrappers that record one span per call: name, start, end,
parent span and request id.  Spans stay in memory and are written out
once, when the run ends.  Nothing here is imported by the untraced run.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict


class SpanRecorder:
    """Collects spans; parents nest per thread through a thread-local stack."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, span_id, parent, request)
        self._ids = itertools.count(1)
        self._local = threading.local()

    # ------------------------------------------------------------------ recording
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request) -> None:
        """Tag the spans this thread records from now on with ``request``."""
        self._local.request = request

    def record(self, name: str, start: float, end: float, request=None) -> None:
        """Add a span measured outside a wrapper (e.g. a client request)."""
        stack = self._stack()
        self.spans.append(
            (name, start, end, next(self._ids), stack[-1] if stack else None, request)
        )

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        request = getattr(self._local, "request", None)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((name, start, end, span_id, parent, request))

    def wrap(self, owner, attr: str, name) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``owner`` is a class, a module or an instance.  ``name`` is the
        span name, or a callable mapping the call's arguments to one.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        namer = name if callable(name) else (lambda *args, **kwargs: name)
        recorder = self

        def wrapper(*args, **kwargs):
            return recorder.call(namer(*args, **kwargs), original, *args, **kwargs)

        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------ reading
    def totals(self) -> dict[str, dict]:
        """Per span name: count, inclusive and self seconds."""
        child_time: dict[int, float] = defaultdict(float)
        for _, start, end, _, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for name, start, end, span_id, _, _ in self.spans:
            row = out.setdefault(name, {"count": 0, "inclusive_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["inclusive_s"] += end - start
            row["self_s"] += end - start - child_time[span_id]
        return out

    def root_seconds(self) -> float:
        """Summed duration of parentless spans."""
        return sum(end - start for _, start, end, _, parent, _ in self.spans
                   if parent is None)

    def export(self, offset: float = 0.0, source: str = "") -> list[dict]:
        """Spans as JSON-able dicts; times shifted by ``offset`` seconds."""
        return [
            {"name": name, "start": start + offset, "end": end + offset,
             "id": f"{source}{span_id}", "parent": f"{source}{parent}" if parent else None,
             "request": request}
            for name, start, end, span_id, parent, request in self.spans
        ]


def print_layer_table(title: str, rows: list[tuple[str, float, float, int]],
                      unit: str, wall_ms: float) -> None:
    """One per-layer table: inclusive and self ms per unit of work, calls,
    share of the unit's wall time, and the time the spans leave unexplained."""
    print(f"\n=== per-layer breakdown: {title} (ms per {unit}) ===")
    print(f"{'span':40s} {'incl ms':>10s} {'self ms':>10s} {'calls':>8s} {'self %':>7s}")
    explained = 0.0
    for name, incl, self_ms, calls in rows:
        share = 100.0 * self_ms / wall_ms if wall_ms > 0 else 0.0
        explained += self_ms
        print(f"{name:40s} {incl:10.3f} {self_ms:10.3f} {calls:8d} {share:6.1f}%")
    gap = wall_ms - explained
    print(f"{'(unexplained by spans)':40s} {'':10s} {gap:10.3f} {'':8s} "
          f"{100.0 * gap / wall_ms if wall_ms > 0 else 0.0:6.1f}%")
    print(f"{'(wall per ' + unit + ')':40s} {wall_ms:10.3f}")
