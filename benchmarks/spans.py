"""Per-layer tracing from outside the engine.

``Tracer.install`` replaces each traced function with a wrapper that records
a span around the call: the function's layer name, its duration, and the
enclosing span.  Every module of the package that holds the function under
some name is patched, so a function imported by name elsewhere (for example
``havoc_mutate`` in both ``mutation`` and ``campaign``) is traced on every
path.  Spans are aggregated in memory per (context, span, parent); a layer's
self time is its spans' duration minus the time covered by their child
spans.  One call in ``SAMPLE_STRIDE`` keeps its duration for percentiles.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array

SAMPLE_STRIDE = 8


class _Agg:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Span recorder.  ``context`` labels the spans recorded while it is
    set (the benchmark sets it to the campaign mode)."""

    def __init__(self):
        self.context = ""
        self.spans: dict[tuple[str, str, str], _Agg] = {}
        self.samples: dict[str, array] = {}
        # Counts measured at span boundaries, per (context, counter).
        self.counts: dict[tuple[str, str], int] = {}
        self._stack: list[list] = [["", 0]]  # [span name, child ns]
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, n: int = 1) -> None:
        key = (self.context, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def current(self) -> str:
        """Name of the innermost open span."""
        return self._stack[-1][0]

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` wrapped in a span called ``name``.  ``on_call(args,
        result)`` runs after a call that returned, outside the span."""
        stack = self._stack
        spans = self.spans
        samples = self.samples.setdefault(name, array("q"))
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                stack.pop()
                parent[1] += duration
                key = (self.context, name, parent[0])
                agg = spans.get(key)
                if agg is None:
                    agg = spans[key] = _Agg()
                if agg.calls % SAMPLE_STRIDE == 0:
                    samples.append(duration)
                agg.calls += 1
                agg.total_ns += duration
                agg.self_ns += duration - frame[1]
            if on_call is not None:
                on_call(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, targets) -> None:
        """Patch every ``(owner, attribute, span name, on_call)`` target.

        A module-level function is replaced in every loaded module of its
        package that refers to it; a method is replaced on its class.
        """
        for owner, attr, name, on_call in targets:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, on_call)
            if isinstance(owner, type):
                holders = [owner]
            else:
                package = owner.__name__.split(".")[0]
                holders = [
                    module for mod_name, module in sorted(sys.modules.items())
                    if (mod_name == package or mod_name.startswith(package + "."))
                    and any(v is original for v in vars(module).values())
                ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._patched):
            setattr(holder, key, value)
        self._patched.clear()

    # -- aggregates ---------------------------------------------------------

    def calls(self, name: str, context: str | None = None) -> int:
        return sum(a.calls for (c, n, _), a in self.spans.items()
                   if n == name and context in (None, c))

    def self_s(self, name: str, context: str | None = None) -> float:
        return sum(a.self_ns for (c, n, _), a in self.spans.items()
                   if n == name and context in (None, c)) / 1e9

    def observe(self, name: str, value: int) -> None:
        """Keep one value of a per-call quantity for its median."""
        self.samples.setdefault(name, array("q")).append(value)

    def median(self, name: str) -> float:
        """Median of the sampled durations of span ``name`` (ns), or of the
        values observed under ``name``; 0.0 when there are none."""
        samples = self.samples.get(name)
        return float(statistics.median(samples)) if samples else 0.0

    def counter(self, name: str, context: str | None = None) -> int:
        return sum(v for (c, n), v in self.counts.items()
                   if n == name and context in (None, c))

    def names(self) -> list[str]:
        return sorted({n for _, n, _ in self.spans})

    def contexts(self) -> list[str]:
        return sorted({c for c, _, _ in self.spans})

    def table(self) -> list[str]:
        """One line per (context, span, parent), largest self time first."""
        rows = sorted(self.spans.items(), key=lambda kv: -kv[1].self_ns)
        lines = [f"{'context':<8} {'span':<34} {'parent':<34} {'calls':>9} "
                 f"{'total_s':>9} {'self_s':>9}"]
        for (context, name, parent), agg in rows:
            lines.append(
                f"{context:<8} {name:<34} {parent or '-':<34} {agg.calls:>9} "
                f"{agg.total_ns / 1e9:>9.4f} {agg.self_ns / 1e9:>9.4f}"
            )
        return lines
