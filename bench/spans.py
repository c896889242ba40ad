"""In-memory span tracer for the traced benchmark run.

`Tracer.wrap` replaces a function attribute of a module or class with a
wrapper that records one span per call: the span's name, its start and end
(`perf_counter_ns`) and the span that was open when it started.  Spans stay
in flat arrays until `summary` reduces them, so the traced code pays two
clock reads and a few appends per call and nothing is written while it
runs.  `restore` puts every original attribute back.
"""

from __future__ import annotations

import time
from array import array


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.results: dict[str, list] = {}
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, keep_results: bool = False) -> None:
        """Trace calls to `owner.attr` under `name`; skip an attribute that does not exist.

        With `keep_results`, every return value is kept (by reference) in
        `self.results[name]`, so counts over them can be taken after the run.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return
        nid = len(self.names)
        self.names.append(name)
        kept = self.results.setdefault(name, []) if keep_results else None
        opened, name_of, parent, start, end = self._open, self.name_of, self.parent, self.start, self.end
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(opened[-1] if opened else -1)
            end.append(0)
            opened.append(i)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[i] = clock()
                opened.pop()
            if kept is not None:
                kept.append(result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def durations(self, name: str) -> list[int]:
        """Inclusive duration (ns) of every span called `name`, in call order."""
        nid = self.names.index(name) if name in self.names else -1
        return [e - s for n, s, e in zip(self.name_of, self.start, self.end) if n == nid]

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: call count, inclusive time and self time (ns).

        A span's self time is its duration minus the durations of the spans
        opened directly inside it.
        """
        count = len(self.names)
        calls = [0] * count
        total = [0] * count
        child = [0] * len(self.start)
        for p, s, e in zip(self.parent, self.start, self.end):
            if p >= 0:
                child[p] += e - s
        self_ns = [0] * count
        for i, (n, s, e) in enumerate(zip(self.name_of, self.start, self.end)):
            calls[n] += 1
            total[n] += e - s
            self_ns[n] += e - s - child[i]
        return {
            name: {"calls": calls[n], "total_ns": total[n], "self_ns": self_ns[n]}
            for n, name in enumerate(self.names)
        }
