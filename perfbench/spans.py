"""Spans recorded from outside the program, around calls into its layers.

A Tracer swaps a module attribute (say `pauliprop.cli.run_exact`) for a
wrapper that records a span: name, start, end, parent span and the phase of
the benchmark it ran in. Spans stay in memory until the run ends. A layer's
self time is the time of its spans that no child span covers.

Spans inside worker processes are not seen, because the wrappers live in
this process only; the traced census therefore runs with one worker.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index, phase, note]
        self.phase = "setup"
        self._stack = []
        self._patches = []  # (module, attribute, original)

    def install(self, targets):
        """targets: (module, attribute, span name[, note(args, kwargs)])."""
        for module, attr, name, *note in targets:
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, note[0] if note else None))
            self._patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), None, self._stack[-1] if self._stack else None,
                    self.phase, note(args, kwargs) if note else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump([dict(zip(("name", "start", "end", "parent", "phase", "note"), s))
                       for s in self.spans], fh)


class SpanTable:
    """Durations, self times and children of a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.duration = [s[2] - s[1] for s in spans]
        self.children = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[3] is not None:
                self.children[s[3]].append(i)
        self.self_time = [
            d - sum(self.duration[c] for c in kids)
            for d, kids in zip(self.duration, self.children)
        ]

    def select(self, names, phase):
        return [i for i, s in enumerate(self.spans) if s[0] in names and s[4] == phase]

    def total(self, names, phase) -> float:
        return sum(self.duration[i] for i in self.select(names, phase))

    def outside(self, names, child_names, phase) -> float:
        """Time of the `names` spans not covered by direct children named in
        `child_names`."""
        return sum(self.duration[i] - sum(self.duration[c] for c in self.children[i]
                                          if self.spans[c][0] in child_names)
                   for i in self.select(names, phase))

    def count(self, names, phase) -> int:
        return len(self.select(names, phase))

    def layer_self(self, layer: str, phase) -> float:
        return sum(t for s, t in zip(self.spans, self.self_time)
                   if s[4] == phase and s[0].split(".")[0] == layer)
