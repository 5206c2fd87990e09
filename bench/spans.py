"""In-memory span tracing from outside the package.

A `Tracer` temporarily replaces module-level names (and methods) with
wrappers that record one span per call: name, start, end, parent span and
an optional note taken from the arguments and the result. Nothing under
`src/` is modified; the originals are put back when the tracer exits.
"""

from __future__ import annotations

import gzip
import json
from contextlib import contextmanager
from time import perf_counter

# Span fields, kept as short lists so a traced call costs one list append.
NAME, START, END, PARENT, NOTE = range(5)


class Tracer:
    """Records spans inside `span` blocks; restores every wrapped target on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.recording = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installing and removing wrappers ---------------------------------

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace `owner.attr` with a recording wrapper named `name`.

        `owner` is a module or a class; `note(args, result)` may return a
        value stored with the span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(original, name, note))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.recording = False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrapper(self, fn, name, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = perf_counter()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- spans opened by the benchmark itself ------------------------------

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of benchmark code.

        Wrapped calls are recorded only inside such a block.
        """
        was_recording, self.recording = self.recording, True
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span[END] = perf_counter()
            self.recording = was_recording

    def write(self, path) -> None:
        """Dump the spans as gzipped JSON: a name table plus one row per span."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[NAME]], s[START], s[END], s[PARENT], s[NOTE]] for s in self.spans]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": names, "fields": ["name", "start", "end", "parent", "note"],
                       "spans": rows}, fh)


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        kids = [
            (max(a, s[START]), min(b, s[END]))
            for a, b in children.get(i, ())
            if min(b, s[END]) > max(a, s[START])
        ]
        out.append((s[END] - s[START]) - covered(kids))
    return out


def roots_below(spans, root_name: str) -> list[set[int]]:
    """For each span named `root_name`, the indices of every span beneath it."""
    members: list[set[int]] = []
    owner: dict[int, int] = {}
    for i, s in enumerate(spans):
        if s[NAME] == root_name:
            owner[i] = len(members)
            members.append(set())
        elif s[PARENT] in owner:
            owner[i] = owner[s[PARENT]]
            members[owner[i]].add(i)
    return members
