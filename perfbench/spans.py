"""Spans recorded around calls into the package, and the arithmetic on them.

A :class:`Tracer` replaces a function with a wrapper that records one
:class:`Span` per call: name, start, end, parent span and request id
(the instance being processed). Parents are tracked per thread. A span
opened on a thread that has no open span of its own is parented to the
tracer's root span (the outermost span on the main thread) and flagged
``orphan``; it is kept, never dropped, so totals stay right when calls
move onto pool threads. Spans stay in memory until :meth:`Tracer.dump`.

Self time is a span's duration minus the part of its interval that its
children cover; overlapping children count once.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: str | None = None
    orphan: bool = False
    error: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        request: Callable[..., str] | None = None,
        before: Callable[..., dict] | None = None,
        after: Callable[[Any], dict] | None = None,
    ) -> Callable:
        """``fn`` wrapped to record a span named ``name`` per call.

        ``request(*args)`` names the request a root call starts; ``before``
        and ``after`` return attributes from the arguments and the result.
        """

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            orphan = False
            if parent is None and threading.current_thread() is not threading.main_thread():
                parent, orphan = self._root, True
            span = Span(
                id=next(self._ids),
                name=name,
                start=time.perf_counter(),
                parent=parent.id if parent else None,
                request=request(*args) if request else (parent.request if parent else None),
                orphan=orphan,
            )
            if before:
                span.attrs.update(before(*args, **kwargs))
            if parent is None and self._root is None:
                self._root = span
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            else:
                if after:
                    span.attrs.update(after(result))
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if self._root is span:
                    self._root = None
                self.spans.append(span)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: Any, attr: str, name: str, **kwargs) -> None:
        """Replace ``owner.attr`` by its traced wrapper; the name must exist."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kwargs))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def load(path) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(**raw) for raw in json.load(fh)]


def percentile(values: Iterable[float], q: float) -> float:
    """The q-th percentile (0..100), interpolating linearly; 0.0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= max(lo, reach):
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


class SpanTree:
    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children: dict[int | None, list[Span]] = {}
        for span in spans:
            self.children.setdefault(span.parent, []).append(span)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def kids(self, span: Span, names: Iterable[str] | None = None) -> list[Span]:
        kids = self.children.get(span.id, [])
        if names is None:
            return kids
        wanted = set(names)
        return [k for k in kids if k.name in wanted]

    def self_time(self, span: Span) -> float:
        return span.duration - covered(
            span.start, span.end, ((k.start, k.end) for k in self.kids(span))
        )
