"""In-memory spans and counts recorded around calls into the program.

The benchmark does not change the program to trace it.  In a traced
round, :class:`Tracer` replaces public functions and methods of each
layer with timing wrappers (:meth:`Tracer.patch`) and puts the
originals back afterwards (:meth:`Tracer.restore`).  A span has a name,
a start, an end, the span that was open when it began (its parent, kept
per thread and per asyncio task through a context variable) and free
attributes.  Spans stay in memory and are written out at the end as
Chrome trace-event JSON, which any trace viewer opens.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import threading
import time

_CURRENT = contextvars.ContextVar("perfbench_span", default=0)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "tid", "attrs")

    def __init__(self, span_id, name, start, parent, tid, attrs):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tid = tid
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counts of one traced round."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans
    def begin(self, name: str, **attrs) -> tuple[Span, contextvars.Token]:
        span = Span(
            next(self._ids),
            name,
            time.perf_counter(),
            _CURRENT.get(),
            threading.get_ident(),
            attrs,
        )
        return span, _CURRENT.set(span.id)

    def end(self, span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        _CURRENT.reset(token)
        self.spans.append(span)

    def add_span(self, name: str, start: float, end: float, **attrs) -> Span:
        """Record a span timed elsewhere (e.g. a client request)."""
        span = Span(next(self._ids), name, start, 0, 0, attrs)
        span.end = end
        self.spans.append(span)
        return span

    def wrap(self, fn, name: str, note=None):
        """``fn`` timed as span ``name``; ``note(span, args, result)``
        may add attributes from the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, token = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span, token)
            if note is not None:
                note(span, args, result)
            return result

        return traced

    def patch(self, owner, attribute: str, name: str, note=None) -> None:
        """Replace ``owner.attribute`` by its traced wrapper."""
        original = owner.__dict__[attribute]
        self._patched.append((owner, attribute, original))
        if isinstance(original, classmethod):
            traced = classmethod(self.wrap(original.__func__, name, note))
        else:
            traced = self.wrap(original, name, note)
        setattr(owner, attribute, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # ---------------------------------------------------------- queries
    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        return sum(span.seconds for span in self.named(name))

    def self_seconds(self, name: str) -> float:
        """Summed duration of spans ``name`` minus their children's."""
        ids = {span.id for span in self.named(name)}
        children = sum(
            span.seconds for span in self.spans if span.parent in ids
        )
        return self.total(name) - children

    def children(self, parent: Span, name: str) -> list[Span]:
        return [
            span
            for span in self.spans
            if span.parent == parent.id and span.name == name
        ]

    # ----------------------------------------------------------- output
    def chrome_events(self) -> list[dict]:
        """Spans and counts as Chrome trace events, times relative to
        the first span; ``run.py`` sets each round's ``pid``."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = []
        for span in self.spans:
            args = {"parent": span.parent}
            args.update(
                (key, value)
                for key, value in span.attrs.items()
                if isinstance(value, (int, float, str))
            )
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.seconds * 1e6,
                    "tid": span.tid,
                    "id": span.id,
                    "args": args,
                }
            )
        end = max((span.end for span in self.spans), default=origin)
        for name, value in sorted(self.counts.items()):
            events.append(
                {
                    "name": name,
                    "ph": "C",
                    "ts": (end - origin) * 1e6,
                    "args": {"value": value},
                }
            )
        return events

