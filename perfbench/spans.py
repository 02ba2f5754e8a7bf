"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer's public function: name, start, end, the
span that caused it, a request id, and the thread it ran on.  Spans nest
through a per-thread stack.  A span opened on a thread with an empty stack
but carrying a request id (the campaign server's dispatch of an RPC) is
linked afterwards to the span on another thread that carries the same
request id (the client's round trip), so server time is attributed inside
the RPC that waited for it.

Self time is a span's duration minus the part of its interval covered by
its children (the union of the children's intervals, clipped to the
parent), so nested or overlapping children are never subtracted twice.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import threading
import time

__all__ = ["Span", "SpanRecorder", "union_length", "self_times"]


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "request_id",
                 "thread", "attrs")

    def __init__(self, index, name, start, parent, request_id, thread):
        self.index = index
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.request_id = request_id
        self.thread = thread
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def as_dict(self) -> dict:
        return {
            "index": self.index, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent,
            "request_id": self.request_id, "thread": self.thread,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


def union_length(intervals) -> float:
    """Total length covered by a collection of ``(start, end)`` intervals."""
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


def self_times(spans) -> dict[int, float]:
    """Map span index -> duration minus the time its children cover."""
    children = collections.defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.index, ())
            if min(c.end, span.end) > max(c.start, span.start)
        )
        out[span.index] = span.duration - covered
    return out


class SpanRecorder:
    """Collects spans and counters in memory; :meth:`dump` writes them once."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: collections.Counter = collections.Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- spans
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request_id=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = parent.request_id
        with self._lock:
            span = Span(len(self.spans), name, self.clock(),
                        None if parent is None else parent.index,
                        request_id, threading.get_ident())
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, request_id=None):
        span = self.open(name, request_id)
        try:
            yield span
        finally:
            self.close(span)

    def count(self, name: str, n=1) -> None:
        with self._lock:
            self.counters[name] += n

    def inside(self, layer: str) -> bool:
        """True when the calling thread is inside a span of ``layer``."""
        return any(s.layer == layer for s in self._stack())

    def link_remote(self) -> None:
        """Parent thread-root spans to the same-request span on another thread."""
        by_request = {}
        for span in self.spans:
            if span.request_id is not None and span.parent is None:
                by_request.setdefault(span.request_id, []).append(span)
        for group in by_request.values():
            if len(group) < 2:
                continue
            caller = group[0]
            for span in group[1:]:
                if span.thread != caller.thread:
                    span.parent = caller.index

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s.end is not None]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.finished():
                fh.write(json.dumps(span.as_dict()) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")

    # ---------------------------------------------------------- wrapping
    def wrap(self, owner, attr: str, name: str, *, request_id=None,
             after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` may be a callable of the call's positional arguments;
        ``request_id(args)`` names the span's request; ``after(span, args,
        result)`` annotates it or bumps counters from the return value.  A
        raised exception is recorded on the span as ``error`` and re-raised.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.open(name(args) if callable(name) else name,
                             None if request_id is None else request_id(args))
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                self.close(span)
            if after is not None:
                after(span, args, result)
            return result

        self.patch(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, on_call) -> None:
        """Replace ``owner.attr`` by a wrapper calling ``on_call(args)`` first."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            on_call(args)
            return original(*args, **kwargs)

        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr, wrapper) -> None:
        """Set ``owner.attr`` to ``wrapper`` until :meth:`unwrap_all`."""
        # An inherited method is not in the owner's own namespace; restoring
        # it means deleting the override, not copying the parent's in.
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)


_INHERITED = object()
