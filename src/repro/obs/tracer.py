"""Nested timing spans: the wall-clock side of observability.

A :class:`Span` is one named interval of work with a parent (spans nest
lexically via ``with tracer.span(...)``), free-form ``attrs``, and
process/thread identity — everything the Chrome trace-event exporter
needs to draw one lane per worker.

Design constraints, in order:

1. **The disabled path is near-free.**  :data:`NULL_TRACER` is the
   default everywhere; its ``span()`` returns a shared singleton whose
   ``__enter__``/``__exit__`` are empty methods, so instrumented hot
   paths pay one method call and no allocation.  Code that must branch
   on instrumentation checks :attr:`Tracer.enabled` once per chunk, not
   per candidate.
2. **Thread-safe nesting.**  The active-span stack is per-thread
   (``threading.local``); the finished-span list is guarded by one lock
   appended to only at span exit.
3. **Fleet aware.**  Spans record wall-clock epoch ``start`` (comparable
   across processes) plus a monotonic ``duration``; a ``repro worker``
   drains its spans (:meth:`Tracer.drain`) into each result frame and the
   engine re-parents them under its own active span with
   :meth:`Tracer.adopt` — ids are remapped, so folds never collide.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]


@dataclass
class Span:
    """One named, timed interval of work.

    ``start`` is wall-clock epoch seconds (``time.time()`` — comparable
    across processes); ``duration`` is measured with the monotonic
    ``perf_counter`` clock, so it never goes negative under clock steps.
    """

    name: str
    start: float
    duration: float
    span_id: int
    parent_id: Optional[int] = None
    pid: int = 0
    tid: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration

    def asdict(self) -> Dict[str, object]:
        """JSON-ready row (the JSONL event-log record)."""
        row: Dict[str, object] = {
            "name": self.name,
            "start": self.start,
            "duration_s": self.duration,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.attrs:
            row["attrs"] = dict(self.attrs)
        return row


class _SpanContext:
    """Context manager for one recording span (see :meth:`Tracer.span`)."""

    __slots__ = ("_tracer", "span", "_t0")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: Dict[str, object]) -> None:
        self._tracer = tracer
        self.span = Span(
            name=name,
            start=0.0,
            duration=0.0,
            span_id=next(tracer._ids),
            pid=os.getpid(),
            attrs=attrs,
        )

    def __enter__(self) -> Span:
        tracer = self._tracer
        stack = tracer._stack()
        span = self.span
        span.parent_id = stack[-1] if stack else None
        span.tid = threading.get_ident()
        stack.append(span.span_id)
        span.start = time.time()
        self._t0 = time.perf_counter()
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._t0
        span = self.span
        span.duration = duration
        if exc_type is not None:
            span.attrs.setdefault("error", exc_type.__name__)
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1] == span.span_id:
            stack.pop()
        with tracer._lock:
            tracer._spans.append(span)
        return False


class _NullSpan:
    """Shared do-nothing span: the disabled path's ``with`` target.

    Carries a throwaway ``attrs`` dict and zero ``duration`` so
    instrumented code can set attributes unconditionally; everything
    written here is discarded.
    """

    __slots__ = ("attrs",)

    name = ""
    start = 0.0
    duration = 0.0
    span_id = 0
    parent_id = None
    pid = 0
    tid = 0

    def __init__(self) -> None:
        self.attrs: Dict[str, object] = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class Tracer:
    """Collects :class:`Span` trees; thread-safe; one per observed run.

    >>> tracer = Tracer()
    >>> with tracer.span("outer"):
    ...     with tracer.span("inner", items=3):
    ...         pass
    >>> [s.name for s in tracer.spans]
    ['inner', 'outer']
    """

    enabled = True

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    # ------------------------------------------------------------- recording
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs) -> _SpanContext:
        """Open a nested span; use as ``with tracer.span("phase") as sp``.

        The yielded :class:`Span` is live — handlers may add ``attrs``
        until exit.  Nesting follows the per-thread context stack, so
        concurrent threads build independent subtrees under whatever
        span each entered last.
        """
        return _SpanContext(self, name, attrs)

    def record(self, name: str, *, start: float, duration: float,
               **attrs) -> Span:
        """Append an already-measured span (no context manager).

        For code that timed a phase itself (``perf_counter`` pairs) and
        wants the measurement visible in the trace without re-running.
        The span parents under the calling thread's current span.
        """
        stack = self._stack()
        span = Span(
            name=name,
            start=start,
            duration=duration,
            span_id=next(self._ids),
            parent_id=stack[-1] if stack else None,
            pid=os.getpid(),
            tid=threading.get_ident(),
            attrs=dict(attrs),
        )
        with self._lock:
            self._spans.append(span)
        return span

    # ------------------------------------------------------------ inspection
    @property
    def spans(self) -> List[Span]:
        """Finished spans, in completion order (children before parents)."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def drain(self) -> List[Span]:
        """Return and remove every finished span (worker -> parent hand-off)."""
        with self._lock:
            spans = list(self._spans)
            self._spans.clear()
        return spans

    # ---------------------------------------------------------------- fold-in
    def adopt(self, spans: Sequence[Span],
              parent: Optional[int] = None) -> List[Span]:
        """Fold spans recorded elsewhere (a worker process) into this tracer.

        Every span gets a fresh id from this tracer's sequence (worker
        id sequences all start at 1, so they would collide); parent
        links *within* the batch are preserved, and batch roots are
        re-parented under ``parent`` (default: the calling thread's
        current span).  Returns the adopted spans.
        """
        if not spans:
            return []
        if parent is None:
            stack = self._stack()
            parent = stack[-1] if stack else None
        mapping = {s.span_id: next(self._ids) for s in spans}
        adopted = [
            replace(
                s,
                span_id=mapping[s.span_id],
                parent_id=mapping.get(s.parent_id, parent),
                attrs=dict(s.attrs),
            )
            for s in spans
        ]
        with self._lock:
            self._spans.extend(adopted)
        return adopted

    # ------------------------------------------------------------- summaries
    def totals(self) -> Dict[str, float]:
        """Summed duration per span name (the ``--profile``-style view)."""
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.duration
        return out


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    A single module-level instance (:data:`NULL_TRACER`) is shared by
    every uninstrumented engine/session, so "observability off" costs
    one attribute check and zero allocation per instrumented site.
    """

    enabled = False

    _NULL_SPAN = _NullSpan()

    def span(self, name: str, **attrs) -> _NullSpan:
        return self._NULL_SPAN

    def record(self, name: str, *, start: float, duration: float,
               **attrs) -> None:
        return None

    @property
    def spans(self) -> List[Span]:
        return []

    def __len__(self) -> int:
        return 0

    def clear(self) -> None:
        return None

    def drain(self) -> List[Span]:
        return []

    def adopt(self, spans: Iterable[Span],
              parent: Optional[int] = None) -> List[Span]:
        return []

    def totals(self) -> Dict[str, float]:
        return {}


#: The shared disabled tracer — the default everywhere.
NULL_TRACER = NullTracer()
