"""Hierarchical tracing spans with a Chrome trace-event exporter.

Spans form a tree per thread of execution
(``span("stage:search") > span("gga:gen:12") > span("gga:eval")``):
entering a span makes it the parent of any span opened underneath it
(propagated through a :mod:`contextvars` variable, so nesting is correct
across the GGA's worker threads too).  Completed spans accumulate in a
bounded process-wide :class:`Tracer` and export as a Chrome
trace-event-format JSON file (``trace.json``) that chrome://tracing and
Perfetto load directly.

Costs: an enabled span is two ``perf_counter`` calls, a contextvar
set/reset and one list append; a disabled one (``--no-telemetry``) is a
single branch returning a shared no-op context manager.
"""

from __future__ import annotations

import json
import os
import threading
import uuid
from contextvars import ContextVar
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from .runtime import telemetry_enabled

#: Cap on retained spans; beyond it new spans are counted but dropped so a
#: long-lived process cannot grow without bound.
DEFAULT_MAX_SPANS = 200_000

_current_span_id: ContextVar[Optional[int]] = ContextVar(
    "repro_current_span", default=None
)


@dataclass
class SpanRecord:
    """One completed span."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start_us: float
    duration_us: float
    thread: int
    args: Dict[str, object] = field(default_factory=dict)


class Tracer:
    """Bounded collector of completed spans."""

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.max_spans = max_spans
        self._lock = threading.Lock()
        self._spans: List[SpanRecord] = []
        self._next_id = 1
        self._epoch = perf_counter()
        self.dropped = 0
        #: correlation id shared by every span/log line of this tracer's
        #: lifetime (see :mod:`repro.observability.logfmt`)
        self.trace_id = uuid.uuid4().hex[:16]

    # ----------------------------------------------------------- recording

    def now_us(self) -> float:
        return (perf_counter() - self._epoch) * 1e6

    def next_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    def record(self, record: SpanRecord) -> None:
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
                return
            self._spans.append(record)

    def spans(self) -> List[SpanRecord]:
        with self._lock:
            return list(self._spans)

    def mark(self) -> Tuple[int, int]:
        """A watermark for :meth:`spans_since`: the next span id and the
        number of spans kept so far."""
        with self._lock:
            return self._next_id, len(self._spans)

    def spans_since(self, mark: Tuple[int, int]) -> List[SpanRecord]:
        """The kept spans opened after ``mark`` was taken.  A span is kept
        when it closes, so only those kept since can qualify; one that was
        open at the mark (an enclosing span) is left out."""
        first_id, kept = mark
        with self._lock:
            return [s for s in self._spans[kept:] if s.span_id >= first_id]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._next_id = 1
            self._epoch = perf_counter()
            self.dropped = 0
            self.trace_id = uuid.uuid4().hex[:16]

    # ------------------------------------------------------------ querying

    def find(self, name: str) -> List[SpanRecord]:
        return [s for s in self.spans() if s.name == name]

    def children_of(self, span: SpanRecord) -> List[SpanRecord]:
        return [s for s in self.spans() if s.parent_id == span.span_id]

    def span_tree(self) -> Dict[Optional[int], List[SpanRecord]]:
        """Parent id → children, for structural assertions."""
        tree: Dict[Optional[int], List[SpanRecord]] = {}
        for s in self.spans():
            tree.setdefault(s.parent_id, []).append(s)
        return tree

    # ------------------------------------------------------------- export

    def to_chrome_trace(self) -> Dict[str, object]:
        """Chrome trace-event format: complete ('X') events + metadata."""
        pid = os.getpid()
        events: List[Dict[str, object]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": "repro-transform"},
            }
        ]
        for s in self.spans():
            args: Dict[str, object] = {
                "span_id": s.span_id,
                "parent_id": s.parent_id,
            }
            args.update(s.args)
            events.append(
                {
                    "name": s.name,
                    "ph": "X",
                    "ts": s.start_us,
                    "dur": s.duration_us,
                    "pid": pid,
                    "tid": s.thread,
                    "cat": s.name.split(":", 1)[0],
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh, indent=1)
            fh.write("\n")


class _Span:
    """Context manager recording one span into a tracer."""

    __slots__ = ("tracer", "name", "args", "span_id", "parent_id",
                 "_start", "_token")

    def __init__(self, tracer: Tracer, name: str, args: Dict[str, object]) -> None:
        self.tracer = tracer
        self.name = name
        self.args = args

    def __enter__(self) -> "_Span":
        self.parent_id = _current_span_id.get()
        self.span_id = self.tracer.next_id()
        self._token = _current_span_id.set(self.span_id)
        self._start = self.tracer.now_us()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = self.tracer.now_us()
        _current_span_id.reset(self._token)
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        self.tracer.record(
            SpanRecord(
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                start_us=self._start,
                duration_us=end - self._start,
                thread=threading.get_ident() & 0xFFFF,
                args=self.args,
            )
        )

    def set(self, **args: object) -> None:
        """Attach attributes to the span while it is open."""
        self.args.update(args)


class _NullSpan:
    """Shared no-op span for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **args: object) -> None:
        return None


_NULL_SPAN = _NullSpan()

_tracer: Optional[Tracer] = None
_tracer_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process-wide tracer spans record into."""
    global _tracer
    with _tracer_lock:
        if _tracer is None:
            _tracer = Tracer()
        return _tracer


def reset_tracer() -> None:
    """Drop the process-wide tracer (tests / fresh runs)."""
    global _tracer
    with _tracer_lock:
        _tracer = None


def current_span_id() -> Optional[int]:
    """The id of the innermost open span (None outside any span)."""
    return _current_span_id.get()


def current_trace_id() -> Optional[str]:
    """The process tracer's correlation id (without instantiating one)."""
    return _tracer.trace_id if _tracer is not None else None


def span(name: str, **args: object) -> "_Span | _NullSpan":
    """Open a span named ``name`` under the current span (if any).

    Returns a context manager; when telemetry is disabled this is a
    shared no-op object and nothing is recorded.
    """
    if not telemetry_enabled():
        return _NULL_SPAN
    return _Span(get_tracer(), name, args)
