"""Timed sections: one ``profile.<path>`` histogram each, and trace spans.

:func:`span` is the package's one timing primitive. Every section it
opens on an enabled telemetry session observes its duration into the
``profile.<path>`` histogram, where ``<path>`` is the thread-local
nesting of section names joined with ``/``
(``search.optimize/trainer.iteration/rl.sample``). Their sums answer
"where did the run's wall time go" for any run, traced or not, and
``python -m repro.telemetry.report`` prints them as a self-time table.

A section is also a trace *span* when the session writes event files
and there is a trace to join. A *trace* is one logical unit of work — a
``/place`` request crossing the HTTP handler, the wait for a compute
slot, the service and its evaluations, or one search run crossing trainer
iterations and batch evaluations. Each trace is a tree of spans with a
``trace_id`` shared across the tree, a unique ``span_id``, and a
``parent_id`` linking each span to the span that contains it. Every
finished span is recorded as one schema-versioned ``span`` event
(:data:`repro.telemetry.events.EVENT_SCHEMAS`), so a run directory's
JSONL log carries the whole tree and ``analysis/trace.py`` can render it
in Perfetto.

Three propagation mechanisms, matching how work moves in this codebase:

* **Ambient (same thread).** :func:`span` pushes onto a thread-local
  stack; nested ``span()`` calls on the same thread parent automatically
  (``trainer.iteration`` under ``search.optimize``,
  ``env.evaluate_batch`` under ``service.handle``).
* **Explicit context (cross-thread).** :meth:`Span.context` /
  :func:`current_span` yield a :class:`SpanContext` — a serializable
  ``(trace_id, span_id)`` pair. A caller on another thread or process
  passes it along (a ``PlacementRequest``'s ``trace`` field, say); the
  receiver resumes from it with ``span(parent=ctx)``.
* **After-the-fact records.** A section measured before anyone could
  hold a live span (a rollout timed in a worker process) is emitted
  finished, with its own start and duration, by :func:`record_span`.
  It is not a timer and observes no histogram.

Activation rule: a section emits a ``span`` event only when the session
writes event files (``tel.sample_events``) *and* there is a trace to
join — an ambient or explicit parent, or ``new_trace=True`` for roots.
Otherwise it only observes its histogram; with disabled telemetry
(``NULL_TELEMETRY``) it is the shared no-op. Because span events are
gated on an active trace, they are deliberately outside the
batch-vs-sequential "identical event stream" contract of
``PlacementEnv.evaluate_batch`` (span timings are wall-clock and could never be
bit-identical anyway).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Optional

__all__ = [
    "SpanContext",
    "Span",
    "span",
    "current_span",
    "record_span",
    "new_trace_id",
]

# Process-unique id generation without per-call entropy: one random
# prefix at import plus an atomic-in-CPython counter.
_PREFIX = os.urandom(6).hex()
_COUNTER = itertools.count(1)


def _new_id() -> str:
    return f"{_PREFIX}{next(_COUNTER):08x}"


def new_trace_id() -> str:
    """A fresh process-unique trace id (used for responses even when no
    span is recorded, so every ``/place`` answer carries an identity)."""
    return _new_id()


class SpanContext:
    """The serializable identity of a live span: ``(trace_id, span_id)``.

    This is what crosses thread and process boundaries — a child created
    from a context joins ``trace_id`` and parents under ``span_id``.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str):
        self.trace_id = trace_id
        self.span_id = span_id

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, doc) -> Optional["SpanContext"]:
        """Rebuild a context from its wire form; ``None`` if malformed."""
        if not isinstance(doc, dict):
            return None
        trace_id = doc.get("trace_id")
        span_id = doc.get("span_id")
        if isinstance(trace_id, str) and isinstance(span_id, str) and trace_id:
            return cls(trace_id, span_id)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging sugar
        return f"SpanContext(trace_id={self.trace_id!r}, span_id={self.span_id!r})"


# The section stack is thread-local: each serve worker / handler thread
# carries its own nesting, unlike the process-wide telemetry session
# stack (a session is shared; "what am I inside of" is not).
_LOCAL = threading.local()


def _stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def current_span() -> Optional[SpanContext]:
    """The innermost live traced span on this thread, or ``None``."""
    for section in reversed(getattr(_LOCAL, "stack", ())):
        if section.trace_id is not None:
            return section.context
    return None


class Span:
    """One live, timed section; use via ``with span(...) as sp``.

    On exit it observes ``profile.<path>``; a traced span (``trace_id``
    set) also emits its ``span`` event. ``start_unix`` is wall-clock
    (``time.time``) so spans from different processes line up on one
    axis; the duration is measured on the monotonic clock
    (``time.perf_counter``) so it survives NTP steps.
    """

    __slots__ = (
        "name",
        "path",
        "trace_id",
        "span_id",
        "parent_id",
        "status",
        "start_unix",
        "_start_perf",
        "_telemetry",
        "_extra",
    )

    def __init__(self, name, telemetry, trace_id=None, parent_id="", extra=None):
        self.name = name
        self.path = name
        self.trace_id = trace_id
        self.span_id = _new_id() if trace_id is not None else None
        self.parent_id = parent_id
        self.status = "ok"
        self.start_unix = 0.0
        self._start_perf = 0.0
        self._telemetry = telemetry
        self._extra = extra

    @property
    def context(self) -> Optional[SpanContext]:
        """This span's identity, for cross-thread/process propagation;
        ``None`` for an untraced section."""
        if self.trace_id is None:
            return None
        return SpanContext(self.trace_id, self.span_id)

    def __enter__(self) -> "Span":
        stack = _stack()
        if stack:
            self.path = f"{stack[-1].path}/{self.name}"
        stack.append(self)
        self.start_unix = time.time()
        self._start_perf = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start_perf
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        else:  # pragma: no cover - defensive against unbalanced exits
            try:
                stack.remove(self)
            except ValueError:
                pass
        self._telemetry.metrics.histogram(f"profile.{self.path}").observe(duration)
        if self.trace_id is None:
            return
        if exc_type is not None and self.status == "ok":
            self.status = "error"
        self._telemetry.emit(
            "span",
            trace_id=self.trace_id,
            span_id=self.span_id,
            parent_id=self.parent_id,
            name=self.name,
            start_unix=float(self.start_unix),
            duration_s=float(duration),
            status=self.status,
            **self._extra,
        )


class _NoopSpan:
    """Shared do-nothing twin of :class:`Span` (disabled telemetry).
    ``context`` is ``None`` so callers can branch."""

    __slots__ = ()
    context = None
    trace_id = None
    span_id = None
    status = "ok"

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


NOOP_SPAN = _NoopSpan()


def span(
    name: str,
    telemetry=None,
    parent: Optional[SpanContext] = None,
    new_trace: bool = False,
    **extra,
) -> "Span | _NoopSpan":
    """Open a section named ``name``; returns a context manager.

    The section always observes ``profile.<path>`` in the session's
    metrics. It is also a traced span when the session writes event
    files and it has a parent: an explicit ``parent`` context (a
    cross-thread handoff), the thread's ambient current span, or — only
    with ``new_trace=True`` — a fresh root. Disabled telemetry gets the
    shared no-op.
    """
    if telemetry is None:
        from repro.telemetry import get_telemetry

        telemetry = get_telemetry()
    if not telemetry.enabled:
        return NOOP_SPAN
    if telemetry.sample_events:
        if parent is None:
            parent = current_span()
        if parent is not None:
            return Span(name, telemetry, parent.trace_id, parent.span_id, extra)
        if new_trace:
            return Span(name, telemetry, _new_id(), "", extra)
    return Span(name, telemetry)


def record_span(
    name: str,
    duration_s: float,
    telemetry=None,
    parent: Optional[SpanContext] = None,
    start_unix: Optional[float] = None,
    status: str = "ok",
    **extra,
) -> Optional[str]:
    """Record an already-finished span under ``parent``.

    For sections that cannot hold a live :class:`Span`, such as a
    rollout timed in another process. Returns the new span id, or
    ``None`` when nothing was recorded (no parent, or the session writes
    no event files).
    """
    if parent is None:
        return None
    if telemetry is None:
        from repro.telemetry import get_telemetry

        telemetry = get_telemetry()
    if not telemetry.sample_events:
        return None
    span_id = _new_id()
    telemetry.emit(
        "span",
        trace_id=parent.trace_id,
        span_id=span_id,
        parent_id=parent.span_id,
        name=name,
        start_unix=float(start_unix if start_unix is not None else time.time()),
        duration_s=float(duration_s),
        status=status,
        **extra,
    )
    return span_id
