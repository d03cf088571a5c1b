"""Structured observability for the simulated Flick machine.

The trace layer is how the reproduction's headline numbers are
*measured* (Table III's round-trip breakdown, Fig. 5's crossover
analysis), so it has to stay trustworthy under everything the machine
can do — concurrent migrating tasks, nested bidirectional calls, and
bounded buffers.  Three building blocks:

**Instant events** (:class:`TraceEvent`) — typed, timestamped points
with an explicit ``pid`` field (``None`` marks a *device-scoped* event
such as a PCIe transaction that belongs to no task).  Events live in a
bounded ring: when full, the *oldest* event is evicted and the eviction
is counted in :attr:`MigrationTrace.dropped` (``trace.dropped`` in the
stat registry's observed tier) — truncation is queryable,
never silent, and downstream analyses refuse or warn instead of
computing on partial data.

**Spans** (:class:`Span`) — durations with a begin and an end.  Each
task pid owns a *span stack*: :meth:`MigrationTrace.begin` pushes,
:meth:`MigrationTrace.end` closes the innermost open span with a
matching name, so nested bidirectional migrations (host→NxP→host→NxP)
attribute correctly and two concurrent pids can never conflate.
Device-side work that may overlap arbitrarily (DMA bursts, interrupt
delivery) uses the stack-free handle API instead —
:meth:`MigrationTrace.open_span` / :meth:`MigrationTrace.close`.

**Exports** — :meth:`MigrationTrace.to_chrome` emits Chrome
``trace_event``-format JSON (load it in ``chrome://tracing`` or
Perfetto); completed spans become complete (``"ph": "X"``) events and
instants become instant (``"ph": "i"``) events, one track per pid.
``python -m repro trace`` and ``python -m repro profile`` expose this
on the command line.

Invariance contract: tracing *observes* simulated time, it never
charges it.  With tracing enabled or disabled (or ``detail`` on or
off), a workload's return value, simulated nanoseconds, stat counters
and DES event count are bit-identical — parity-tested in
``tests/core/test_trace_parity.py`` exactly like the PR-1/PR-2 fast
paths.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Deque, Dict, IO, List, Optional, Union

from repro.sim.stats import StatRegistry

__all__ = [
    "TraceEvent",
    "Span",
    "MigrationTrace",
    "TraceTruncated",
    "EVENT_CATEGORIES",
]

#: Event taxonomy (docs/OBSERVABILITY.md): every known event/span name
#: maps to the subsystem that emits it.  Used as the ``cat`` field of
#: the Chrome export; unknown names fall back to "misc".
EVENT_CATEGORIES: Dict[str, str] = {
    # thread lifecycle (host runtime)
    "thread_start": "thread",
    "thread_done": "thread",
    "thread": "thread",
    # protocol point events (host and NxP migration handlers)
    "h2n_call_start": "protocol",
    "h2n_call_done": "protocol",
    "n2h_call": "protocol",
    "n2h_return": "protocol",
    "n2h_call_exec": "protocol",
    "nxp_dispatch_call": "protocol",
    "nxp_dispatch_return": "protocol",
    "nxp_stack_alloc": "protocol",
    "dma_h2n": "protocol",
    # protocol spans
    "h2n_session": "protocol",
    "nxp_resident": "protocol",
    "n2h_host_exec": "protocol",
    # kernel events
    "irq": "kernel",
    "task_wake": "kernel",
    "minor_fault": "kernel",
    # tracing-JIT tier (repro.isa.jit)
    "jit_compile": "jit",
    "jit_invalidate": "jit",
    # device-scoped events/spans (interconnect)
    "dma.h2n": "device",
    "dma.n2h": "device",
    "irq_raise": "device",
    "irq_deliver": "device",
    "pcie_read": "device",
    "pcie_write": "device",
    "pcie_burst": "device",
    # fault injection + hardened protocol (docs/ROBUSTNESS.md)
    "fault_inject": "fault",
    "watchdog_trip": "fault",
    "retry": "fault",
    "replay": "fault",
    "spurious_irq": "fault",
    "late_delivery": "fault",
    "late_wake": "fault",
    "desc_discard": "fault",
    "nxp_stall": "fault",
    "nxp_hang": "fault",
    "nxp_crash": "fault",
    "health": "fault",
    # degraded (host-fallback) execution
    "degraded_call": "degraded",
    "degraded_n2h_call": "degraded",
    "degraded_done": "degraded",
    # serving-traffic harness (repro.analysis.serving): one span per
    # request, arrival -> completion (queueing delay included)
    "serve_request": "serving",
    # fleet placement decisions (repro.os.placement), emitted only when
    # trace-context propagation is on (docs/OBSERVABILITY.md)
    "placement": "placement",
    "nxp_kill": "fault",
}


class TraceTruncated(RuntimeError):
    """An analysis refused to run on a trace that dropped events."""


@dataclass(frozen=True)
class TraceEvent:
    """One instant event: a timestamped point with a task scope.

    ``pid`` is ``None`` for device-scoped events; task-scoped emitters
    always set it so per-pid analyses never have to guess.
    """

    time: float
    name: str
    pid: Optional[int]
    attrs: Dict[str, Any]

    def __repr__(self) -> str:
        kv = " ".join(f"{k}={v:#x}" if isinstance(v, int) and k in ("target", "addr")
                      else f"{k}={v}" for k, v in self.attrs.items())
        pid = f"pid={self.pid} " if self.pid is not None else ""
        return f"[{self.time / 1000.0:10.3f}us] {self.name} {pid}{kv}".rstrip()


@dataclass
class Span:
    """A named duration on one task's (or the device's) timeline."""

    name: str
    pid: Optional[int]
    start: float
    end: Optional[float] = None
    depth: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end - self.start

    def __repr__(self) -> str:
        end = f"{self.end / 1000.0:.3f}us" if self.end is not None else "..."
        pid = f" pid={self.pid}" if self.pid is not None else ""
        return f"<span {self.name}{pid} [{self.start / 1000.0:.3f}us..{end}] depth={self.depth}>"


class MigrationTrace:
    """Bounded event ring + per-task span stacks with drop accounting.

    The event ring keeps the most recent ``limit`` events; completed
    spans keep the most recent ``span_limit``.  Evictions increment
    :attr:`dropped` / :attr:`spans_dropped` so consumers can tell a
    complete trace from a windowed one (:attr:`truncated`).  Those two
    and :attr:`span_anomalies` are the ``trace.*`` counters of
    ``stats``'s observed tier.
    """

    def __init__(
        self,
        sim,
        limit: int = 100_000,
        span_limit: int = 100_000,
        stats: Optional[StatRegistry] = None,
    ):
        self.sim = sim
        self.limit = limit
        self.span_limit = span_limit
        self.enabled = True
        #: opt-in device-level detail (per-transaction PCIe events);
        #: off by default so interpreted hot loops stay fast.
        self.detail = False
        self._events: Deque[TraceEvent] = deque()
        self._finished_spans: Deque[Span] = deque()
        self._stacks: Dict[Optional[int], List[Span]] = {}
        self._open_handles: List[Span] = []  # stack-free device spans
        stats = stats if stats is not None else StatRegistry()
        self._dropped = stats.observed_counter("trace.dropped")
        self._spans_dropped = stats.observed_counter("trace.spans_dropped")
        self._span_anomalies = stats.observed_counter("trace.span_anomalies")
        #: request-scoped causal tracing (docs/OBSERVABILITY.md): when
        #: enabled, every span/event emitted by a pid with a registered
        #: context is decorated with ``trace_id`` plus ``span_id`` /
        #: ``parent_span_id`` linkage.  Purely observational — attrs
        #: never feed timing — and off by default so untraced runs stay
        #: byte-for-byte on the pre-context code paths.
        self.context_enabled = False
        self._contexts: Dict[int, Dict[str, Any]] = {}
        self._context_roots: Dict[int, Optional[int]] = {}
        self._span_seq = 0

    # -- trace-context propagation -------------------------------------------

    def set_context(
        self,
        pid: int,
        trace_id: str,
        root_span_id: Optional[int] = None,
        **extra,
    ) -> None:
        """Register a causal context for ``pid``: all spans and events it
        emits from now on carry ``trace_id`` (+ any ``extra`` attrs).
        ``root_span_id`` is the parent of the pid's outermost spans —
        typically the ``serve_request`` span the pid is serving."""
        if not self.context_enabled:
            return
        self._contexts[pid] = {"trace_id": trace_id, **extra}
        self._context_roots[pid] = root_span_id

    def clear_context(self, pid: int) -> None:
        self._contexts.pop(pid, None)
        self._context_roots.pop(pid, None)

    def next_span_id(self) -> int:
        """Allocate a span id for externally-rooted spans (e.g. the
        serving harness's ``serve_request`` roots)."""
        self._span_seq += 1
        return self._span_seq

    def get_context(self, pid: Optional[int]) -> Optional[Dict[str, Any]]:
        if pid is None:
            return None
        return self._contexts.get(pid)

    def annotate(self, name: str, pid: Optional[int] = None, **attrs) -> Optional[Span]:
        """Attach attrs to the innermost *open* span named ``name`` on
        ``pid``'s stack (e.g. the device index once placement picks one).
        Returns the span, or None if no such span is open."""
        if not self.enabled:
            return None
        stack = self._stacks.get(pid)
        if stack:
            for i in range(len(stack) - 1, -1, -1):
                if stack[i].name == name:
                    stack[i].attrs.update(attrs)
                    return stack[i]
        for span in reversed(self._open_handles):
            if span.name == name and span.pid == pid:
                span.attrs.update(attrs)
                return span
        return None

    def _decorate(self, pid: Optional[int], attrs: Dict[str, Any], *, span: bool) -> None:
        """Merge ``pid``'s causal context into ``attrs`` (in place).

        Spans additionally get a fresh ``span_id`` and the innermost
        enclosing open span's id (or the context's root span) as
        ``parent_span_id``.  Explicit attrs win over context attrs so
        emitters can override.
        """
        ctx = self._contexts.get(pid) if pid is not None else None
        if ctx is None:
            if span and "trace_id" in attrs:
                # Externally-rooted span (a pid-less serving root that
                # passed its trace_id explicitly): id it, no parent.
                attrs.setdefault("span_id", self.next_span_id())
            return
        for key, value in ctx.items():
            attrs.setdefault(key, value)
        if span:
            attrs.setdefault("span_id", self.next_span_id())
            parent = self._innermost_open(pid)
            if parent is not None:
                parent_id = parent.attrs.get("span_id")
            else:
                parent_id = self._context_roots.get(pid)
            if parent_id is not None:
                attrs.setdefault("parent_span_id", parent_id)

    def _innermost_open(self, pid: Optional[int]) -> Optional[Span]:
        if pid is None:
            return None
        stack = self._stacks.get(pid)
        if stack:
            return stack[-1]
        for span in reversed(self._open_handles):
            if span.pid == pid:
                return span
        return None

    # -- instant events ------------------------------------------------------

    def record(self, name: str, pid: Optional[int] = None, **attrs) -> None:
        """Append one instant event (ring-bounded, drops counted)."""
        if not self.enabled:
            return
        if self.context_enabled:
            self._decorate(pid, attrs, span=False)
        if len(self._events) >= self.limit:
            self._events.popleft()
            self._dropped.value += 1
        self._events.append(TraceEvent(self.sim.now, name, pid, attrs))

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    @property
    def dropped(self) -> int:
        """Events the ring evicted."""
        return self._dropped.value

    @property
    def spans_dropped(self) -> int:
        """Completed spans the span ring evicted."""
        return self._spans_dropped.value

    @property
    def span_anomalies(self) -> int:
        """Lifecycle violations: a handle closed twice, or a close on a
        handle this trace never tracked (evicted or foreign).  Always a
        bug in the emitter — surfaced in exports, never silent."""
        return self._span_anomalies.value

    @property
    def truncated(self) -> bool:
        """True when the ring evicted anything: analyses over
        :attr:`events` would see a window, not the whole run."""
        return self.dropped > 0 or self.spans_dropped > 0

    def names(self) -> List[str]:
        return [e.name for e in self._events]

    def filter(self, name: str) -> List[TraceEvent]:
        return [e for e in self._events if e.name == name]

    def count(self, name: str) -> int:
        return sum(1 for e in self._events if e.name == name)

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str, pid: Optional[int] = None, **attrs) -> Optional[Span]:
        """Open a span on ``pid``'s span stack (LIFO nesting)."""
        if not self.enabled:
            return None
        if self.context_enabled:
            self._decorate(pid, attrs, span=True)
        stack = self._stacks.setdefault(pid, [])
        span = Span(name, pid, self.sim.now, depth=len(stack), attrs=attrs)
        stack.append(span)
        return span

    def end(self, name: str, pid: Optional[int] = None, **attrs) -> Optional[Span]:
        """Close the innermost open span named ``name`` on ``pid``'s stack.

        Searching from the top keeps protocol spans robust even if an
        unrelated span was left open deeper on the stack.
        """
        if not self.enabled:
            return None
        stack = self._stacks.get(pid)
        if not stack:
            return None
        for i in range(len(stack) - 1, -1, -1):
            if stack[i].name == name:
                span = stack.pop(i)
                span.end = self.sim.now
                span.attrs.update(attrs)
                self._finish(span)
                return span
        return None

    def open_span(self, name: str, pid: Optional[int] = None, **attrs) -> Optional[Span]:
        """Open a stack-free span (device work that may overlap freely);
        close it with :meth:`close` on the returned handle."""
        if not self.enabled:
            return None
        if self.context_enabled:
            self._decorate(pid, attrs, span=True)
        span = Span(name, pid, self.sim.now, attrs=attrs)
        self._open_handles.append(span)
        return span

    def close(self, span: Optional[Span], **attrs) -> Optional[Span]:
        """Close a span handle from :meth:`open_span` (None-safe).

        A double close, or a close on a handle this trace is not
        tracking (evicted, or from another trace), increments
        :attr:`span_anomalies` — both mean the emitter's span lifecycle
        is broken, which would silently corrupt every duration-derived
        metric if it just passed.
        """
        if span is None:
            return None
        if span.end is not None:
            self._span_anomalies.value += 1
            return span
        try:
            self._open_handles.remove(span)
        except ValueError:
            # Not a handle we are tracking: close it anyway (the caller
            # holds a real Span and the duration is still meaningful)
            # but flag the lifecycle violation.
            self._span_anomalies.value += 1
        span.end = self.sim.now
        span.attrs.update(attrs)
        self._finish(span)
        return span

    def _finish(self, span: Span) -> None:
        if len(self._finished_spans) >= self.span_limit:
            self._finished_spans.popleft()
            self._spans_dropped.value += 1
        self._finished_spans.append(span)

    def finished_spans(
        self, name: Optional[str] = None, pid: Optional[int] = None
    ) -> List[Span]:
        """Completed spans, optionally filtered by name and/or pid."""
        return [
            s
            for s in self._finished_spans
            if (name is None or s.name == name) and (pid is None or s.pid == pid)
        ]

    def open_spans(self, pid: Optional[int] = None) -> List[Span]:
        """Spans begun but not yet ended (stacked and handle-based)."""
        out: List[Span] = []
        for stack_pid, stack in self._stacks.items():
            if pid is None or stack_pid == pid:
                out.extend(stack)
        out.extend(s for s in self._open_handles if pid is None or s.pid == pid)
        return out

    def spans(
        self, start_name: str, end_name: str, pid: Optional[int] = None
    ) -> List[float]:
        """Durations between matched start/end event pairs, paired
        **per pid** with a stack (so concurrent tasks never conflate and
        nested sessions pair innermost-first).

        Warns loudly when the event ring dropped anything: pairs whose
        start was evicted are silently incomplete.
        """
        if self.dropped:
            import warnings

            warnings.warn(
                f"trace ring dropped {self.dropped} events; span pairing over "
                f"a truncated trace may be incomplete",
                RuntimeWarning,
                stacklevel=2,
            )
        out: List[float] = []
        open_starts: Dict[Optional[int], List[float]] = {}
        for e in self._events:
            if pid is not None and e.pid != pid:
                continue
            if e.name == start_name:
                open_starts.setdefault(e.pid, []).append(e.time)
            elif e.name == end_name:
                starts = open_starts.get(e.pid)
                if starts:
                    out.append(e.time - starts.pop())
        return out

    # -- exports -------------------------------------------------------------

    def to_chrome(self, extra_events: Optional[List[dict]] = None) -> dict:
        """Build a Chrome ``trace_event``-format dict (JSON-serializable).

        Completed spans become complete events (``ph: "X"``), open spans
        become begin events (``ph: "B"``), instants become instant
        events (``ph: "i"``).  Timestamps are microseconds as the format
        requires; device-scoped entries (pid ``None``) land on pid 0's
        "device" track.  ``extra_events`` lets analyses append derived
        entries (e.g. per-phase spans from ``repro.analysis.breakdown``).
        """
        trace_events: List[dict] = []
        for span in self._finished_spans:
            trace_events.append(
                {
                    "name": span.name,
                    "cat": EVENT_CATEGORIES.get(span.name, "misc"),
                    "ph": "X",
                    "ts": span.start / 1000.0,
                    "dur": (span.end - span.start) / 1000.0,
                    "pid": span.pid if span.pid is not None else 0,
                    "tid": span.pid if span.pid is not None else 0,
                    "args": _jsonable_attrs(span.attrs),
                }
            )
        open_spans = self.open_spans()
        for span in open_spans:
            # Unfinished at export: a hung device leg or a request still
            # in flight.  Marked so a viewer (and the census) can tell
            # them from spans that merely lost their end to truncation.
            trace_events.append(
                {
                    "name": span.name,
                    "cat": EVENT_CATEGORIES.get(span.name, "misc"),
                    "ph": "B",
                    "ts": span.start / 1000.0,
                    "pid": span.pid if span.pid is not None else 0,
                    "tid": span.pid if span.pid is not None else 0,
                    "args": {**_jsonable_attrs(span.attrs), "unfinished": True},
                }
            )
        for event in self._events:
            trace_events.append(
                {
                    "name": event.name,
                    "cat": EVENT_CATEGORIES.get(event.name, "misc"),
                    "ph": "i",
                    "s": "t",
                    "ts": event.time / 1000.0,
                    "pid": event.pid if event.pid is not None else 0,
                    "tid": event.pid if event.pid is not None else 0,
                    "args": _jsonable_attrs(event.attrs),
                }
            )
        if extra_events:
            trace_events.extend(extra_events)
        trace_events.sort(key=lambda e: e["ts"])
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ns",
            "otherData": {
                "dropped_events": self.dropped,
                "dropped_spans": self.spans_dropped,
                "truncated": self.truncated,
                "open_spans": len(open_spans),
                "span_anomalies": self.span_anomalies,
            },
        }

    def export_chrome(
        self, dst: Union[str, IO[str]], extra_events: Optional[List[dict]] = None
    ) -> dict:
        """Serialize :meth:`to_chrome` to a path or file object."""
        doc = self.to_chrome(extra_events=extra_events)
        if hasattr(dst, "write"):
            json.dump(doc, dst, indent=1)
        else:
            with open(dst, "w") as handle:
                json.dump(doc, handle, indent=1)
        return doc

    # -- rendering -----------------------------------------------------------

    def render(self, limit: int = 50) -> str:
        lines = [repr(e) for e in islice(self._events, limit)]
        if len(self._events) > limit:
            lines.append(f"... {len(self._events) - limit} more events")
        if self.dropped:
            lines.append(f"!!! ring dropped {self.dropped} older events (truncated trace)")
        open_count = len(self.open_spans())
        if open_count:
            lines.append(f"!!! {open_count} span(s) still open (unfinished work or a hung leg)")
        if self.span_anomalies:
            lines.append(f"!!! {self.span_anomalies} span lifecycle anomalies (double/foreign close)")
        return "\n".join(lines)


def _jsonable_attrs(attrs: Dict[str, Any]) -> Dict[str, Any]:
    return {
        k: v if isinstance(v, (int, float, str, bool)) or v is None else repr(v)
        for k, v in attrs.items()
    }
