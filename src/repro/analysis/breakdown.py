"""Measured migration-latency breakdown from traces.

`repro.baselines.offload.flick_roundtrip_component_ns` prices the round
trip from config constants; this module instead *measures* the phases of
real migrations from the event trace, so the two can be cross-checked
(and so workloads whose migrations overlap other activity can be
analyzed honestly).

Phases of one host→NxP→host session:

========================  =============================================
``host_out``              handler entry → descriptor handed to the DMA
                          (handler + ioctl + context switch + kick)
``transfer_to_nxp``       DMA burst + NxP poll/dispatch/context-switch
``nxp_execute``           time the session is *resident on the NxP core*
                          (summed over every residency leg when nested
                          NxP→host calls punt control back to the host)
``nested_host``           time spent away from the NxP servicing nested
                          NxP→host calls (transfer + host execution +
                          transfer back + re-dispatch); 0 for simple
                          sessions
``return_to_host``        DMA back + interrupt delivery + IRQ handler
``host_resume``           wakeup + ioctl return + handler return
========================  =============================================

The ~0.7 µs page-fault entry precedes the first trace event and is
reported separately from config (it happens before the handler exists).

Sessions are cut by the phase model the request critical paths read
too, :func:`repro.analysis.critical_path.session_skeletons`, per pid,
so the phases of one session tile its duration exactly and concurrent
tasks never conflate.  A nested host→NxP session is measured as its own
session; a session that fell back to host emulation stays out of the
means.

Analyses refuse to run on a truncated trace (the ring dropped events)
unless ``allow_truncated=True``, because a windowed trace yields
corrupted means without any other symptom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.critical_path import _tile, session_skeletons
from repro.core.trace import MigrationTrace, TraceTruncated

__all__ = [
    "PhaseBreakdown",
    "measure_breakdown",
    "measure_breakdown_by_pid",
    "chrome_phase_events",
    "render_breakdown",
]

_PHASES = (
    "host_out",
    "transfer_to_nxp",
    "nxp_execute",
    "nested_host",
    "return_to_host",
    "host_resume",
)


@dataclass
class PhaseBreakdown:
    """Mean per-phase latency over the measured migrations (ns)."""

    phases: Dict[str, float]
    sessions: int
    nested_sessions: int = 0

    @property
    def total_ns(self) -> float:
        return sum(self.phases.values())


def _served_sessions(trace: MigrationTrace, pid: Optional[int], allow_truncated: bool) -> list:
    """``(session, skeleton)`` for every session an NxP served."""
    if trace.truncated and not allow_truncated:
        raise TraceTruncated(
            f"trace dropped {trace.dropped} events ({trace.spans_dropped} spans); "
            f"phase means over a truncated trace would be corrupted — raise the "
            f"trace limit or pass allow_truncated=True to analyze the window"
        )
    return [
        (session, skeleton)
        for session, _legs, skeleton in session_skeletons(trace.finished_spans(), trace.events)
        if skeleton and (pid is None or session.pid == pid)
    ]


def _mean(served: list) -> PhaseBreakdown:
    totals = dict.fromkeys(_PHASES, 0.0)
    nested = 0
    for s, skeleton in served:
        phases = _tile(s.start, s.end, skeleton)
        nested += "nested_host" in phases
        for phase, ns in phases.items():
            totals[phase] += ns
    n = len(served)
    means = {phase: total / n for phase, total in totals.items()} if n else totals
    return PhaseBreakdown(phases=means, sessions=n, nested_sessions=nested)


def measure_breakdown(
    trace: MigrationTrace, pid: Optional[int] = None, allow_truncated: bool = False
) -> PhaseBreakdown:
    """Extract per-phase means for H2N sessions (nested ones decomposed).

    ``pid`` restricts the measurement to one task; without it, sessions
    of every pid contribute to the means (still cut per pid — use
    :func:`measure_breakdown_by_pid` for separate per-task results).
    Raises :class:`~repro.core.trace.TraceTruncated` when the trace ring
    dropped events, unless ``allow_truncated`` is set.
    """
    return _mean(_served_sessions(trace, pid, allow_truncated))


def measure_breakdown_by_pid(
    trace: MigrationTrace, allow_truncated: bool = False
) -> Dict[int, PhaseBreakdown]:
    """Per-task phase means: one :class:`PhaseBreakdown` per migrating pid."""
    by_pid: Dict[int, list] = {}
    for served in _served_sessions(trace, None, allow_truncated):
        by_pid.setdefault(served[0].pid, []).append(served)
    return {pid: _mean(group) for pid, group in sorted(by_pid.items())}


def chrome_phase_events(
    trace: MigrationTrace, allow_truncated: bool = False
) -> List[dict]:
    """Derived Chrome ``trace_event`` entries: one complete ("X") span
    per skeleton interval per session, on the owning pid's track, in
    :data:`_PHASES` order.

    Feed these to :meth:`MigrationTrace.to_chrome`'s ``extra_events`` to
    overlay the measured phase decomposition on the raw event timeline.
    """
    return [
        {
            "name": phase,
            "cat": "phase",
            "ph": "X",
            "ts": a / 1000.0,
            "dur": (b - a) / 1000.0,
            "pid": s.pid,
            "tid": s.pid,
            "args": {},
        }
        for s, skeleton in _served_sessions(trace, None, allow_truncated)
        for phase, a, b in sorted(skeleton, key=lambda interval: _PHASES.index(interval[0]))
    ]


def render_breakdown(breakdown: PhaseBreakdown, page_fault_ns: float = 700.0) -> str:
    from repro.analysis.tables import render_table

    rows = [("page fault entry (config)", f"{page_fault_ns / 1000:.2f}us")]
    rows += [(phase, f"{ns / 1000:.2f}us") for phase, ns in breakdown.phases.items()]
    rows.append(("TOTAL (measured + fault)", f"{(breakdown.total_ns + page_fault_ns) / 1000:.2f}us"))
    title = f"Measured migration breakdown ({breakdown.sessions} sessions"
    if breakdown.nested_sessions:
        title += f", {breakdown.nested_sessions} nested"
    title += ")"
    return render_table(["Phase", "Mean latency"], rows, title=title)
