"""Per-request critical-path extraction and tail attribution.

A traced serving run (``TrafficConfig.traced`` /
``FlickConfig.trace_context``) stamps every span and event a request
causes with its ``trace_id``.  This module folds each request's span
DAG back into an **exactly-tiling causal timeline**: a partition of the
request's measured latency (arrival → completion) into named phases
that sum back to the latency, so "where did the time go" always has a
complete answer — nothing double-counted, nothing unattributed.

**Phase taxonomy** (the Mavrogeorgis migration-cost vocabulary, adapted
to Flick's protocol; see docs/OBSERVABILITY.md):

============== ==========================================================
queue_wait     arrival → the request's thread starts running (connection
               pool + host-core queueing)
host_execute   host-ISA instruction execution outside migration sessions
protocol_host  h2n session overhead: fault entry, ioctl, descriptor
               build, context switches, IRQ delivery, wakeup
dma_h2n        descriptor bursts host → NxP (successful legs)
dma_n2h        descriptor bursts NxP → host (successful legs)
nxp_execute    NISA execution resident on an NxP device
nested_host    NxP-requested host callbacks (the reentrant ladder)
retry_backoff  watchdog waits + backoff on lost legs, recovered by
               retransmission to the *same* device
failover       watchdog waits + recovery re-placed on *another* device
               (a ``placement`` event with ``failover`` inside)
fallback       degraded host-emulation of NISA code (device(s) dead)
============== ==========================================================

Sessions enter a request through :func:`session_skeletons`, the phase
model the per-session breakdown reads too: a session's legs (its
skeleton's ``nxp_execute`` intervals, or the legs that ran before it
fell back) claim ``nxp_execute`` and the whole session
``protocol_host``, which the cause claims (DMA bursts, nested host
execution, recovery, fallback) refine.

The tiling is computed by *elementary-interval decomposition*: every
claim (span or derived interval) is clipped to the request window, the
window is cut at every claim boundary, and each elementary slice is
awarded to the highest-priority claim covering it.  Priorities encode
causal specificity — NxP residency beats the session that contains it,
a recovery interval beats the doomed DMA burst inside it — and the
slices of one request partition its window by construction, so the
phase sums tile the latency exactly (property-tested in
``tests/analysis/test_critical_path.py``).  :func:`_tile` does this
for requests and sessions alike.

Tail attribution buckets requests into percentile bands, aggregates
phase breakdowns per band, and names the dominant phase of the tail
plus exemplar trace ids — the ``python -m repro why`` report
(``flick.why.v1``).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.descriptors import KIND_CALL
from repro.core.trace import Span

__all__ = [
    "PHASES",
    "RequestPath",
    "TailBand",
    "WhyReport",
    "extract_request_paths",
    "session_skeletons",
    "tail_attribution",
    "why_report",
    "render_why",
    "why_doc",
]

#: Canonical phase order (reports render in this order).
PHASES = (
    "queue_wait",
    "host_execute",
    "protocol_host",
    "dma_h2n",
    "dma_n2h",
    "nxp_execute",
    "nested_host",
    "retry_backoff",
    "failover",
    "fallback",
)

#: What each phase means for a "why is the tail slow" verdict.
_CULPRITS = {
    "queue_wait": "queueing: requests wait for a connection/host core — offered load is at or past capacity",
    "host_execute": "host execution: the request's own host-ISA work dominates",
    "protocol_host": "migration protocol overhead: ioctl/context-switch/IRQ path dominates",
    "dma_h2n": "interconnect: host->NxP descriptor transfers dominate",
    "dma_n2h": "interconnect: NxP->host descriptor transfers dominate",
    "nxp_execute": "slow device: NISA execution resident on the NxP dominates",
    "nested_host": "reentrant ladder: NxP-requested host callbacks dominate",
    "retry_backoff": "retry storm: watchdog waits + backoff on lost legs dominate",
    "failover": "failover recovery: lost legs re-placed on surviving devices dominate",
    "fallback": "degraded mode: host-fallback emulation of NISA code dominates",
}

#: A claim on a stretch of time: ``(phase, start, end)``.
_Claim = Tuple[str, float, float]

#: Request claim priorities by phase: lower wins.  See module docstring.
_PRIORITY = {
    "nxp_execute": 0,
    "retry_backoff": 1,
    "failover": 1,
    "dma_h2n": 2,
    "dma_n2h": 2,
    "fallback": 3,
    "nested_host": 4,
    "protocol_host": 5,
    "queue_wait": 6,
}

#: The cause spans a request claims directly, by the phase they claim.
_SPAN_PHASES = {"dma.h2n": "dma_h2n", "dma.n2h": "dma_n2h", "n2h_host_exec": "nested_host"}


@dataclass(frozen=True)
class RequestPath:
    """One request's exactly-tiling causal timeline."""

    trace_id: str
    index: int
    kind: str
    ok: bool
    arrival_ns: float
    end_ns: float
    #: phase name -> attributed ns (every phase >= 0; sums to latency)
    phases: Dict[str, float]
    #: the phase with the largest share (ties break by PHASES order)
    dominant: str
    #: devices whose spans appear on this request's path (indices)
    devices: Tuple[int, ...] = ()
    #: watchdog trips this request suffered
    retries: int = 0
    #: failover re-placements (placement events with failover set)
    failovers: int = 0
    #: True when any part completed via host-fallback emulation
    fallback: bool = False

    @property
    def latency_ns(self) -> float:
        return self.end_ns - self.arrival_ns

    @property
    def phase_sum_ns(self) -> float:
        return math.fsum(self.phases.values())

    @property
    def device_labels(self) -> Tuple[str, ...]:
        return tuple(f"nxp{i}" for i in self.devices)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "index": self.index,
            "kind": self.kind,
            "ok": self.ok,
            "arrival_ns": self.arrival_ns,
            "end_ns": self.end_ns,
            "latency_ns": self.latency_ns,
            "phases": {k: v for k, v in self.phases.items() if v > 0.0},
            "dominant": self.dominant,
            "devices": list(self.device_labels),
            "retries": self.retries,
            "failovers": self.failovers,
            "fallback": self.fallback,
        }


def _group_by_trace_id(items) -> Dict[str, list]:
    out: Dict[str, list] = {}
    for item in items:
        tid = item.attrs.get("trace_id")
        if tid is not None:
            out.setdefault(tid, []).append(item)
    return out


def _recovery_claims(events, t1: float) -> List[_Claim]:
    """Derive retry/failover intervals from a request's point events.

    Each ``watchdog_trip`` denotes one lost leg: the interval from that
    attempt's DMA kick (the preceding ``dma_h2n`` event) to the next
    recovery action (the retransmit's ``dma_h2n``, a ``degraded_call``,
    or — nothing — the request end) was consumed by the loss.  When a
    ``placement`` event with ``failover`` set falls inside the recovery
    window the leg was re-placed on another device: the interval is
    ``failover``; otherwise it is ``retry_backoff``.
    """
    claims: List[_Claim] = []
    events = sorted(events, key=lambda e: e.time)
    kicks = [e.time for e in events if e.name == "dma_h2n"]
    for i, ev in enumerate(events):
        if ev.name != "watchdog_trip":
            continue
        # the latest kick at or before the trip is this attempt's send
        prior = [t for t in kicks if t <= ev.time]
        start = prior[-1] if prior else ev.time
        nxt = t1
        failover = False
        for later in events[i + 1:]:
            if later.name == "placement" and later.attrs.get("failover"):
                failover = True
            if later.name in ("dma_h2n", "degraded_call"):
                nxt = later.time
                break
        if nxt > start:
            phase = "failover" if failover else "retry_backoff"
            claims.append((phase, start, nxt))
    return claims


def session_skeletons(spans, events) -> List[Tuple[Span, List[Span], List[_Claim]]]:
    """Cut every finished migration session into its skeleton.

    Returns ``(session, legs, skeleton)`` per finished ``h2n_session``
    span, in the order of ``spans`` (finish order, as traces keep them).
    ``legs`` are the session's ``nxp_resident`` spans, one level deeper
    on the pid's span stack, in start order.  The skeleton's ``(phase,
    start, end)`` intervals partition the session: the legs are
    ``nxp_execute`` and the gaps between them ``nested_host``; the first
    call-kind ``dma_h2n`` kick ends ``host_out``, the first leg
    ``transfer_to_nxp``, the first return-kind ``irq`` after the last
    leg ``return_to_host``, and the session's end ``host_resume``.  It is
    empty when no NxP served the session to the end (no leg, a
    ``degraded_done`` fallback end, or a missing kick or IRQ).
    """
    kicks: Dict[Optional[int], List[float]] = {}
    irqs: Dict[Optional[int], List[float]] = {}
    fell_back = set()
    for e in [e for e in events if e.name in ("dma_h2n", "irq", "degraded_done")]:
        if e.name == "degraded_done":
            fell_back.add((e.pid, e.time))
        elif e.name == "irq":
            if e.attrs.get("kind") == "return":
                irqs.setdefault(e.pid, []).append(e.time)
        elif e.attrs.get("kind") == KIND_CALL:
            kicks.setdefault(e.pid, []).append(e.time)
    out = []
    unclaimed: Dict[Optional[int], list] = {}  # per pid: finished legs
    for s in [s for s in spans if s.name in ("h2n_session", "nxp_resident") and s.end is not None]:
        if s.name == "nxp_resident":
            unclaimed.setdefault(s.pid, []).append(s)
            continue
        # A session finishes after its legs, and after any nested
        # session, which has already claimed its own legs.
        legs = unclaimed.get(s.pid, [])
        own = []
        while legs and legs[-1].end > s.start:
            leg = legs.pop()
            if leg.start >= s.start and leg.depth == s.depth + 1:
                own.append(leg)
        own.reverse()
        kick = irq = None
        if own and (s.pid, s.end) not in fell_back:
            kick = _first_between(kicks.get(s.pid, ()), s.start, own[0].start)
            irq = _first_between(irqs.get(s.pid, ()), own[-1].end, s.end)
        if kick is None or irq is None:
            out.append((s, own, []))
            continue
        skeleton = [("host_out", s.start, kick), ("transfer_to_nxp", kick, own[0].start)]
        for i, leg in enumerate(own):
            if i:
                skeleton.append(("nested_host", own[i - 1].end, leg.start))
            skeleton.append(("nxp_execute", leg.start, leg.end))
        skeleton += [("return_to_host", own[-1].end, irq), ("host_resume", irq, s.end)]
        out.append((s, own, skeleton))
    return out


def _first_between(times, lo: float, hi: float) -> Optional[float]:
    """The first of the sorted ``times`` in ``[lo, hi]``, if any."""
    i = bisect_left(times, lo)
    return times[i] if i < len(times) and times[i] <= hi else None


def extract_request_paths(trace, records: Sequence) -> List["RequestPath"]:
    """Fold a traced run back into one :class:`RequestPath` per request.

    ``records`` supplies ground truth for the request window (arrival /
    end instants) and metadata; the trace supplies the causal spans.
    Requests whose ``serve_request`` span was evicted from the span ring
    still tile correctly (their whole window defaults to coarse phases),
    but a truncated trace should be treated as a windowed view — check
    ``trace.truncated``.
    """
    spans_by_tid = _group_by_trace_id(trace.finished_spans())
    events_by_tid = _group_by_trace_id(trace.events)
    tid_by_index: Dict[int, str] = {}
    for tid, spans in spans_by_tid.items():
        for s in spans:
            if s.name == "serve_request" and "index" in s.attrs:
                tid_by_index[s.attrs["index"]] = tid
    paths: List[RequestPath] = []
    for rec in records:
        tid = tid_by_index.get(rec.index)
        spans = spans_by_tid.get(tid, []) if tid is not None else []
        events = events_by_tid.get(tid, []) if tid is not None else []
        paths.append(
            _build_path(rec, tid or f"req-unknown-{rec.index:04d}", spans, events)
        )
    return paths


def _build_path(rec, tid: str, spans, events) -> RequestPath:
    t0 = rec.arrival_ns
    t1 = rec.end_ns
    claims: List[_Claim] = [
        (_SPAN_PHASES[s.name], s.start, s.end)
        for s in spans
        if s.name in _SPAN_PHASES and s.end is not None
    ]

    thread_start: Optional[float] = None
    for s in spans:
        if s.name == "thread":
            thread_start = s.start if thread_start is None else min(thread_start, s.start)
    for session, legs, _skeleton in session_skeletons(spans, events):
        claims.append(("protocol_host", session.start, session.end))
        claims.extend(("nxp_execute", leg.start, leg.end) for leg in legs)
    claims.extend(_recovery_claims(events, t1))

    # Degraded execution: degraded_call -> degraded_done point events.
    fallback = False
    pending_call: Optional[float] = None
    for ev in sorted(events, key=lambda e: e.time):
        if ev.name == "degraded_call":
            fallback = True
            if pending_call is None:
                pending_call = ev.time
        elif ev.name == "degraded_done" and pending_call is not None:
            claims.append(("fallback", pending_call, ev.time))
            pending_call = None
    if pending_call is not None:
        claims.append(("fallback", pending_call, t1))

    # Queue wait: arrival until the request's thread starts running.
    if thread_start is not None and thread_start > t0:
        claims.append(("queue_wait", t0, thread_start))

    claims.sort(key=lambda claim: _PRIORITY[claim[0]])  # stable
    phases = _tile(t0, t1, claims)

    devices = set()
    for s in spans:
        dev = s.attrs.get("device")
        if dev is not None:
            devices.add(int(dev))
    retries = sum(1 for e in events if e.name == "watchdog_trip")
    failovers = sum(
        1 for e in events if e.name == "placement" and e.attrs.get("failover")
    )
    dominant = max(PHASES, key=lambda p: (phases.get(p, 0.0), -PHASES.index(p)))
    return RequestPath(
        trace_id=tid,
        index=rec.index,
        kind=rec.kind,
        ok=rec.ok,
        arrival_ns=t0,
        end_ns=t1,
        phases=phases,
        dominant=dominant,
        devices=tuple(sorted(devices)),
        retries=retries,
        failovers=failovers,
        fallback=fallback,
    )


def _tile(t0: float, t1: float, claims: Sequence[_Claim]) -> Dict[str, float]:
    """Partition [t0, t1] among the claims; sum each phase's slices.

    Every boundary of every (clipped) claim cuts the window, and each
    slice goes to the first claim in ``claims`` that covers it (callers
    list claims in precedence order), defaulting to ``host_execute``.
    Claims that already partition the window in order (a session
    skeleton) are those slices and are taken as they are: cutting them
    again gives the same slices at about three times the cost, once per
    session of the trace.  Per-phase sums use ``math.fsum`` so the
    tiling is as exact as the float representation allows.
    """
    if not _partitions(t0, t1, claims):
        claims = _elementary_slices(t0, t1, claims)
    parts: Dict[str, List[float]] = {}
    for phase, a, b in claims:
        parts.setdefault(phase, []).append(b - a)
    return {phase: math.fsum(widths) for phase, widths in parts.items()}


def _partitions(t0: float, t1: float, claims: Sequence[_Claim]) -> bool:
    """Do the claims partition [t0, t1] in order, none of them empty?"""
    edge = t0
    for _phase, a, b in claims:
        if a != edge or b <= a:
            return False
        edge = b
    return edge == t1


def _elementary_slices(t0: float, t1: float, claims: Sequence[_Claim]) -> List[_Claim]:
    """Cut [t0, t1] at every clipped claim boundary; award each slice."""
    clipped = []
    cuts = {t0, t1}
    for phase, a, b in claims:
        a = max(a, t0)
        b = min(b, t1)
        if b > a:
            clipped.append((phase, a, b))
            cuts.add(a)
            cuts.add(b)
    bounds = sorted(cuts)
    slices = []
    for a, b in zip(bounds, bounds[1:]):
        for phase, ca, cb in clipped:
            if ca <= a < cb:  # every claim boundary is a cut
                break
        else:
            phase = "host_execute"
        slices.append((phase, a, b))
    return slices


# ---------------------------------------------------------------------------
# tail attribution
# ---------------------------------------------------------------------------

#: Default percentile bands for tail attribution reports.
DEFAULT_BANDS: Tuple[Tuple[float, float], ...] = (
    (0.0, 50.0),
    (50.0, 95.0),
    (95.0, 99.0),
    (99.0, 100.0),
)


@dataclass(frozen=True)
class TailBand:
    """One latency-percentile band's aggregate phase breakdown."""

    lo_pct: float
    hi_pct: float
    count: int
    mean_latency_ns: float
    #: phase -> mean attributed ns across the band's requests
    phases: Dict[str, float]
    #: slowest requests in the band, worst first (trace ids)
    exemplars: Tuple[str, ...]
    dominant: str

    @property
    def label(self) -> str:
        return f"p{self.lo_pct:g}-p{self.hi_pct:g}"

    def to_dict(self) -> dict:
        return {
            "band": self.label,
            "lo_pct": self.lo_pct,
            "hi_pct": self.hi_pct,
            "count": self.count,
            "mean_latency_ns": self.mean_latency_ns,
            "phases": {k: v for k, v in self.phases.items() if v > 0.0},
            "dominant": self.dominant,
            "exemplar_trace_ids": list(self.exemplars),
        }


def tail_attribution(
    paths: Sequence[RequestPath],
    bands: Sequence[Tuple[float, float]] = DEFAULT_BANDS,
    exemplars: int = 3,
) -> List[TailBand]:
    """Bucket requests by latency percentile and aggregate each band."""
    if not paths:
        return []
    ranked = sorted(paths, key=lambda p: (p.latency_ns, p.index))
    n = len(ranked)
    out: List[TailBand] = []
    for lo, hi in bands:
        lo_i = int(math.floor(n * lo / 100.0))
        hi_i = int(math.ceil(n * hi / 100.0))
        members = ranked[lo_i:hi_i]
        if not members:
            continue
        phase_means: Dict[str, float] = {}
        for phase in PHASES:
            total = math.fsum(p.phases.get(phase, 0.0) for p in members)
            if total > 0.0:
                phase_means[phase] = total / len(members)
        dominant = max(
            PHASES, key=lambda ph: (phase_means.get(ph, 0.0), -PHASES.index(ph))
        )
        worst = sorted(members, key=lambda p: -p.latency_ns)[:exemplars]
        out.append(
            TailBand(
                lo_pct=lo,
                hi_pct=hi,
                count=len(members),
                mean_latency_ns=math.fsum(p.latency_ns for p in members) / len(members),
                phases=phase_means,
                exemplars=tuple(p.trace_id for p in worst),
                dominant=dominant,
            )
        )
    return out


@dataclass(frozen=True)
class WhyReport:
    """The ``python -m repro why`` verdict (``flick.why.v1``)."""

    percentile: float
    requests: int
    bands: Tuple[TailBand, ...]
    #: the band the verdict is about (>= percentile)
    tail: TailBand
    culprit_phase: str
    culprit: str
    #: tail phase means vs the p0-p50 body's, for "X us above baseline"
    baseline: Optional[TailBand] = None

    def to_dict(self) -> dict:
        return {
            "schema": "flick.why.v1",
            "percentile": self.percentile,
            "requests": self.requests,
            "culprit_phase": self.culprit_phase,
            "culprit": self.culprit,
            "bands": [b.to_dict() for b in self.bands],
        }


def why_report(paths: Sequence[RequestPath], percentile: float = 99.0) -> WhyReport:
    """Name the dominant cause of the latency tail above ``percentile``.

    The culprit phase is the one with the largest *excess* mean over
    the p0-p50 body: the tail is slow because of what it spends extra
    time on, not what every request pays anyway.
    """
    if not paths:
        raise ValueError("why_report needs at least one request path")
    bands = tail_attribution(
        paths, bands=tuple(DEFAULT_BANDS) + ((percentile, 100.0),)
    )
    tail = bands[-1]
    baseline = bands[0] if bands[0].hi_pct <= 50.0 else None
    if baseline is not None and baseline is not tail:
        excess = {
            ph: tail.phases.get(ph, 0.0) - baseline.phases.get(ph, 0.0)
            for ph in PHASES
        }
        culprit_phase = max(PHASES, key=lambda ph: (excess.get(ph, 0.0), -PHASES.index(ph)))
        if excess.get(culprit_phase, 0.0) <= 0.0:
            culprit_phase = tail.dominant
    else:
        culprit_phase = tail.dominant
    return WhyReport(
        percentile=percentile,
        requests=len(paths),
        bands=tuple(bands[:-1]),
        tail=tail,
        culprit_phase=culprit_phase,
        culprit=_CULPRITS.get(culprit_phase, culprit_phase),
        baseline=baseline,
    )


def render_why(report: WhyReport) -> str:
    """Human-readable ``python -m repro why`` output."""
    lines: List[str] = []
    lines.append(
        f"why is p{report.percentile:g} slow?  ({report.requests} requests)"
    )
    lines.append(f"  verdict: {report.culprit}")
    tail = report.tail
    lines.append(
        f"  tail band {tail.label}: {tail.count} request(s), "
        f"mean {tail.mean_latency_ns / 1000.0:.1f} us, "
        f"dominant phase {tail.dominant}"
    )
    lines.append(f"  exemplar traces: {', '.join(tail.exemplars)}")
    lines.append("")
    header = ("band", "n", "mean_us") + tuple(PHASES)
    rows: List[Tuple[str, ...]] = [header]
    shown = tuple(report.bands)
    if tail not in shown:
        shown += (tail,)
    for band in shown:
        rows.append(
            (
                band.label,
                str(band.count),
                f"{band.mean_latency_ns / 1000.0:.1f}",
            )
            + tuple(
                f"{band.phases.get(ph, 0.0) / 1000.0:.1f}" for ph in PHASES
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for i, row in enumerate(rows):
        lines.append("  " + "  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  " + "  ".join("-" * w for w in widths))
    lines.append("")
    lines.append("  (per-band phase means in us; phases tile each request's latency exactly)")
    return "\n".join(lines)


def why_doc(report: WhyReport) -> dict:
    """The ``flick.why.v1`` JSON document."""
    doc = report.to_dict()
    doc["tail"] = report.tail.to_dict()
    return doc
