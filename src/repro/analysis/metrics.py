"""Span-derived metrics: latency histograms, utilization, RunReport.

``repro.analysis.breakdown`` measures *mean* phase latencies; this
module measures *distributions* and *occupancy* — the paper's headline
claims are latency distributions (Table III's round-trip legs, the
null-call latency) and the crossover analysis rests on where those
distributions sit, so a reproduction needs more than means.  Everything
here is derived **after the run** from the finished trace and the stat
registry; nothing charges simulated time.

Three derivations:

* **Latency histograms** — per-pid (and machine-wide) log2 histograms
  of ``h2n_session`` end-to-end latency plus the per-leg device spans
  (``dma.h2n``, ``dma.n2h``, ``irq_deliver``), mirroring Table III's
  decomposition.  Histogram sums reconcile exactly with the span
  durations they summarize (tested against
  ``repro.analysis.breakdown`` phase totals).

* **Utilization** — per-device busy fraction over the run, computed
  from span interval unions: the NxP core from ``nxp_resident`` spans,
  the DMA engine from ``dma.h2n``/``dma.n2h`` spans, and the host cores
  from ``thread`` spans minus suspended time (``h2n_session`` minus the
  nested ``n2h_host_exec`` legs, during which the task *is* on a host
  core).  Each device also gets a fixed-slice busy-fraction timeline.

* **RunReport** — one structured object with the stat snapshot, the
  observed (parity-exempt) tier, the measured phase breakdown, every
  histogram, the utilization table and run metadata; renderable as
  OpenMetrics text
  (:func:`render_openmetrics`) or JSON (:func:`render_json`, round-trip
  via :func:`report_from_json`), and exposed on the command line as
  ``python -m repro metrics``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.breakdown import measure_breakdown
from repro.core.trace import MigrationTrace
from repro.sim.stats import Histogram, StatRegistry

__all__ = [
    "HistogramSummary",
    "UtilizationSummary",
    "RunReport",
    "build_run_report",
    "session_latency_histograms",
    "device_utilization",
    "render_openmetrics",
    "render_json",
    "report_to_dict",
    "report_from_json",
]

#: span names treated as per-leg latencies (name -> metric name)
_LEG_SPANS = {
    "dma.h2n": "dma_h2n_ns",
    "dma.n2h": "dma_n2h_ns",
    "irq_deliver": "irq_deliver_ns",
}

_SESSION_METRIC = "h2n_session_ns"

#: the JSON document schema of :func:`report_to_dict`
RUN_REPORT_SCHEMA = "flick.run_report.v2"

#: default number of slices in a utilization timeline
TIMELINE_SLICES = 20


# ---------------------------------------------------------------------------
# summaries (JSON-friendly views of Histogram / interval math)
# ---------------------------------------------------------------------------


@dataclass
class HistogramSummary:
    """A JSON-friendly snapshot of one :class:`~repro.sim.stats.Histogram`."""

    name: str
    count: int
    sum: float
    min: float
    max: float
    #: cumulative ``(le, count)`` pairs, increasing ``le`` (log2 bounds)
    buckets: List[Tuple[float, int]]
    p50: float
    p90: float
    p99: float

    @classmethod
    def of(cls, hist: Histogram) -> "HistogramSummary":
        return cls(
            name=hist.name,
            count=hist.count,
            sum=hist.sum,
            min=hist.min,
            max=hist.max,
            buckets=hist.buckets(),
            p50=hist.quantile(50),
            p90=hist.quantile(90),
            p99=hist.quantile(99),
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "sum": self.sum,
            "min": None if math.isnan(self.min) else self.min,
            "max": None if math.isnan(self.max) else self.max,
            "buckets": [[le, n] for le, n in self.buckets],
            "p50": None if math.isnan(self.p50) else self.p50,
            "p90": None if math.isnan(self.p90) else self.p90,
            "p99": None if math.isnan(self.p99) else self.p99,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "HistogramSummary":
        nan = float("nan")
        return cls(
            name=d["name"],
            count=d["count"],
            sum=d["sum"],
            min=nan if d["min"] is None else d["min"],
            max=nan if d["max"] is None else d["max"],
            buckets=[(le, n) for le, n in d["buckets"]],
            p50=nan if d["p50"] is None else d["p50"],
            p90=nan if d["p90"] is None else d["p90"],
            p99=nan if d["p99"] is None else d["p99"],
        )


@dataclass
class UtilizationSummary:
    """Busy fraction of one device over the run, plus a sliced timeline."""

    device: str
    busy_ns: float
    total_ns: float
    fraction: float
    #: per-slice busy fractions over ``total_ns`` split into equal slices
    timeline: List[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "device": self.device,
            "busy_ns": self.busy_ns,
            "total_ns": self.total_ns,
            "fraction": self.fraction,
            "timeline": list(self.timeline),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "UtilizationSummary":
        return cls(
            device=d["device"],
            busy_ns=d["busy_ns"],
            total_ns=d["total_ns"],
            fraction=d["fraction"],
            timeline=list(d["timeline"]),
        )


@dataclass
class RunReport:
    """Everything one run measured, in one structured object."""

    sim_ns: float
    stats: Dict[str, float]
    #: mean phase latencies from repro.analysis.breakdown (ns)
    phases: Dict[str, float]
    sessions: int
    #: machine-wide histograms, keyed by metric name
    histograms: Dict[str, HistogramSummary]
    #: per-pid histograms: pid -> metric name -> summary
    by_pid: Dict[int, Dict[str, HistogramSummary]]
    #: per-device busy fractions
    utilization: Dict[str, UtilizationSummary]
    #: trace health: analyses over a truncated trace are windows
    truncated: bool = False
    #: the registry's observed tier summed over scopes
    #: (``StatRegistry.observed_totals``): ``jit.*``, ``placement.*``
    #: and ``trace.*`` counters the parity-pinned ``stats`` never holds.
    #: Nonzero ``trace.dropped``/``trace.spans_dropped`` mean every
    #: derivation above saw a window of the run, not the whole run.
    observed: Dict[str, float] = field(default_factory=dict)
    #: spans still open when the report was built (hung legs / in-flight
    #: requests) — their time is absent from every histogram above
    open_spans: int = 0


# ---------------------------------------------------------------------------
# interval math
# ---------------------------------------------------------------------------


def _merge(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Union of possibly-overlapping ``(start, end)`` intervals."""
    out: List[Tuple[float, float]] = []
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if out and start <= out[-1][1]:
            if end > out[-1][1]:
                out[-1] = (out[-1][0], end)
        else:
            out.append((start, end))
    return out


def _subtract(
    base: List[Tuple[float, float]], minus: List[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Set difference ``base - minus`` over merged interval lists."""
    out: List[Tuple[float, float]] = []
    minus = _merge(minus)
    for start, end in _merge(base):
        cursor = start
        for m_start, m_end in minus:
            if m_end <= cursor or m_start >= end:
                continue
            if m_start > cursor:
                out.append((cursor, m_start))
            cursor = max(cursor, m_end)
            if cursor >= end:
                break
        if cursor < end:
            out.append((cursor, end))
    return out


def _total(intervals: List[Tuple[float, float]]) -> float:
    return sum(end - start for start, end in intervals)


def _timeline(
    intervals: List[Tuple[float, float]], t_end: float, slices: int
) -> List[float]:
    """Busy fraction per equal-width slice of ``[0, t_end]``.

    ``intervals`` must be sorted and disjoint (as :func:`_merge` returns
    them), so one sweep finds each slice's overlapping intervals.  Only
    those contribute (every other term of the full sum is ``0.0``), in
    list order, so the floats equal those of summing over every interval.
    """
    if t_end <= 0 or slices < 1:
        return []
    width = t_end / slices
    out = []
    first = 0  # first interval that may still overlap the current slice
    for i in range(slices):
        lo, hi = i * width, (i + 1) * width
        while first < len(intervals) and intervals[first][1] <= lo:
            first += 1
        busy = 0.0
        k = first
        while k < len(intervals) and intervals[k][0] < hi:
            start, end = intervals[k]
            busy += min(end, hi) - max(start, lo)
            k += 1
        out.append(busy / width)
    return out


def _span_intervals(
    trace: MigrationTrace, name: str, pid: Optional[int] = None
) -> List[Tuple[float, float]]:
    return [(s.start, s.end) for s in trace.finished_spans(name, pid=pid)]


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------


def session_latency_histograms(
    trace: MigrationTrace,
) -> Tuple[Dict[str, Histogram], Dict[int, Dict[str, Histogram]]]:
    """Latency histograms from completed spans.

    Returns ``(overall, by_pid)``: machine-wide histograms for the
    session metric and each leg metric, plus per-pid histograms for
    every task-attributed span (device spans whose emitter knew no pid
    contribute to the machine-wide histogram only).
    """
    overall: Dict[str, Histogram] = {}
    by_pid: Dict[int, Dict[str, Histogram]] = {}

    def feed(metric: str, span) -> None:
        overall.setdefault(metric, Histogram(metric)).observe(span.duration)
        if span.pid is not None:
            by_pid.setdefault(span.pid, {}).setdefault(
                metric, Histogram(metric)
            ).observe(span.duration)

    for span in trace.finished_spans(_SESSION_METRIC.replace("_ns", "")):
        feed(_SESSION_METRIC, span)
    for span_name, metric in _LEG_SPANS.items():
        for span in trace.finished_spans(span_name):
            feed(metric, span)
    return overall, by_pid


def device_utilization(
    trace: MigrationTrace,
    t_end: float,
    slices: int = TIMELINE_SLICES,
    t_start: float = 0.0,
    nxp_devices: Optional[int] = None,
) -> Dict[str, UtilizationSummary]:
    """Per-device busy fractions from span interval unions.

    ``t_start`` restricts the measurement to the window ``[t_start,
    t_end]`` — the serving harness uses it to exclude setup time (chain
    building, first-migration stack allocation) from steady-state
    utilization.  Intervals are clipped to the window and fractions are
    of the window's width.

    Definitions (docs/OBSERVABILITY.md):

    * ``nxp``: union of ``nxp_resident`` spans — the NxP core is busy
      exactly while a migrated session is resident on it.  On a
      multi-NxP machine (``nxp_devices > 1``, or residency spans from
      more than one device) the combined ``nxp`` row is joined by one
      ``nxp{i}`` row per device index, split on the residency spans'
      ``device`` attr; single-NxP output keeps exactly the historical
      ``{host_core, nxp, dma}`` keys.
    * ``dma``: union of ``dma.h2n`` and ``dma.n2h`` burst spans (one
      engine per device, serialized link; the row unions all engines).
    * ``host_core``: union of ``thread`` spans minus ``h2n_session``
      time, plus the nested ``n2h_host_exec`` legs (during a session the
      task is suspended off-core, *except* while it services a nested
      NxP-to-host call).  This measures task-on-core time derived
      purely from spans; core-acquisition wait under contention counts
      as busy only for the task that holds the core.
    """
    out: Dict[str, UtilizationSummary] = {}

    per_dev: Dict[int, List[Tuple[float, float]]] = {}
    for span in trace.finished_spans("nxp_resident"):
        per_dev.setdefault(int(span.attrs.get("device", 0)), []).append(
            (span.start, span.end)
        )
    nxp = _merge([iv for ivs in per_dev.values() for iv in ivs])
    dma = _merge(
        _span_intervals(trace, "dma.h2n") + _span_intervals(trace, "dma.n2h")
    )
    host = _merge(
        _subtract(
            _span_intervals(trace, "thread"),
            _span_intervals(trace, "h2n_session"),
        )
        + _span_intervals(trace, "n2h_host_exec")
    )

    rows: List[Tuple[str, List[Tuple[float, float]]]] = [
        ("host_core", host), ("nxp", nxp), ("dma", dma),
    ]
    indices = set(per_dev)
    if nxp_devices is not None:
        indices |= set(range(nxp_devices))
    if (nxp_devices or 0) > 1 or any(i > 0 for i in indices):
        rows.extend(
            (f"nxp{i}", _merge(per_dev.get(i, []))) for i in sorted(indices)
        )

    width = t_end - t_start
    for device, intervals in rows:
        if t_start > 0.0:
            # Clip to the window, then shift to window-relative time so
            # the slice math below stays over [0, width].
            intervals = [
                (max(start, t_start) - t_start, min(end, t_end) - t_start)
                for start, end in intervals
                if end > t_start and start < t_end
            ]
        busy = _total(intervals)
        out[device] = UtilizationSummary(
            device=device,
            busy_ns=busy,
            total_ns=width,
            fraction=busy / width if width > 0 else 0.0,
            timeline=_timeline(intervals, width, slices),
        )
    return out


def build_run_report(
    machine,
    sim_ns: Optional[float] = None,
    slices: int = TIMELINE_SLICES,
    allow_truncated: bool = False,
) -> RunReport:
    """Derive a :class:`RunReport` from a finished machine's trace + stats.

    ``machine`` is a :class:`~repro.core.machine.FlickMachine` that has
    finished running.  ``sim_ns`` defaults to the simulator clock.
    Raises :class:`~repro.core.trace.TraceTruncated` via the breakdown
    pass when the trace ring dropped events, unless ``allow_truncated``.
    """
    trace: MigrationTrace = machine.trace
    stats: StatRegistry = machine.stats
    t_end = machine.sim.now if sim_ns is None else sim_ns

    breakdown = measure_breakdown(trace, allow_truncated=allow_truncated)
    overall, by_pid = session_latency_histograms(trace)

    return RunReport(
        sim_ns=t_end,
        stats=stats.snapshot(),
        phases=dict(breakdown.phases),
        sessions=breakdown.sessions,
        histograms={k: HistogramSummary.of(h) for k, h in sorted(overall.items())},
        by_pid={
            pid: {k: HistogramSummary.of(h) for k, h in sorted(hists.items())}
            for pid, hists in sorted(by_pid.items())
        },
        utilization=device_utilization(
            trace,
            t_end,
            slices=slices,
            nxp_devices=len(machine.devices),
        ),
        truncated=trace.truncated,
        observed=dict(sorted(stats.observed_totals().items())),
        open_spans=len(trace.open_spans()),
    )


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------

_PREFIX = "flick_"


def _metric_name(name: str) -> str:
    """Sanitize to the OpenMetrics name charset ``[a-zA-Z0-9_:]``."""
    sanitized = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return _PREFIX + sanitized


def _escape_label(value: str) -> str:
    """Escape a label value per the OpenMetrics text format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in labels.items())
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if value == math.inf:
        return "+Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def _emit_family(lines: List[str], kind: str, key: str, samples) -> None:
    """One ``counter`` or ``gauge`` family: its ``# TYPE`` line, then one
    sample per ``(labels, value)`` pair in ``samples`` (a counter's with
    the ``_total`` suffix)."""
    metric = _metric_name(key)
    lines.append(f"# TYPE {metric} {kind}")
    suffix = "_total" if kind == "counter" else ""
    for labels, value in samples:
        lines.append(f"{metric}{suffix}{_labels(labels)} {_fmt(value)}")


def _emit_histogram(lines: List[str], metric: str, series) -> None:
    """One histogram family: its ``# TYPE`` line, then the cumulative
    ``_bucket`` lines, ``_sum`` and ``_count`` of each
    ``(labels, HistogramSummary)`` series."""
    lines.append(f"# TYPE {metric} histogram")
    for labels, summary in series:
        for le, cumulative in summary.buckets:
            lines.append(
                f"{metric}_bucket{_labels({**labels, 'le': _fmt(le)})} {cumulative}"
            )
        lines.append(f"{metric}_bucket{_labels({**labels, 'le': '+Inf'})} {summary.count}")
        lines.append(f"{metric}_sum{_labels(labels)} {_fmt(summary.sum)}")
        lines.append(f"{metric}_count{_labels(labels)} {summary.count}")


def render_openmetrics(report: RunReport) -> str:
    """Render a :class:`RunReport` as OpenMetrics/Prometheus text.

    Families: every registry and observed-tier counter becomes a
    ``counter`` (with the required ``_total`` suffix), registry
    accumulators and histograms become ``summary`` families
    (``_sum``/``_count`` + ``quantile`` lines) unless a span-derived
    histogram owns the name, derived histograms become ``histogram``
    families (``_bucket`` with cumulative ``le`` labels, ``_sum``,
    ``_count``; per-pid series carry a ``pid`` label), utilization and
    phase means become ``gauge`` families.  Each family is declared
    once; the text ends with the mandatory ``# EOF`` terminator.
    """
    lines: List[str] = []
    stats = report.stats

    # partition the flat snapshot into families: a key with derived
    # ``.count``+``.total``/``.sum`` companions is a summary (accumulator
    # or registry histogram); a key with only a ``.max`` companion is a
    # gauge; a bare key with no companions is a counter.
    suffixes = (".mean", ".count", ".total", ".sum", ".min", ".max", ".p50", ".p99")
    prefixes = set()
    for key in stats:
        for suffix in suffixes:
            if key.endswith(suffix):
                prefixes.add(key[: -len(suffix)])
    summary_keys = {
        key
        for key in prefixes
        if f"{key}.count" in stats
        and (f"{key}.total" in stats or f"{key}.sum" in stats)
    }
    gauge_keys = prefixes - summary_keys

    for key in sorted(stats):
        if key in prefixes or any(key.endswith(s) for s in suffixes):
            continue
        _emit_family(lines, "counter", key, [({}, stats[key])])
    for key in sorted(report.observed):
        _emit_family(lines, "counter", key, [({}, report.observed[key])])

    for key in sorted(gauge_keys):
        if key not in stats:
            continue
        _emit_family(lines, "gauge", key, [({}, stats[key])])
        if f"{key}.max" in stats:
            _emit_family(lines, "gauge", f"{key}_max", [({}, stats[f"{key}.max"])])

    # derived latency histograms: machine-wide series, then per-pid ones
    series: Dict[str, list] = {}
    for name, summary in report.histograms.items():
        series.setdefault(_metric_name(f"latency.{name}"), []).append(({}, summary))
    for pid, hists in report.by_pid.items():
        for name, summary in hists.items():
            series.setdefault(_metric_name(f"latency.{name}"), []).append(
                ({"pid": str(pid)}, summary)
            )

    # accumulators / registry histograms flatten to summaries; the
    # registry's live ``latency.*`` histograms carry the same
    # observations as the span-derived families above, which own the name
    for key in sorted(summary_keys):
        metric = _metric_name(key)
        if metric in series:
            continue
        count = stats[f"{key}.count"]
        total = stats.get(f"{key}.total", stats.get(f"{key}.sum"))
        lines.append(f"# TYPE {metric} summary")
        for pct, label in ((f"{key}.p50", "0.5"), (f"{key}.p99", "0.99")):
            if pct in stats:
                lines.append(
                    f"{metric}{_labels({'quantile': label})} {_fmt(stats[pct])}"
                )
        lines.append(f"{metric}_sum {_fmt(total)}")
        lines.append(f"{metric}_count {int(count)}")

    for metric, family in series.items():
        _emit_histogram(lines, metric, family)

    # utilization + phase means as gauges
    _emit_family(
        lines,
        "gauge",
        "device_utilization",
        [({"device": device}, s.fraction) for device, s in report.utilization.items()],
    )
    _emit_family(
        lines,
        "gauge",
        "phase_mean_ns",
        [({"phase": phase}, ns) for phase, ns in report.phases.items()],
    )
    # trace health: work the histograms above could not see
    _emit_family(lines, "gauge", "trace_open_spans", [({}, report.open_spans)])
    _emit_family(lines, "gauge", "sim_time_ns", [({}, report.sim_ns)])
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def report_to_dict(report: RunReport) -> dict:
    return {
        "schema": RUN_REPORT_SCHEMA,
        "sim_ns": report.sim_ns,
        "stats": dict(report.stats),
        "phases": dict(report.phases),
        "sessions": report.sessions,
        "histograms": {k: v.to_dict() for k, v in report.histograms.items()},
        "by_pid": {
            str(pid): {k: v.to_dict() for k, v in hists.items()}
            for pid, hists in report.by_pid.items()
        },
        "utilization": {k: v.to_dict() for k, v in report.utilization.items()},
        "truncated": report.truncated,
        "observed": dict(report.observed),
        "open_spans": report.open_spans,
    }


def render_json(report: RunReport, indent: int = 2) -> str:
    return json.dumps(report_to_dict(report), indent=indent) + "\n"


def report_from_json(doc) -> RunReport:
    """Rebuild a :class:`RunReport` from :func:`render_json` output
    (a JSON string or an already-parsed dict)."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    if doc.get("schema") != RUN_REPORT_SCHEMA:
        raise ValueError(
            f"not a {RUN_REPORT_SCHEMA} document: schema={doc.get('schema')!r}"
        )
    return RunReport(
        sim_ns=doc["sim_ns"],
        stats=dict(doc["stats"]),
        phases=dict(doc["phases"]),
        sessions=doc["sessions"],
        histograms={
            k: HistogramSummary.from_dict(v) for k, v in doc["histograms"].items()
        },
        by_pid={
            int(pid): {k: HistogramSummary.from_dict(v) for k, v in hists.items()}
            for pid, hists in doc["by_pid"].items()
        },
        utilization={
            k: UtilizationSummary.from_dict(v) for k, v in doc["utilization"].items()
        },
        truncated=doc["truncated"],
        observed=dict(doc["observed"]),
        open_spans=doc["open_spans"],
    )
