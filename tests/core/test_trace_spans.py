"""Span-layer tests: nested attribution, drop accounting, exports.

The trace rebuild's three fixes, each pinned here:

* nested bidirectional migrations attribute to a per-task span *stack*
  (host→NxP→host→NxP produces two properly nested ``h2n_session``
  spans, not a conflated mess);
* the bounded ring counts what it evicts (``dropped``/``truncated``)
  and downstream analyses refuse or warn instead of silently computing
  on a window;
* the Chrome ``trace_event`` export round-trips through JSON with the
  fields the viewers require.
"""

import io
import json

import pytest

from repro import FlickMachine
from repro.analysis.breakdown import measure_breakdown
from repro.core.trace import MigrationTrace, TraceTruncated

NULL_CALL = """
@nxp func f() { return 0; }
func main(n) {
    var i = 0;
    while (i < n) { f(); i = i + 1; }
    return 0;
}
"""

# host -> NxP (dev) -> host (host_mid) -> NxP (inner): two nested
# migrations on one task's stack.
DOUBLY_NESTED = """
@nxp func inner(x) { return x * 10; }
func host_mid(x) { return inner(x) + 1; }
@nxp func dev(x) { return host_mid(x) + 100; }
func main() { return dev(2); }
"""


class TestNestedAttribution:
    @pytest.fixture(scope="class")
    def machine(self):
        machine = FlickMachine()
        outcome = machine.run_program(DOUBLY_NESTED)
        assert outcome.retval == 121
        machine.pid = outcome.process.pid  # pids are allocated globally
        return machine

    def test_two_sessions_properly_nested(self, machine):
        sessions = machine.trace.finished_spans("h2n_session", pid=machine.pid)
        assert len(sessions) == 2
        inner = min(sessions, key=lambda s: s.duration)
        outer = max(sessions, key=lambda s: s.duration)
        assert outer.start < inner.start
        assert inner.end < outer.end
        assert inner.depth > outer.depth

    def test_inner_session_inside_host_exec_window(self, machine):
        """The nested host execution span brackets the inner session."""
        (host_exec,) = machine.trace.finished_spans("n2h_host_exec", pid=machine.pid)
        inner = min(
            machine.trace.finished_spans("h2n_session", pid=machine.pid),
            key=lambda s: s.duration,
        )
        assert host_exec.start < inner.start
        assert inner.end <= host_exec.end

    def test_three_residency_legs(self, machine):
        """Outer session: before and after the N2H call; inner session:
        one leg.  All on the same task's stack, none conflated."""
        legs = machine.trace.finished_spans("nxp_resident", pid=machine.pid)
        assert len(legs) == 3
        for leg in legs:
            assert leg.duration > 0

    def test_all_stacks_drain(self, machine):
        assert machine.trace.open_spans() == []


class TestConcurrentPids:
    @pytest.fixture(scope="class")
    def machine(self):
        machine = FlickMachine(host_cores=2)
        exe = machine.compile(NULL_CALL)
        p1 = machine.load(exe, name="a")
        p2 = machine.load(exe, name="b")
        machine.spawn(p1, args=[3])
        machine.spawn(p2, args=[5])
        machine.run()
        machine.pids = (p1.pid, p2.pid)
        return machine

    def test_sessions_attribute_per_pid(self, machine):
        p1, p2 = machine.pids
        assert len(machine.trace.finished_spans("h2n_session", pid=p1)) == 3
        assert len(machine.trace.finished_spans("h2n_session", pid=p2)) == 5

    def test_event_pairing_never_crosses_pids(self, machine):
        """Interleaved start/done events pair within each task: every
        duration is positive and the counts match per-pid."""
        p1, p2 = machine.pids
        d1 = machine.trace.spans("h2n_call_start", "h2n_call_done", pid=p1)
        d2 = machine.trace.spans("h2n_call_start", "h2n_call_done", pid=p2)
        assert len(d1) == 3 and len(d2) == 5
        assert all(d > 0 for d in d1 + d2)
        # Unfiltered pairing still pairs per-pid under the hood.
        assert sorted(machine.trace.spans("h2n_call_start", "h2n_call_done")) == sorted(
            d1 + d2
        )


class TestDropAccounting:
    def test_ring_counts_evictions(self):
        machine = FlickMachine()
        machine.trace.limit = 16
        machine.run_program(NULL_CALL, args=[5])
        trace = machine.trace
        assert len(trace.events) == 16
        assert trace.dropped > 0
        assert trace.truncated

    def test_untruncated_run_is_clean(self):
        machine = FlickMachine()
        machine.run_program(NULL_CALL, args=[5])
        assert machine.trace.dropped == 0
        assert not machine.trace.truncated

    def test_breakdown_refuses_truncated_trace(self):
        machine = FlickMachine()
        machine.trace.limit = 16
        machine.run_program(NULL_CALL, args=[5])
        with pytest.raises(TraceTruncated, match="dropped"):
            measure_breakdown(machine.trace)
        # Explicit opt-in analyzes the window without raising.
        measure_breakdown(machine.trace, allow_truncated=True)

    def test_span_pairing_warns_on_truncated_trace(self):
        machine = FlickMachine()
        machine.trace.limit = 16
        machine.run_program(NULL_CALL, args=[5])
        with pytest.warns(RuntimeWarning, match="dropped"):
            machine.trace.spans("h2n_call_start", "h2n_call_done")

    def test_render_flags_truncation(self):
        machine = FlickMachine()
        machine.trace.limit = 16
        machine.run_program(NULL_CALL, args=[5])
        assert "dropped" in machine.trace.render()

    def test_span_ring_counts_evictions(self):
        machine = FlickMachine()
        machine.trace.span_limit = 4
        machine.run_program(NULL_CALL, args=[5])
        assert len(machine.trace.finished_spans()) == 4
        assert machine.trace.spans_dropped > 0
        assert machine.trace.truncated


class TestChromeExport:
    @pytest.fixture(scope="class")
    def doc(self):
        machine = FlickMachine()
        outcome = machine.run_program(NULL_CALL, args=[3])
        buffer = io.StringIO()
        machine.trace.export_chrome(buffer)
        return json.loads(buffer.getvalue()), outcome.process.pid

    def test_required_toplevel_keys(self, doc):
        doc, _pid = doc
        assert set(doc) >= {"traceEvents", "otherData"}
        assert doc["otherData"]["truncated"] is False

    def test_complete_span_per_migration(self, doc):
        doc, pid = doc
        sessions = [
            e for e in doc["traceEvents"] if e["name"] == "h2n_session" and e["ph"] == "X"
        ]
        assert len(sessions) == 3
        for e in sessions:
            assert e["dur"] > 0
            assert e["pid"] == pid

    def test_instants_carry_scope(self, doc):
        doc, _pid = doc
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert instants
        for e in instants:
            assert e["s"] == "t"
            assert {"name", "cat", "ts", "pid", "tid"} <= set(e)

    def test_sorted_by_timestamp(self, doc):
        doc, _pid = doc
        ts = [e["ts"] for e in doc["traceEvents"]]
        assert ts == sorted(ts)

    def test_device_track_is_pid_zero(self, doc):
        doc, _pid = doc
        irqs = [e for e in doc["traceEvents"] if e["name"] == "irq_deliver"]
        assert irqs
        assert all(e["pid"] == 0 for e in irqs)


class TestSpanLifecycleAnomalies:
    """double-close and foreign-handle close are counted, never silent."""

    def _trace(self):
        from repro.sim.engine import Simulator

        return MigrationTrace(Simulator())

    def test_clean_lifecycle_counts_nothing(self):
        trace = self._trace()
        span = trace.open_span("dma.h2n")
        trace.close(span)
        assert trace.span_anomalies == 0

    def test_double_close_counts_anomaly(self):
        trace = self._trace()
        span = trace.open_span("dma.h2n")
        trace.close(span)
        trace.close(span)
        assert trace.span_anomalies == 1
        # the span was finished exactly once
        assert len(trace.finished_spans("dma.h2n")) == 1

    def test_foreign_handle_close_counts_anomaly_but_finishes(self):
        # A handle this trace never tracked (evicted, or from another
        # trace): the close is flagged, but the span still lands in the
        # finished set — its duration is real.
        from repro.core.trace import Span

        trace = self._trace()
        stray = Span("dma.h2n", None, 0.0)
        trace.close(stray)
        assert trace.span_anomalies == 1
        assert stray.end is not None
        assert len(trace.finished_spans("dma.h2n")) == 1

    def test_none_close_is_not_an_anomaly(self):
        trace = self._trace()
        assert trace.close(None) is None
        assert trace.span_anomalies == 0

    def test_normal_run_has_no_anomalies(self):
        machine = FlickMachine()
        machine.run_program(NULL_CALL, args=[3])
        assert machine.trace.span_anomalies == 0


class TestUnfinishedSpanExport:
    """spans still open at export time are surfaced, not dropped."""

    def _machine_with_open_span(self):
        machine = FlickMachine()
        machine.run_program(NULL_CALL, args=[2])
        machine.trace.open_span("dma.h2n", nbytes=128)  # never closed
        return machine

    def test_open_spans_counted_in_chrome_export(self):
        machine = self._machine_with_open_span()
        doc = machine.trace.to_chrome()
        assert doc["otherData"]["open_spans"] == 1
        assert doc["otherData"]["span_anomalies"] == 0

    def test_open_span_entries_marked_unfinished(self):
        machine = self._machine_with_open_span()
        doc = machine.trace.to_chrome()
        begins = [e for e in doc["traceEvents"] if e["ph"] == "B"]
        assert len(begins) == 1
        assert begins[0]["args"]["unfinished"] is True
        assert begins[0]["name"] == "dma.h2n"

    def test_render_flags_open_spans(self):
        machine = self._machine_with_open_span()
        assert "still open" in machine.trace.render()

    def test_clean_run_exports_zero_open(self):
        machine = FlickMachine()
        machine.run_program(NULL_CALL, args=[2])
        doc = machine.trace.to_chrome()
        assert doc["otherData"]["open_spans"] == 0
        assert not [e for e in doc["traceEvents"] if e["ph"] == "B"]

    def test_run_report_surfaces_open_spans(self):
        from repro.analysis.metrics import build_run_report, report_from_json, render_json

        machine = self._machine_with_open_span()
        report = build_run_report(machine, allow_truncated=True)
        assert report.open_spans == 1
        assert report.observed["trace.span_anomalies"] == 0
        # and the fields survive the JSON round trip
        again = report_from_json(render_json(report))
        assert again.open_spans == 1


class TestDisabledTrace:
    def test_disabled_apis_are_null_safe(self):
        machine = FlickMachine()
        trace = machine.trace
        trace.enabled = False
        trace.record("x", pid=1)
        assert trace.begin("s", pid=1) is None
        assert trace.end("s", pid=1) is None
        handle = trace.open_span("d")
        assert handle is None
        assert trace.close(handle) is None
        assert trace.events == []
        assert trace.finished_spans() == []
