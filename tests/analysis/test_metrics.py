"""RunReport derivation, reconciliation with breakdown, and exporters."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.breakdown import measure_breakdown
from repro.analysis.metrics import (
    HistogramSummary,
    _merge,
    _subtract,
    _timeline,
    build_run_report,
    device_utilization,
    render_json,
    render_openmetrics,
    report_from_json,
    session_latency_histograms,
    _escape_label,
    _metric_name,
)
from repro.core.machine import FlickMachine

NULL_CALL = """
@nxp func f() { return 0; }
func main(n) {
    var i = 0;
    while (i < n) { f(); i = i + 1; }
    return 0;
}
"""


@pytest.fixture(scope="module")
def run():
    machine = FlickMachine()
    outcome = machine.run_program(NULL_CALL, args=[5])
    return machine, outcome


@pytest.fixture(scope="module")
def report(run):
    machine, _outcome = run
    return build_run_report(machine)


class TestIntervalMath:
    def test_merge_overlapping(self):
        assert _merge([(0, 2), (1, 3), (5, 6)]) == [(0, 3), (5, 6)]

    def test_merge_drops_empty(self):
        assert _merge([(2, 2), (3, 1)]) == []

    def test_subtract_carves_holes(self):
        assert _subtract([(0, 10)], [(2, 4), (6, 8)]) == [(0, 2), (4, 6), (8, 10)]

    def test_subtract_total_removal(self):
        assert _subtract([(2, 4)], [(0, 10)]) == []

    def test_timeline_fractions(self):
        # busy [0,5) of a 10ns run split in 2 slices: [1.0, 0.0]
        assert _timeline([(0, 5)], 10, 2) == [1.0, 0.0]
        assert _timeline([], 10, 2) == [0.0, 0.0]
        assert _timeline([(0, 5)], 0, 2) == []

    @settings(max_examples=300, deadline=None)
    @given(
        # Endpoints as fractions of the run (some past its end), paired
        # in sorted order: many short intervals per slice, so the sums
        # carry rounding that a change of order would expose.
        points=st.lists(
            st.floats(min_value=0.0, max_value=1.1), min_size=6, max_size=80, unique=True
        ),
        # 0 (no run) or a positive width; slice widths never underflow.
        t_end=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.2e6)),
        slices=st.integers(min_value=0, max_value=8),
    )
    def test_timeline_sweep_equals_full_sum(self, points, t_end, slices):
        """The sweep equals the full per-slice sum over every interval,
        float for float, on merged (sorted, disjoint) inputs."""

        def reference(intervals, t_end, slices):
            if t_end <= 0 or slices < 1:
                return []
            width = t_end / slices
            out = []
            for i in range(slices):
                lo, hi = i * width, (i + 1) * width
                busy = sum(
                    max(0.0, min(end, hi) - max(start, lo)) for start, end in intervals
                )
                out.append(busy / width)
            return out

        ends = sorted(p * t_end for p in points)
        intervals = _merge(list(zip(ends[::2], ends[1::2])))
        assert _timeline(intervals, t_end, slices) == reference(intervals, t_end, slices)


class TestLatencyHistograms:
    def test_session_count_matches_migrations(self, run):
        machine, outcome = run
        overall, by_pid = session_latency_histograms(machine.trace)
        assert overall["h2n_session_ns"].count == outcome.migrations == 5
        # single task: the per-pid histogram carries the same sessions
        (pid,) = by_pid.keys()
        assert by_pid[pid]["h2n_session_ns"].count == 5

    def test_all_legs_present(self, run):
        machine, _ = run
        overall, _ = session_latency_histograms(machine.trace)
        assert {"h2n_session_ns", "dma_h2n_ns", "dma_n2h_ns", "irq_deliver_ns"} <= set(
            overall
        )
        assert overall["dma_h2n_ns"].count == 5
        assert overall["dma_n2h_ns"].count == 5
        assert overall["irq_deliver_ns"].count == 5

    def test_session_sum_reconciles_with_breakdown(self, run):
        # The breakdown's phases tile each session exactly, so
        # mean-session-total x sessions == histogram sum of end-to-end
        # session durations (single-task trace; acceptance criterion).
        machine, _ = run
        overall, _ = session_latency_histograms(machine.trace)
        breakdown = measure_breakdown(machine.trace)
        assert overall["h2n_session_ns"].sum == pytest.approx(
            breakdown.total_ns * breakdown.sessions
        )
        assert sum(breakdown.phases.values()) == pytest.approx(breakdown.total_ns)

    def test_leg_sums_nest_inside_the_session(self, run):
        machine, _ = run
        overall, _ = session_latency_histograms(machine.trace)
        session = overall["h2n_session_ns"].sum
        legs = (
            overall["dma_h2n_ns"].sum
            + overall["dma_n2h_ns"].sum
            + overall["irq_deliver_ns"].sum
        )
        assert 0 < legs < session


class TestUtilization:
    def test_fractions_in_unit_interval(self, run):
        machine, _ = run
        util = device_utilization(machine.trace, machine.sim.now)
        assert set(util) == {"host_core", "nxp", "dma"}
        for summary in util.values():
            assert 0.0 <= summary.fraction <= 1.0
            assert summary.busy_ns <= summary.total_ns
            assert len(summary.timeline) == 20
            assert all(0.0 <= f <= 1.0 + 1e-9 for f in summary.timeline)

    def test_devices_actually_used(self, run):
        machine, _ = run
        util = device_utilization(machine.trace, machine.sim.now)
        # 5 migrations: every device saw traffic
        assert util["nxp"].fraction > 0
        assert util["dma"].fraction > 0
        assert util["host_core"].fraction > 0

    def test_nxp_busy_matches_resident_spans(self, run):
        machine, _ = run
        util = device_utilization(machine.trace, machine.sim.now)
        resident = sum(
            s.duration for s in machine.trace.finished_spans("nxp_resident")
        )
        # single task: residencies never overlap, union == sum
        assert util["nxp"].busy_ns == pytest.approx(resident)


class TestRunReport:
    def test_report_shape(self, report, run):
        _machine, outcome = run
        assert report.sim_ns == pytest.approx(outcome.sim_time_ns)
        assert report.sessions == 5
        assert not report.truncated
        assert "h2n_session_ns" in report.histograms
        assert report.histograms["h2n_session_ns"].count == 5
        assert report.stats["dma.to_nxp"] == 5

    def test_json_round_trip(self, report):
        doc = render_json(report)
        back = report_from_json(doc)
        assert back.sim_ns == report.sim_ns
        assert back.sessions == report.sessions
        assert back.stats == report.stats
        assert back.phases == report.phases
        assert back.truncated == report.truncated
        assert set(back.histograms) == set(report.histograms)
        for name in report.histograms:
            a, b = back.histograms[name], report.histograms[name]
            assert (a.count, a.sum, a.min, a.max, a.buckets) == (
                b.count,
                b.sum,
                b.min,
                b.max,
                b.buckets,
            )
        assert set(back.by_pid) == set(report.by_pid)
        for device in report.utilization:
            assert back.utilization[device].to_dict() == report.utilization[
                device
            ].to_dict()

    def test_json_is_valid_json_with_schema(self, report):
        doc = json.loads(render_json(report))
        assert doc["schema"] == "flick.run_report.v2"

    def test_from_json_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            report_from_json({"schema": "something.else"})

    def test_from_json_rejects_v1_documents(self, report):
        doc = json.loads(render_json(report))
        doc["schema"] = "flick.run_report.v1"
        with pytest.raises(ValueError, match="flick.run_report.v1"):
            report_from_json(doc)


class TestOpenMetricsFormat:
    @pytest.fixture(scope="class")
    def text(self, report):
        return render_openmetrics(report)

    def test_ends_with_eof(self, text):
        assert text.endswith("# EOF\n")

    def test_counter_family(self, text):
        assert "# TYPE flick_dma_to_nxp counter" in text
        assert "flick_dma_to_nxp_total 5" in text

    def test_histogram_family_suffixes(self, text):
        assert "# TYPE flick_latency_h2n_session_ns histogram" in text
        assert 'flick_latency_h2n_session_ns_bucket{le="+Inf"} 5' in text
        assert "flick_latency_h2n_session_ns_sum " in text
        assert "flick_latency_h2n_session_ns_count 5" in text

    def test_histogram_buckets_cumulative(self, text):
        counts = []
        for line in text.splitlines():
            if line.startswith("flick_latency_h2n_session_ns_bucket"):
                counts.append(int(line.rsplit(" ", 1)[1]))
        assert counts == sorted(counts)
        assert counts[-1] == 5

    def test_summary_family(self, text):
        # registry accumulators (e.g. nxp.busy_ns) render as summaries
        assert "# TYPE flick_nxp_busy_ns summary" in text
        assert 'flick_nxp_busy_ns{quantile="0.5"}' in text
        assert "flick_nxp_busy_ns_sum " in text
        assert "flick_nxp_busy_ns_count 5" in text

    def test_gauge_families(self, text):
        assert "# TYPE flick_sched_run_queue_depth gauge" in text
        assert "# TYPE flick_device_utilization gauge" in text
        assert 'flick_device_utilization{device="nxp"}' in text
        assert 'flick_phase_mean_ns{phase="nxp_execute"}' in text

    def test_no_per_pid_series_by_default(self, run):
        machine, _ = run
        report = build_run_report(machine)
        report.by_pid = {}
        assert "pid=" not in render_openmetrics(report)

    def test_per_pid_series_carry_pid_label(self, report):
        text = render_openmetrics(report)
        assert 'flick_latency_h2n_session_ns_bucket{pid="' in text
        # the TYPE line is emitted once per family, not once per series
        assert text.count("# TYPE flick_latency_h2n_session_ns histogram") == 1

    def test_label_escaping(self):
        assert _escape_label('a"b') == 'a\\"b'
        assert _escape_label("a\\b") == "a\\\\b"
        assert _escape_label("a\nb") == "a\\nb"

    def test_metric_name_sanitization(self):
        assert _metric_name("dma.to_nxp") == "flick_dma_to_nxp"
        assert _metric_name("irq.0x42") == "flick_irq_0x42"
        assert _metric_name("9lives") == "flick__9lives"


#: sample-name suffixes each OpenMetrics family type allows
_FAMILY_SUFFIXES = {
    "counter": ("_total", "_created"),
    "gauge": ("",),
    "summary": ("", "_sum", "_count", "_created"),
    "histogram": ("_bucket", "_sum", "_count", "_created"),
}


def assert_openmetrics_structure(text):
    """Each ``# TYPE`` name is unique, every sample belongs to the family
    declared just above it, a ``# UNIT`` line only names a family whose
    name ends in ``_<unit>``, and the text ends in ``# EOF``."""
    assert text.endswith("\n# EOF\n")
    declared = {}
    family = None
    for line in text.splitlines()[:-1]:
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split(" ")
            assert family not in declared, f"{family} declared twice"
            declared[family] = kind
        elif line.startswith("# UNIT "):
            _, _, name, unit = line.split(" ")
            assert name.endswith(f"_{unit}"), line
        elif not line.startswith("#"):
            sample = line.split("{")[0].split(" ")[0]
            assert family is not None, line
            allowed = {family + suffix for suffix in _FAMILY_SUFFIXES[declared[family]]}
            assert sample in allowed, f"{line!r} outside family {family}"
    return declared


class TestOpenMetricsStructure:
    def test_run_report_with_and_without_pid_series(self, report):
        from dataclasses import replace

        assert report.by_pid
        for variant in (report, replace(report, by_pid={})):
            declared = assert_openmetrics_structure(render_openmetrics(variant))
            assert declared["flick_latency_h2n_session_ns"] == "histogram"
            for family in (
                "flick_jit_compiled_blocks",
                "flick_placement_pick_dev0",
                "flick_trace_dropped",
                "flick_trace_spans_dropped",
                "flick_trace_span_anomalies",
            ):
                assert declared[family] == "counter"

    def test_serving_curve(self):
        from repro.analysis.serving import (
            TrafficConfig,
            render_serving_openmetrics,
            run_serving,
        )

        results = [
            run_serving(TrafficConfig(scenario="null_call", qps=qps, requests=8, seed=3))
            for qps in (1000.0, 4000.0)
        ]
        text = render_serving_openmetrics(results)
        declared = assert_openmetrics_structure(text)
        assert declared["flick_serving_latency_ns"] == "histogram"
        assert declared["flick_trace_dropped"] == "counter"
        assert declared["flick_trace_spans_dropped"] == "counter"
        assert 'flick_trace_dropped_total{offered_qps="4000",scenario="null_call"} 0' in text


class TestHistogramSummary:
    def test_empty_histogram_round_trips_via_null(self):
        from repro.sim.stats import Histogram

        summary = HistogramSummary.of(Histogram("idle"))
        back = HistogramSummary.from_dict(summary.to_dict())
        assert back.count == 0
        assert back.buckets == []
        # nan -> null -> nan
        import math

        assert math.isnan(back.min) and math.isnan(back.max)


class TestPlacementSidecar:
    """Multi-NxP placement counters are parity-sensitive (docs/ROBUSTNESS.md):
    they ride on the report's observed tier next to ``stats`` without
    ever entering the pinned registry snapshot."""

    @pytest.fixture(scope="class")
    def multi_report(self):
        from repro.core.config import FlickConfig

        machine = FlickMachine(
            FlickConfig(nxp_count=2, placement_policy="round_robin")
        )
        machine.run_program(NULL_CALL, args=[4])
        return build_run_report(machine)

    def test_placement_counters_on_report(self, multi_report):
        assert multi_report.observed.get("placement.pick.dev0", 0) > 0
        assert all(not k.startswith("placement.") for k in multi_report.stats)

    def test_placement_in_openmetrics_and_json(self, multi_report):
        text = render_openmetrics(multi_report)
        assert "flick_placement_pick_dev0_total" in text
        back = report_from_json(render_json(multi_report))
        assert back.observed == multi_report.observed

    def test_single_nxp_report_has_device_zero_placement(self, report):
        # A one-device machine is a fleet of one: every session is
        # placed on device 0, and the counters stay out of the stats.
        placement = {k for k in report.observed if k.startswith("placement.")}
        assert placement == {"placement.pick.dev0"}
        assert all(not k.startswith("placement.") for k in report.stats)
        assert "flick_placement_pick_dev0_total" in render_openmetrics(report)
