"""Serving-traffic harness: determinism, open-loop independence, modes.

The two load-bearing properties (docs/OBSERVABILITY.md, serving-metrics
section):

* **Determinism** — same seed + config ⇒ bit-identical arrival
  schedule, simulated time and latency sample, across repeated runs
  and across sweep worker counts (serial vs process pool).
* **Open-loop independence** — arrival instants equal the closed-form
  seeded schedule *exactly*, even when the machine is saturated and
  queues are deep.  Completions can never push an arrival.
"""

import math

import pytest

from repro.analysis.serving import (
    TrafficConfig,
    draw_kinds,
    generate_arrivals,
    render_serving_table,
    run_serving,
    saturation_point,
    serving_report_doc,
    sweep_latency_vs_load,
)
from repro.workloads.serving_profiles import PROFILES, scenario_mix

# Small configs: the whole module must stay a quick tier-1 citizen.
QUICK = TrafficConfig(scenario="null_call", qps=2000.0, requests=24, clients=3, seed=7)


@pytest.fixture(scope="module")
def quick_result():
    return run_serving(QUICK)


class TestArrivalSchedules:
    def test_uniform_spacing_is_exact(self):
        tc = TrafficConfig(arrival="uniform", qps=1000.0, requests=5)
        assert generate_arrivals(tc) == [0.0, 1e6, 2e6, 3e6, 4e6]

    def test_poisson_is_nondecreasing_and_positive_rate(self):
        tc = TrafficConfig(arrival="poisson", qps=5000.0, requests=200, seed=3)
        offs = generate_arrivals(tc)
        assert all(b >= a for a, b in zip(offs, offs[1:]))
        # mean inter-arrival within 3x of nominal (seeded, so no flake)
        mean_gap = offs[-1] / (len(offs) - 1)
        assert 1e9 / 5000.0 / 3 < mean_gap < 1e9 / 5000.0 * 3

    def test_bursty_arrivals_land_only_in_on_windows(self):
        tc = TrafficConfig(
            arrival="bursty", qps=2000.0, requests=300, seed=5,
            burst_period_ns=1_000_000.0, burst_duty=0.25,
        )
        on_ns = tc.burst_period_ns * tc.burst_duty
        for t in generate_arrivals(tc):
            assert t % tc.burst_period_ns <= on_ns

    def test_schedule_is_seed_deterministic(self):
        tc = TrafficConfig(arrival="poisson", qps=1000.0, requests=50, seed=11)
        assert generate_arrivals(tc) == generate_arrivals(tc)
        other = TrafficConfig(arrival="poisson", qps=1000.0, requests=50, seed=12)
        assert generate_arrivals(tc) != generate_arrivals(other)

    def test_kind_draw_matches_mix_support_and_is_deterministic(self):
        tc = TrafficConfig(scenario="mixed", requests=100, seed=9)
        kinds = draw_kinds(tc)
        assert kinds == draw_kinds(tc)
        allowed = {name for name, _w in scenario_mix("mixed")}
        assert set(kinds) <= allowed

    def test_single_type_scenario_draws_only_that_type(self):
        tc = TrafficConfig(scenario="kv_filter", requests=20, seed=1)
        assert set(draw_kinds(tc)) == {"kv_filter"}

    def test_config_validation(self):
        with pytest.raises(ValueError, match="unknown arrival"):
            TrafficConfig(arrival="nope").validate()
        with pytest.raises(ValueError, match="unknown mode"):
            TrafficConfig(mode="nope").validate()
        with pytest.raises(ValueError, match="unknown scenario"):
            TrafficConfig(scenario="nope").validate()
        with pytest.raises(ValueError, match="qps"):
            TrafficConfig(qps=0.0).validate()


class TestDeterminism:
    """Same seed + config ⇒ bit-identical everything (the satellite)."""

    def test_repeat_runs_are_bit_identical(self, quick_result):
        again = run_serving(QUICK)
        assert again.arrivals_ns == quick_result.arrivals_ns
        assert again.latencies_ns == quick_result.latencies_ns
        assert again.sim_ns == quick_result.sim_ns
        assert again.records == quick_result.records
        assert again.latency_histogram == quick_result.latency_histogram

    def test_sweep_identical_across_worker_counts(self):
        base = TrafficConfig(scenario="null_call", requests=16, clients=2, seed=4)
        serial = sweep_latency_vs_load([1000.0, 8000.0], base, workers=1)
        pooled = sweep_latency_vs_load([1000.0, 8000.0], base, workers=2)
        for a, b in zip(serial, pooled):
            assert a.arrivals_ns == b.arrivals_ns
            assert a.latencies_ns == b.latencies_ns
            assert a.sim_ns == b.sim_ns
            assert a.latency_histogram == b.latency_histogram

    def test_different_seed_changes_the_run(self, quick_result):
        from dataclasses import replace

        other = run_serving(replace(QUICK, seed=8))
        assert other.arrivals_ns != quick_result.arrivals_ns


class TestOpenLoopIndependence:
    """Arrivals are provably independent of completions."""

    def test_arrivals_match_closed_form_schedule(self, quick_result):
        offsets = generate_arrivals(QUICK)
        expected = [quick_result.epoch_ns + off for off in offsets]
        assert quick_result.arrivals_ns == expected

    def test_arrivals_unperturbed_under_saturation(self):
        # Offered load ~50x capacity: queues go deep, yet every arrival
        # still lands at its precomputed instant.
        tc = TrafficConfig(
            scenario="null_call", qps=500_000.0, requests=40, clients=2, seed=7
        )
        r = run_serving(tc)
        offsets = generate_arrivals(tc)
        assert r.arrivals_ns == [r.epoch_ns + off for off in offsets]
        # and the backlog is visible where it should be: queue wait
        assert r.mean_wait_ns > 0
        assert r.achieved_qps < tc.qps / 2

    def test_latency_includes_queueing_delay(self):
        tc = TrafficConfig(
            scenario="null_call", qps=500_000.0, requests=40, clients=2, seed=7
        )
        r = run_serving(tc)
        for rec in r.records:
            assert rec.latency_ns >= rec.end_ns - rec.start_ns  # >= service time
            assert rec.latency_ns == pytest.approx(
                rec.wait_ns + (rec.end_ns - rec.start_ns)
            )


class TestServingRun:
    def test_all_requests_served_correctly(self, quick_result):
        assert len(quick_result.records) == QUICK.requests
        assert quick_result.errors == 0
        assert all(r.ok for r in quick_result.records)

    def test_quantiles_are_ordered_and_finite(self, quick_result):
        r = quick_result
        assert 0 < r.p50_ns <= r.p95_ns <= r.p99_ns <= r.max_ns
        assert math.isfinite(r.mean_ns)

    def test_trace_is_clean_after_run(self, quick_result):
        assert quick_result.open_spans == 0
        assert quick_result.observed["trace.span_anomalies"] == 0

    def test_utilization_fractions_sane(self, quick_result):
        assert set(quick_result.utilization) == {"host_core", "nxp", "dma"}
        for summary in quick_result.utilization.values():
            assert 0.0 <= summary.fraction <= 1.0

    def test_closed_loop_serves_everything(self):
        tc = TrafficConfig(
            scenario="null_call", mode="closed", requests=12, clients=3,
            seed=2, think_ns=500.0,
        )
        r = run_serving(tc)
        assert len(r.records) == 12
        assert r.errors == 0
        # closed loop: a client's next request starts at/after its
        # previous completion, so per-client wait is zero
        assert all(rec.wait_ns == 0 for rec in r.records)

    def test_closed_loop_is_deterministic(self):
        tc = TrafficConfig(scenario="null_call", mode="closed", requests=10,
                           clients=2, seed=6)
        assert run_serving(tc).latencies_ns == run_serving(tc).latencies_ns

    def test_mixed_scenario_checks_every_kind(self):
        tc = TrafficConfig(scenario="mixed", qps=1500.0, requests=30,
                           clients=4, seed=11)
        r = run_serving(tc)
        assert r.errors == 0
        assert sum(r.kind_counts.values()) == 30
        assert len(r.kind_counts) >= 2  # the mix actually mixed

    def test_more_requests_than_bram_stacks(self):
        # 16 MB BRAM / 64 KB stacks caps ~250 concurrent tasks; stack
        # recycling must carry a serving run well past that.
        tc = TrafficConfig(scenario="null_call", qps=50_000.0, requests=300,
                           clients=4, seed=3)
        r = run_serving(tc)
        assert len(r.records) == 300
        assert r.errors == 0


class TestReporting:
    def test_saturation_point(self, quick_result):
        assert saturation_point([quick_result]) == QUICK.qps
        # a saturated point drops out
        sat = saturation_point([quick_result], tolerance=2.0)
        assert sat is None

    def test_table_renders(self, quick_result):
        text = render_serving_table([quick_result])
        assert "offered_qps" in text and "p99_us" in text
        assert "saturation" in text

    def test_report_doc_round_trips_json(self, quick_result):
        import json

        doc = serving_report_doc([quick_result])
        assert doc["schema"] == "flick.serving.v2"
        clone = json.loads(json.dumps(doc))
        assert clone["points"][0]["p99_ns"] == quick_result.p99_ns
        assert clone["points"][0]["requests"] == QUICK.requests


class TestCLI:
    def test_serve_smoke_gate_passes(self, tmp_path, capsys):
        import io

        from repro.tools.cli import main

        out = io.StringIO()
        report = tmp_path / "curve.json"
        code = main(
            [
                "serve", "--qps", "500", "--scenario", "null_call",
                "--arrival", "poisson", "--seed", "7", "--requests", "16",
                "--clients", "2", "--tolerance", "0.5",
                "--out", str(report),
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "serve gate ok" in text
        assert report.exists()

    def test_serve_unknown_scenario_is_usage_error(self):
        import io

        from repro.tools.cli import main

        out = io.StringIO()
        assert main(["serve", "--qps", "100", "--scenario", "nope"], out=out) == 2
        assert "unknown scenario" in out.getvalue()

    def test_serve_gate_fails_on_impossible_tolerance(self):
        import io

        from repro.tools.cli import main

        out = io.StringIO()
        code = main(
            [
                "serve", "--qps", "500000", "--requests", "16",
                "--clients", "2", "--seed", "7", "--tolerance", "0.99",
            ],
            out=out,
        )
        assert code == 1
        assert "serve gate FAILED" in out.getvalue()

    def test_default_point_keeps_up(self):
        # Seed 0's 200 Poisson arrivals come in at 924/s, not the nominal
        # 1000 QPS; a machine this idle must still read as keeping up.
        import io

        from repro.tools.cli import main

        out = io.StringIO()
        assert main(["serve", "--tolerance", "0.95"], out=out) == 0
        assert "saturation: ~1000 qps" in out.getvalue()


class TestProfiles:
    def test_every_profile_has_positive_args_and_golden(self):
        for kind, profile in PROFILES.items():
            assert profile.kind == kind
            assert isinstance(profile.expected, int)
            assert profile.args
