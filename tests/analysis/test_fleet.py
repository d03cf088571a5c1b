"""Fleet study harness (src/repro/analysis/fleet.py).

A module-scoped tiny study (one load point, two device counts) backs
most assertions so the expensive serving runs happen once.  Pinned here:
traffic validation for the fleet knobs, worker-count determinism of the
flattened sweep, the chaos drain's zero-loss contract, the ablation's
session accounting, and the ``flick.fleet.v3`` document shape.
"""

import json

import pytest

from repro.analysis.fleet import (
    FleetConfig,
    chaos_drain,
    fleet_report_doc,
    fleet_scaling,
    render_ablation_table,
    render_chaos_summary,
    render_scaling_table,
    run_fleet,
)
from repro.analysis.serving import TrafficConfig

TINY = FleetConfig(
    requests=30,
    clients=4,
    nxps_list=(1, 2),
    qps_list=(20_000.0,),
    ablation_nxps=2,
    ablation_qps=20_000.0,
    chaos_nxps=2,
    chaos_qps=20_000.0,
    chaos_kill_at_ns=300_000.0,
)


@pytest.fixture(scope="module")
def tiny_report():
    return run_fleet(TINY, workers=1)


class TestTrafficValidation:
    def _tc(self, **kw):
        TrafficConfig(scenario="null_call", qps=20_000.0, requests=4, **kw).validate()

    def test_fleet_shape_accepted(self):
        self._tc(nxps=2, policy="round_robin")
        self._tc(nxps=2, kill_at_ns=1000.0, kill_device=1)

    def test_nxps_floor(self):
        with pytest.raises(ValueError, match="nxps"):
            self._tc(nxps=0)

    def test_policy_checked_only_for_multi(self):
        self._tc(nxps=1, policy="no_such_policy")  # single-device: unused
        with pytest.raises(ValueError, match="placement policy"):
            self._tc(nxps=2, policy="no_such_policy")

    def test_kill_needs_survivors(self):
        with pytest.raises(ValueError, match="survivors"):
            self._tc(nxps=1, kill_at_ns=1000.0)

    def test_kill_device_range(self):
        with pytest.raises(ValueError, match="kill_device"):
            self._tc(nxps=2, kill_at_ns=1000.0, kill_device=2)

    def test_kill_mode_checked(self):
        with pytest.raises(ValueError, match="kill mode"):
            self._tc(nxps=2, kill_at_ns=1000.0, kill_mode="gently")


class TestScaling:
    def test_one_point_per_device_count(self, tiny_report):
        assert [pt.nxps for pt in tiny_report.scaling] == [1, 2]
        for pt in tiny_report.scaling:
            assert len(pt.results) == len(TINY.qps_list)
            assert all(r.errors == 0 for r in pt.results)

    def test_single_device_point_uses_static_policy(self, tiny_report):
        assert tiny_report.scaling[0].policy == "static"
        assert tiny_report.scaling[1].policy == TINY.scaling_policy

    def test_worker_count_does_not_change_results(self):
        # Every point is an independent machine, so the flattened sweep
        # must be bit-identical no matter how it is scheduled.
        serial = fleet_scaling(TINY, workers=1)
        threaded = fleet_scaling(TINY, workers=2)
        as_points = lambda pts: [
            [r.to_point() for r in pt.results] for pt in pts
        ]
        assert as_points(serial) == as_points(threaded)


class TestAblation:
    def test_every_policy_served_everything(self, tiny_report):
        assert [row.policy for row in tiny_report.ablation] == list(TINY.policies)
        for row in tiny_report.ablation:
            assert row.result.errors == 0
            assert sum(row.result.device_sessions.values()) > 0

    def test_static_pins_device_zero(self, tiny_report):
        static = next(r for r in tiny_report.ablation if r.policy == "static")
        assert static.result.device_sessions.get(1, 0) == 0
        assert static.imbalance == float("inf")

    def test_round_robin_is_balanced(self, tiny_report):
        rr = next(r for r in tiny_report.ablation if r.policy == "round_robin")
        assert rr.imbalance == pytest.approx(1.0)


class TestChaosDrain:
    def test_no_request_lost_to_the_kill(self, tiny_report):
        chaos = tiny_report.chaos
        assert chaos.all_served_ok
        assert len(chaos.killed.records) == TINY.requests
        assert chaos.killed.errors == 0

    def test_traffic_drains_to_survivors(self, tiny_report):
        chaos = tiny_report.chaos
        total = sum(chaos.killed.device_sessions.values())
        assert chaos.survivor_sessions > total / 2
        baseline_share = chaos.baseline.device_sessions.get(chaos.kill_device, 0)
        killed_share = chaos.killed.device_sessions.get(chaos.kill_device, 0)
        assert killed_share < baseline_share

    def test_standalone_drain_mode(self):
        outcome = chaos_drain(replace_kill(TINY, "drain"))
        assert outcome.all_served_ok
        assert outcome.kill_mode == "drain"


def replace_kill(fc, mode):
    from dataclasses import replace

    return replace(fc, chaos_kill_mode=mode)


class TestReportDoc:
    def test_schema_and_json_round_trip(self, tiny_report):
        doc = fleet_report_doc(tiny_report)
        assert doc["schema"] == "flick.fleet.v3"
        again = json.loads(json.dumps(doc))
        assert [s["nxps"] for s in again["scaling"]] == [1, 2]
        assert again["chaos"]["all_served_ok"] is True
        assert {row["policy"] for row in again["ablation"]} == set(TINY.policies)

    def test_points_carry_fleet_fields(self, tiny_report):
        point = fleet_report_doc(tiny_report)["scaling"][1]["points"][0]
        assert point["nxps"] == 2
        assert point["policy"] == TINY.scaling_policy
        assert "device_sessions" in point and "degraded_calls" in point

    def test_render_functions_cover_headlines(self, tiny_report):
        scaling = render_scaling_table(tiny_report.scaling)
        assert "peak throughput vs 1 device" in scaling
        ablation = render_ablation_table(tiny_report.ablation)
        assert "round_robin" in ablation and "imbalance" in ablation
        chaos = render_chaos_summary(tiny_report.chaos)
        assert "all retvals correct" in chaos
