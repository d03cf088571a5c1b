"""Overload protection and self-healing (docs/ROBUSTNESS.md).

Five invariants anchor the robustness layer:

1. **Ring-capacity invariant** — ``FlickConfig`` rejects knob
   combinations where a dying session could overflow the 16-slot
   inbound descriptor ring.
2. **Knobs-off / armed-but-idle parity** — the robustness objects are
   only built when their knobs are non-default, and an armed-but-idle
   configuration (budget never consulted, admission never over, breaker
   never tripped) is bit-identical to the knobs-off run.
3. **Deterministic primitives** — the retry budget refills as a pure
   function of sim time; the breaker's quarantine windows grow
   exponentially with re-trips and refuse early re-entry.
4. **Revive semantics** — ``machine.revive_nxp`` validates recovery /
   hardening / in-service / quarantine preconditions, and a revived
   device re-enters service through half-open probes.
5. **Determinism under load** — identical seeds produce bit-identical
   shed sets and revive timelines at any ``parallel_map`` worker count,
   and an overload storm completes every request correctly or sheds it
   with a typed reason (no hangs, completed p99 within deadline).
"""

from dataclasses import replace

import pytest

from repro.analysis.chaos import named_scenarios, run_scenario
from repro.analysis.serving import TrafficConfig, run_serving, sweep_latency_vs_load
from repro.core.config import RING_SLOTS, FlickConfig
from repro.core.health import HealthState, NxpHealth, RetryBudget
from repro.core.machine import FlickMachine
from repro.sim.faults import FaultPlan, FaultRule
from repro.sim.stats import quantile

#: Armed-but-quiet plan: hardens the protocol without ever firing.
QUIET = (FaultRule("dma_drop", after_ns=1e18, count=None),)

BUMP_LOOP = """
@nxp func bump(x) { return x + 3; }
func main(n) {
    var acc = 5;
    var i = 0;
    while (i < n) { acc = bump(acc); i = i + 1; }
    return acc;
}
"""


class TestRingInvariant:
    def test_defaults_satisfy_the_invariant(self):
        cfg = FlickConfig()
        assert (cfg.migration_retry_limit + 1) * cfg.nxp_dead_threshold <= RING_SLOTS

    def test_boundary_accepted(self):
        FlickConfig(migration_retry_limit=1, nxp_dead_threshold=8)  # (1+1)*8 = 16

    def test_overflow_rejected_with_named_knobs(self):
        with pytest.raises(ValueError) as exc:
            FlickConfig(migration_retry_limit=3, nxp_dead_threshold=5)  # (3+1)*5 = 20
        msg = str(exc.value)
        assert "ring-capacity invariant" in msg
        assert "migration_retry_limit" in msg
        assert "nxp_dead_threshold" in msg
        assert str(RING_SLOTS) in msg


class TestKnobsOffParity:
    def test_robustness_objects_absent_by_default(self):
        machine = FlickMachine(FlickConfig(faults=QUIET))
        assert machine.retry_budget is None
        assert machine.fused_pids == set()
        assert machine.admission_capacity() == 0

    def test_armed_but_idle_is_bit_identical(self):
        """Arming every knob without triggering any of them must not
        perturb timing or stats (the ``machine.hardened`` precedent)."""
        off = FlickMachine(FlickConfig(faults=QUIET))
        base = off.run_program(BUMP_LOOP, args=[4])
        armed_cfg = FlickConfig(
            faults=QUIET,
            admission_queue_limit=64,
            brownout=True,
            brownout_margin_ns=1.0,
            retry_budget_tokens=1000.0,
            retry_budget_refill_per_ms=1.0,
            nxp_recovery=True,
        )
        on = FlickMachine(armed_cfg)
        armed = on.run_program(BUMP_LOOP, args=[4])
        assert armed.retval == base.retval == 17
        assert armed.sim_time_ns == base.sim_time_ns
        assert armed.stats == base.stats
        assert on.fused_pids == set()
        assert on.retry_budget.denied == 0


class TestRetryBudget:
    def test_capacity_spends_down_then_denies(self):
        budget = RetryBudget(capacity=2.0, refill_per_ms=0.0)
        assert budget.take(0.0) and budget.take(0.0)
        assert not budget.take(0.0)
        assert (budget.granted, budget.denied) == (2, 1)

    def test_refill_is_a_pure_function_of_sim_time(self):
        budget = RetryBudget(capacity=2.0, refill_per_ms=1.0)  # 1 token per ms
        assert budget.take(0.0) and budget.take(0.0)
        assert not budget.take(500_000.0)  # half a token accrued
        assert budget.take(1_600_000.0)  # >1 token since last refill
        assert budget.tokens < 1.0

    def test_refill_caps_at_capacity(self):
        budget = RetryBudget(capacity=3.0, refill_per_ms=1.0)
        budget.take(0.0)
        budget.take(1e12)  # eons later: capped at 3, not millions
        assert budget.tokens == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryBudget(capacity=0.0, refill_per_ms=1.0)


class TestBreaker:
    def _dead_health(self, **kwargs):
        health = NxpHealth(threshold=1, recovery=True, **kwargs)
        health.record_failure(0.0)
        assert health.dead
        return health

    def test_recovery_off_refuses(self):
        health = NxpHealth(threshold=1)
        health.record_failure(0.0)
        with pytest.raises(ValueError, match="recovery is off"):
            health.begin_recovery(0.0)

    def test_recovery_only_from_dead(self):
        health = NxpHealth(threshold=2, recovery=True)
        with pytest.raises(ValueError, match="cannot begin recovery"):
            health.begin_recovery(0.0)

    def test_probe_successes_close_the_breaker(self):
        health = self._dead_health(probe_target=3)
        health.begin_recovery(0.0)
        assert health.state is HealthState.RECOVERING
        health.record_success()
        health.record_success()
        assert health.state is HealthState.RECOVERING
        health.record_success()
        assert health.state is HealthState.HEALTHY

    def test_probe_failure_retrips_with_exponential_quarantine(self):
        health = self._dead_health(quarantine_base_ns=1000.0, quarantine_factor=2.0)
        health.begin_recovery(0.0)
        health.record_failure(100.0)  # first flap: base window
        assert health.dead and health.retrips == 1
        assert health.quarantine_until_ns == pytest.approx(1100.0)
        with pytest.raises(ValueError, match="quarantined until"):
            health.begin_recovery(500.0)
        health.begin_recovery(1100.0)
        health.record_failure(1200.0)  # second flap: base * factor
        assert health.retrips == 2
        assert health.quarantine_until_ns == pytest.approx(1200.0 + 2000.0)

    def test_probe_counter_resets_on_retrip(self):
        health = self._dead_health(probe_target=3)
        health.begin_recovery(0.0)
        health.record_success()
        health.record_failure(10.0)
        health.begin_recovery(health.quarantine_until_ns)
        assert health.probe_successes == 0


class TestReviveSemantics:
    def _machine(self, **overrides):
        cfg = FlickConfig(
            nxp_count=2,
            placement_policy="round_robin",
            faults=QUIET,
            nxp_recovery=True,
            **overrides,
        )
        return FlickMachine(cfg)

    def test_recovery_knob_required(self):
        machine = FlickMachine(
            FlickConfig(nxp_count=2, placement_policy="round_robin", faults=QUIET)
        )
        machine.kill_nxp(0, mode="abrupt")
        with pytest.raises(ValueError, match="recovery is off"):
            machine.revive_nxp(0)

    def test_hardened_protocol_required(self):
        machine = FlickMachine(
            FlickConfig(
                nxp_count=2, placement_policy="round_robin", nxp_recovery=True
            )
        )
        machine.kill_nxp(0, mode="drain")
        with pytest.raises(ValueError, match="hardened protocol"):
            machine.revive_nxp(0)

    def test_in_service_device_refused(self):
        machine = self._machine()
        with pytest.raises(ValueError, match="in service"):
            machine.revive_nxp(0)

    def test_revive_returns_device_to_probe_ready(self):
        machine = self._machine()
        machine.kill_nxp(0, mode="abrupt")
        dev = machine.devices[0]
        assert not dev.alive and not dev.probe_ready
        machine.revive_nxp(0)
        assert dev.health.state is HealthState.RECOVERING
        assert not dev.killed and not dev.draining
        assert dev.probe_ready
        assert machine.stats.get("nxp.revived") == 1

    def test_quarantine_refusal_leaves_device_out_of_service(self):
        machine = self._machine(nxp_quarantine_base_ns=1e15)
        machine.kill_nxp(0, mode="abrupt")
        machine.revive_nxp(0)
        dev = machine.devices[0]
        dev.health.record_failure(machine.sim.now)  # flapped probe: re-trip
        # Killed/draining flags were cleared by the first revive, so the
        # quarantine refusal must come from the health gate and leave
        # the breaker DEAD (out of service), not half-open.
        with pytest.raises(ValueError, match="quarantined"):
            machine.revive_nxp(0)
        assert dev.health.dead
        assert not dev.alive and not dev.probe_ready


class TestOverloadStorm:
    def test_storm_sheds_typed_and_caps_retries(self):
        result = run_scenario(named_scenarios()["overload-storm"])
        assert result.verdict not in ("hung", "mismatch", "crashed")
        assert result.verdict == "shed"
        assert "retry budget denied" in result.detail

    @pytest.mark.parametrize("seed", range(12))
    def test_storm_returns_no_wrong_value_at_any_seed(self, seed):
        # Regression: a fresh thread on a pooled process accepted its
        # predecessor's late duplicate reply, so seeds 4, 5, 6, 7 and 10
        # returned wrong values.
        result = run_scenario(named_scenarios(seed)["overload-storm"])
        assert result.verdict != "mismatch", result.detail
        assert result.ok, result.detail

    def test_deadline_run_completes_or_sheds_within_budget(self):
        deadline_ns = 500_000.0
        tc = TrafficConfig(
            scenario="null_call",
            arrival="poisson",
            qps=20_000.0,
            requests=120,
            clients=8,
            mode="open",
            seed=0,
            host_cores=4,
            deadline_ns=deadline_ns,
            admission_limit=4,
            retry_budget_tokens=8.0,
            retry_budget_refill_per_ms=2.0,
        )
        result = run_serving(tc)
        for rec in result.records:
            assert rec.ok or rec.shed, rec
            if rec.shed:
                assert rec.shed_reason in ("deadline", "queue_full", "quarantine")
        completed = result.completed_records
        assert completed and result.errors == 0
        p99 = quantile([r.latency_ns for r in completed], 99.0)
        assert p99 <= deadline_ns

    def test_shed_set_is_bit_identical_across_worker_counts(self):
        tc = TrafficConfig(
            scenario="null_call",
            arrival="poisson",
            qps=20_000.0,
            requests=80,
            clients=8,
            mode="open",
            seed=3,
            host_cores=2,
            deadline_ns=300_000.0,
            admission_limit=2,
        )
        serial, pooled = (
            sweep_latency_vs_load([20_000.0], tc, workers=w)[0] for w in (1, 2)
        )
        assert serial.records == pooled.records
        assert serial.shed_by_reason == pooled.shed_by_reason
        shed_ids = [r.index for r in serial.records if r.shed]
        assert shed_ids == [r.index for r in pooled.records if r.shed]


class TestKillThenRevive:
    REVIVE_TC = dict(
        scenario="null_call",
        arrival="poisson",
        qps=20_000.0,
        requests=80,
        clients=8,
        mode="open",
        seed=7,
        host_cores=8,
        nxps=2,
        policy="round_robin",
        kill_at_ns=1_200_000.0,
        kill_device=0,
        kill_mode="abrupt",
        revive_at_ns=2_000_000.0,
    )

    def test_revived_device_serves_post_revival_traffic(self):
        result = run_serving(TrafficConfig(**self.REVIVE_TC))
        assert result.errors == 0
        assert result.revived == 1
        assert result.post_revival_sessions.get(0, 0) > 0

    def test_revive_timeline_is_bit_identical_across_worker_counts(self):
        tc = TrafficConfig(**self.REVIVE_TC)
        serial, pooled = (
            sweep_latency_vs_load([20_000.0], tc, workers=w)[0] for w in (1, 2)
        )
        assert serial.records == pooled.records
        assert serial.revived == pooled.revived == 1
        assert serial.post_revival_sessions == pooled.post_revival_sessions

    def test_chaos_revive_case_recovers(self):
        result = run_scenario(named_scenarios()["kill-revive"])
        assert result.verdict == "recovered"
        assert "revived" in result.detail

    def test_revived_device_that_flaps_back_to_dead_is_hung(self):
        # The revived device's first half-open probe session crashes and
        # re-trips the breaker.  A post-revive session was placed and
        # the survivor finishes the workload correctly, but the device
        # ends DEAD: it did not recover.
        revive = named_scenarios()["kill-revive"]
        crash = FaultRule("nxp_crash", after_ns=revive.revive_at_ns)
        result = run_scenario(replace(revive, plan=FaultPlan((crash,), seed=1)))
        assert result.retval == result.expected
        assert result.verdict == "hung"
        assert "post-revive sessions=1, health=dead" in result.detail


class TestOneProtocolRules:
    """Fleet rules that hold on every machine, a fleet of one included."""

    def test_brownout_queue_full_counts_the_picked_devices_sessions(self):
        # One device, admission limit 2: a call browns out once the
        # device already has two sessions in flight.
        result = run_serving(
            TrafficConfig(
                scenario="null_call", arrival="poisson", qps=60_000, requests=200,
                seed=3, admission_limit=2, brownout=True,
            )
        )
        assert result.errors == 0 and result.shed == 0
        assert result.degraded_calls == result.brownout_calls == 201

    def test_leg_stops_retrying_once_another_leg_latched_dead(self):
        # The device hangs on the first descriptor.  Task a's leg
        # exhausts its retries and latches DEAD; task b, started 1.2 ms
        # later, gives up at its next watchdog trip instead of retrying
        # against known-dead silicon (7 trips, not 8).
        cfg = FlickConfig(faults=(FaultRule("nxp_hang", nth=1),), nxp_dead_threshold=1)
        machine = FlickMachine(cfg)
        exe = machine.compile("""
        @nxp func bump(x) { return x + 3; }
        func main(x) { return bump(x); }
        """)
        threads = [machine.spawn(machine.load(exe, name="a"), args=[1])]

        def later(sim):
            yield sim.timeout(1_200_000.0)
            threads.append(machine.spawn(machine.load(exe, name="b"), args=[2]))

        machine.sim.spawn(later(machine.sim), name="later")
        machine.run()
        assert [t.result for t in threads] == [4, 5]
        assert machine.stats.get("degraded.calls") == 2
        assert machine.stats.get("migration.watchdog_trip") == 7
