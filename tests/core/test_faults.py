"""Units of the robustness layer (docs/ROBUSTNESS.md).

Covers the pieces below the chaos matrix: fault-rule determinism and
JSON round-trips, descriptor checksum/sequence integrity, the NxP
health state machine, the typed exception taxonomy's backwards
compatibility, and crash-context reporting (faulting PC + access kind).
"""

import pytest

from repro import FlickMachine
from repro.core.descriptors import (
    DESCRIPTOR_BYTES,
    DIR_H2N,
    KIND_CALL,
    MigrationDescriptor,
)
from repro.core.errors import (
    DescriptorCorrupt,
    ProcessCrash,
    RingOverflow,
    RingPublishError,
    RingUnderflow,
    RingsNotAttached,
    UnhandledVector,
    VectorAlreadyClaimed,
)
from repro.core.config import FlickConfig
from repro.core.health import HealthState, NxpHealth
from repro.core.machine import signed_retval
from repro.memory.paging import PageFault
from repro.sim.faults import FAULT_KINDS, FaultInjector, FaultPlan, FaultRule, builtin_plans


class _FakeSim:
    def __init__(self, now=0.0):
        self.now = now


class TestFaultRules:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule("cosmic_ray")

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            FaultRule("dma_drop", direction="sideways")

    def test_nth_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultRule("dma_drop", nth=0)

    def test_every_kind_has_a_site(self):
        for kind, site in FAULT_KINDS.items():
            assert FaultRule(kind).site == site

    def test_occurrence_window(self):
        sim = _FakeSim()
        inj = FaultInjector([FaultRule("dma_drop", nth=2, count=2)], seed=1, sim=sim)
        fired = [bool(inj.pull("dma", "h2n")) for _ in range(5)]
        assert fired == [False, True, True, False, False]

    def test_direction_and_site_filters(self):
        sim = _FakeSim()
        inj = FaultInjector([FaultRule("dma_drop", direction="h2n")], seed=1, sim=sim)
        assert inj.pull("irq") == []
        assert inj.pull("dma", "n2h") == []
        assert len(inj.pull("dma", "h2n")) == 1

    def test_after_ns_gates_eligibility(self):
        sim = _FakeSim(now=0.0)
        inj = FaultInjector([FaultRule("dma_drop", after_ns=100.0)], seed=1, sim=sim)
        assert inj.pull("dma") == []
        sim.now = 100.0
        assert len(inj.pull("dma")) == 1

    def test_probabilistic_rules_are_seed_deterministic(self):
        def pattern(seed):
            inj = FaultInjector(
                [FaultRule("dma_drop", count=None, probability=0.5)],
                seed=seed,
                sim=_FakeSim(),
            )
            return [bool(inj.pull("dma")) for _ in range(64)]

        assert pattern(3) == pattern(3)
        assert pattern(3) != pattern(4)
        assert any(pattern(3)) and not all(pattern(3))


class TestFaultPlans:
    def test_json_round_trip(self):
        plan = builtin_plans(9)["lossy-link"]
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            FaultPlan.from_json('{"schema": "flick.fault_plan.v99", "rules": []}')

    def test_apply_arms_config(self):
        plan = builtin_plans(9)["irq-loss"]
        cfg = plan.apply(FlickMachine().cfg)
        assert cfg.faults == plan.rules
        assert cfg.fault_seed == 9

    def test_builtin_plans_reseed(self):
        assert builtin_plans(1)["nxp-crash"].seed == 1
        assert builtin_plans(2)["nxp-crash"].with_seed(5).seed == 5


class TestDescriptorIntegrity:
    def _desc(self):
        return MigrationDescriptor(
            kind=KIND_CALL, direction=DIR_H2N, pid=3, target=0x400000,
            args=[1, 2, 3], cr3=0x1000, nxp_sp=0x8000, seq=7,
        )

    def test_seq_round_trips(self):
        assert MigrationDescriptor.unpack(self._desc().pack()).seq == 7

    def test_any_flipped_byte_is_caught(self):
        raw = bytearray(self._desc().pack())
        for offset in range(0, DESCRIPTOR_BYTES, 13):
            corrupted = bytearray(raw)
            corrupted[offset] ^= 0xFF
            with pytest.raises(DescriptorCorrupt):
                MigrationDescriptor.unpack(bytes(corrupted))

    def test_corruption_error_is_a_value_error(self):
        # Pre-hardening callers caught ValueError; the typed error must
        # still satisfy them.
        assert issubclass(DescriptorCorrupt, ValueError)

    def test_all_zero_buffer_rejected(self):
        # Zeros sum to a valid checksum; the magic check must still fire.
        with pytest.raises(DescriptorCorrupt, match="magic"):
            MigrationDescriptor.unpack(bytes(DESCRIPTOR_BYTES))


class TestNxpHealth:
    def test_failure_ladder(self):
        health = NxpHealth(threshold=3)
        assert health.state is HealthState.HEALTHY
        assert health.record_failure() is HealthState.SUSPECT
        assert health.record_failure() is HealthState.SUSPECT
        assert health.record_failure() is HealthState.DEAD
        assert health.dead

    def test_success_resets_consecutive_failures(self):
        health = NxpHealth(threshold=2)
        health.record_failure()
        health.record_success()
        assert health.state is HealthState.HEALTHY
        assert health.consecutive_failures == 0
        health.record_failure()
        assert not health.dead

    def test_dead_is_terminal(self):
        health = NxpHealth(threshold=1)
        health.record_failure()
        health.record_success()
        assert health.dead

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            NxpHealth(threshold=0)

    def test_transitions_count_real_state_changes(self):
        health = NxpHealth(threshold=2)
        assert health.transitions == 0
        health.record_failure()  # HEALTHY -> SUSPECT
        health.record_failure()  # SUSPECT -> DEAD
        assert health.transitions == 2

    def test_suspect_storm_is_one_transition(self):
        # Re-entering SUSPECT on every failed leg must not inflate the
        # transition count: a fleet aggregating ``health.transitions``
        # would otherwise read a single slow device as a flapping one.
        health = NxpHealth(threshold=10)
        for _ in range(5):
            health.record_failure()
        assert health.state is HealthState.SUSPECT
        assert health.transitions == 1

    def test_force_dead_latches_and_dedupes(self):
        health = NxpHealth(threshold=3)
        assert health.force_dead("killed") is HealthState.DEAD
        assert health.dead
        assert health.transitions == 1
        health.force_dead("again")  # same-state re-entry: no-op
        assert health.transitions == 1
        health.record_success()  # DEAD is terminal
        assert health.dead


class TestTypedErrorBackCompat:
    """Call sites written against the old bare exceptions keep working."""

    def test_ring_errors_are_runtime_errors(self):
        for err in (RingOverflow, RingUnderflow, RingsNotAttached, RingPublishError):
            assert issubclass(err, RuntimeError)

    def test_vector_claim_is_a_value_error(self):
        assert issubclass(VectorAlreadyClaimed, ValueError)

    def test_unhandled_vector_is_a_key_error(self):
        assert issubclass(UnhandledVector, KeyError)

    def test_ring_overflow_raised_after_capacity(self):
        machine = FlickMachine()
        ring = machine.devices[0].nxp_ring
        with pytest.raises(RingOverflow):
            for _ in range(ring.slots + 1):
                ring.claim_addr()

    def test_ring_underflow_on_empty_pop(self):
        machine = FlickMachine()
        with pytest.raises(RingUnderflow):
            machine.devices[0].nxp_ring.pop_addr()

    def test_vector_collision(self):
        machine = FlickMachine()
        from repro.interconnect.interrupt import MIGRATION_VECTOR

        with pytest.raises(VectorAlreadyClaimed):
            machine.irq.register(MIGRATION_VECTOR, lambda payload: None)

    def test_unhandled_vector(self):
        machine = FlickMachine()
        with pytest.raises(UnhandledVector):
            machine.irq.raise_irq(0x99, payload=None)


class TestCrashContext:
    def test_page_fault_access_kind(self):
        assert PageFault(0x10, PageFault.NOT_PRESENT).access_kind == "read"
        assert PageFault(0x10, PageFault.WRITE_PROTECT, is_write=True).access_kind == "write"
        assert PageFault(0x10, PageFault.NX_VIOLATION, is_exec=True).access_kind == "execute"

    def test_wild_read_reports_pc_and_access_kind(self):
        machine = FlickMachine()
        with pytest.raises(Exception) as info:
            machine.run_program("func main() { return load(3735879680); }")
        root = info.value.__cause__ if info.value.__cause__ is not None else info.value
        assert isinstance(root, ProcessCrash)
        assert root.pc is not None
        assert "read access" in str(root)
        assert f"pc={root.pc:#x}" in str(root)
        assert root.fault is not None and root.fault.access_kind == "read"


class TestInboundSequenceIsPerProcess:
    """The kernel's n2h high-water mark belongs to the process, like the
    pid and ``h2n_seq``: threads of a pooled process take turns, and a
    late duplicate of one thread's reply must not wake the next."""

    SOURCE = """
    @nxp func work(x, n) { var i = 0; while (i < n) { i = i + 1; } return x + 1; }
    func main(x, n) { return work(x, n); }
    """

    def test_late_duplicate_reply_is_not_delivered_to_the_next_thread(self):
        # The first reply is delayed past the 50 us watchdog, so the
        # host retransmits, the NxP replays the cached reply and the
        # first thread finishes on the replay.  The delayed original
        # lands while the second thread waits on its own long leg.
        machine = FlickMachine(
            FlickConfig(
                faults=(
                    FaultRule("dma_delay", direction="n2h", nth=1, delay_ns=100_000.0),
                ),
                migration_watchdog_ns=50_000.0,
            )
        )
        process = machine.load(machine.compile(self.SOURCE))
        retvals = []

        def requests():
            for x, n in ((10, 1), (20, 400)):
                thread = machine.spawn(process, args=[x, n])
                yield thread.proc
                retvals.append(signed_retval(thread.result))

        machine.sim.spawn(requests(), name="requests")
        machine.run()
        assert retvals == [11, 21]
        stats = machine.stats.snapshot()
        assert stats["nxp.replay"] >= 1
        late = [e for e in machine.trace.events if e.name == "late_delivery"]
        assert [e.attrs["seq"] for e in late if e.pid == process.pid][:1] == [1]
        assert stats["kernel.late_delivery"] == len(late)
