"""Bit-identical parity contract of the tracing-JIT tier.

With ``jit_enabled`` on or off, a workload's observables must not move
by one bit (docs/PERFORMANCE.md): return value, simulated nanoseconds,
every stat counter, and the processed-DES-event count.  The matrix here
covers both interpreter styles (host cores and the NxP), the all-slow
reference config, hosted mode, and an armed-but-quiet fault plan (the
hardened protocol paths active underneath compiled traces).

The JIT's own telemetry lives in the stat registry's parity-exempt
observed tier (``FlickMachine.jit_stats`` sums it), so the parity-pinned
snapshot cannot see whether the tier ran — one test pins that
separation too.
"""

import pytest

from repro.core.config import FlickConfig
from repro.core.hosted import HostedMachine, HostedProgram
from repro.core.machine import FlickMachine
from repro.sim.faults import FaultPlan, FaultRule

from .microloops import COMPUTE_LOOP, NULL_CALL_LOOP, NXP_LOOP, slow_config
from .pooled_processes import ADDEND, LOOPS, pooled_machine, run_interleaved, serve

#: Armed but quiet: activates every hardened path, never fires
#: (tests/core/test_fault_parity.py).
QUIET_PLAN = FaultPlan(
    rules=(FaultRule("dma_drop", after_ns=1e18, count=None),), seed=5, name="quiet"
)

JIT_ON = FlickConfig()
JIT_OFF = FlickConfig(jit_enabled=False)


def _nxp_tier(machine):
    """Device 0's NxP-core ``jit.*`` counters from the observed tier,
    keyed without the core scope."""
    prefix = f"{machine.devices[0].platform.cpu.name}.jit."
    return {
        key[len(prefix):]: value
        for key, value in machine.stats.observed_snapshot().items()
        if key.startswith(prefix)
    }


def _run(source, args, cfg):
    machine = FlickMachine(cfg)
    outcome = machine.run_program(source, args=args)
    probe = {
        "retval": outcome.retval,
        "sim_ns": outcome.sim_time_ns,
        "stats": outcome.stats,
        "events": machine.sim.events_processed,
    }
    return machine, probe


class TestInterpretedParity:
    """Host-core and NxP loops, JIT on vs off vs everything-off."""

    def test_compute_loop(self):
        on_machine, on = _run(COMPUTE_LOOP, [400], JIT_ON)
        _, off = _run(COMPUTE_LOOP, [400], JIT_OFF)
        assert on == off
        # The contract is only meaningful if traces actually ran.
        stats = on_machine.jit_stats()
        assert stats["jit.compiled_blocks"] > 0
        assert stats["jit.block_inst_total"] > 0

    def test_null_call_loop(self):
        on_machine, on = _run(NULL_CALL_LOOP, [60], JIT_ON)
        _, off = _run(NULL_CALL_LOOP, [60], JIT_OFF)
        assert on == off
        assert on_machine.jit_stats()["jit.compiled_blocks"] > 0

    def test_nxp_loop(self):
        on_machine, on = _run(NXP_LOOP, [150], JIT_ON)
        _, off = _run(NXP_LOOP, [150], JIT_OFF)
        assert on == off
        # The hot loop lives on the NxP core: its engine, not the host's,
        # must have compiled and executed the trace.
        assert on_machine.devices[0].platform.cpu._jit is not None
        tier = _nxp_tier(on_machine)
        assert tier["compiled_blocks"] > 0
        assert tier["block_exec_total"] > 0

    def test_block_entry_missing_from_itlb(self):
        # A loop body longer than a page, on a one-entry I-TLB: every
        # backedge re-enters the block with its entry page evicted.  The
        # block declines at once, and that step interprets the entry
        # instruction (filling the TLB) instead of re-entering forever.
        # Pooled processes hit the same case: their blocks outlive the
        # TLB flush of every address-space switch.
        body = " ".join(f"acc = acc + {k};" for k in range(1, 601))
        source = f"""
@nxp func work(n) {{
    var acc = 0;
    var i = 0;
    while (i < n) {{ {body} i = i + 1; }}
    return acc;
}}
func main(n) {{ return work(n); }}
"""
        cfg = FlickConfig(tlb_entries=1, jit_hot_threshold=2)
        on_machine, on = _run(source, [5], cfg)
        _, off = _run(source, [5], cfg.with_overrides(jit_enabled=False))
        assert on == off
        assert _nxp_tier(on_machine)["bailouts.itlb"] > 0

    def test_against_all_slow(self):
        _, on = _run(COMPUTE_LOOP, [200], JIT_ON)
        _, slow = _run(COMPUTE_LOOP, [200], slow_config())
        assert on == slow

    def test_jit_telemetry_stays_out_of_stats(self):
        machine, probe = _run(COMPUTE_LOOP, [200], JIT_ON)
        assert not any(key.startswith("jit.") for key in probe["stats"])
        assert machine.jit_stats()["jit.compiled_blocks"] > 0


class TestArmedQuietPlanParity:
    """Hardened migration paths active under compiled traces.

    Both sides arm the same plan, so watchdog events exist on both and
    even the event count stays pinned.
    """

    def test_null_call_loop_armed(self):
        on_cfg = QUIET_PLAN.apply(JIT_ON)
        off_cfg = QUIET_PLAN.apply(JIT_OFF)
        on_machine, on = _run(NULL_CALL_LOOP, [40], on_cfg)
        _, off = _run(NULL_CALL_LOOP, [40], off_cfg)
        assert on == off
        assert on_machine.hardened
        assert on_machine.jit_stats()["jit.compiled_blocks"] > 0

    def test_nxp_loop_armed(self):
        on_machine, on = _run(NXP_LOOP, [120], QUIET_PLAN.apply(JIT_ON))
        _, off = _run(NXP_LOOP, [120], QUIET_PLAN.apply(JIT_OFF))
        assert on == off
        assert _nxp_tier(on_machine)["compiled_blocks"] > 0


class TestPooledProcesses:
    """The NxP engine keeps superblocks per address space: reused
    processes interleaving on the NxP compile their loop once each, and
    a code change in one drops only that one's blocks."""

    @pytest.mark.parametrize("nxp_count", [1, 2])
    def test_interleaved_processes(self, nxp_count):
        on_cfg = FlickConfig(nxp_count=nxp_count)
        off = run_interleaved(FlickConfig(nxp_count=nxp_count, jit_enabled=False), patch_last=True)
        assert run_interleaved(on_cfg, patch_last=True) == off
        # Without the patch, nothing ever invalidates: each device
        # compiles each process's loop at most once, however many
        # residencies interleave.
        machine, a, b = pooled_machine(on_cfg)
        for _ in range(3):
            for process in (a, b):
                assert serve(machine, process) == LOOPS * ADDEND
        stats = machine.jit_stats()
        assert machine.stats.get("nxp.address_space_switch") >= 5
        assert 2 <= stats["jit.compiled_blocks"] <= 2 * nxp_count
        assert stats["jit.block_exec_total"] > stats["jit.compiled_blocks"]
        assert stats["jit.invalidations"] == 0

    def test_code_change_drops_only_that_process_blocks(self):
        machine, a, b = pooled_machine(JIT_ON)
        for process in (a, b):
            serve(machine, process)
        engine = machine.devices[0].platform.cpu._jit
        _, b_blocks, _ = engine._spaces[b.page_tables]
        b_before = dict(b_blocks)
        compiled = _nxp_tier(machine)["compiled_blocks"]
        assert b_before and compiled == 2
        # NISA text is NX already: only a's code generation moves.
        a.page_tables.set_nx(a.symbols["work"], True)
        assert serve(machine, b) == LOOPS * ADDEND
        assert b_blocks == b_before and _nxp_tier(machine)["compiled_blocks"] == compiled
        assert serve(machine, a) == LOOPS * ADDEND
        tier = _nxp_tier(machine)
        assert {k: v for k, v in tier.items() if k.startswith("bailouts.")} == {
            "bailouts.codegen": 1
        }
        _, a_blocks, _ = engine._spaces[a.page_tables]
        (block,) = a_blocks.values()
        assert block.gen == a.page_tables.code_generation
        assert tier["compiled_blocks"] == compiled + 1
        assert b_blocks == b_before


def _hosted_program():
    prog = HostedProgram()

    @prog.nxp()
    def accel(ctx, x):
        return x * 3 + 1
        yield

    @prog.host()
    def main(ctx, n):
        total = 0
        for i in range(n):
            total += yield from ctx.call("accel", total + i)
        return total

    return prog


class TestHostedParity:
    """Hosted mode has no interpreter loop for the tier to enter; the
    toggle must still be a strict no-op on every observable."""

    def _run(self, cfg):
        hosted = HostedMachine(_hosted_program(), cfg=cfg)
        out = hosted.run("main", [5])
        return {
            "retval": out.retval,
            "sim_ns": out.sim_time_ns,
            "stats": out.stats,
            "events": hosted.sim.events_processed,
        }

    def test_hosted_toggle_is_invisible(self):
        assert self._run(JIT_ON) == self._run(JIT_OFF)
