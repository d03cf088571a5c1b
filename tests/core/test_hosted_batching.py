"""Hosted-mode op batching: bit-identical parity and exact drain.

The contract (docs/PERFORMANCE.md): with ``hosted_batch_size`` > 1, runs
of same-cost loads/stores/computes collapse into consolidated timed
yields.  Return values, simulated time and every stat counter must be
**bit-identical** to the unbatched per-op reference path; only the DES
event count (one timed event per consolidated yield, i.e. the
event-count invariance holds *per batch*) may differ.
"""

from dataclasses import replace

import pytest

from repro.core.config import DEFAULT_CONFIG
from repro.core.hosted import HostedContext, HostedMachine, HostedProgram
from repro.workloads.bfs import run_bfs
from repro.workloads.graphs import social_graph
from repro.workloads.kv_filter import run_kv_filter
from repro.workloads.pointer_chase import run_pointer_chase

BATCH_OFF = replace(DEFAULT_CONFIG, hosted_batch_size=1)


def _null_call_program():
    prog = HostedProgram()

    @prog.nxp()
    def remote_nop(ctx):
        return 0
        yield

    @prog.host()
    def main(ctx, n):
        for _ in range(n):
            yield from ctx.call("remote_nop")
        return 0

    return prog


class TestBitIdenticalParity:
    def test_null_call_parity(self):
        runs = {}
        for label, cfg in (("on", DEFAULT_CONFIG), ("off", BATCH_OFF)):
            out = HostedMachine(_null_call_program(), cfg=cfg).run("main", [5])
            runs[label] = (out.retval, out.sim_time_ns, out.stats)
        assert runs["on"] == runs["off"]

    @pytest.mark.parametrize("mode", ["flick", "host"])
    def test_pointer_chase_parity(self, mode):
        on = run_pointer_chase(300, calls=2, mode=mode, cfg=DEFAULT_CONFIG)
        off = run_pointer_chase(300, calls=2, mode=mode, cfg=BATCH_OFF)
        assert on.avg_call_ns == off.avg_call_ns  # exact, not approx

    @pytest.mark.parametrize("mode", ["flick", "host"])
    def test_kv_filter_parity(self, mode):
        on = run_kv_filter(600, modulus=7, residue=2, mode=mode, cfg=DEFAULT_CONFIG)
        off = run_kv_filter(600, modulus=7, residue=2, mode=mode, cfg=BATCH_OFF)
        assert (on.matches, on.sim_time_ns) == (off.matches, off.sim_time_ns)

    @pytest.mark.parametrize("mode", ["flick", "host"])
    def test_bfs_parity(self, mode):
        graph = social_graph(vertices=60, edges=240, seed=3)
        on = run_bfs(graph, mode=mode, cfg=DEFAULT_CONFIG)
        off = run_bfs(graph, mode=mode, cfg=BATCH_OFF)
        assert (on.discovered, on.sim_time_ns) == (off.discovered, off.sim_time_ns)

    def test_pointer_chase_stats_parity(self):
        """Not just the clock: every stat counter (TLB hits, loads,
        migration counts...) matches across the toggle."""
        from repro.workloads.pointer_chase import _make_program, build_chain

        snaps = {}
        for label, cfg in (("on", DEFAULT_CONFIG), ("off", BATCH_OFF)):
            hosted = HostedMachine(_make_program(), cfg=cfg)
            head = build_chain(hosted, 400)
            out = hosted.run("main", [head, 400, 2, 1, 0.0])
            snaps[label] = (out.retval, out.sim_time_ns, out.stats)
        assert snaps["on"] == snaps["off"]

    def test_batching_reduces_event_count(self):
        """The one permitted difference: consolidated yields mean fewer
        DES events (the per-batch event-count contract)."""
        from repro.workloads.pointer_chase import _make_program, build_chain

        events = {}
        for label, cfg in (("on", DEFAULT_CONFIG), ("off", BATCH_OFF)):
            hosted = HostedMachine(_make_program(), cfg=cfg)
            head = build_chain(hosted, 2000)
            hosted.run("main", [head, 2000, 1, 1, 0.0])
            events[label] = hosted.sim.events_processed
        assert events["on"] < events["off"]


class TestExactDrain:
    def _machine(self, cfg=DEFAULT_CONFIG):
        prog = HostedProgram()

        @prog.host()
        def main(ctx):
            return 0
            yield

        return HostedMachine(prog, cfg=cfg)

    def test_flush_drains_exactly(self):
        hosted = self._machine()
        ctx = HostedContext(hosted, "host")
        # Awkward float charges that would leave residue under float
        # accumulation (0.1 is not representable in binary).
        for _ in range(1000):
            ctx.charge(0.1)
        assert ctx.pending_ns > 0
        hosted.sim.run_process(ctx.flush())
        assert ctx.pending_ns == 0.0
        assert ctx._charged_fs == ctx._flushed_fs  # no residue, exactly

    def test_repeated_partial_flushes_hit_one_absolute_target(self):
        """Chunking the same total into different flush patterns lands
        the clock on the same absolute instant (anchored target)."""
        finals = []
        for chunks in ([300] * 10, [1000, 2000], [3000]):
            hosted = self._machine()
            ctx = HostedContext(hosted, "host")
            for ns in chunks:
                ctx.charge(ns * 0.1)
                hosted.sim.run_process(ctx.flush())
            finals.append(hosted.sim.now)
        assert finals[0] == finals[1] == finals[2]

    def test_charge_run_equals_individual_charges(self):
        hosted = self._machine()
        a = HostedContext(hosted, "host")
        b = HostedContext(hosted, "host")
        for _ in range(777):
            a.charge(0.3)
        b.charge_run(0.3, 777)
        assert a._charged_fs == b._charged_fs

    def test_compute_run_equals_individual_computes(self):
        hosted = self._machine()
        a = HostedContext(hosted, "nxp")
        b = HostedContext(hosted, "nxp")
        for _ in range(123):
            a.compute(7)
        b.compute_run(7, 123)
        assert a._charged_fs == b._charged_fs

    def test_body_returning_mid_charge_does_not_drop_time(self):
        """A body that returns with pending (unflushed) charge still
        advances the clock by that charge: run_body's trailing flush."""
        prog = HostedProgram()

        @prog.host()
        def main(ctx):
            ctx.charge(12345.5)
            return 7  # returns without ever flushing
            yield

        out = HostedMachine(prog).run("main", [])
        assert out.retval == 7
        assert out.sim_time_ns == pytest.approx(12345.5, abs=1e-3)

    def test_call_carries_pending_charge(self):
        """Pending time charged before a call is flushed by the call
        (not dropped, not double-counted)."""
        prog = HostedProgram()

        @prog.host()
        def helper(ctx):
            return 0
            yield

        @prog.host()
        def main(ctx):
            ctx.charge(5000.25)
            yield from ctx.call("helper")
            return 0

        base_prog = HostedProgram()

        @base_prog.host()
        def helper2(ctx):
            return 0
            yield

        @base_prog.host()
        def main2(ctx):
            yield from ctx.call("helper2")
            return 0

        base_prog.functions["main"] = base_prog.functions.pop("main2")
        with_charge = HostedMachine(prog).run("main", [])
        without = HostedMachine(base_prog).run("main", [])
        assert with_charge.sim_time_ns - without.sim_time_ns == pytest.approx(
            5000.25, abs=1e-3
        )


class TestBatchKnobs:
    def test_toggle_off_gives_unit_runs(self):
        hosted = self._machine_with(replace(DEFAULT_CONFIG, hosted_batch_size=1))
        ctx = HostedContext(hosted, "host")
        assert ctx.batch_ops == 1

    def test_size_knob_respected(self):
        hosted = self._machine_with(replace(DEFAULT_CONFIG, hosted_batch_size=32))
        ctx = HostedContext(hosted, "host")
        assert ctx.batch_ops == 32

    def test_default_on(self):
        assert DEFAULT_CONFIG.hosted_batch_size > 1

    def test_small_batch_size_still_parity(self):
        tiny = replace(DEFAULT_CONFIG, hosted_batch_size=3)
        on = run_pointer_chase(100, calls=1, mode="flick", cfg=tiny)
        off = run_pointer_chase(100, calls=1, mode="flick", cfg=BATCH_OFF)
        assert on.avg_call_ns == off.avg_call_ns

    def _machine_with(self, cfg):
        prog = HostedProgram()

        @prog.host()
        def main(ctx):
            return 0
            yield

        return HostedMachine(prog, cfg=cfg)
