"""Superblock lifecycle: hot detection, compilation, invalidation.

Complements tests/core/test_jit_parity.py (the bit-parity matrix) with
white-box checks of the engine itself — when traces appear, how large
they may grow, and that a code-generation move (NX flip, new mapping,
store into registered code) always drops them before another compiled
instruction can run.  The hypothesis test at the bottom fuzzes loop
bodies *and* a mid-run generation bump with zero semantic effect: the
JIT may recompile as often as it likes, but every observable must stay
bit-identical to the interpreter.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.isa.jit as jit_module
from repro.isa.base import IllegalInstruction
from repro.core.config import FlickConfig
from repro.core.machine import FlickMachine
from repro.isa.interpreter import CostModel, Interpreter
from repro.sim import Simulator

from ..core.microloops import COMPUTE_LOOP
from .conftest import FlatPort


def _host_engine(machine):
    return machine.threads[0].cpu._jit


def _host_tier(machine):
    """The first host core's ``jit.*`` counters from the observed tier,
    keyed without the core scope."""
    prefix = f"{machine.threads[0].cpu.name}.jit."
    return {
        key[len(prefix):]: value
        for key, value in machine.stats.observed_snapshot().items()
        if key.startswith(prefix)
    }


def _run(source, args, cfg):
    machine = FlickMachine(cfg)
    outcome = machine.run_program(source, args=args)
    return machine, {
        "retval": outcome.retval,
        "sim_ns": outcome.sim_time_ns,
        "stats": outcome.stats,
        "events": machine.sim.events_processed,
    }


class TestHotDetection:
    def test_cold_below_threshold(self):
        machine, _ = _run(COMPUTE_LOOP, [100], FlickConfig(jit_hot_threshold=10**9))
        assert machine.jit_stats()["jit.compiled_blocks"] == 0

    def test_hot_loop_compiles_once(self):
        machine, _ = _run(COMPUTE_LOOP, [100], FlickConfig(jit_hot_threshold=5))
        engine = _host_engine(machine)
        tier = _host_tier(machine)
        assert tier["compiled_blocks"] == 1
        assert tier["block_exec_total"] >= 1
        (block,) = engine._blocks.values()
        assert block.loop
        assert block.gen is not None

    def test_threshold_counts_backedges(self):
        # n iterations produce ~n backedges; a threshold above that
        # never compiles, one below it does.  Pins that hotness is
        # per-target backedge counting, not call or instruction counts.
        machine, _ = _run(COMPUTE_LOOP, [30], FlickConfig(jit_hot_threshold=29))
        assert machine.jit_stats()["jit.compiled_blocks"] == 1
        machine, _ = _run(COMPUTE_LOOP, [30], FlickConfig(jit_hot_threshold=31))
        assert machine.jit_stats()["jit.compiled_blocks"] == 0


class TestSuperblockShape:
    def test_max_superblock_bounds_trace(self):
        cfg = FlickConfig(jit_max_superblock=4)
        machine, probe = _run(COMPUTE_LOOP, [120], cfg)
        engine = _host_engine(machine)
        assert engine._blocks  # short traces still compile...
        assert all(len(b.ops) <= 4 for b in engine._blocks.values())
        _, off = _run(COMPUTE_LOOP, [120], FlickConfig(jit_enabled=False))
        assert probe == off  # ...and stay bit-exact

    def test_unsupported_port_disables_tier(self):
        # The tests' FlatPort has neither the host translation-cache
        # contract nor the NxP TLB pipeline: the interpreter must fall
        # back to running without an engine rather than guessing.
        sim = Simulator()
        cpu = Interpreter("hisa", sim, FlatPort(), CostModel(1.0, 1.0), jit=True)
        assert cpu._jit is None


class TestInvalidation:
    def test_decode_cache_flush_drops_blocks(self):
        machine, _ = _run(COMPUTE_LOOP, [100], FlickConfig())
        engine = _host_engine(machine)
        assert engine._blocks
        machine.threads[0].cpu.invalidate_decode_cache()
        assert not engine._blocks
        tier = _host_tier(machine)
        assert tier["invalidations"] == 1
        # An address-space switch is routine, not a bailout.
        assert "bailouts.switch" not in tier

    def test_generation_bump_mid_run_invalidates(self):
        # Run the hot loop, then — from a concurrent simulated process —
        # register a new executable range.  That bumps code_generation
        # with zero semantic effect; every compiled block must be
        # dropped and re-proven before another compiled instruction
        # runs, and the result must still match the interpreter.
        def run(cfg, poke_ns):
            machine = FlickMachine(cfg)
            exe = machine.compile(COMPUTE_LOOP)
            process = machine.load(exe)
            thread = machine.spawn(process, args=[400])

            def poker():
                yield machine.sim.timeout(poke_ns)
                process.page_tables.note_exec_range(0x7000_0000, 0)

            machine.sim.spawn(poker(), name="poker")
            machine.run()
            return machine, thread.result, thread.finished_at

        machine, retval, finished = run(FlickConfig(), poke_ns=5_000.0)
        tier = _host_tier(machine)
        assert tier["compiled_blocks"] >= 2  # recompiled after the drop
        assert tier["invalidations"] >= 1
        assert tier.get("bailouts.codegen", 0) >= 1
        off_machine, off_retval, off_finished = run(
            FlickConfig(jit_enabled=False), poke_ns=5_000.0
        )
        assert (retval, finished) == (off_retval, off_finished)

    def test_stale_block_never_survives_bump(self):
        machine, _ = _run(COMPUTE_LOOP, [100], FlickConfig())
        engine = _host_engine(machine)
        (block,) = engine._blocks.values()
        tables = machine.threads[0].cpu.port.tables
        tables.note_exec_range(0x7000_0000, 0)
        # The entry-point generation check is what step() performs
        # before yielding to a block; a stale block must fail it.
        assert block.gen != machine.threads[0].cpu.port.code_generation


class TestDecodeBailouts:
    """Undecodable bytes are a counted bailout; decoder bugs propagate.

    ``_decode_at`` may legitimately hit bytes it cannot decode (the
    profile steering the JIT at data); that must refuse compilation and
    count a ``decode_error`` bailout rather than crash the tier.  But
    the guard is narrow by design: an exception that is *not* an
    architectural decode fault is an interpreter bug and must escape.
    """

    def _hot_engine(self):
        machine, _ = _run(COMPUTE_LOOP, [100], FlickConfig(jit_hot_threshold=5))
        engine = _host_engine(machine)
        (entry,) = list(engine._blocks)
        return machine, engine, entry

    def test_undecodable_bytes_bail_with_sidecar(self, monkeypatch):
        machine, engine, pc = self._hot_engine()

        def refuse(raw, at):
            raise IllegalInstruction(at, raw[0])

        monkeypatch.setattr(jit_module.hisa, "decode", refuse)
        assert engine._decode_at(pc) is None
        assert _host_tier(machine).get("bailouts.decode_error") == 1
        assert machine.jit_stats()["jit.bailouts.decode_error"] == 1

    def test_decoder_bugs_propagate(self, monkeypatch):
        machine, engine, pc = self._hot_engine()

        def crash(raw, at):
            raise TypeError("decoder bug")

        monkeypatch.setattr(jit_module.hisa, "decode", crash)
        with pytest.raises(TypeError):
            engine._decode_at(pc)
        assert "bailouts.decode_error" not in _host_tier(machine)


_OPS = st.sampled_from(["+", "-", "*"])


@settings(max_examples=15, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=7),
    b=st.integers(min_value=0, max_value=7),
    op1=_OPS,
    op2=_OPS,
    n=st.integers(min_value=0, max_value=90),
    threshold=st.integers(min_value=1, max_value=40),
    max_superblock=st.integers(min_value=2, max_value=96),
    poke=st.one_of(st.none(), st.floats(min_value=1_000.0, max_value=40_000.0)),
)
def test_randomized_loops_stay_bit_identical(
    a, b, op1, op2, n, threshold, max_superblock, poke
):
    """Property: for randomized loop bodies, iteration counts, JIT
    tunings and an optional mid-run code-generation bump, the tier never
    executes a stale trace and never perturbs any observable."""
    source = f"""
func main(n) {{
    var acc = 1;
    var i = 0;
    while (i < n) {{
        acc = acc {op1} i {op2} {a};
        acc = acc + {b};
        i = i + 1;
    }}
    return acc;
}}
"""

    def run(cfg):
        machine = FlickMachine(cfg)
        exe = machine.compile(source)
        process = machine.load(exe)
        thread = machine.spawn(process, args=[n])
        if poke is not None:

            def poker():
                yield machine.sim.timeout(poke)
                process.page_tables.note_exec_range(0x7000_0000, 0)

            machine.sim.spawn(poker(), name="poker")
        machine.run()
        return (
            thread.result,
            thread.finished_at,
            machine.stats.snapshot(),
            machine.sim.events_processed,
        )

    jit_cfg = FlickConfig(
        jit_hot_threshold=threshold, jit_max_superblock=max_superblock
    )
    assert run(jit_cfg) == run(FlickConfig(jit_enabled=False))


#: The NxP loop body's statements: a table load, a table store, stack-only
#: arithmetic and an ``if``, drawn in any order.
_NXP_BODY = (
    "acc = acc + load(table + (i % 8) * 8);",
    "store(table + ((i + 3) % 8) * 8, acc + i);",
    "acc = acc * 3 + i;",
    "if (acc % 3 == 1) { acc = acc + 7; }",
)
#: Stack-only statements of different instruction counts (2, 8 and 14
#: NISA instructions), so loop closes and guards land at different
#: offsets within an I-cache line.
_NXP_EXTRA = ("acc = i;", "acc = acc + 1;", "acc = acc - i * 2;")


@st.composite
def _nxp_bodies(draw):
    extras = draw(st.lists(st.sampled_from(_NXP_EXTRA), max_size=4))
    return draw(st.permutations(list(_NXP_BODY) + extras))


def _tlb_state(tlb):
    return sorted(
        (e.vbase, e.page_size, e.pbase, e.writable, e.nx, e.lru_stamp)
        for _shift, pages in tlb._resident
        for e in pages.values()
    )


#: Pinned draws.  With a one-entry D-TLB every switch between the stack
#: page and the table page is a slow-path walk that evicts the other
#: page, so a D-TLB run kept across one shows; the extra 2-instruction
#: statement puts the loop close mid-line, so a fetch run dropped there
#: shows; with four entries both pages stay resident and the data runs
#: alternate, so a run committed to the wrong entry shows in the stamps.
_PINNED_BODY = list(_NXP_BODY) + ["acc = i;"]


@settings(max_examples=25, deadline=None)
@example(_PINNED_BODY, 20, 1, 256, 2, 256)
@example(_PINNED_BODY, 20, 4, 256, 2, 256)
@given(
    body=_nxp_bodies(),
    n=st.integers(min_value=0, max_value=40),
    tlb_entries=st.integers(min_value=1, max_value=4),
    icache_lines=st.integers(min_value=1, max_value=64).map(lambda k: 4 * k),
    threshold=st.integers(min_value=1, max_value=30),
    max_superblock=st.integers(min_value=2, max_value=256),
)
def test_randomized_nxp_loops_keep_tlb_and_cache_state(
    body, n, tlb_entries, icache_lines, threshold, max_superblock
):
    """Property: an ``@nxp`` loop over an ``nxp_alloc``'d table leaves
    the NxP's I-TLB, D-TLB, I-cache and D-cache exactly as the
    interpreter does, resident entries and lines down to their LRU
    stamps, besides the usual observables.  The superblock executor
    books fetches per I-cache line run and D-TLB hits per page run and
    commits each run later; a run committed to the wrong entry, dropped,
    or kept across a slow-path access changes these stamps even where
    the counters still agree."""
    statements = "\n        ".join(body)
    source = f"""
@nxp func nxp_alloc(n) {{ return alloc(n); }}

@nxp func work(table, n) {{
    var acc = 1;
    var i = 0;
    while (i < n) {{
        {statements}
        i = i + 1;
    }}
    return acc;
}}

func main(n) {{
    var table = nxp_alloc(64);
    return work(table, n);
}}
"""

    def run(cfg):
        machine = FlickMachine(cfg)
        outcome = machine.run_program(source, args=[n])
        port = machine.devices[0].platform.port
        return (
            outcome.retval,
            outcome.sim_time_ns,
            outcome.stats,
            machine.sim.events_processed,
            _tlb_state(port.itlb),
            _tlb_state(port.dtlb),
            dict(port.icache._stamps),
            dict(port.dcache._stamps),
        )

    cfg = FlickConfig(
        tlb_entries=tlb_entries,
        nxp_icache_lines=icache_lines,
        jit_hot_threshold=threshold,
        jit_max_superblock=max_superblock,
    )
    assert run(cfg) == run(cfg.with_overrides(jit_enabled=False))
