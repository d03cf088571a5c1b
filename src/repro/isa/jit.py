"""Tracing-JIT tier: hot-superblock compilation for the interpreters.

The interpreters in :mod:`repro.isa.interpreter` pay generator dispatch,
decode-cache probing and one DES event per timed pause for *every*
instruction.  That is the right shape for cold code, faults and the
migration protocol, but it caps the simulator at a few hundred thousand
instructions per wall second — far below what fleet- and workload-scale
experiments need.

This module adds a third execution tier above the decode cache:

1. **Hot detection** — every backward control transfer bumps a counter
   keyed by the branch *target* (the natural loop header).  When a
   target crosses ``jit_hot_threshold`` it is compiled.
2. **Superblock compilation** — starting at the hot entry PC, code is
   decoded *statically* through the page tables (no simulated time, no
   stats) into a flat micro-op list: closures over pre-decoded operands
   for ALU/branch work, and inline fast-route handlers for memory
   accesses (host loads, stores and PUSH/POP stack traffic; NxP
   BRAM/local-window loads and stores).  A trace is one-entry/multi-exit:
   conditional branches become guards whose taken edge restarts the
   loop (target == entry), jumps *within* the decoded region (the
   boolean-materialization pattern the compiler emits), or exits with a
   precise PC.  Compilation stops at anything the compiled form cannot
   express — calls/returns/indirect jumps, ECALL/HALT, NX-sense
   mismatches, unmapped pages, ``jit_max_superblock``.
3. **Execution** — one executor for both cores replays the
   interpreter's *exact* sequence of timed pauses arithmetically on a
   local accumulator (bit-identical float adds, in order), flushing
   once per loop iteration / region exit and crediting the collapsed
   pauses to :meth:`Simulator.credit_events`.  A flush ends in place
   through :meth:`Simulator.advance_to` when nothing else is due first,
   and yields one exact ``sleep_until`` otherwise.
   Only the I-fetch differs per core (see :meth:`JitEngine.execute`).
   Stat counters are bumped through the same Counter objects the slow
   path uses.  Anything unexpected — page fault, write-protect,
   IsaFault, TLB miss, I-cache miss, cross-PCIe route, code-generation
   change — either runs through the port's own engine path (slow memory
   routes) or bails out to the interpreter at a precise architectural
   state (``itp.pc`` at the faulting/next instruction, time flushed,
   counters settled).

Invalidation reuses the decoded-instruction-cache contract: every block
records the port ``code_generation`` it was compiled under, and the
blocks of an address space are dropped wholesale when its generation
moves (mapping changes, NX flips, stores into registered executable
ranges).  A store *inside* a trace re-checks the generation immediately
so self-modifying code never runs one stale instruction.  A host core
runs one address space, so its engine holds one block set; the NxP core
runs them all, so its engine keeps one set per address space
(:meth:`JitEngine.switch_space`) and a switch drops nothing.

The parity contract (tests/core/test_jit_parity.py): with the tier on
or off, a workload's return value, simulated nanoseconds, stat counters
and processed-DES-event count are bit-identical, in interpreted and
hosted modes, with and without an armed fault plan.

Known bound: a superblock applies architectural state eagerly within
one flush window (at most one loop iteration / ``jit_max_superblock``
instructions).  A *concurrent* simulated process that mutates code
mid-window is observed at the next flush boundary — the same guarantee
class as real hardware's cross-modifying-code rules.  Nothing in the
machine mutates code asynchronously today (code changes come from the
executing thread itself or happen at load time).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.isa import hisa, nisa
from repro.isa.base import MASK64, IllegalInstruction, MisalignedFetch, Op, to_signed
from repro.memory.paging import PageFault

__all__ = ["JitEngine", "Superblock", "BAILOUT_REASONS"]

# Micro-op kinds (tuple slot 0).  Host PUSH compiles to K_HSTORE with
# an address function that moves SP first; POP is a load that then
# bumps SP.
K_SIMPLE = 0  # (K, pc, cost_ns, fn | None)
K_GUARD = 1  # (K, pc, cost_ns, cond_fn, taken_pc, taken_idx)
K_LOOP = 2  # (K, pc, cost_ns, None) — close the loop back to entry
K_HLOAD = 3  # (K, pc, cost_ns, addr_fn, size, rd, next_pc)
K_HSTORE = 4  # (K, pc, cost_ns, addr_fn, size, value_fn, next_pc)
K_POP = 5  # (K, pc, cost_ns, addr_fn, 8, rd, next_pc)
K_NLOAD = 6  # (K, pc, cost_ns, addr_fn, size, rd, next_pc)
K_NSTORE = 7  # (K, pc, cost_ns, addr_fn, size, value_fn, next_pc)

# K_GUARD taken_idx sentinels (taken_idx >= 0 is an intra-trace index).
LOOP_RESTART = -1
GUARD_EXIT = -2

#: Every reason :class:`JitEngine` counts under ``jit.bailouts.*``.
BAILOUT_REASONS = (
    "fault",        # page fault / IsaFault raised inside the block
    "codegen",      # code generation moved under a running/entered block
    "self_modify",  # a store inside the block hit registered code
    "itlb",         # NxP I-TLB probe missed (or NX sense flipped)
    "decode_error",  # bytes on an executable page failed to decode
)

_SIZED_LOADS = {Op.LD: 8, Op.LW: 4, Op.LBU: 1}
_SIZED_STORES = {Op.ST: 8, Op.SW: 4, Op.SB: 1}
_BRANCH_OPS = frozenset((Op.BEQ, Op.BNE, Op.BLT, Op.BGE))
#: Ops that always terminate a trace: control leaves through machinery
#: the compiled form cannot replay (calls/returns/indirect jumps, env
#: calls, halts).
_TERMINATORS = frozenset((Op.CALL, Op.CALLR, Op.RET, Op.JALR, Op.ECALL, Op.HALT))


class Superblock:
    """One compiled trace: a flat micro-op list with one entry."""

    __slots__ = ("entry", "gen", "ops", "exit_pc", "loop")

    def __init__(self, entry: int, gen: int, ops: List[tuple], exit_pc: int, loop: bool):
        self.entry = entry
        self.gen = gen
        self.ops = ops
        self.exit_pc = exit_pc  # pc when execution falls off the end
        self.loop = loop

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "loop" if self.loop else "line"
        return f"<Superblock {kind} entry={self.entry:#x} n={len(self.ops)} gen={self.gen}>"


class JitEngine:
    """One core's trace cache: hot detection, compilation, execution.

    Created by :class:`repro.isa.interpreter.Interpreter` when the tier
    is enabled and the memory port supports it (see
    :meth:`for_interpreter`).  Its ``jit.*`` counts live in the
    registry's observed tier, scoped by the core's name (e.g.
    ``nxp.core.jit.compiled_blocks``), so the parity-pinned snapshot
    never sees whether the tier ran.
    """

    def __init__(self, itp, style: str, hot_threshold: int, max_superblock: int, trace=None):
        self.itp = itp
        self.style = style  # "host" (hoisted free ifetch) | "nxp" (TLB replay)
        self.hot_threshold = max(1, int(hot_threshold))
        self.max_superblock = max(2, int(max_superblock))
        self.trace = trace
        # Hotness, compiled blocks and entries that failed to compile,
        # for the address space this core is running (see switch_space).
        self._counts: Dict[int, int] = {}
        self._blocks: Dict[int, Superblock] = {}
        self._cold: set = set()
        self._spaces: Dict[object, tuple] = {}
        stats = itp.stats
        core = itp.name
        self._c_compiled = stats.observed_counter("jit.compiled_blocks", core)
        self._c_exec = stats.observed_counter("jit.block_exec_total", core)
        self._c_inst = stats.observed_counter("jit.block_inst_total", core)
        self._c_sim_ns = stats.observed_counter("jit.block_sim_ns", core)
        self._c_sim_ns.value += 0.0  # a float sum of simulated ns, 0.0 while idle
        self._c_invalidations = stats.observed_counter("jit.invalidations", core)
        try:
            from repro.core.stubs import STUB_PCS

            self._stub_pcs = STUB_PCS
        except Exception:  # pragma: no cover - stubs always importable
            self._stub_pcs = frozenset()
        from repro.isa.interpreter import RUNTIME_RETURN_ADDR

        self._runtime_ret = RUNTIME_RETURN_ADDR

    # -- construction ------------------------------------------------------

    @staticmethod
    def for_interpreter(itp, hot_threshold: int, max_superblock: int, trace=None):
        """Build an engine for ``itp`` if its port supports the tier.

        Host-style ports (translation cache + synchronous physical
        memory, free I-fetch) run superblocks with the I-fetch hoisted;
        on the NxP port :meth:`execute` replays the I-TLB/I-cache per
        instruction.  Ports without either contract (e.g. the tests'
        FlatPort) run without a JIT.
        """
        port = itp.port
        if hasattr(port, "tcache") and hasattr(port, "phys"):
            return JitEngine(itp, "host", hot_threshold, max_superblock, trace)
        if hasattr(port, "itlb") and hasattr(port, "icache"):
            return JitEngine(itp, "nxp", hot_threshold, max_superblock, trace)
        return None

    # -- hot detection -----------------------------------------------------

    def note_backedge(self, target: int) -> None:
        """Record one backward control transfer to ``target``; compile
        the superblock once the target crosses the hot threshold."""
        count = self._counts.get(target, 0) + 1
        self._counts[target] = count
        if count >= self.hot_threshold and target not in self._blocks and target not in self._cold:
            self._try_compile(target)

    def lookup(self, pc: int) -> Optional[Superblock]:
        return self._blocks.get(pc)

    def switch_space(self, space) -> None:
        """Make ``space``'s hotness, blocks and cold set current.

        The NxP core runs every process's code: its engine keeps one set
        per address space (keyed by the page tables), so a process's
        superblocks survive the other processes' residencies and are
        dropped only when its own code generation moves.  Blocks stay
        per core because their closures bind this core's registers."""
        state = self._spaces.get(space)
        if state is None:
            state = self._spaces[space] = ({}, {}, set())
        self._counts, self._blocks, self._cold = state

    def invalidate(self, reason: str) -> None:
        """Drop every compiled block of the current address space (its
        code generation moved, or a manual ``flush``).  Hotness counters
        survive, so still-hot loops recompile on their next backedge."""
        if self._blocks or self._cold:
            self._blocks.clear()
            self._cold.clear()
            self._c_invalidations.value += 1
            if reason in BAILOUT_REASONS:
                self._note_bail(reason)
            if self.trace is not None:
                self.trace.record("jit_invalidate", reason=reason, cpu=self.itp.name)

    def _note_bail(self, reason: str) -> None:
        itp = self.itp
        itp.stats.observed_counter(f"jit.bailouts.{reason}", itp.name).value += 1

    # -- compilation -------------------------------------------------------

    def _code_bytes(self, pc: int, nbytes: int) -> Optional[bytes]:
        """Read instruction bytes through the page tables — no simulated
        time, no stats — checking each page's NX bit against the port's
        fetch sense.  None when any byte is unmapped or on the wrong side
        of the NX fence (the trace simply ends before it)."""
        port = self.itp.port
        if self.style == "host":
            tables = port.tables
        else:
            tables = port.tables_provider() if port.tables_provider is not None else None
        if tables is None:
            return None
        sense = port.exec_nx_sense
        out = b""
        addr = pc
        remaining = nbytes
        while remaining:
            try:
                tr = tables.translate(addr)
            except PageFault:
                return None
            if tr.nx != sense:
                return None
            take = min(remaining, 4096 - (addr & 4095))
            out += port.phys.read(tr.paddr, take)
            addr += take
            remaining -= take
        return out

    def _decode_at(self, pc: int):
        """Statically decode the instruction at ``pc`` → (inst, length),
        or None when it cannot be proven decodable (trace ends)."""
        if self.itp.isa == "nisa":
            if pc % nisa.INST_BYTES:
                return None
            raw = self._code_bytes(pc, nisa.INST_BYTES)
            if raw is None:
                return None
            try:
                return nisa.decode(raw, pc)
            except (IllegalInstruction, MisalignedFetch):
                # Undecodable bytes on an executable page: legitimately
                # refuse to compile, but count the bailout — a storm
                # of these means the profile is steering the JIT at data.
                # Anything else (a TypeError, an IndexError in decode)
                # is an interpreter bug and must propagate.
                self._note_bail("decode_error")
                return None
        head = self._code_bytes(pc, 1)
        if head is None:
            return None
        length = hisa._LEN_BY_OPCODE.get(head[0])
        if length is None:
            return None
        raw = head if length == 1 else self._code_bytes(pc, length)
        if raw is None:
            return None
        try:
            return hisa.decode(raw, pc)
        except (IllegalInstruction, MisalignedFetch):
            self._note_bail("decode_error")
            return None

    def _try_compile(self, entry: int) -> None:
        block = self._compile(entry)
        if block is None:
            self._cold.add(entry)
            return
        self._blocks[entry] = block
        self._c_compiled.value += 1
        if self.trace is not None:
            self.trace.record(
                "jit_compile",
                pc=entry,
                size=len(block.ops),
                loop=block.loop,
                cpu=self.itp.name,
            )

    def _compile(self, entry: int) -> Optional[Superblock]:
        itp = self.itp
        port = itp.port
        gen = port.code_generation
        if gen is None:
            return None
        cost_ns = itp.cost.cost_ns
        zero_reg = itp.abi.zero_reg
        host_mem = self.style == "host"
        load_kind, store_kind = (K_HLOAD, K_HSTORE) if host_mem else (K_NLOAD, K_NSTORE)

        ops: List[list] = []  # mutable while guard targets resolve
        index_of: Dict[int, int] = {}  # decoded pc -> op index
        guards: List[int] = []
        pc = entry
        loop = False
        exit_pc = entry  # overwritten on every real exit
        while True:
            if len(ops) >= self.max_superblock:
                exit_pc = pc
                break
            if ops and pc == entry:
                # Control falls through to the entry: close the loop
                # with a synthetic (free) restart marker.
                ops.append([K_LOOP, pc, 0.0, None])
                loop = True
                break
            if pc in index_of or pc in self._stub_pcs or pc == self._runtime_ret:
                exit_pc = pc
                break
            decoded = self._decode_at(pc)
            if decoded is None:
                exit_pc = pc
                break
            inst, length = decoded
            op = inst.op
            nxt = pc + length
            if op in _TERMINATORS or (op is Op.JAL and inst.rd != zero_reg):
                exit_pc = pc
                break
            cost = cost_ns(op)
            if op in _BRANCH_OPS or op is Op.JCC:
                guards.append(len(ops))
                index_of[pc] = len(ops)
                ops.append(
                    [K_GUARD, pc, cost, self._compile_cond(inst), nxt + inst.imm, GUARD_EXIT]
                )
                pc = nxt
                continue
            if op is Op.J or (op is Op.JAL and inst.rd == zero_reg):
                target = nxt + inst.imm
                if target == entry:
                    ops.append([K_LOOP, pc, cost, None])
                    loop = True
                    break
                if target in index_of or target in self._stub_pcs or target == self._runtime_ret:
                    exit_pc = pc  # let the interpreter take the jump
                    break
                # Collapse the jump: charge it here, keep decoding at
                # its target (the next list element *is* the target op,
                # so linear fall-through reproduces the transfer).
                index_of[pc] = len(ops)
                ops.append([K_SIMPLE, pc, cost, None])
                pc = target
                continue
            if op in _SIZED_LOADS or op in _SIZED_STORES or op is Op.PUSH or op is Op.POP:
                if not host_mem and (op is Op.PUSH or op is Op.POP):
                    # The NISA compiler spills through LD/ST, never
                    # PUSH/POP; no replay handler for them here.
                    exit_pc = pc
                    break
                index_of[pc] = len(ops)
                if op is Op.PUSH:
                    addr_fn = self._compile_stack_addr(True)
                    value_fn = self._compile_store_value(inst.rd, 8)
                    ops.append([K_HSTORE, pc, cost, addr_fn, 8, value_fn, nxt])
                elif op is Op.POP:
                    addr_fn = self._compile_stack_addr(False)
                    ops.append([K_POP, pc, cost, addr_fn, 8, inst.rd, nxt])
                elif op in _SIZED_LOADS:
                    addr_fn = self._compile_addr(inst)
                    ops.append([load_kind, pc, cost, addr_fn, _SIZED_LOADS[op], inst.rd, nxt])
                else:
                    size = _SIZED_STORES[op]
                    addr_fn = self._compile_addr(inst)
                    value_fn = self._compile_store_value(inst.rs2, size)
                    ops.append([store_kind, pc, cost, addr_fn, size, value_fn, nxt])
                pc = nxt
                continue
            fn = self._compile_sync(inst, pc)
            if fn is _UNSUPPORTED:
                exit_pc = pc
                break
            index_of[pc] = len(ops)
            ops.append([K_SIMPLE, pc, cost, fn])
            pc = nxt
        if len(ops) < 2:
            return None
        # Resolve guard taken-edges: loop restart, a *forward* jump into
        # the decoded region, or a precise exit.  (Backward intra-trace
        # targets other than the entry would form a second loop inside
        # the trace without a flush point — those exit instead.)
        for gi in guards:
            guard = ops[gi]
            target = guard[4]
            if target == entry:
                guard[5] = LOOP_RESTART
                loop = True
            else:
                ti = index_of.get(target)
                guard[5] = ti if ti is not None and ti > gi else GUARD_EXIT
        return Superblock(entry, gen, [tuple(o) for o in ops], exit_pc, loop)

    # -- operand / semantics closures --------------------------------------

    def _compile_cond(self, inst):
        itp = self.itp
        r = itp.regs.read
        op = inst.op
        if op is Op.JCC:
            cond = inst.cond
            return lambda: itp._cond(cond)
        rs1, rs2 = inst.rs1, inst.rs2
        if op is Op.BEQ:
            return lambda: r(rs1) == r(rs2)
        if op is Op.BNE:
            return lambda: r(rs1) != r(rs2)
        if op is Op.BLT:
            return lambda: to_signed(r(rs1)) < to_signed(r(rs2))
        return lambda: to_signed(r(rs1)) >= to_signed(r(rs2))  # BGE

    def _compile_addr(self, inst):
        r = self.itp.regs.read
        rs1 = inst.rs1
        imm = inst.imm or 0
        if imm:
            return lambda: (r(rs1) + imm) & MASK64
        return lambda: r(rs1) & MASK64

    def _compile_stack_addr(self, push: bool):
        """A PUSH/POP address: SP.  A push moves SP first, exactly as
        :meth:`Interpreter._execute` does, so a faulting push leaves SP
        decremented."""
        regs = self.itp.regs
        r = regs.read
        w = regs.write
        sp_reg = self.itp.abi.sp_reg
        if not push:
            return lambda: r(sp_reg)

        def push_addr():
            sp = (r(sp_reg) - 8) & MASK64
            w(sp_reg, sp)
            return sp

        return push_addr

    def _compile_store_value(self, reg: int, size: int):
        r = self.itp.regs.read
        mask = (1 << (8 * size)) - 1
        return lambda: r(reg) & mask

    def _compile_sync(self, inst, pc: int):
        """Closure with :meth:`Interpreter._execute_sync`'s exact
        semantics for one pre-decoded, PC-independent instruction."""
        itp = self.itp
        regs = itp.regs
        r = regs.read
        w = regs.write
        op = inst.op
        rd, rs1, rs2, imm = inst.rd, inst.rs1, inst.rs2, inst.imm
        hisa_mode = itp.isa == "hisa"

        if op is Op.ADDI:
            return lambda: w(rd, r(rs1) + imm)
        if op is Op.MOV:
            return lambda: w(rd, r(rs1))
        if op is Op.LI:
            value = imm & MASK64
            return lambda: w(rd, value)
        if op is Op.LIH:
            high = (imm & 0xFFFF_FFFF) << 32
            return lambda: w(rd, (r(rd) & 0xFFFF_FFFF) | high)
        if op is Op.NOP:
            return None
        if op is Op.CMP:
            if imm is not None:
                b = to_signed(imm)

                def fn():
                    a = to_signed(r(rd))
                    itp.zf = a == b
                    itp.sf_lt = a < b

            else:

                def fn():
                    a = to_signed(r(rd))
                    b = to_signed(r(rs1))
                    itp.zf = a == b
                    itp.sf_lt = a < b

            return fn
        if op in _ALU_FAST or op in _ALU_SLOW:
            if hisa_mode:
                if imm is not None:
                    b_const = imm & MASK64
                    if op in _ALU_FAST:
                        alu = _ALU_FAST[op]
                        return lambda: w(rd, alu(r(rd), b_const))
                    alu = itp._alu
                    return lambda: w(rd, alu(op, r(rd), b_const, pc))
                if op in _ALU_FAST:
                    alu = _ALU_FAST[op]
                    return lambda: w(rd, alu(r(rd), r(rs1)))
                alu = itp._alu
                return lambda: w(rd, alu(op, r(rd), r(rs1), pc))
            if op in _ALU_FAST:
                alu = _ALU_FAST[op]
                return lambda: w(rd, alu(r(rs1), r(rs2)))
            alu = itp._alu
            return lambda: w(rd, alu(op, r(rs1), r(rs2), pc))
        return _UNSUPPORTED

    # -- execution ---------------------------------------------------------

    def execute(self, block: Superblock):
        """Run one superblock (generator; yields at most a few
        consolidated pauses plus any slow-route port traffic).

        On the NxP each instruction first replays the I-fetch: the I-TLB
        and I-cache *mutate* on every access (LRU order, hit/miss/evict
        counters), so the replay calls the same objects the interpreter
        would — only the timed pauses are consolidated.  An I-TLB probe
        miss (or flipped NX sense) bails to the interpreter *before* any
        bookkeeping for the instruction, so the real lookup is counted
        exactly once.  The host I-fetch is hoisted: compilation validated
        every code page against the port's NX sense, ``code_generation``
        equality (checked on entry by the interpreter and re-checked at
        every loop boundary and after every store) proves those checks
        still pass, and the host charges no I-fetch time.

        Every flush settles the instruction counters, credits the
        collapsed pauses and sleeps to the accumulated time ``t``.
        """
        itp = self.itp
        sim = itp.sim
        port = itp.port
        nxp = self.style == "nxp"
        if nxp:
            itlb = port.itlb
            icache = port.icache
            dtlb = port.dtlb
            dcache = port.dcache
            cacheable = port.cacheable
            provider = port.tables_provider
            c_fetch = port._c_fetch
            c_load_local = port._c_load_local
            cfg = port.cfg
            tlb_hit_ns = cfg.tlb_hit_ns
            icache_hit_ns = cfg.nxp_icache_hit_ns
            bram_ns = cfg.nxp_bram_ns
            local_read_ns = cfg.nxp_to_local_read_ns
            local_write_ns = cfg.nxp_to_local_write_ns
        else:
            tcache = port.tcache
            tables = port.tables
            cached_ns = port.cfg.host_cached_mem_ns
            sp_reg = itp.abi.sp_reg
        mm = port.mm
        phys = port.phys
        c_load = port._c_load
        c_store = port._c_store
        rwrite = itp.regs.write
        counter = itp._inst_counter
        c_block_inst = self._c_inst
        c_block_ns = self._c_sim_ns
        sleep_until = sim.sleep_until
        advance_to = sim.advance_to
        ops = block.ops
        nops = len(ops)
        gen = block.gen
        entry = block.entry

        self._c_exec.value += 1
        t = sim.now
        t0 = t
        pauses = 0
        n = 0
        i = 0
        while True:
            if i == nops:
                itp.pc = block.exit_pc
                break
            op = ops[i]
            kind = op[0]
            pc_i = op[1]
            cost = op[2]
            if nxp and (cost or kind != K_LOOP):
                # -- I-fetch replay (not for the synthetic loop marker) --
                probed = itlb.probe(pc_i)
                if probed is None or not probed.nx:
                    itp.pc = pc_i
                    counter.value += n
                    c_block_inst.value += n
                    c_block_ns.value += t - t0
                    self._note_bail("itlb")
                    if pauses:
                        sim.credit_events(pauses - 1)
                        if not advance_to(t):
                            yield sleep_until(t)
                    return
                fetched = itlb.lookup(pc_i)  # counted hit + LRU, as fetch would
                paddr = fetched.paddr_for(pc_i)
                c_fetch.value += 1
                if icache.access(paddr):
                    t += tlb_hit_ns
                    t += icache_hit_ns
                    pauses += 2
                else:
                    # I-cache miss: flush, then the port's own fill path
                    # (TLB-hit pause + cross-PCIe line fill, all real events).
                    counter.value += n
                    c_block_inst.value += n
                    c_block_ns.value += t - t0
                    n = 0
                    if pauses:
                        sim.credit_events(pauses - 1)
                        if not advance_to(t):
                            yield sleep_until(t)
                        pauses = 0
                    yield from port._fetch_check_fill(paddr)
                    t0 = t = sim.now
            t += cost
            pauses += 1
            n += 1
            if kind == K_SIMPLE:
                fn = op[3]
                if fn is not None:
                    try:
                        fn()
                    except BaseException:
                        itp.pc = pc_i
                        counter.value += n
                        c_block_inst.value += n
                        c_block_ns.value += t - t0
                        self._note_bail("fault")
                        sim.credit_events(pauses - 1)
                        if not advance_to(t):
                            yield sleep_until(t)
                        raise
                i += 1
            elif kind == K_GUARD:
                if op[3]():
                    idx = op[5]
                    if idx >= 0:
                        i = idx
                    elif idx == LOOP_RESTART:
                        counter.value += n
                        c_block_inst.value += n
                        c_block_ns.value += t - t0
                        n = 0
                        sim.credit_events(pauses - 1)
                        if not advance_to(t):
                            yield sleep_until(t)
                        pauses = 0
                        t0 = t = sim.now
                        if port.code_generation != gen:
                            itp.pc = entry
                            self.invalidate("codegen")
                            return
                        i = 0
                    else:  # GUARD_EXIT
                        itp.pc = op[4]
                        break
                else:
                    i += 1
            elif kind == K_NLOAD:
                addr = op[3]()
                size = op[4]
                hit = dtlb.probe(addr)
                if hit is not None:
                    paddr = hit.paddr_for(addr)
                    bram = mm.bram_contains(paddr)
                    if bram or dtlb.route(paddr)[0] == "local":
                        # Fast replay of port.load's BRAM / local-window
                        # routes: counted D-TLB hit, then the same route
                        # bookkeeping, with the pauses consolidated.
                        dtlb.lookup(addr)
                        t += tlb_hit_ns
                        c_load.value += 1
                        if bram:
                            t += bram_ns
                        else:
                            if cacheable.cacheable(paddr) and dcache.access(paddr):
                                t += icache_hit_ns
                            else:
                                t += local_read_ns
                            c_load_local.value += 1
                        pauses += 2
                        rwrite(op[5], int.from_bytes(phys.read(paddr, size), "little"))
                        i += 1
                        continue
                # D-TLB miss or cross-PCIe route: flush, then delegate
                # the whole access to the port (walker, link contention
                # and any page fault are real, at a precise pc).
                itp.pc = pc_i
                counter.value += n
                c_block_inst.value += n
                c_block_ns.value += t - t0
                n = 0
                sim.credit_events(pauses - 1)
                if not advance_to(t):
                    yield sleep_until(t)
                pauses = 0
                data = yield from port.load(addr, size)
                rwrite(op[5], int.from_bytes(data, "little"))
                t0 = t = sim.now
                i += 1
            elif kind == K_NSTORE:
                addr = op[3]()
                size = op[4]
                hit = dtlb.probe(addr)
                if hit is not None and hit.writable:
                    paddr = hit.paddr_for(addr)
                    bram = mm.bram_contains(paddr)
                    if bram or dtlb.route(paddr)[0] == "local":
                        dtlb.lookup(addr)
                        t += tlb_hit_ns
                        c_store.value += 1
                        if provider is not None:
                            space = provider()
                            if space is not None:
                                space.note_code_store(addr, size)
                        data = op[5]().to_bytes(size, "little")
                        if bram:
                            t += bram_ns
                        else:
                            if cacheable.cacheable(paddr):
                                dcache.invalidate_range(paddr, size)
                            t += local_write_ns
                        pauses += 2
                        phys.write(paddr, data)
                        if port.code_generation != gen:
                            itp.pc = op[6]
                            self.invalidate("self_modify")
                            break
                        i += 1
                        continue
                # Miss, write-protect or cross-PCIe: flush, delegate;
                # port.store counts, pauses and faults exactly as the
                # interpreter's slow path would.
                itp.pc = pc_i
                counter.value += n
                c_block_inst.value += n
                c_block_ns.value += t - t0
                n = 0
                sim.credit_events(pauses - 1)
                if not advance_to(t):
                    yield sleep_until(t)
                pauses = 0
                yield from port.store(addr, op[5]().to_bytes(size, "little"))
                t0 = t = sim.now
                if port.code_generation != gen:
                    itp.pc = op[6]
                    self.invalidate("self_modify")
                    break
                i += 1
            elif kind == K_HLOAD or kind == K_POP:
                addr = op[3]()
                size = op[4]
                try:
                    delta = tcache.entry(addr)[0]
                except PageFault:
                    delta = None
                if delta is not None and mm.host_dram_contains(addr + delta):
                    c_load.value += 1
                    t += cached_ns
                    pauses += 1
                    value = int.from_bytes(phys.read(addr + delta, size), "little")
                else:
                    # Translation fault or cross-PCIe route: flush, then
                    # delegate the whole access to the port (the fault
                    # and the link traffic are real, at a precise pc).
                    itp.pc = pc_i
                    counter.value += n
                    c_block_inst.value += n
                    c_block_ns.value += t - t0
                    n = 0
                    sim.credit_events(pauses - 1)
                    if not advance_to(t):
                        yield sleep_until(t)
                    pauses = 0
                    try:
                        data = yield from port.load(addr, size)
                    except PageFault:
                        self._note_bail("fault")
                        raise
                    value = int.from_bytes(data, "little")
                    t0 = t = sim.now
                if kind == K_POP:
                    rwrite(sp_reg, addr + 8)
                rwrite(op[5], value)
                i += 1
            elif kind == K_HSTORE:
                addr = op[3]()
                size = op[4]
                try:
                    delta, writable, _nx = tcache.entry(addr)
                except PageFault:
                    writable = False
                if writable and mm.host_dram_contains(addr + delta):
                    c_store.value += 1
                    tables.note_code_store(addr, size)
                    t += cached_ns
                    pauses += 1
                    phys.write(addr + delta, op[5]().to_bytes(size, "little"))
                else:
                    # Translation fault, write-protect or cross-PCIe:
                    # flush, delegate; port.store counts, pauses and
                    # faults exactly as the interpreter's slow path would.
                    itp.pc = pc_i
                    counter.value += n
                    c_block_inst.value += n
                    c_block_ns.value += t - t0
                    n = 0
                    sim.credit_events(pauses - 1)
                    if not advance_to(t):
                        yield sleep_until(t)
                    pauses = 0
                    try:
                        yield from port.store(addr, op[5]().to_bytes(size, "little"))
                    except PageFault:
                        self._note_bail("fault")
                        raise
                    t0 = t = sim.now
                if port.code_generation != gen:
                    # Self-modifying store: the instruction is complete;
                    # exit before running stale code.
                    itp.pc = op[6]
                    self.invalidate("self_modify")
                    break
                i += 1
            else:  # K_LOOP
                if not cost:
                    # Synthetic fall-through marker, not an instruction:
                    # undo the blanket per-op charge applied above.
                    pauses -= 1
                    n -= 1
                counter.value += n
                c_block_inst.value += n
                c_block_ns.value += t - t0
                n = 0
                if pauses:
                    sim.credit_events(pauses - 1)
                    if not advance_to(t):
                        yield sleep_until(t)
                    pauses = 0
                t0 = t = sim.now
                if port.code_generation != gen:
                    itp.pc = entry
                    self.invalidate("codegen")
                    return
                i = 0
        # Normal exit (fell off the end, guard taken, self-modify stop).
        counter.value += n
        c_block_inst.value += n
        c_block_ns.value += t - t0
        if pauses:
            sim.credit_events(pauses - 1)
            if not advance_to(t):
                yield sleep_until(t)


class _Unsupported:
    """Sentinel: :meth:`JitEngine._compile_sync` cannot express the op."""


_UNSUPPORTED = _Unsupported()


def _alu_add(a, b):
    return a + b


def _alu_sub(a, b):
    return a - b


def _alu_mul(a, b):
    return a * b


def _alu_and(a, b):
    return a & b


def _alu_or(a, b):
    return a | b


def _alu_xor(a, b):
    return a ^ b


#: Wrap-around ops inlined without the :meth:`Interpreter._alu` chain
#: (``RegisterFile.write`` masks to 64 bits, exactly like the slow path).
_ALU_FAST = {
    Op.ADD: _alu_add,
    Op.SUB: _alu_sub,
    Op.MUL: _alu_mul,
    Op.AND: _alu_and,
    Op.OR: _alu_or,
    Op.XOR: _alu_xor,
}

#: Everything else routes through ``Interpreter._alu`` for bit-exact
#: semantics (shifts, signed division faults, compare ops).
_ALU_SLOW = frozenset(
    (Op.DIV, Op.REM, Op.SHL, Op.SHR, Op.SAR, Op.SLT, Op.SLTU, Op.SEQ, Op.SNE)
)
