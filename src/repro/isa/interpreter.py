"""Cycle-costed interpreters for HISA and NISA.

One :class:`Interpreter` instance animates one hardware core.  It is a
DES citizen: :meth:`step` is a generator that charges simulated time for
each instruction itself while the :class:`MemoryPort` charges for fetch,
load and store traffic (so a host core and an NxP core differ in both
clock speed *and* memory path).  It runs one instruction, or straight
through to the next runtime stub, suspending only when another event is
due before a pause ends.

Control leaves the interpreter through exceptions:

* :class:`repro.memory.paging.PageFault` — raised by the memory port on
  an NX instruction fetch; the OS turns this into a Flick migration.
* :class:`MisalignedFetch` / :class:`IllegalInstruction` — the NxP's
  extra migration triggers when it wanders into HISA code.
* :class:`EnvCall` — an ECALL/SYSCALL requesting an OS service.
* :class:`ReturnToRuntime` — the thread returned to the synthetic return
  address the runtime planted when it dispatched a function call
  (Listing 1/2's ``call_target_*_func``).
* :class:`Halted` — the program executed HALT.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Generator, Optional, Protocol

from repro.isa import hisa, nisa
from repro.isa.base import (
    ABI,
    Instruction,
    MASK64,
    Op,
    RegisterFile,
    IsaFault,
    to_signed,
)
from repro.sim.engine import Simulator
from repro.sim.stats import StatRegistry

__all__ = [
    "Interpreter",
    "DecodeCache",
    "MemoryPort",
    "CostModel",
    "EnvCall",
    "ReturnToRuntime",
    "Halted",
    "RUNTIME_RETURN_ADDR",
]

# The synthetic return address the runtime plants so that a dispatched
# function's final RET hands control back to the migration machinery.
RUNTIME_RETURN_ADDR = 0x0000_7FFF_FFFF_F000


class MemoryPort(Protocol):
    """Timed memory interface a core executes against.

    Ports may additionally expose the decoded-instruction-cache contract:
    a ``fetch_check(vaddr, nbytes)`` generator charging exactly what
    ``fetch`` charges (same timed yields, same faults, same stats)
    without returning bytes, and a ``code_generation`` attribute that
    changes whenever code reachable through the port may have changed.
    Ports without both simply run uncached (e.g. the tests' FlatPort).
    """

    def fetch(self, vaddr: int, nbytes: int) -> Generator:  # pragma: no cover
        ...

    def load(self, vaddr: int, nbytes: int) -> Generator:  # pragma: no cover
        ...

    def store(self, vaddr: int, data: bytes) -> Generator:  # pragma: no cover
        ...


class EnvCall(Exception):
    """ECALL executed; the OS services it and may resume the thread."""

    def __init__(self, pc_after: int):
        self.pc_after = pc_after
        super().__init__(f"environment call (resume at {pc_after:#x})")


class ReturnToRuntime(Exception):
    """The dispatched function returned to the runtime's planted address."""

    def __init__(self, retval: int):
        self.retval = retval
        super().__init__(f"function returned {retval:#x} to runtime")


class Halted(Exception):
    """HALT executed."""


class CostModel:
    """Per-instruction time, before memory-port charges.

    ``ipc`` folds superscalar width into a simple divisor: the paper's
    Xeon retires several simple ops per cycle while the RV64-I soft core
    is scalar in-order.
    """

    _CYCLES: Dict[Op, int] = {
        Op.MUL: 3,
        Op.DIV: 20,
        Op.REM: 20,
        Op.BEQ: 2, Op.BNE: 2, Op.BLT: 2, Op.BGE: 2, Op.JCC: 2,
        Op.J: 1, Op.JAL: 2, Op.JALR: 3, Op.CALL: 3, Op.CALLR: 4, Op.RET: 3,
        Op.PUSH: 1, Op.POP: 1,
        Op.LD: 1, Op.LW: 1, Op.LBU: 1, Op.ST: 1, Op.SW: 1, Op.SB: 1,
        Op.ECALL: 10, Op.HALT: 1,
    }

    def __init__(self, cycle_ns: float, ipc: float = 1.0):
        if cycle_ns <= 0 or ipc <= 0:
            raise ValueError("cycle_ns and ipc must be positive")
        self.cycle_ns = cycle_ns
        self.ipc = ipc

    def cost_ns(self, op: Op) -> float:
        return self._CYCLES.get(op, 1) * self.cycle_ns / self.ipc


class DecodeCache(dict):
    """Decoded instructions of one address space for one interpreter
    kind: ``pc -> (inst, length, two_part, pause, is_mem)``, valid while
    the code generation equals :attr:`gen`.

    An address space keeps one per :attr:`Interpreter.decode_key`, and
    every core running it (each host thread, the NxP while the space is
    resident, the host-fallback emulator) shares that one.  The key
    includes the cost model because ``pause`` holds the cycle cost.
    """

    __slots__ = ("gen",)

    def __init__(self):
        super().__init__()
        self.gen: Optional[int] = None


def _truncdiv(a: int, b: int) -> int:
    """C-style signed division (truncate toward zero)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _truncrem(a: int, b: int) -> int:
    return a - _truncdiv(a, b) * b


class Interpreter:
    """Executes one thread's instructions on one core."""

    def __init__(
        self,
        isa: str,
        sim: Simulator,
        port: MemoryPort,
        cost: CostModel,
        stats: Optional[StatRegistry] = None,
        name: str = "cpu",
        decode_cache: bool = True,
        jit: bool = False,
        jit_hot_threshold: int = 20,
        jit_max_superblock: int = 64,
        trace=None,
        decode_caches: Optional[Dict[tuple, DecodeCache]] = None,
    ):
        if isa not in ("hisa", "nisa"):
            raise ValueError(f"unknown isa {isa!r}")
        self.isa = isa
        self.abi: ABI = hisa.HISA_ABI if isa == "hisa" else nisa.NISA_ABI
        self.sim = sim
        self.port = port
        self.cost = cost
        self.stats = stats or StatRegistry()
        self.name = name
        self.regs = RegisterFile(self.abi.reg_count, zero_reg=self.abi.zero_reg)
        self.pc = 0
        self.zf = False  # HISA flags
        self.sf_lt = False
        self._inst_counter = self.stats.counter(f"{name}.inst")
        #: Which of an address space's decode caches this core uses.
        self.decode_key = (isa, cost.cycle_ns, cost.ipc)
        # Decoded-instruction cache (see DecodeCache), taken from the
        # address space's ``decode_caches`` table (a private one
        # without).  Requires the port's fetch_check/code_generation
        # contract (see MemoryPort); validity is keyed off the port's
        # code_generation, so page-table changes and stores into
        # registered executable ranges invalidate it wholesale.  None
        # when disabled.
        self._decode: Optional[DecodeCache] = None
        if decode_cache and hasattr(port, "fetch_check"):
            self._decode = self._decode_cache_in(decode_caches)
        self._fetch_check_sync = (
            getattr(port, "fetch_check_sync", None) if self._decode is not None else None
        )
        self._fetch_check_fast = (
            getattr(port, "fetch_check_fast", None) if self._decode is not None else None
        )
        # Ops whose execution yields (memory traffic) on this ISA; the
        # rest run through the synchronous path without a generator.
        mem_ops = set(self._SIZED_LOADS) | set(self._SIZED_STORES)
        mem_ops |= {Op.CALL, Op.CALLR, Op.PUSH, Op.POP}
        if isa == "hisa":
            mem_ops.add(Op.RET)  # pops the return address off the stack
        self._gen_ops = frozenset(mem_ops)
        # Tracing-JIT tier (repro.isa.jit): hot backward-branch targets
        # compile to superblocks that bypass the per-instruction
        # generator machinery entirely.  None when disabled or the port
        # lacks the contracts the compiled executors need.
        self._jit = None
        if jit:
            from repro.isa.jit import JitEngine

            self._jit = JitEngine.for_interpreter(
                self, jit_hot_threshold, jit_max_superblock, trace
            )

    def _decode_cache_in(self, decode_caches: Optional[Dict[tuple, DecodeCache]]) -> DecodeCache:
        if decode_caches is None:
            return DecodeCache()
        cache = decode_caches.get(self.decode_key)
        if cache is None:
            cache = decode_caches[self.decode_key] = DecodeCache()
        return cache

    def switch_address_space(self, decode_caches: Dict[tuple, DecodeCache], space) -> None:
        """Run on another address space's caches: its decode cache from
        ``decode_caches`` (the space's table, keyed by
        :attr:`decode_key`) and, with the JIT tier on, the superblocks
        the engine keeps for ``space`` (its page tables).  Nothing is
        dropped: each space's caches stay valid for as long as its own
        code generation does."""
        if self._decode is not None:
            self._decode = self._decode_cache_in(decode_caches)
        if self._jit is not None:
            self._jit.switch_space(space)

    def invalidate_decode_cache(self) -> None:
        """Drop the current address space's cached decodes and compiled
        blocks: a manual flush.  Code changes invalidate both through the
        code generation, and address-space switches swap caches."""
        if self._decode is not None:
            self._decode.clear()
            self._decode.gen = None
        if self._jit is not None:
            self._jit.invalidate("flush")

    # -- ABI helpers used by the runtime ---------------------------------------

    def set_args(self, args) -> None:
        if len(args) > len(self.abi.arg_regs):
            raise ValueError(
                f"{self.isa}: more than {len(self.abi.arg_regs)} register args unsupported"
            )
        for reg, value in zip(self.abi.arg_regs, args):
            self.regs.write(reg, value)

    def get_args(self, count: int):
        return [self.regs.read(r) for r in self.abi.arg_regs[:count]]

    @property
    def retval(self) -> int:
        return self.regs.read(self.abi.ret_reg)

    @property
    def sp(self) -> int:
        return self.regs.read(self.abi.sp_reg)

    @sp.setter
    def sp(self, value: int) -> None:
        self.regs.write(self.abi.sp_reg, value)

    def setup_call(self, target: int, args, sp: Optional[int] = None) -> Generator:
        """Arrange the machine state to call ``target`` with ``args`` and
        return to the runtime (plants :data:`RUNTIME_RETURN_ADDR`)."""
        if sp is not None:
            self.sp = sp & ~(self.abi.stack_align - 1)
        self.set_args(args)
        if self.abi.link_reg is not None:
            self.regs.write(self.abi.link_reg, RUNTIME_RETURN_ADDR)
        else:
            self.sp = self.sp - 8
            yield from self.port.store(self.sp, RUNTIME_RETURN_ADDR.to_bytes(8, "little"))
        self.pc = target

    # -- execution ---------------------------------------------------------------

    def step(self, stop_pcs: Optional[AbstractSet[int]] = None) -> Generator:
        """Fetch, decode and execute instructions: one, or with
        ``stop_pcs`` until the pc is one of them (control also leaves
        through the exceptions in the module docstring).  This is the
        one fetch/decode/execute loop every core runs.

        With the decode cache enabled (and a port exposing the
        fetch_check/code_generation contract), a PC seen before at the
        current code generation skips re-decode: ``fetch_check`` replays
        the exact fetch timing, faults and stats, so simulated results
        are bit-identical to the uncached path.

        Each pause is first offered to :meth:`Simulator.advance`, which
        ends it in place when nothing else is due first; the loop yields
        only when another event must run before the pause ends.  So a
        run of straight-line code costs one generator resume, not one
        per pause.
        """
        port = self.port
        jit = self._jit
        advance = self.sim.advance
        counter = self._inst_counter
        fetch_check_sync = self._fetch_check_sync
        fetch_check_fast = self._fetch_check_fast
        while True:
            pc = self.pc
            if pc == RUNTIME_RETURN_ADDR:
                raise ReturnToRuntime(self.retval)

            if jit is not None:
                blk = jit._blocks.get(pc)
                if blk is not None:
                    if blk.gen == port.code_generation:
                        ran = counter.value
                        yield from jit.execute(blk)
                        if counter.value != ran:
                            if stop_pcs is None or self.pc in stop_pcs:
                                return
                            continue
                        # The block bailed before its first instruction
                        # (an NxP I-TLB probe miss), having done nothing:
                        # interpret that instruction, which fills the
                        # TLB, so the next entry can run compiled.
                    else:
                        jit.invalidate("codegen")

            gen = None
            cached = None
            # Local: the NxP swaps caches between residencies, and an
            # entry must land in the cache whose generation was checked.
            decoded = self._decode
            if decoded is not None:
                gen = port.code_generation
                if gen is not None:
                    if gen != decoded.gen:
                        decoded.clear()
                        decoded.gen = gen
                    cached = decoded.get(pc)

            if cached is not None:
                inst, length, two_part, pause, is_mem = cached
                if fetch_check_sync is not None and fetch_check_sync(
                    pc, 1 if two_part else length
                ):
                    # Fully checked with no simulated time due: skip the
                    # generator machinery (a False return did nothing,
                    # so the fallback below replays the check from
                    # scratch).
                    if two_part:
                        fetch_check_sync(pc + 1, length - 1)
                elif two_part:
                    yield from port.fetch_check(pc, 1)
                    yield from port.fetch_check(pc + 1, length - 1)
                elif fetch_check_fast is not None:
                    # The port resolved the common hit/hit case without
                    # a generator and handed back the pauses to charge.
                    r = fetch_check_fast(pc, length)
                    if type(r) is tuple:
                        tlb_hit, icache_hit = r
                        if not advance(tlb_hit.delay):
                            yield tlb_hit
                        if not advance(icache_hit.delay):
                            yield icache_hit
                    else:
                        yield from r
                else:
                    yield from port.fetch_check(pc, length)
            else:
                if self.isa == "nisa":
                    raw = yield from port.fetch(pc, nisa.INST_BYTES)
                    inst, length = nisa.decode(raw, pc)
                    two_part = False
                else:
                    head = yield from port.fetch(pc, 1)
                    length = hisa._LEN_BY_OPCODE.get(head[0])
                    if length is None:
                        from repro.isa.base import IllegalInstruction

                        raise IllegalInstruction(pc, head[0])
                    if length == 1:
                        raw = head
                        two_part = False
                    else:
                        # Trailing bytes are instruction bytes: route
                        # them through the fetch path (not the data-load
                        # path) so fetch/load stats and NX semantics
                        # stay truthful.
                        raw = head + (yield from port.fetch(pc + 1, length - 1))
                        two_part = True
                    inst, length = hisa.decode(raw, pc)
                pause = self.sim.timeout(self.cost.cost_ns(inst.op))
                is_mem = inst.op in self._gen_ops
                # Insert only if no store/remap invalidated the code
                # while the fetch was suspended mid-flight.
                if gen is not None and port.code_generation == gen:
                    decoded[pc] = (inst, length, two_part, pause, is_mem)

            counter.value += 1
            if not advance(pause.delay):
                yield pause
            # Most instructions touch no memory: execute them with a
            # plain call instead of spinning up an _execute generator;
            # the class is resolved once at decode, not per execution.
            if is_mem:
                yield from self._execute(inst, pc, length)
            elif not self._execute_sync(inst, pc, length):
                yield from self._execute(inst, pc, length)  # pragma: no cover
            # Backward control transfer: the hot-loop signal the JIT tier
            # keys compilation on (compilation itself is pure — no
            # simulated time, no stats — so noting it here cannot perturb
            # parity).
            if jit is not None and self.pc < pc:
                jit.note_backedge(self.pc)
            if stop_pcs is None or self.pc in stop_pcs:
                return

    def run(self, max_steps: int = 10_000_000) -> Generator:
        """Step until an exception transfers control out."""
        for _ in range(max_steps):
            yield from self.step()
        raise RuntimeError(f"{self.name}: exceeded {max_steps} steps")

    # -- semantics ----------------------------------------------------------------

    _SIZED_LOADS = {Op.LD: 8, Op.LW: 4, Op.LBU: 1}
    _SIZED_STORES = {Op.ST: 8, Op.SW: 4, Op.SB: 1}
    _ALU_OPS = frozenset(
        (Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.REM, Op.AND, Op.OR,
         Op.XOR, Op.SHL, Op.SHR, Op.SAR, Op.SLT, Op.SLTU, Op.SEQ, Op.SNE)
    )

    def _execute_sync(self, inst: Instruction, pc: int, length: int) -> bool:
        """Execute ``inst`` when it needs no memory traffic (so no timed
        yields): updates ``self.pc`` and returns True.  Returns False —
        having done nothing — for ops the generator path must run."""
        op = inst.op
        regs = self.regs
        rs = regs.read
        next_pc = pc + length

        if op is Op.ADDI:
            regs.write(inst.rd, rs(inst.rs1) + inst.imm)
        elif op in self._ALU_OPS:
            if self.isa == "hisa":
                a = rs(inst.rd)
                b = inst.imm if inst.imm is not None else rs(inst.rs1)
                dest = inst.rd
            else:
                a = rs(inst.rs1)
                b = rs(inst.rs2)
                dest = inst.rd
            regs.write(dest, self._alu(op, a & MASK64, b & MASK64, pc))
        elif op is Op.MOV:
            regs.write(inst.rd, rs(inst.rs1))
        elif op is Op.LI:
            regs.write(inst.rd, inst.imm & MASK64)
        elif op is Op.CMP:
            a = to_signed(rs(inst.rd))
            b = to_signed(inst.imm) if inst.imm is not None else to_signed(rs(inst.rs1))
            self.zf = a == b
            self.sf_lt = a < b
        elif op is Op.JCC:
            if self._cond(inst.cond):
                next_pc = pc + length + inst.imm
        elif op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE):
            a, b = to_signed(rs(inst.rs1)), to_signed(rs(inst.rs2))
            taken = {
                Op.BEQ: a == b,
                Op.BNE: a != b,
                Op.BLT: a < b,
                Op.BGE: a >= b,
            }[op]
            if taken:
                next_pc = pc + length + inst.imm
        elif op is Op.J:
            next_pc = pc + length + inst.imm
        elif op is Op.JAL:
            regs.write(inst.rd, pc + length)
            next_pc = pc + length + inst.imm
        elif op is Op.JALR:
            regs.write(inst.rd, pc + length)
            next_pc = (rs(inst.rs1) + (inst.imm or 0)) & MASK64
        elif op is Op.LIH:
            regs.write(inst.rd, (rs(inst.rd) & 0xFFFF_FFFF) | ((inst.imm & 0xFFFF_FFFF) << 32))
        elif op is Op.RET and self.isa != "hisa":
            # encoded as JALR x0, ra on NISA; defensive fallback
            next_pc = rs(self.abi.link_reg)
        elif op is Op.NOP:
            pass
        elif op is Op.HALT:
            self.pc = next_pc
            raise Halted()
        elif op is Op.ECALL:
            self.pc = next_pc
            raise EnvCall(next_pc)
        else:
            return False

        self.pc = next_pc
        return True

    def _execute(self, inst: Instruction, pc: int, length: int) -> Generator:
        """Memory-touching ops (the yield-free rest live in
        :meth:`_execute_sync`)."""
        op = inst.op
        regs = self.regs
        rs = regs.read
        next_pc = pc + length

        if op in self._SIZED_LOADS:
            size = self._SIZED_LOADS[op]
            addr = (rs(inst.rs1) + (inst.imm or 0)) & MASK64
            data = yield from self.port.load(addr, size)
            regs.write(inst.rd, int.from_bytes(data, "little"))
        elif op in self._SIZED_STORES:
            size = self._SIZED_STORES[op]
            addr = (rs(inst.rs1) + (inst.imm or 0)) & MASK64
            value = rs(inst.rs2) & ((1 << (8 * size)) - 1)
            yield from self.port.store(addr, value.to_bytes(size, "little"))
        elif op is Op.CALL:  # HISA: push return address
            self.sp = self.sp - 8
            yield from self.port.store(self.sp, (pc + length).to_bytes(8, "little"))
            next_pc = pc + length + inst.imm
        elif op is Op.CALLR:
            self.sp = self.sp - 8
            yield from self.port.store(self.sp, (pc + length).to_bytes(8, "little"))
            next_pc = rs(inst.rs1)
        elif op is Op.RET:
            if self.isa == "hisa":
                data = yield from self.port.load(self.sp, 8)
                self.sp = self.sp + 8
                next_pc = int.from_bytes(data, "little")
            else:  # encoded as JALR x0, ra on NISA; defensive fallback
                next_pc = rs(self.abi.link_reg)
        elif op is Op.PUSH:
            self.sp = self.sp - 8
            yield from self.port.store(self.sp, rs(inst.rd).to_bytes(8, "little"))
        elif op is Op.POP:
            data = yield from self.port.load(self.sp, 8)
            self.sp = self.sp + 8
            regs.write(inst.rd, int.from_bytes(data, "little"))
        else:  # pragma: no cover - decoder prevents this
            raise IsaFault(pc, f"unimplemented op {op}")

        self.pc = next_pc

    def _alu(self, op: Op, a: int, b: int, pc: int) -> int:
        sa, sb = to_signed(a), to_signed(b)
        if op is Op.ADD:
            return a + b
        if op is Op.SUB:
            return a - b
        if op is Op.MUL:
            return a * b
        if op is Op.DIV:
            if b == 0:
                raise IsaFault(pc, "division by zero")
            return _truncdiv(sa, sb) & MASK64
        if op is Op.REM:
            if b == 0:
                raise IsaFault(pc, "remainder by zero")
            return _truncrem(sa, sb) & MASK64
        if op is Op.AND:
            return a & b
        if op is Op.OR:
            return a | b
        if op is Op.XOR:
            return a ^ b
        if op is Op.SHL:
            return a << (b & 63)
        if op is Op.SHR:
            return a >> (b & 63)
        if op is Op.SAR:
            return (sa >> (b & 63)) & MASK64
        if op is Op.SLT:
            return int(sa < sb)
        if op is Op.SLTU:
            return int(a < b)
        if op is Op.SEQ:
            return int(a == b)
        if op is Op.SNE:
            return int(a != b)
        raise IsaFault(pc, f"bad ALU op {op}")  # pragma: no cover

    def _cond(self, cond: str) -> bool:
        return {
            "eq": self.zf,
            "ne": not self.zf,
            "lt": self.sf_lt,
            "ge": not self.sf_lt,
            "le": self.zf or self.sf_lt,
            "gt": not (self.zf or self.sf_lt),
        }[cond]
