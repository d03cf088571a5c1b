"""Runtime stubs: the per-region memory allocators (Section III-D).

The linker binds ``alloc``/``free`` calls to ``__host_malloc`` /
``__nxp_malloc`` (chosen by the *calling* function's ISA), and those
symbols resolve to fixed addresses in a reserved window.  When a core's
PC reaches a stub address, the runtime services the request natively —
the moral equivalent of a vDSO call into the libc allocator — and
returns to the caller using that ISA's convention.  Host allocations
come from the process's host-DRAM heap; NxP allocations from the NxP
local DRAM window, so data lands close to the core that asked for it.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Tuple

from repro.isa.interpreter import Interpreter
from repro.os.task import Task

__all__ = ["STUB_BASE", "STUB_SYMBOLS", "STUB_PCS", "is_stub", "service_stub"]

STUB_BASE = 0x7F00_0000
STUB_SYMBOLS: Dict[str, int] = {
    "__host_malloc": STUB_BASE + 0x000,
    "__nxp_malloc": STUB_BASE + 0x100,
    "__host_free": STUB_BASE + 0x200,
    "__nxp_free": STUB_BASE + 0x300,
}
_BY_ADDR = {addr: name for name, addr in STUB_SYMBOLS.items()}

#: The stub PCs as a set — the step loop tests membership per resume,
#: so it hoists this into a local instead of calling :func:`is_stub`.
STUB_PCS = frozenset(_BY_ADDR)


def is_stub(pc: int) -> bool:
    return pc in _BY_ADDR


def service_stub(machine, task: Task, cpu: Interpreter) -> Generator:
    """Service the stub call at ``cpu.pc`` and return to the caller."""
    name = _BY_ADDR[cpu.pc]
    yield machine.sim.timeout(machine.cfg.malloc_service_ns)
    machine.stats.count(f"stub.{name}")
    process = task.process

    if name.endswith("malloc"):
        (size,) = cpu.get_args(1)
        heap = process.host_heap if name == "__host_malloc" else process.nxp_heap
        result = heap.alloc(max(int(size), 8), align=16)
    else:
        (addr,) = cpu.get_args(1)
        heap = process.host_heap if name == "__host_free" else process.nxp_heap
        heap.free(addr)
        result = 0

    cpu.regs.write(cpu.abi.ret_reg, result)
    # Return to the caller per the ISA's convention.
    if cpu.abi.link_reg is not None:
        cpu.pc = cpu.regs.read(cpu.abi.link_reg)
    else:
        raw = yield from cpu.port.load(cpu.sp, 8)
        cpu.sp = cpu.sp + 8
        cpu.pc = int.from_bytes(raw, "little")
