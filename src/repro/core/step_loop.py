"""The one step loop every core runs (host threads, the host-fallback
emulator and the NxP core).

:func:`step_loop` runs an :class:`~repro.isa.interpreter.Interpreter`
until control leaves the function it is running.  On the way it
services what every core services in place: runtime stubs, syscalls
and, on the host side, lazy-heap minor faults.  It returns one of two
exits:

* the function's return value (an ``int``; HALT returns 0), or
* a :class:`Crossing` — the core fetched the other ISA's code, Flick's
  migration trigger (PAPER.md §1, item 2): an NX fault on the host, and
  an inverted-NX (``nx``), ``misaligned`` or ``illegal`` fetch on a NISA
  core.

What a crossing *does* is the caller's business: a host thread migrates
the call to an NxP, the fallback emulator runs the host function
inline, the NxP core ships a call-migration descriptor.  Anything else
is a :class:`~repro.os.kernel.ProcessCrash`.
"""

from __future__ import annotations

from typing import Generator, NamedTuple

from repro.core.stubs import STUB_PCS, service_stub
from repro.isa.base import IllegalInstruction, IsaFault, MisalignedFetch
from repro.isa.interpreter import EnvCall, Halted, Interpreter, ReturnToRuntime
from repro.memory.paging import PageFault
from repro.os.kernel import ProcessCrash
from repro.os.task import Task

__all__ = ["Crossing", "step_loop"]


class Crossing(NamedTuple):
    """A fetch of the other ISA's code: where, and what tripped it."""

    target: int
    trigger: str  # "nx" | "misaligned" | "illegal"


def step_loop(machine, task: Task, cpu: Interpreter, on_host: bool) -> Generator:
    """Run ``cpu`` until the function returns (its value) or fetches the
    other ISA's code (a :class:`Crossing`).

    ``on_host`` says which side of PCIe the core sits on: host-side
    cores (host threads and the fallback emulator) demand-page the lazy
    heap, while an NxP that touches an unbacked page crashes, as
    :mod:`repro.os.demand_paging` documents.
    """
    kernel = machine.kernel
    step = cpu.step
    stub_pcs = STUB_PCS
    isa = cpu.isa
    where = ("host" if isa == "hisa" else "fallback") if on_host else "nxp"
    while True:
        if cpu.pc in stub_pcs:
            yield from service_stub(machine, task, cpu)
            continue
        try:
            yield from step(stub_pcs)
        except ReturnToRuntime as ret:
            return ret.retval
        except Halted:
            return 0
        except EnvCall:
            code, value = cpu.get_args(2)
            result = kernel.service_syscall(task, code, value)
            cpu.regs.write(cpu.abi.ret_reg, result or 0)
        except PageFault as fault:
            if fault.kind == PageFault.NX_VIOLATION and fault.is_exec:
                kernel.classify_exec_fault(task, fault, running_on=isa)
                return Crossing(fault.vaddr, "nx")
            lazy = task.process.lazy_heap
            if (
                on_host
                and fault.kind == PageFault.NOT_PRESENT
                and lazy is not None
                and lazy.covers(fault.vaddr)
            ):
                # Minor fault: demand-page the heap and retry the
                # instruction (the same page-fault handler as the NX
                # migration hook).
                yield from lazy.service_fault(task, fault.vaddr)
                continue
            raise ProcessCrash(
                task,
                f"unexpected {where} page fault at pc={cpu.pc:#x}: "
                f"{fault.access_kind} access to {fault.vaddr:#x} ({fault.kind})",
                pc=cpu.pc,
                fault=fault,
            )
        except (MisalignedFetch, IllegalInstruction) as fault:
            if isa == "hisa":
                raise ProcessCrash(
                    task, f"host fetch fault at pc={cpu.pc:#x}: {fault}", pc=cpu.pc
                )
            # HISA code is byte-aligned and variable-length, so a NISA
            # core that wanders into it rarely sits 8-aligned, and when
            # it does the bytes do not decode: either is a migration
            # request if the target is host text.
            kernel.classify_exec_fault(
                task, PageFault(fault.pc, PageFault.NX_VIOLATION, is_exec=True), isa
            )
            trigger = "misaligned" if isinstance(fault, MisalignedFetch) else "illegal"
            return Crossing(fault.pc, trigger)
        except IsaFault as fault:
            raise ProcessCrash(task, f"{where} fault at pc={cpu.pc:#x}: {fault}", pc=cpu.pc)
