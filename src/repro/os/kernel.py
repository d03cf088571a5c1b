"""The simulated kernel: fault classification, syscalls, interrupt wakeup.

This is the reproduction of the paper's <2 kLoC of Linux changes
(Section IV-D):

* the **NX page-fault hook** — :meth:`classify_exec_fault` decides
  whether a faulting fetch is a legitimate ISA-crossing call (the target
  lies inside a known ``.text`` range of the *other* ISA) or a plain
  crash;
* the **migration interrupt handler** — pops the inbound descriptor the
  DMA engine delivered, finds the suspended task by PID, and wakes it
  (the wake completes after the modeled scheduler latency);
* small **syscalls** (print/exit) used by test programs and examples.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.core.config import FlickConfig
from repro.core.descriptors import DESCRIPTOR_BYTES, MigrationDescriptor
from repro.core.errors import DescriptorCorrupt, ProcessCrash
from repro.memory.paging import PageFault
from repro.os.task import Process, Task, TaskState
from repro.sim.engine import Simulator

# ProcessCrash historically lived here; it moved to repro.core.errors so
# the whole taxonomy sits in one module, and stays re-exported for the
# many call sites (and tests) that import it from repro.os.kernel.
__all__ = ["Kernel", "ProcessCrash", "SYS_EXIT", "SYS_PRINT"]

SYS_EXIT = 0
SYS_PRINT = 1


class Kernel:
    """OS state shared by host cores and the NxP platform."""

    def __init__(self, sim: Simulator, cfg: FlickConfig, machine) -> None:
        self.sim = sim
        self.cfg = cfg
        self.machine = machine
        self.processes: Dict[int, Process] = {}
        self.tasks: Dict[int, Task] = {}
        # One vector per device, each handler bound to that device's
        # host inbound ring (descriptors from different devices land in
        # different rings and must never be cross-drained).
        for dev in machine.devices:
            machine.irq.register(
                dev.vector,
                lambda payload, _ring=dev.host_ring: self._migration_irq(payload, _ring),
            )

    # -- bookkeeping --------------------------------------------------------

    def register_process(self, process: Process) -> None:
        self.processes[process.pid] = process

    def register_task(self, task: Task) -> None:
        self.tasks[task.pid] = task  # one migratable task per process pid

    def process_by_pid(self, pid: int) -> Process:
        return self.processes[pid]

    def task_by_pid(self, pid: int) -> Task:
        return self.tasks[pid]

    # -- the NX-fault migration hook --------------------------------------------

    def classify_exec_fault(self, task: Task, fault: PageFault, running_on: str) -> str:
        """Return the ISA that owns the faulting target, or crash.

        ``running_on`` is the ISA of the faulting core; a valid Flick
        trigger is a fetch from a range belonging to the *other* ISA.
        """
        target_isa = task.process.isa_at(fault.vaddr)
        if target_isa is None or target_isa == running_on:
            raise ProcessCrash(
                task,
                f"invalid instruction fetch at {fault.vaddr:#x} "
                f"({fault.kind}, on {running_on})",
            )
        return target_isa

    # -- syscalls --------------------------------------------------------------

    def service_syscall(self, task: Task, code: int, value: int) -> Optional[int]:
        """Handle an ECALL.  Returns the value to place in the return
        register, or raises to signal thread exit via ``SYS_EXIT``."""
        if code == SYS_PRINT:
            signed = value - (1 << 64) if value >> 63 else value
            task.process.output.append(signed)
            return 0
        if code == SYS_EXIT:
            raise _ThreadExit(value)
        raise ProcessCrash(task, f"unknown syscall {code}")

    # -- migration interrupt -------------------------------------------------------

    def _migration_irq(self, _payload, ring) -> Generator:
        """Generator IRQ handler: find the thread by PID and wake it.

        ``ring`` is the raising device's host inbound ring, bound by the
        per-vector closure.
        """
        if self.machine.hardened:
            yield from self._migration_irq_hardened(ring)
            return
        yield self.sim.timeout(self.cfg.host_irq_handler_ns)
        slot = ring.pop_addr()
        raw = self.machine.phys.read(slot, DESCRIPTOR_BYTES)
        desc = MigrationDescriptor.unpack(raw)
        task = self.task_by_pid(desc.pid)
        self.machine.trace.record(
            "irq", pid=desc.pid, kind="call" if desc.is_call else "return"
        )
        if task.state is not TaskState.SUSPENDED or task.wake_event is None:
            raise ProcessCrash(task, "descriptor arrived for a task that is not suspended")

        def waker(sim: Simulator):
            yield sim.timeout(self.cfg.host_wakeup_ns)
            self.machine.trace.record("task_wake", pid=desc.pid)
            event, task.wake_event = task.wake_event, None
            event.trigger(desc)

        self.sim.spawn(waker(self.sim), name=f"wake-{task.name}")

    def _migration_irq_hardened(self, ring) -> Generator:
        """Fault-tolerant IRQ path, taken only when faults are armed.

        Differences from the fast path, each tied to a fault mode:

        * an empty ring is a *spurious* interrupt (``irq_spurious``, or
          an MSI raised for a descriptor a prior drain already took) —
          counted and ignored, never a crash;
        * the ring is drained completely, because a lost interrupt
          (``irq_loss``) leaves earlier descriptors stranded behind the
          one this MSI announces;
        * descriptors failing wire-format checks (``dma_corrupt``) are
          discarded — the sender's watchdog retransmits them;
        * retransmit duplicates are deduplicated by per-process sequence
          number, and the waker refuses to fire a wake event the leg
          watchdog already claimed.
        """
        yield self.sim.timeout(self.cfg.host_irq_handler_ns)
        stats = self.machine.stats
        if not ring.pending:
            stats.count("kernel.spurious_irq")
            self.machine.trace.record("spurious_irq")
            return
        best: Dict[int, MigrationDescriptor] = {}
        while ring.pending:
            slot = ring.pop_addr()
            raw = self.machine.phys.read(slot, DESCRIPTOR_BYTES)
            try:
                desc = MigrationDescriptor.unpack(raw)
            except DescriptorCorrupt:
                stats.count("kernel.desc_corrupt_discarded")
                self.machine.trace.record("desc_discard", reason="corrupt")
                continue
            prev = best.get(desc.pid)
            if prev is not None and prev.seq >= desc.seq:
                stats.count("kernel.desc_dup_discarded")
                continue
            best[desc.pid] = desc
        for desc in best.values():
            task = self.tasks.get(desc.pid)
            if task is None:
                stats.count("kernel.desc_unknown_pid")
                continue
            self.machine.trace.record(
                "irq", pid=desc.pid, kind="call" if desc.is_call else "return"
            )
            if desc.seq <= task.process.last_in_seq:
                # A retransmit of a leg the process already completed
                # (a watchdog resent, both copies arrived), possibly on
                # an earlier thread of the same process.
                stats.count("kernel.late_delivery")
                self.machine.trace.record("late_delivery", pid=desc.pid, seq=desc.seq)
                continue
            if task.state is not TaskState.SUSPENDED or task.wake_event is None:
                stats.count("kernel.late_delivery")
                self.machine.trace.record("late_delivery", pid=desc.pid, seq=desc.seq)
                continue
            self._spawn_guarded_waker(task, desc)

    def _spawn_guarded_waker(self, task: Task, desc: MigrationDescriptor) -> None:
        ev = task.wake_event

        def waker(sim: Simulator):
            yield sim.timeout(self.cfg.host_wakeup_ns)
            # The leg watchdog races this wakeup; whoever triggers the
            # event first wins, the loser must stand down (a triggered
            # Event raises on re-trigger).
            if ev is None or ev.triggered or task.wake_event is not ev:
                self.machine.stats.count("kernel.late_wake")
                return
            self.machine.trace.record("task_wake", pid=desc.pid)
            task.wake_event = None
            task.process.last_in_seq = desc.seq
            ev.trigger(desc)

        self.sim.spawn(waker(self.sim), name=f"wake-{task.name}")


class _ThreadExit(Exception):
    """Internal: a thread called exit(value)."""

    def __init__(self, code: int):
        self.code = code
        super().__init__(f"exit({code})")
