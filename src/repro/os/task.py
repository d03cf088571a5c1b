"""Processes and tasks (the simulated kernel's ``task_struct``).

A :class:`Process` owns an address space (page tables, segment layout,
per-region heap allocators).  A :class:`Task` is a schedulable thread
plus the Flick-specific fields the paper adds to ``task_struct``: the
thread's NxP stack, its suspended NxP contexts (one per nesting level)
and the wake channel the migration ioctl sleeps on.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.memory.allocator import RegionAllocator
from repro.memory.paging import PageTables

__all__ = ["Process", "Task", "TaskState", "CpuContext", "ExecRange"]

_pid_counter = itertools.count(1)


class TaskState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    SUSPENDED = "suspended"  # TASK_KILLABLE inside the migration ioctl()
    DONE = "done"


@dataclass
class CpuContext:
    """Saved architectural state of one core's view of a thread."""

    regs: List[int]
    pc: int
    zf: bool = False
    sf_lt: bool = False


@dataclass(frozen=True)
class ExecRange:
    """One executable mapping and the ISA its instructions belong to."""

    vaddr: int
    size: int
    isa: str

    def contains(self, addr: int) -> bool:
        return self.vaddr <= addr < self.vaddr + self.size


class Process:
    """An address space plus its placement-aware allocators."""

    def __init__(
        self,
        name: str,
        page_tables: PageTables,
        host_heap: RegionAllocator,
        nxp_heap: RegionAllocator,
    ):
        self.pid = next(_pid_counter)
        self.name = name
        self.page_tables = page_tables
        self.host_heap = host_heap  # returns *virtual* addresses
        self.nxp_heap = nxp_heap  # returns *virtual* addresses (NxP window)
        self.exec_ranges: List[ExecRange] = []
        self.symbols: Dict[str, int] = {}
        self.lazy_heap = None  # set by FlickMachine.enable_lazy_heap
        self.output: List[int] = []  # values print()ed by any core
        self.exit_code: Optional[int] = None
        # Outbound (h2n) migration sequence counter.  This lives on the
        # *process*, not the task: the NxP-side dedup/replay cache is
        # keyed by pid and outlives any one thread, so a fresh thread
        # spawned on a reused process (the serving harness does exactly
        # this) must continue the sequence, not restart it — a restart
        # makes the device discard its legs as stale retransmits.
        self.h2n_seq: int = 0
        # The hardened kernel's inbound (n2h) high-water mark: the
        # highest reply sequence number already delivered to any thread
        # of this process.  The n2h numbering is per pid too, so it
        # lives here for the same reason: a fresh thread must not accept
        # a late retransmit duplicate of its predecessor's reply.
        self.last_in_seq: int = 0
        # Host-side memos of this address space, valid for as long as
        # its page tables' generations say: every core that runs it
        # shares them, so a reused process is decoded and translated
        # once, not once per thread.  ``host_port`` is the one host
        # memory port (and translation cache) of all its host threads,
        # built on first spawn; ``decode_caches`` holds one decode cache
        # per interpreter kind (repro.isa.interpreter.DecodeCache).
        self.host_port = None
        self.decode_caches: Dict[tuple, object] = {}

    @property
    def cr3(self) -> int:
        return self.page_tables.cr3

    def add_exec_range(self, vaddr: int, size: int, isa: str) -> None:
        self.exec_ranges.append(ExecRange(vaddr, size, isa))
        # Mirror into the page tables so stores through the memory ports
        # that hit code invalidate decoded-instruction caches.
        self.page_tables.note_exec_range(vaddr, size)

    def isa_at(self, vaddr: int) -> Optional[str]:
        for r in self.exec_ranges:
            if r.contains(vaddr):
                return r.isa
        return None


class Task:
    """One software thread, migratable between host and NxP cores."""

    def __init__(self, process: Process, name: str = ""):
        self.process = process
        self.tid = next(_pid_counter)
        self.name = name or f"task{self.tid}"
        self.state = TaskState.READY
        # Flick additions to task_struct (Section IV-B1 / IV-D):
        self.nxp_stack_base: Optional[int] = None  # None => never migrated
        self.nxp_sp: Optional[int] = None  # thread's current NxP stack pointer
        # NxP-side suspended contexts, one per nesting level (reentrancy).
        self.nxp_context_stack: List[CpuContext] = []
        # Wake channel: the ioctl sleeps here; the IRQ handler delivers
        # the inbound descriptor slot address.
        self.wake_event = None  # repro.sim.Event, armed by the ioctl
        # The outbound (h2n) migration counter is ``h2n_seq`` below — a
        # per-process value surfaced here because the ioctl works in
        # task terms.
        # Index of the device whose BRAM slice holds this task's NxP
        # stack (the ``locality`` policy's affinity); None until the
        # first migration.
        self.nxp_device: Optional[int] = None

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def h2n_seq(self) -> int:
        return self.process.h2n_seq

    @h2n_seq.setter
    def h2n_seq(self, value: int) -> None:
        self.process.h2n_seq = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.name} pid={self.pid} {self.state.value}>"
