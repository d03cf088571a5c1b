"""The multi-ISA executable loader (Section IV-C3).

Performs what the paper's modified GLIBC dynamic linker does:

* places each segment according to its section's **placement** — host
  DRAM for text/`.data`/`.bss` (PCIe coherence rule), NxP DRAM for
  ``.data.nxp`` — and maps it into the process page tables;
* uses the **extended mprotect** semantics to set the NX bit on every
  page of a ``.text.<nxp-isa>`` section, so that executing NxP code on
  the host faults into the migration path (and vice versa through the
  inverted NX sense on the NxP);
* maps the fixed process windows: the 4 GB NxP data window with **four
  1 GB huge pages** (the paper's TLB-miss mitigation), the NxP stack
  BRAM window, the host heap (2 MB pages) and the host stack.
"""

from __future__ import annotations

from typing import Optional

from repro.core.errors import LoadError
from repro.memory.allocator import RegionAllocator
from repro.memory.paging import PAGE_1G, PAGE_2M, PAGE_4K, PageTables
from repro.os.task import Process
from repro.toolchain.felf import Executable

__all__ = [
    "load_executable",
    "create_address_space",
    "WindowAllocator",
    "NXP_WINDOW_VBASE",
    "NXP_STACK_VBASE",
    "HOST_HEAP_VBASE",
    "HOST_STACK_TOP",
    "HOST_HEAP_BYTES",
]

# Fixed virtual windows of every Flick process (all canonical, < 2^47).
NXP_WINDOW_VBASE = 0x1000_0000_0000  # -> BAR0 (NxP DRAM), 4 x 1GB pages
NXP_STACK_VBASE = 0x3000_0000_0000  # -> NxP stack BRAM
HOST_HEAP_VBASE = 0x2000_0000_0000  # -> host DRAM, 2MB pages
HOST_STACK_TOP = 0x7000_0000_0000  # host stack grows down from here

HOST_HEAP_BYTES = 64 * 1024 * 1024
HOST_STACK_BYTES = 2 * 1024 * 1024  # one 2MB page


def _align_up(v: int, a: int) -> int:
    return (v + a - 1) & ~(a - 1)


class WindowAllocator:
    """Allocates from a physical region but yields *virtual* addresses
    inside the fixed window that maps it (used for the NxP heap: virtual
    NxP-window addresses backed by NxP DRAM)."""

    def __init__(self, name: str, phys_alloc: RegionAllocator, phys_base: int, virt_base: int):
        self.name = name
        self.phys_alloc = phys_alloc
        self.phys_base = phys_base
        self.virt_base = virt_base

    def alloc(self, size: int, align: int = 8) -> int:
        paddr = self.phys_alloc.alloc(size, align)
        return self.virt_base + (paddr - self.phys_base)

    def free(self, vaddr: int) -> None:
        self.phys_alloc.free(self.phys_base + (vaddr - self.virt_base))

    def to_paddr(self, vaddr: int) -> int:
        return self.phys_base + (vaddr - self.virt_base)


class HostHeap(RegionAllocator):
    """The host heap window: ``HOST_HEAP_BYTES`` of virtual space whose
    2 MB pages are backed from host DRAM when an allocation first
    reaches them (the first page at creation).  Only the heap a process
    uses costs physical memory: a serving machine loads dozens of
    processes that never allocate on it.  Backing happens at allocation,
    not on a page fault, so it costs no simulated time and every
    allocated byte is mapped, as with an eagerly backed heap.
    """

    def __init__(self, host_phys: RegionAllocator, tables: PageTables):
        super().__init__("host_heap", HOST_HEAP_VBASE, HOST_HEAP_BYTES)
        self._host_phys = host_phys
        self._tables = tables
        self._backed = 0  # bytes of the window mapped so far
        # Back the first page now: a heap that fits in it never changes
        # the page tables (and so the code generation) at run time.
        self._back(PAGE_2M)

    def _back(self, nbytes: int) -> None:
        while self._backed < nbytes:
            paddr = self._host_phys.alloc(PAGE_2M, align=PAGE_2M)
            self._tables.map_page(HOST_HEAP_VBASE + self._backed, paddr, PAGE_2M, nx=True)
            self._backed += PAGE_2M

    def alloc(self, size: int, align: int = 8) -> int:
        vaddr = super().alloc(size, align)
        self._back(vaddr + size - HOST_HEAP_VBASE)
        return vaddr


def create_address_space(machine, name: str) -> Process:
    """Create a bare Flick address space: page tables plus the fixed
    process windows, but no program segments (used by hosted-mode
    workloads that run timing-model bodies instead of binaries)."""
    mm = machine.memory_map
    pt = PageTables(machine.phys, machine.frame_alloc)

    # -- fixed windows ------------------------------------------------------
    # 4GB NxP data window: four 1GB huge pages (Section V).
    for i in range(4):
        pt.map_page(
            NXP_WINDOW_VBASE + i * PAGE_1G,
            mm.bar0_base + i * PAGE_1G,
            PAGE_1G,
            writable=True,
            nx=True,
        )
    # NxP stack BRAM window (2MB pages).
    for off in range(0, mm.nxp_bram_size, PAGE_2M):
        pt.map_page(NXP_STACK_VBASE + off, mm.nxp_bram_base + off, PAGE_2M, nx=True)
    # Host heap (2MB pages, backed as allocations reach them).
    host_heap = HostHeap(machine.host_phys, pt)
    # Host stack.
    stack_phys = machine.host_phys.alloc(HOST_STACK_BYTES, align=PAGE_2M)
    pt.map_page(HOST_STACK_TOP - HOST_STACK_BYTES, stack_phys, PAGE_2M, nx=True)

    process = Process(
        name=name,
        page_tables=pt,
        host_heap=host_heap,
        nxp_heap=WindowAllocator(
            "nxp_heap", machine.nxp_phys, mm.bar0_base, NXP_WINDOW_VBASE
        ),
    )
    # Map the kernel half: every loaded multi-ISA module (Section IV-D).
    if getattr(machine, "kernel_modules", None):
        from repro.os.module import map_modules_into

        map_modules_into(machine, process)
    return process


def load_executable(machine, exe: Executable, name: Optional[str] = None) -> Process:
    """Load ``exe`` into a fresh address space on ``machine``.

    ``machine`` must provide: ``phys``, ``frame_alloc`` (page-table
    frames), ``host_phys`` (host DRAM), ``nxp_phys`` (NxP DRAM, BAR0
    addresses), ``cfg`` and ``memory_map``.
    """
    process = create_address_space(machine, name or exe.entry_symbol)
    pt = process.page_tables
    process.symbols = dict(exe.symbols)

    # -- segments -----------------------------------------------------------
    for seg in exe.segments:
        if seg.size == 0:
            continue
        span = _align_up(seg.vaddr + seg.size, PAGE_4K) - (seg.vaddr & ~(PAGE_4K - 1))
        vbase = seg.vaddr & ~(PAGE_4K - 1)
        if seg.vaddr % PAGE_4K and seg.placement == "nxp":
            # An @nxp segment must start page-aligned: the loader marks
            # NxP text NX (and registers NxP data cacheable) at page
            # granularity, so a misaligned segment would drag co-resident
            # host bytes into the wrong protection/coherence domain and
            # break the vaddr->paddr congruence migration relies on.
            # The linker always page-aligns sections, so hitting this
            # means a corrupt or hand-built image.
            raise LoadError(
                f"@nxp segment {seg.section_name!r} at {seg.vaddr:#x} is "
                f"not {PAGE_4K:#x}-aligned; NxP segments must be page-congruent"
            )
        if seg.placement == "host":
            paddr = machine.host_phys.alloc(span, align=PAGE_4K)
        else:
            paddr = machine.nxp_phys.alloc(span, align=PAGE_4K)
        machine.phys.write(paddr, b"\x00" * span)
        machine.phys.write(paddr + (seg.vaddr - vbase), seg.data)
        # Map first, then apply the extended-mprotect NX marking the
        # paper's loader performs for NxP text (Section IV-C3).
        pt.map_range(vbase, paddr, span, PAGE_4K, writable=seg.writable, nx=(seg.isa is None))
        if seg.isa == "nisa":
            pt.set_nx(vbase, True, length=span)
        if seg.isa is not None:
            process.add_exec_range(seg.vaddr, seg.size, seg.isa)
        if seg.placement == "nxp" and seg.isa is None:
            # Annotated NxP-local data needs no host coherence (Section
            # III-D): the NxP D-cache may cache it.  The loader registers
            # the cacheable window with the machine, as the paper's
            # loader arranges for NxP-specific .data/.bss sections; every
            # device's memory port consults that one filter.
            machine.nxp_cacheable.allow(paddr, span)

    return process
