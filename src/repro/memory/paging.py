"""x86-64-style 4-level page tables, stored in simulated physical memory.

Flick's unified virtual memory works because the NxP MMU walks the
*host's* page tables (same PTBR/CR3, Fig. 1).  To reproduce that
faithfully, the tables here are real data structures living in the
simulated host DRAM: the software reference walk in :meth:`translate`
and the timed hardware walk in :class:`repro.memory.mmu.PageWalker` read
the same PTE words from the same physical addresses.

The entry format follows x86-64:

* bit 0   P  (present)
* bit 1   RW (writable)
* bit 2   US (user)
* bit 7   PS (huge page, at the PDPT level = 1 GB, PD level = 2 MB)
* bits 12..51  physical frame number
* bit 63  NX (no-execute) — the bit Flick repurposes to mark "this code
  belongs to the other ISA"
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.memory.allocator import RegionAllocator
from repro.memory.physical import PhysicalMemory

__all__ = [
    "PageTables",
    "Translation",
    "PageFault",
    "PTE_P",
    "PTE_RW",
    "PTE_US",
    "PTE_PS",
    "PTE_NX",
    "PAGE_4K",
    "PAGE_2M",
    "PAGE_1G",
]

PAGE_4K = 4 * 1024
PAGE_2M = 2 * 1024 * 1024
PAGE_1G = 1024 * 1024 * 1024

PTE_P = 1 << 0
PTE_RW = 1 << 1
PTE_US = 1 << 2
PTE_PS = 1 << 7
PTE_NX = 1 << 63

_ADDR_MASK = 0x000F_FFFF_FFFF_F000  # bits 12..51
_LEVEL_SHIFTS = (39, 30, 21, 12)  # PML4, PDPT, PD, PT
_CANONICAL_BITS = 48


class PageFault(Exception):
    """A translation failure, mirroring the hardware fault the kernel sees."""

    NOT_PRESENT = "not_present"
    WRITE_PROTECT = "write_protect"
    NX_VIOLATION = "nx_violation"
    NON_CANONICAL = "non_canonical"

    def __init__(self, vaddr: int, kind: str, is_write: bool = False, is_exec: bool = False):
        self.vaddr = vaddr
        self.kind = kind
        self.is_write = is_write
        self.is_exec = is_exec
        super().__init__(f"page fault at {vaddr:#x} ({kind})")

    @property
    def access_kind(self) -> str:
        """The access that faulted, for crash diagnostics."""
        if self.is_exec:
            return "execute"
        if self.is_write:
            return "write"
        return "read"


@dataclass(frozen=True)
class Translation:
    """Result of a successful page walk."""

    vaddr: int
    paddr: int
    page_size: int
    writable: bool
    user: bool
    nx: bool

    @property
    def page_base_vaddr(self) -> int:
        return self.vaddr & ~(self.page_size - 1)

    @property
    def page_base_paddr(self) -> int:
        return self.paddr & ~(self.page_size - 1)


def _indices(vaddr: int) -> Tuple[int, int, int, int]:
    return tuple((vaddr >> shift) & 0x1FF for shift in _LEVEL_SHIFTS)  # type: ignore


def _is_canonical(vaddr: int) -> bool:
    return 0 <= vaddr < (1 << _CANONICAL_BITS)


class PageTables:
    """One address space's 4-level page-table tree.

    ``frame_alloc`` hands out 4 KB physical frames (from host DRAM) for
    the table pages themselves, exactly as a kernel's page allocator
    would.
    """

    def __init__(self, phys: PhysicalMemory, frame_alloc: RegionAllocator):
        self.phys = phys
        self.frame_alloc = frame_alloc
        #: bumped on every mapping change; consumers (software TLBs /
        #: per-port translation caches) use it to self-invalidate.
        self.generation = 0
        #: bumped whenever the *code* visible through this address space
        #: may have changed: any mapping change, plus stores that land in
        #: a registered executable range.  Decoded-instruction caches key
        #: their validity off this (see repro.isa.interpreter).
        self.code_generation = 0
        self._exec_ranges: List[Tuple[int, int]] = []
        #: Envelope of the registered executable ranges: a store to
        #: ``[vaddr, vaddr + n)`` can overlap one only if ``vaddr <
        #: exec_hi`` and ``exec_lo < vaddr + n``.  Empty (0, 0) until
        #: the first range.
        self.exec_lo = 0
        self.exec_hi = 0
        self.cr3 = self._alloc_table_frame()

    # -- construction ----------------------------------------------------------

    def _alloc_table_frame(self) -> int:
        frame = self.frame_alloc.alloc(PAGE_4K, align=PAGE_4K)
        self.phys.write(frame, b"\x00" * PAGE_4K)
        return frame

    def _entry_addr(self, table_paddr: int, index: int) -> int:
        return table_paddr + index * 8

    def _walk_to_level(self, vaddr: int, target_level: int, create: bool) -> Optional[int]:
        """Return the physical address of the table at ``target_level``
        (0 = PML4 itself), creating intermediate tables if asked."""
        table = self.cr3
        idx = _indices(vaddr)
        for level in range(target_level):
            entry_addr = self._entry_addr(table, idx[level])
            entry = self.phys.read_u64(entry_addr)
            if not entry & PTE_P:
                if not create:
                    return None
                next_table = self._alloc_table_frame()
                self.phys.write_u64(entry_addr, (next_table & _ADDR_MASK) | PTE_P | PTE_RW | PTE_US)
                table = next_table
            else:
                if entry & PTE_PS:
                    raise ValueError(
                        f"cannot descend below a huge-page mapping at {vaddr:#x}"
                    )
                table = entry & _ADDR_MASK
        return table

    def map_page(
        self,
        vaddr: int,
        paddr: int,
        page_size: int = PAGE_4K,
        writable: bool = True,
        user: bool = True,
        nx: bool = False,
    ) -> None:
        """Install one mapping of ``page_size`` (4 KB, 2 MB or 1 GB)."""
        if page_size not in (PAGE_4K, PAGE_2M, PAGE_1G):
            raise ValueError(f"unsupported page size {page_size}")
        if vaddr % page_size or paddr % page_size:
            raise ValueError(
                f"vaddr {vaddr:#x} / paddr {paddr:#x} not {page_size}-aligned"
            )
        if not _is_canonical(vaddr):
            raise ValueError(f"non-canonical vaddr {vaddr:#x}")
        level = {PAGE_1G: 1, PAGE_2M: 2, PAGE_4K: 3}[page_size]
        table = self._walk_to_level(vaddr, level, create=True)
        entry_addr = self._entry_addr(table, _indices(vaddr)[level])
        flags = PTE_P
        if writable:
            flags |= PTE_RW
        if user:
            flags |= PTE_US
        if nx:
            flags |= PTE_NX
        if page_size != PAGE_4K:
            flags |= PTE_PS
        self.phys.write_u64(entry_addr, (paddr & _ADDR_MASK) | flags)
        self.generation += 1
        self.code_generation += 1

    def map_range(
        self,
        vaddr: int,
        paddr: int,
        length: int,
        page_size: int = PAGE_4K,
        writable: bool = True,
        user: bool = True,
        nx: bool = False,
    ) -> int:
        """Map ``length`` bytes with pages of ``page_size``; returns pages mapped."""
        if length <= 0:
            raise ValueError("length must be positive")
        count = 0
        offset = 0
        while offset < length:
            self.map_page(vaddr + offset, paddr + offset, page_size, writable, user, nx)
            offset += page_size
            count += 1
        return count

    def unmap_page(self, vaddr: int) -> None:
        entry_addr, _entry, _size = self._find_leaf(vaddr)
        self.phys.write_u64(entry_addr, 0)
        self.generation += 1
        self.code_generation += 1

    # -- NX manipulation (the extended mprotect() of Section IV-C3) -----------

    def set_nx(self, vaddr: int, nx: bool, length: int = PAGE_4K) -> int:
        """Set or clear the NX bit on every leaf covering the range.

        This is what the modified dynamic loader uses to mark
        ``.text.<nxp-isa>`` pages as migrate-on-execute.  Returns the
        number of leaf entries modified.
        """
        changed = 0
        addr = vaddr & ~(PAGE_4K - 1)
        end = vaddr + max(length, 1)
        while addr < end:
            entry_addr, entry, size = self._find_leaf(addr)
            if nx:
                entry |= PTE_NX
            else:
                entry &= ~PTE_NX
            self.phys.write_u64(entry_addr, entry)
            changed += 1
            addr = (addr & ~(size - 1)) + size
        self.generation += 1
        self.code_generation += 1
        return changed

    # -- code-change tracking (decoded-instruction cache support) --------------

    def note_exec_range(self, vaddr: int, size: int) -> None:
        """Register a virtual range holding executable code.

        Stores routed through the memory ports that overlap a registered
        range bump :attr:`code_generation` (self-modifying / JIT-style
        writes), invalidating any decoded-instruction cache built over
        this address space.
        """
        if self._exec_ranges:
            self.exec_lo = min(self.exec_lo, vaddr)
            self.exec_hi = max(self.exec_hi, vaddr + size)
        else:
            self.exec_lo, self.exec_hi = vaddr, vaddr + size
        self._exec_ranges.append((vaddr, size))
        self.code_generation += 1

    def note_code_store(self, vaddr: int, nbytes: int) -> None:
        """Called by the ports on every store; bumps the code generation
        when the written range overlaps registered executable code."""
        end = vaddr + (nbytes if nbytes > 0 else 1)
        for base, size in self._exec_ranges:
            if vaddr < base + size and base < end:
                self.code_generation += 1
                return

    # -- translation -------------------------------------------------------------

    def _find_leaf(self, vaddr: int) -> Tuple[int, int, int]:
        """Return (entry physical address, entry value, page size) of the
        leaf mapping ``vaddr``; faults if unmapped."""
        if not _is_canonical(vaddr):
            raise PageFault(vaddr, PageFault.NON_CANONICAL)
        table = self.cr3
        idx = _indices(vaddr)
        sizes = (None, PAGE_1G, PAGE_2M, PAGE_4K)
        for level in range(4):
            entry_addr = self._entry_addr(table, idx[level])
            entry = self.phys.read_u64(entry_addr)
            if not entry & PTE_P:
                raise PageFault(vaddr, PageFault.NOT_PRESENT)
            if level == 3 or entry & PTE_PS:
                size = sizes[level] if level < 3 else PAGE_4K
                if size is None:
                    raise PageFault(vaddr, PageFault.NOT_PRESENT)
                return entry_addr, entry, size
            table = entry & _ADDR_MASK
        raise AssertionError("unreachable")

    def translate(self, vaddr: int) -> Translation:
        """Software reference walk; raises :class:`PageFault` if unmapped."""
        _entry_addr, entry, size = self._find_leaf(vaddr)
        base = entry & _ADDR_MASK & ~(size - 1)
        return Translation(
            vaddr=vaddr,
            paddr=base | (vaddr & (size - 1)),
            page_size=size,
            writable=bool(entry & PTE_RW),
            user=bool(entry & PTE_US),
            nx=bool(entry & PTE_NX),
        )

    def access(
        self,
        vaddr: int,
        is_write: bool = False,
        is_exec: bool = False,
        invert_nx: bool = False,
    ) -> Translation:
        """Translate and enforce permissions.

        ``invert_nx`` implements the NxP-side rule from Section IV-B2:
        on the NxP, executing a page whose NX bit is *clear* (i.e. host
        code) faults, while NX-set pages (NxP code) execute normally.
        """
        tr = self.translate(vaddr)
        if is_write and not tr.writable:
            raise PageFault(vaddr, PageFault.WRITE_PROTECT, is_write=True)
        if is_exec:
            exec_forbidden = (not tr.nx) if invert_nx else tr.nx
            if exec_forbidden:
                raise PageFault(vaddr, PageFault.NX_VIOLATION, is_exec=True)
        return tr

    # -- walker support ------------------------------------------------------------

    def walk_entry_addrs(self, vaddr: int) -> List[int]:
        """Physical addresses of the PTE words a hardware walker reads
        for ``vaddr`` (one per level until the leaf).  Used by the MMU
        model to charge one cross-PCIe read per level."""
        if not _is_canonical(vaddr):
            raise PageFault(vaddr, PageFault.NON_CANONICAL)
        addrs: List[int] = []
        table = self.cr3
        idx = _indices(vaddr)
        for level in range(4):
            entry_addr = self._entry_addr(table, idx[level])
            addrs.append(entry_addr)
            entry = self.phys.read_u64(entry_addr)
            if not entry & PTE_P or level == 3 or entry & PTE_PS:
                return addrs
            table = entry & _ADDR_MASK
        return addrs

    def mapped_leaves(self) -> Iterator[Tuple[int, Translation]]:
        """Iterate (vaddr, translation) over all present leaf mappings."""

        def recurse(table: int, level: int, vbase: int) -> Iterator[Tuple[int, Translation]]:
            sizes = (None, PAGE_1G, PAGE_2M, PAGE_4K)
            shift = _LEVEL_SHIFTS[level]
            for i in range(512):
                entry = self.phys.read_u64(self._entry_addr(table, i))
                if not entry & PTE_P:
                    continue
                vaddr = vbase | (i << shift)
                if level == 3 or entry & PTE_PS:
                    size = sizes[level] if level < 3 else PAGE_4K
                    yield vaddr, self.translate(vaddr)
                else:
                    yield from recurse(entry & _ADDR_MASK, level + 1, vaddr)

        yield from recurse(self.cr3, 0, 0)
