"""The NxP's software-visible TLB model (Section IV-A).

16-entry fully-associative I-TLB and D-TLB with LRU replacement, plus the
two Flick-specific features the paper adds:

* **BAR remap register** — the host driver computes the offset between
  where it mapped BAR0 (NxP DRAM as seen by the host) and where the NxP
  decodes its local DRAM, and writes it into a TLB control register.
  Translated physical addresses falling inside the BAR window are
  adjusted so the access is routed to local DRAM instead of looping back
  over PCIe (Fig. 3).  The window's bounds (:attr:`RemapWindow.lo`,
  :attr:`RemapWindow.hi`) are fixed when the register is programmed,
  and every consumer of :attr:`TLB.remap` tests an access against them.
* **Inverted NX sense** — handled by the consumer passing
  ``invert_nx=True`` to permission checks; the TLB stores the NX bit
  verbatim.

Entries are indexed, not scanned: one ``vaddr >> shift -> entry`` dict
per resident page size, plus a last-hit memo.  The pages of a TLB are
disjoint, so at most one entry covers any address and the index finds
the same entry a scan would.  Replacement is by a single per-TLB
``lru_stamp`` sequence, so the victim is the same whatever the index
looks like.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.memory.paging import Translation
from repro.sim.stats import StatRegistry

__all__ = ["TLB", "TLBEntry", "RemapWindow"]


@dataclass
class TLBEntry:
    vbase: int
    page_size: int
    pbase: int
    writable: bool
    user: bool
    nx: bool
    lru_stamp: int = 0

    def paddr_for(self, vaddr: int) -> int:
        return self.pbase | (vaddr - self.vbase)


@dataclass(frozen=True)
class RemapWindow:
    """The BAR-remap control register contents.

    ``lo <= paddr < hi`` is the window test.  An unprogrammed register
    (``size`` 0) or a non-positive size gives ``hi == lo``, a window
    that captures nothing.
    """

    bar_base: int = 0
    size: int = 0
    offset: int = 0  # host BAR address - NxP local address
    lo: int = field(init=False)
    hi: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", self.bar_base)
        object.__setattr__(self, "hi", self.bar_base + max(self.size, 0))


class TLB:
    """A small fully-associative TLB with LRU replacement."""

    def __init__(
        self,
        name: str,
        entries: int = 16,
        stats: Optional[StatRegistry] = None,
    ):
        if entries <= 0:
            raise ValueError("TLB must have at least one entry")
        self.name = name
        self.capacity = entries
        self.stats = stats or StatRegistry()
        self.remap = RemapWindow()
        # (shift, {vaddr >> shift: entry}) per page size with an entry.
        self._resident: List[Tuple[int, Dict[int, TLBEntry]]] = []
        self._count = 0
        self._last: Optional[TLBEntry] = None  # last entry found (host-side memo)
        self._stamp = 0
        self._c_hit = self.stats.counter(f"{name}.hit")
        self._c_miss = self.stats.counter(f"{name}.miss")
        self._c_evict = self.stats.counter(f"{name}.evict")
        self._c_flush = self.stats.counter(f"{name}.flush")

    # -- control register (written by the host driver over MMIO) ----------

    def program_remap(self, bar_base: int, size: int, offset: int) -> None:
        self.remap = RemapWindow(bar_base=bar_base, size=size, offset=offset)

    # -- lookup / fill -----------------------------------------------------

    def lookup(self, vaddr: int) -> Optional[TLBEntry]:
        """Return the covering entry (bumping LRU), or None on miss."""
        entry = self.probe(vaddr)
        if entry is None:
            self._c_miss.value += 1
        else:
            self.touch(entry)
        return entry

    def probe(self, vaddr: int) -> Optional[TLBEntry]:
        """Non-mutating :meth:`lookup`: no LRU movement, no stamp bump,
        no hit/miss counters.  The JIT tier uses it to decide whether an
        access can run on the compiled fast path *before* committing any
        observable TLB bookkeeping, then commits it with :meth:`touch`
        (a miss bails to the interpreter, which then performs the real,
        counted lookup)."""
        last = self._last
        if last is not None and last.vbase <= vaddr < last.vbase + last.page_size:
            return last
        for shift, pages in self._resident:
            entry = pages.get(vaddr >> shift)
            if entry is not None:
                self._last = entry
                return entry
        return None

    def touch(self, entry: TLBEntry, n: int = 1) -> None:
        """Commit ``n`` hits on ``entry``, which :meth:`probe` returned
        and nothing has evicted since: exactly the bookkeeping of ``n``
        hitting :meth:`lookup` calls in a row.  Each hit takes the next
        stamp of the one per-TLB sequence, so ``n`` of them leave the
        entry on the ``n``-th and the hit counter ``n`` higher.  The JIT
        tier books a run of hits on one page this way (repro.isa.jit)."""
        self._stamp += n
        entry.lru_stamp = self._stamp
        self._c_hit.value += n

    def insert(self, tr: Translation) -> TLBEntry:
        """Install a translation, evicting the LRU entry when full."""
        self._stamp += 1
        entry = TLBEntry(
            vbase=tr.page_base_vaddr,
            page_size=tr.page_size,
            pbase=tr.page_base_paddr,
            writable=tr.writable,
            user=tr.user,
            nx=tr.nx,
            lru_stamp=self._stamp,
        )
        shift = tr.page_size.bit_length() - 1
        key = entry.vbase >> shift
        self._last = entry
        pages = self._pages_of(shift)
        if pages is not None and key in pages:
            pages[key] = entry  # a stale entry for the same page: replace it
            return entry
        if self._count >= self.capacity:
            self._evict_lru()
            pages = self._pages_of(shift)  # the eviction may have emptied it
        if pages is None:
            pages = {}
            self._resident.append((shift, pages))
        pages[key] = entry
        self._count += 1
        return entry

    def _pages_of(self, shift: int) -> Optional[Dict[int, TLBEntry]]:
        for s, pages in self._resident:
            if s == shift:
                return pages
        return None

    def _evict_lru(self) -> None:
        victim_pages, victim_key, oldest = None, 0, None
        for shift, pages in self._resident:
            for key, e in pages.items():
                if oldest is None or e.lru_stamp < oldest:
                    victim_pages, victim_key, oldest = pages, key, e.lru_stamp
        del victim_pages[victim_key]
        self._count -= 1
        self._c_evict.value += 1
        if not victim_pages:
            self._resident = [r for r in self._resident if r[1] is not victim_pages]

    def flush(self) -> None:
        self._resident = []
        self._count = 0
        self._last = None
        self._c_flush.value += 1

    @property
    def occupancy(self) -> int:
        return self._count
