"""List-scan reference models of the NxP TLB and caches.

These are the scanning implementations the indexed :class:`repro.memory.TLB`
and :class:`repro.memory.Cache` replaced, kept as the oracle for
``test_memory_differential.py``.  The TLB scans its entries front to
back and moves each hit to the front; the cache keeps each set as a
list of ``(tag, stamp)`` tuples.  Both replace the minimum-stamp entry.
The TLB's BAR-remap register (``program_remap``, unchanged by the
index) is not duplicated here.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

from repro.memory.paging import Translation
from repro.memory.tlb import TLBEntry
from repro.sim.stats import StatRegistry


class ReferenceTLB:
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
        self._entries: list[TLBEntry] = []
        self._stamp = 0
        self._c_hit = self.stats.counter(f"{name}.hit")
        self._c_miss = self.stats.counter(f"{name}.miss")
        self._c_evict = self.stats.counter(f"{name}.evict")
        self._c_flush = self.stats.counter(f"{name}.flush")

    def _bump_stamp(self) -> int:
        self._stamp += 1
        return self._stamp

    def lookup(self, vaddr: int) -> Optional[TLBEntry]:
        """Return the covering entry (bumping LRU), or None on miss.

        Hits move their entry to the scan front; pages are disjoint, so
        scan order cannot change which entry matches, and replacement
        uses ``lru_stamp``, not list position."""
        entries = self._entries
        for i, entry in enumerate(entries):
            if entry.vbase <= vaddr < entry.vbase + entry.page_size:
                self._stamp += 1
                entry.lru_stamp = self._stamp
                self._c_hit.value += 1
                if i:
                    entries[i] = entries[0]
                    entries[0] = entry
                return entry
        self._c_miss.value += 1
        return None

    def probe(self, vaddr: int) -> Optional[TLBEntry]:
        """Non-mutating :meth:`lookup`: no LRU movement, no stamp bump,
        no hit/miss counters."""
        for entry in self._entries:
            if entry.vbase <= vaddr < entry.vbase + entry.page_size:
                return entry
        return None

    def insert(self, tr: Translation) -> TLBEntry:
        """Install a translation, evicting the LRU entry when full."""
        entry = TLBEntry(
            vbase=tr.page_base_vaddr,
            page_size=tr.page_size,
            pbase=tr.page_base_paddr,
            writable=tr.writable,
            user=tr.user,
            nx=tr.nx,
            lru_stamp=self._bump_stamp(),
        )
        # Replace a stale entry for the same page if present.
        for i, existing in enumerate(self._entries):
            if existing.vbase == entry.vbase and existing.page_size == entry.page_size:
                self._entries[i] = entry
                return entry
        if len(self._entries) >= self.capacity:
            victim = min(range(len(self._entries)), key=lambda i: self._entries[i].lru_stamp)
            del self._entries[victim]
            self._c_evict.value += 1
        self._entries.append(entry)
        return entry

    def flush(self) -> None:
        self._entries.clear()
        self._c_flush.value += 1

    @property
    def occupancy(self) -> int:
        return len(self._entries)


class ReferenceCache:
    """An N-way set-associative cache with LRU replacement."""

    def __init__(
        self,
        name: str,
        total_lines: int,
        line_bytes: int,
        ways: int = 4,
        stats: Optional[StatRegistry] = None,
    ):
        if total_lines <= 0 or total_lines % ways:
            raise ValueError("total_lines must be a positive multiple of ways")
        if line_bytes & (line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")
        self.name = name
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = total_lines // ways
        self.stats = stats or StatRegistry()
        # sets[i] = list of (tag, lru_stamp)
        self._sets: List[List[Tuple[int, int]]] = [[] for _ in range(self.num_sets)]
        self._stamp = itertools.count(1)
        self._c_hit = self.stats.counter(f"{name}.hit")
        self._c_miss = self.stats.counter(f"{name}.miss")
        self._c_evict = self.stats.counter(f"{name}.evict")

    def _locate(self, addr: int) -> Tuple[int, int]:
        line = addr // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def access(self, addr: int) -> bool:
        """Touch ``addr``; returns True on hit.  Misses install the line."""
        set_idx, tag = self._locate(addr)
        cache_set = self._sets[set_idx]
        for i, (existing_tag, _stamp) in enumerate(cache_set):
            if existing_tag == tag:
                cache_set[i] = (tag, next(self._stamp))
                self._c_hit.value += 1
                return True
        self._c_miss.value += 1
        if len(cache_set) >= self.ways:
            victim = min(range(len(cache_set)), key=lambda i: cache_set[i][1])
            del cache_set[victim]
            self._c_evict.value += 1
        cache_set.append((tag, next(self._stamp)))
        return False

    def probe(self, addr: int) -> bool:
        """Non-mutating presence check (no LRU update, no stats)."""
        set_idx, tag = self._locate(addr)
        return any(t == tag for t, _ in self._sets[set_idx])

    def flush(self) -> None:
        self._sets = [[] for _ in range(self.num_sets)]
        self.stats.count(f"{self.name}.flush")

    def invalidate_range(self, addr: int, length: int) -> None:
        first = addr // self.line_bytes
        last = (addr + max(length, 1) - 1) // self.line_bytes
        for line in range(first, last + 1):
            set_idx = line % self.num_sets
            tag = line // self.num_sets
            self._sets[set_idx] = [
                (t, s) for t, s in self._sets[set_idx] if t != tag
            ]

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)
