"""Set-associative cache models for the NxP core.

Section IV-A: the NxP I-cache is essential because NxP ``.text`` lives in
*host* memory (Section III-D) — every I-cache miss crosses PCIe.  The
D-cache may only be enabled for NxP-local regions that do not require
coherence with the host (PCIe has no snooping), which the
:class:`CacheableFilter` enforces.

These are bookkeeping models: they answer hit/miss and track stats; the
caller charges the appropriate latency.

Lines are indexed, not scanned: one ``line -> lru stamp`` dict plus a
resident list per set.  Every hit and fill takes the next value of one
integer stamp per cache, so a set's least-recently-used line is its
minimum-stamp line however the index is laid out, and ``n`` hits in a
row on one line can be committed at once (:meth:`Cache.touch`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sim.stats import StatRegistry

__all__ = ["Cache", "CacheableFilter"]


class Cache:
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
        self._shift = line_bytes.bit_length() - 1
        self._stamps: Dict[int, int] = {}  # resident line number -> lru stamp
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self._stamp = 0
        self._c_hit = self.stats.counter(f"{name}.hit")
        self._c_miss = self.stats.counter(f"{name}.miss")
        self._c_evict = self.stats.counter(f"{name}.evict")

    def access(self, addr: int) -> bool:
        """Touch ``addr``; returns True on hit.  Misses install the line."""
        line = addr >> self._shift
        stamps = self._stamps
        self._stamp += 1
        if line in stamps:
            stamps[line] = self._stamp
            self._c_hit.value += 1
            return True
        self._c_miss.value += 1
        cache_set = self._sets[line % self.num_sets]
        if len(cache_set) >= self.ways:
            victim = min(cache_set, key=stamps.__getitem__)
            cache_set.remove(victim)
            del stamps[victim]
            self._c_evict.value += 1
        cache_set.append(line)
        stamps[line] = self._stamp
        return False

    def touch(self, addr: int, n: int = 1) -> None:
        """Commit ``n`` hits on the resident line holding ``addr``:
        exactly the bookkeeping of ``n`` hitting :meth:`access` calls in
        a row (the line takes the ``n``-th next stamp, the hit counter
        rises by ``n``).  The JIT tier books a run of fetches on one
        I-cache line this way (repro.isa.jit)."""
        self._stamp += n
        self._stamps[addr >> self._shift] = self._stamp
        self._c_hit.value += n

    def probe(self, addr: int) -> bool:
        """Non-mutating presence check (no LRU update, no stats)."""
        return addr >> self._shift in self._stamps

    def flush(self) -> None:
        self._stamps.clear()
        self._sets = [[] for _ in range(self.num_sets)]
        self.stats.count(f"{self.name}.flush")

    def invalidate_range(self, addr: int, length: int) -> None:
        stamps = self._stamps
        first = addr >> self._shift
        last = (addr + max(length, 1) - 1) >> self._shift
        for line in range(first, last + 1):
            if line in stamps:
                del stamps[line]
                self._sets[line % self.num_sets].remove(line)

    @property
    def occupancy(self) -> int:
        return len(self._stamps)


class CacheableFilter:
    """Decides which physical ranges the NxP D-cache may cache.

    PCIe offers no coherence, so only NxP-local, host-invisible data may
    be cached (Section III-D / IV-A).  The host driver (or loader, for
    annotated NxP-local sections) registers cacheable windows here.
    """

    def __init__(self) -> None:
        self._windows: List[Tuple[int, int]] = []

    def allow(self, base: int, size: int) -> None:
        self._windows.append((base, size))

    def cacheable(self, paddr: int) -> bool:
        for base, size in self._windows:
            if base <= paddr < base + size:
                return True
        return False
