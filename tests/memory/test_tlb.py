"""Tests for the NxP TLB: LRU, huge pages, BAR remap routing."""

import pytest

from repro.memory import (
    PAGE_1G,
    PAGE_4K,
    MemoryRegion,
    PageTables,
    PhysicalMemory,
    RegionAllocator,
    TLB,
)
from repro.sim import StatRegistry

GB = 1024 * 1024 * 1024


def make_translation(vaddr, paddr, size=PAGE_4K, nx=False):
    phys = PhysicalMemory()
    phys.add_region(MemoryRegion("dram", 0x0, 64 * 1024 * 1024))
    phys.add_region(MemoryRegion("nxp", 0xA_0000_0000, 4 * GB))
    pt = PageTables(phys, RegionAllocator("f", 0x100_0000, 32 * 1024 * 1024))
    pt.map_page(vaddr, paddr, size, nx=nx)
    return pt.translate(vaddr)


def test_miss_then_hit():
    tlb = TLB("dtlb", entries=4)
    assert tlb.lookup(0x4000) is None
    tlb.insert(make_translation(0x4000, 0x8000))
    entry = tlb.lookup(0x4123)
    assert entry is not None
    assert entry.paddr_for(0x4123) == 0x8123


def test_capacity_sixteen_default():
    assert TLB("t").capacity == 16


def test_lru_eviction_order():
    tlb = TLB("t", entries=2)
    tlb.insert(make_translation(0x1000, 0x1000))
    tlb.insert(make_translation(0x2000, 0x2000))
    tlb.lookup(0x1000)  # make 0x1000 most recent
    tlb.insert(make_translation(0x3000, 0x3000))  # evicts 0x2000
    assert tlb.lookup(0x1000) is not None
    assert tlb.lookup(0x3000) is not None
    assert tlb.lookup(0x2000) is None


def test_reinsert_same_page_replaces_not_duplicates():
    tlb = TLB("t", entries=4)
    tlb.insert(make_translation(0x1000, 0x1000))
    tlb.insert(make_translation(0x1000, 0x5000))
    assert tlb.occupancy == 1
    assert tlb.lookup(0x1000).paddr_for(0x1000) == 0x5000


def test_huge_page_entry_covers_whole_gb():
    """Four 1GB entries cover the 4GB NxP store (Section V)."""
    tlb = TLB("t", entries=4)
    for i in range(4):
        tlb.insert(
            make_translation(
                0x100_0000_0000 + i * PAGE_1G, 0xA_0000_0000 + i * PAGE_1G, PAGE_1G
            )
        )
    # Random addresses anywhere in the 4GB all hit.
    for probe in (0x0, 0x1234_5678, 2 * PAGE_1G + 999, 4 * PAGE_1G - 1):
        entry = tlb.lookup(0x100_0000_0000 + probe)
        assert entry is not None
        assert entry.paddr_for(0x100_0000_0000 + probe) == 0xA_0000_0000 + probe
    assert tlb.stats.get("t.miss") == 0
    assert tlb.occupancy == 4


def test_flush_clears_everything():
    tlb = TLB("t", entries=4)
    tlb.insert(make_translation(0x1000, 0x1000))
    tlb.flush()
    assert tlb.occupancy == 0
    assert tlb.lookup(0x1000) is None


def test_stats_counting():
    stats = StatRegistry()
    tlb = TLB("itlb", entries=2, stats=stats)
    tlb.lookup(0x1000)
    tlb.insert(make_translation(0x1000, 0x1000))
    tlb.lookup(0x1000)
    assert stats.get("itlb.miss") == 1
    assert stats.get("itlb.hit") == 1


def test_nx_bit_preserved():
    tlb = TLB("t")
    tlb.insert(make_translation(0x9000, 0x9000, nx=True))
    assert tlb.lookup(0x9000).nx is True


def test_zero_entries_rejected():
    with pytest.raises(ValueError):
        TLB("t", entries=0)


class TestRemap:
    """Fig. 3: BAR at 0xA_0000_0000 (host view), NxP DRAM at 0x8000_0000."""

    def setup_method(self):
        self.tlb = TLB("t")
        self.bar = 0xA_0000_0000
        self.local = 0x8000_0000
        self.tlb.program_remap(self.bar, 4 * GB, self.bar - self.local)

    def test_bar_address_routes_local(self):
        route, addr = self.tlb.route(self.bar + 0x1234)
        assert route == "local"
        assert addr == self.local + 0x1234

    def test_host_dram_routes_over_pcie(self):
        route, addr = self.tlb.route(0x10_0000)
        assert route == "pcie"
        assert addr == 0x10_0000

    def test_boundaries(self):
        assert self.tlb.route(self.bar)[0] == "local"
        assert self.tlb.route(self.bar + 4 * GB - 1)[0] == "local"
        assert self.tlb.route(self.bar + 4 * GB)[0] == "pcie"
        assert self.tlb.route(self.bar - 1)[0] == "pcie"

    def test_unprogrammed_remap_routes_everything_pcie(self):
        fresh = TLB("fresh")
        assert fresh.route(self.bar + 5)[0] == "pcie"
