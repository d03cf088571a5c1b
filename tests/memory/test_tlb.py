"""Tests for the NxP TLB: LRU, huge pages, BAR remap routing."""

from dataclasses import replace

import pytest

from repro.core.config import DEFAULT_CONFIG
from repro.core.ports import NxpMemoryPort
from repro.interconnect import PCIeLink
from repro.memory import (
    PAGE_1G,
    PAGE_4K,
    MemoryRegion,
    PageTables,
    PageWalker,
    PhysicalMemory,
    RegionAllocator,
    TLB,
)
from repro.memory.tlb import RemapWindow
from repro.sim import Simulator, StatRegistry

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
    """Fig. 3: BAR at 0xA_0000_0000 (host view), NxP DRAM at 0x8000_0000.

    The routing decision is taken by the NxP memory port against its
    D-TLB's remap window, so each case loads and stores one byte through
    the port and reads the route off its counters."""

    BAR = 0xA_0000_0000
    LOCAL = 0x8000_0000
    #: vaddr page -> paddr page around both window edges.
    PAGES = {
        0x100_000: BAR,
        0x101_000: BAR + 4 * GB - PAGE_4K,
        0x102_000: BAR + 4 * GB,
        0x103_000: BAR - PAGE_4K,
        0x104_000: 0x10_0000,  # host DRAM
    }

    def setup_method(self):
        # BRAM moved off bar + 4 GB (where the default map puts it), so
        # only the window decides the route there.
        mm = replace(DEFAULT_CONFIG.memory_map, nxp_bram_base=0xC_0000_0000)
        self.cfg = replace(DEFAULT_CONFIG, memory_map=mm)
        self.sim = Simulator()
        phys = PhysicalMemory()
        phys.add_region(MemoryRegion("host", 0x0, 64 << 20))
        phys.add_region(MemoryRegion("below", self.BAR - (2 << 20), 2 << 20))
        phys.add_region(MemoryRegion("nxp", self.BAR, 4 * GB))
        phys.add_region(MemoryRegion("beyond", self.BAR + 4 * GB, 2 << 20))
        pt = PageTables(phys, RegionAllocator("frames", 0x100_0000, 16 << 20))
        for vaddr, paddr in self.PAGES.items():
            pt.map_page(vaddr, paddr, nx=True)
        walker = PageWalker(self.sim, self.cfg, lambda: pt)
        link = PCIeLink(self.sim, self.cfg, phys)
        self.port = NxpMemoryPort(self.sim, self.cfg, phys, link, walker)
        self.tlb = self.port.dtlb
        self.tlb.program_remap(self.BAR, 4 * GB, self.BAR - self.LOCAL)

    def route(self, vaddr):
        """(load route, store route) of one byte at ``vaddr``."""
        before = self.port.stats.snapshot()
        self.sim.run_process(self.port.load(vaddr, 1))
        self.sim.run_process(self.port.store(vaddr, b"\x5a"))
        after = self.port.stats.snapshot()

        def moved(name):
            return after.get(name, 0) - before.get(name, 0)

        load = "local" if moved("nxp.load_local") else "pcie" if moved("nxp.load_pcie") else None
        store = "pcie" if moved("nxp.store_pcie") else "local"
        return load, store

    def test_bar_address_routes_local(self):
        assert self.route(0x100_000 + 0x1234) == ("local", "local")
        # The register maps the BAR address back to the NxP's own decode.
        assert self.BAR + 0x1234 - self.tlb.remap.offset == self.LOCAL + 0x1234

    def test_host_dram_routes_over_pcie(self):
        assert self.route(0x104_000) == ("pcie", "pcie")

    def test_boundaries(self):
        assert self.route(0x100_000) == ("local", "local")  # bar
        assert self.route(0x101_FFF) == ("local", "local")  # bar + 4 GB - 1
        assert self.route(0x102_000) == ("pcie", "pcie")  # bar + 4 GB
        assert self.route(0x103_FFF) == ("pcie", "pcie")  # bar - 1

    def test_local_route_costs_a_local_read(self):
        self.sim.run_process(self.port.load(0x101_FF8, 8))  # warm the D-TLB
        t0 = self.sim.now
        self.sim.run_process(self.port.load(0x101_FF8, 8))
        assert self.sim.now - t0 == pytest.approx(
            self.cfg.tlb_hit_ns + self.cfg.nxp_to_local_read_ns
        )

    def test_unprogrammed_remap_routes_everything_pcie(self):
        self.tlb.remap = RemapWindow()  # what a fresh TLB holds
        assert TLB("fresh").remap == self.tlb.remap
        assert self.route(0x100_000 + 5) == ("pcie", "pcie")

    @pytest.mark.parametrize(
        "window",
        [RemapWindow(), RemapWindow(BAR, 0, BAR - LOCAL), RemapWindow(BAR, -PAGE_4K, 0)],
        ids=["unprogrammed", "zero_size", "negative_size"],
    )
    def test_empty_window_captures_no_edge(self, window):
        assert window.hi == window.lo == window.bar_base
        self.tlb.remap = window
        for vaddr in (0x100_000, 0x101_FFF, 0x102_000, 0x103_FFF, 0x104_000):
            assert self.route(vaddr) == ("pcie", "pcie")

    def test_window_bounds_fixed_when_programmed(self):
        window = self.tlb.remap
        assert (window.lo, window.hi) == (self.BAR, self.BAR + 4 * GB)
        self.tlb.program_remap(self.BAR, 0, 0)
        assert self.tlb.remap.lo == self.tlb.remap.hi == self.BAR
