"""Direct unit tests for the host and NxP memory ports.

Besides the per-port cases, two differentials hold the ports' fast
paths to their references: each port's ``fetch_check`` (plus charging
whatever it returns) against its ``fetch``, and the host
``TranslationCache`` memo against ``PageTables.translate``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DEFAULT_CONFIG
from repro.core.ports import (
    FallbackMemoryPort,
    HostMemoryPort,
    NxpMemoryPort,
    TranslationCache,
)
from repro.interconnect import PCIeLink
from repro.memory import (
    PAGE_1G,
    PAGE_2M,
    PAGE_4K,
    MemoryRegion,
    PageFault,
    PageTables,
    PageWalker,
    PhysicalMemory,
    RegionAllocator,
)
from repro.sim import Simulator, StatRegistry

GB = 1 << 30
MM = DEFAULT_CONFIG.memory_map


@pytest.fixture
def env():
    sim = Simulator()
    phys = PhysicalMemory()
    phys.add_region(MemoryRegion("host", 0x0, 64 << 20))
    phys.add_region(MemoryRegion("nxp", MM.bar0_base, 4 * GB))
    phys.add_region(MemoryRegion("bram", MM.nxp_bram_base, MM.nxp_bram_size))
    pt = PageTables(phys, RegionAllocator("frames", 1 << 20, 16 << 20))
    pt.map_page(0x10_000, 0x10_000, nx=False)  # host code page
    pt.map_page(0x20_000, 0x20_000, nx=True)  # nxp code page (host-phys)
    pt.map_page(0x30_000, 0x30_000, writable=False)  # read-only data
    pt.map_page(0x100_000, MM.bar0_base, nx=True)  # window into NxP DRAM
    pt.map_page(0x200_000, MM.nxp_bram_base, nx=True)  # window into BRAM
    link = PCIeLink(sim, DEFAULT_CONFIG, phys)
    return sim, phys, pt, link


class TestHostPort:
    def make(self, env):
        sim, phys, pt, link = env
        return sim, phys, HostMemoryPort(sim, DEFAULT_CONFIG, phys, link, pt)

    def test_fetch_host_code_ok(self, env):
        sim, phys, port = self.make(env)
        phys.write(0x10_000, b"\x53")
        assert sim.run_process(port.fetch(0x10_000, 1)) == b"\x53"

    def test_fetch_nx_page_faults(self, env):
        sim, _phys, port = self.make(env)
        with pytest.raises(Exception) as exc:
            sim.run_process(port.fetch(0x20_000, 1))
        root = exc.value.__cause__ or exc.value
        assert isinstance(root, PageFault)
        assert root.is_exec

    def test_host_dram_load_is_cheap(self, env):
        sim, phys, port = self.make(env)
        phys.write_u64(0x10_008, 7)
        sim.run_process(port.load(0x10_008, 8))
        assert sim.now == pytest.approx(DEFAULT_CONFIG.host_cached_mem_ns)

    def test_bar_load_costs_825ns(self, env):
        sim, _phys, port = self.make(env)
        sim.run_process(port.load(0x100_000, 8))
        assert sim.now == pytest.approx(825, rel=0.02)

    def test_bram_load_cheaper_than_dram_bar(self, env):
        sim, _phys, port = self.make(env)
        sim.run_process(port.load(0x200_000, 8))
        bram_t = sim.now
        sim.run_process(port.load(0x100_000, 8))  # NxP DRAM through the BAR
        dram_t = sim.now - bram_t
        assert 0 < bram_t < dram_t

    def test_readonly_store_faults(self, env):
        sim, _phys, port = self.make(env)
        with pytest.raises(Exception) as exc:
            sim.run_process(port.store(0x30_000, b"\x01"))
        root = exc.value.__cause__ or exc.value
        assert isinstance(root, PageFault)
        assert root.is_write

    def test_store_to_bar_is_posted(self, env):
        sim, phys, port = self.make(env)
        sim.run_process(port.store(0x100_010, b"\xAB" * 8))
        assert phys.read(MM.bar0_base + 0x10, 8) == b"\xAB" * 8
        assert sim.now < 825  # posted: no completion wait


class TestNxpPort:
    def make(self, env):
        sim, phys, pt, link = env
        walker = PageWalker(sim, DEFAULT_CONFIG, lambda: pt)
        return sim, phys, NxpMemoryPort(sim, DEFAULT_CONFIG, phys, link, walker)

    def test_inverted_nx_fetch_of_host_code_faults(self, env):
        sim, _phys, port = self.make(env)
        with pytest.raises(Exception) as exc:
            sim.run_process(port.fetch(0x10_000, 8))
        root = exc.value.__cause__ or exc.value
        assert isinstance(root, PageFault)

    def test_fetch_of_nx_marked_code_succeeds(self, env):
        sim, phys, port = self.make(env)
        phys.write(0x20_000, bytes(8))
        data = sim.run_process(port.fetch(0x20_000, 8))
        assert len(data) == 8

    def test_first_fetch_walks_then_hits(self, env):
        sim, phys, port = self.make(env)
        phys.write(0x20_000, bytes(16))
        sim.run_process(port.fetch(0x20_000, 8))
        first = sim.now
        sim.run_process(port.fetch(0x20_000, 8))
        second = sim.now - first
        assert first > 2 * DEFAULT_CONFIG.mmu_walk_step_ns  # cold: real walk
        assert second == pytest.approx(
            DEFAULT_CONFIG.tlb_hit_ns + DEFAULT_CONFIG.nxp_icache_hit_ns
        )

    def test_local_window_load_fast_host_load_slow(self, env):
        sim, _phys, port = self.make(env)
        # Warm both D-TLB entries so only the access paths differ.
        sim.run_process(port.load(0x100_000, 8))
        sim.run_process(port.load(0x10_008, 8))
        t0 = sim.now
        sim.run_process(port.load(0x100_000, 8))  # NxP DRAM via remap
        local = sim.now - t0
        t1 = sim.now
        sim.run_process(port.load(0x10_008, 8))  # host DRAM across PCIe
        remote = sim.now - t1
        assert local == pytest.approx(
            DEFAULT_CONFIG.tlb_hit_ns + DEFAULT_CONFIG.nxp_to_local_read_ns
        )
        assert remote > 2.5 * local

    def test_bram_loads_cheapest(self, env):
        sim, _phys, port = self.make(env)
        # Warm the TLB first.
        sim.run_process(port.load(0x200_000, 8))
        t0 = sim.now
        sim.run_process(port.load(0x200_008, 8))
        assert sim.now - t0 == pytest.approx(
            DEFAULT_CONFIG.tlb_hit_ns + DEFAULT_CONFIG.nxp_bram_ns
        )

    def test_flush_tlbs_forces_rewalk(self, env):
        sim, _phys, port = self.make(env)
        sim.run_process(port.load(0x100_000, 8))
        port.flush_tlbs()
        t0 = sim.now
        sim.run_process(port.load(0x100_000, 8))
        assert sim.now - t0 > DEFAULT_CONFIG.mmu_walk_step_ns

    def test_unmapped_load_faults(self, env):
        sim, _phys, port = self.make(env)
        with pytest.raises(Exception) as exc:
            sim.run_process(port.load(0xDEAD_0000, 8))
        root = exc.value.__cause__ or exc.value
        assert isinstance(root, PageFault)


class TestTranslationCache:
    def test_cache_returns_same_translation(self, env):
        _sim, _phys, pt, _link = env
        tc = TranslationCache(pt)
        assert 0x10_123 + tc.entry(0x10_123)[0] == pt.translate(0x10_123).paddr

    def test_cache_invalidated_on_table_change(self, env):
        _sim, _phys, pt, _link = env
        tc = TranslationCache(pt)
        assert tc.entry(0x10_000)[0] == 0
        pt.unmap_page(0x10_000)
        pt.map_page(0x10_000, 0x20_000, nx=False)
        assert 0x10_000 + tc.entry(0x10_000)[0] == 0x20_000

    def test_cache_handles_offsets_within_page(self, env):
        _sim, _phys, pt, _link = env
        tc = TranslationCache(pt)
        tc.entry(0x10_000)
        assert 0x10_FFF + tc.entry(0x10_FFF)[0] == 0x10_FFF


# -- TranslationCache.entry against PageTables.translate ----------------------

#: page size -> (slot bases, frame base, in-page offsets looked up).
#: Each size has its own 1 GB regions, so a huge page never has to be
#: split.
MEMO_SLOTS = {
    PAGE_4K: ([0x4000_0000 + i * PAGE_4K for i in range(4)], 0x80_0000, (0, 8, 0xFFF)),
    PAGE_2M: ([0x8000_0000 + i * PAGE_2M for i in range(3)], 0x4000_0000, (0, 0x1008, PAGE_2M - 1)),
    PAGE_1G: ([0x1_0000_0000 + i * PAGE_1G for i in range(2)], 0x10_0000_0000, (0, 0x20_1008, PAGE_1G - 1)),
}

MEMO_OPS = st.lists(
    st.tuples(
        st.sampled_from(("map", "map", "unmap", "set_nx", "lookup", "lookup", "lookup")),
        st.sampled_from(sorted(MEMO_SLOTS)),
        st.integers(0, 3),  # slot (modulo the size's slot count)
        st.integers(0, 3),  # frame, or in-page offset for a lookup
        st.booleans(),  # writable
        st.booleans(),  # nx
    ),
    max_size=40,
)


def _reference_entry(pt, vaddr):
    try:
        tr = pt.translate(vaddr)
    except PageFault as fault:
        return ("fault", fault.kind)
    base = tr.page_base_vaddr
    return (tr.paddr - vaddr, tr.writable, tr.nx), (base, base + tr.page_size, tr.paddr - vaddr)


def _memo_entry(tc, vaddr):
    try:
        return tc.entry(vaddr), tc.page(vaddr)
    except PageFault as fault:
        return ("fault", fault.kind)


@settings(max_examples=150, deadline=None)
@given(ops=MEMO_OPS)
def test_translation_memo_matches_page_tables(ops):
    """Random map / unmap / remap / NX-flip sequences over 4 KB, 2 MB and
    1 GB pages: every lookup through the memo equals the reference walk,
    ``(paddr - vaddr, writable, nx)`` from ``entry`` and ``(page base,
    page end, paddr - vaddr)`` from ``page``, or both raise
    ``PageFault``."""
    phys = PhysicalMemory()
    phys.add_region(MemoryRegion("host", 0x0, 64 << 20))
    pt = PageTables(phys, RegionAllocator("frames", 1 << 20, 16 << 20))
    tc = TranslationCache(pt)
    mapped = set()
    for op, size, slot, arg, writable, nx in ops:
        bases, frame_base, offsets = MEMO_SLOTS[size]
        vaddr = bases[slot % len(bases)]
        if op == "map":  # a remap when the slot is already mapped
            pt.map_page(vaddr, frame_base + arg * size, size, writable=writable, nx=nx)
            mapped.add(vaddr)
        elif op == "unmap" and vaddr in mapped:
            pt.unmap_page(vaddr)
            mapped.discard(vaddr)
        elif op == "set_nx" and vaddr in mapped:
            pt.set_nx(vaddr, nx)
        # Look up after every step, so stale memo entries get probed.
        at = vaddr + offsets[arg % len(offsets)]
        assert _memo_entry(tc, at) == _reference_entry(pt, at), (op, hex(at))


# -- fetch_check against fetch, per port ---------------------------------------

#: A host code page whose successor is NX-set, for a two-part HISA
#: instruction straddling the page boundary.
STRADDLE_PAGE = 0x40_000


def _port_env(kind):
    """A fresh port of ``kind`` over a host and an NxP code page, with
    one registry for the port, its walker and the link."""
    sim = Simulator()
    stats = StatRegistry()
    phys = PhysicalMemory()
    phys.add_region(MemoryRegion("host", 0x0, 64 << 20))
    pt = PageTables(phys, RegionAllocator("frames", 1 << 20, 16 << 20))
    pt.map_page(0x10_000, 0x10_000, nx=False)  # host code page
    pt.map_page(0x20_000, 0x20_000, nx=True)  # nxp code page (host-phys)
    pt.map_page(STRADDLE_PAGE, STRADDLE_PAGE, nx=False)
    pt.map_page(STRADDLE_PAGE + PAGE_4K, STRADDLE_PAGE + PAGE_4K, nx=True)
    link = PCIeLink(sim, DEFAULT_CONFIG, phys, stats=stats)
    if kind == "nxp":
        walker = PageWalker(sim, DEFAULT_CONFIG, lambda: pt, stats=stats)
        port = NxpMemoryPort(sim, DEFAULT_CONFIG, phys, link, walker, stats=stats)
    else:
        cls = HostMemoryPort if kind == "host" else FallbackMemoryPort
        port = cls(sim, DEFAULT_CONFIG, phys, link, pt, stats=stats)
    return sim, stats, port


def _fetches(port, spans):
    for vaddr, nbytes in spans:
        yield from port.fetch(vaddr, nbytes)


def _fetch_checks(port, spans):
    """What the interpreter does on a decode-cache hit: call
    ``fetch_check`` and charge what it returns."""
    advance = port.sim.advance
    for vaddr, nbytes in spans:
        due = port.fetch_check(vaddr, nbytes)
        if due is None:
            continue
        if type(due) is tuple:
            for pause in due:
                if not advance(pause.delay):
                    yield pause
        else:
            yield from due


def _observe(kind, warm, spans, run):
    """Warm a fresh ``kind`` port with ``warm`` (fetches, or a TLB
    flush), run ``spans`` through ``run``; return everything a fetch
    may change."""
    sim, stats, port = _port_env(kind)
    for action in warm:
        if action == "flush_tlbs":
            port.flush_tlbs()
            continue
        try:
            sim.run_process(_fetches(port, [action]))
        except Exception:
            pass  # warming a faulting fetch still fills the I-TLB
    fault = None
    try:
        sim.run_process(run(port, spans))
    except Exception as exc:
        root = exc.__cause__ or exc
        fault = (type(root).__name__, getattr(root, "vaddr", None), getattr(root, "kind", None))
    return fault, sim.now, stats.snapshot(), sim.events_processed


LINE = DEFAULT_CONFIG.nxp_icache_line_bytes

#: case -> (ports it applies to, warm-up, fetched spans) per NX sense:
#: ``code`` is a page the port executes, ``other`` one it faults on.
FETCH_CASES = {
    "itlb_hit_icache_hit": (("host", "fallback", "nxp"), lambda code, other: (
        [(code, 8)], [(code, 8)])),
    "itlb_miss_icache_miss": (("host", "fallback", "nxp"), lambda code, other: (
        [], [(code, 8)])),
    "itlb_miss_icache_hit": (("nxp",), lambda code, other: (
        [(code, 8), "flush_tlbs"], [(code, 8)])),
    "itlb_hit_icache_miss": (("nxp",), lambda code, other: (
        [(code, 8)], [(code + LINE, 8)])),
    "nx_fault_on_walk": (("host", "fallback", "nxp"), lambda code, other: (
        [], [(other, 8)])),
    "nx_fault_on_itlb_hit": (("host", "fallback", "nxp"), lambda code, other: (
        [(other, 8)], [(other, 8)])),
    "unmapped": (("host", "fallback", "nxp"), lambda code, other: (
        [], [(0xDEAD_0000, 8)])),
    "two_part_hisa": (("host",), lambda code, other: (
        [], [(code, 1), (code + 1, 3)])),
    "two_part_hisa_nx_fault_across_page": (("host",), lambda code, other: (
        [], [(STRADDLE_PAGE + PAGE_4K - 1, 1), (STRADDLE_PAGE + PAGE_4K, 3)])),
}

#: Each port's executable and faulting page under its NX sense: the host
#: executes NX-clear pages, the fallback emulator and the NxP NX-set ones.
EXEC_PAGES = {"host": (0x10_000, 0x20_000), "fallback": (0x20_000, 0x10_000),
              "nxp": (0x20_000, 0x10_000)}


@pytest.mark.parametrize(
    "kind,case",
    [(kind, case) for case, (kinds, _) in FETCH_CASES.items() for kind in kinds],
)
def test_fetch_check_charges_what_fetch_charges(kind, case):
    """``fetch_check`` plus charging its result equals ``fetch`` in
    simulated time, stats, processed events and raised fault."""
    code, other = EXEC_PAGES[kind]
    warm, spans = FETCH_CASES[case][1](code, other)
    reference = _observe(kind, warm, spans, _fetches)
    assert _observe(kind, warm, spans, _fetch_checks) == reference
    if "fault" in case or case == "unmapped":
        assert reference[0] is not None and reference[0][0] == "PageFault"
    else:
        assert reference[0] is None
