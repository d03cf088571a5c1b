"""Memory ports: how each core's loads/stores/fetches reach memory.

The *same* virtual address resolves through the *same* page tables on
both sides (Fig. 1), but the cost differs radically by core and by
physical target — that asymmetry is the entire premise of Flick:

================  ======================  ==========================
access            host core               NxP core
================  ======================  ==========================
host DRAM         cached, ~ns             PCIe read, ~0.8 us
NxP DRAM (BAR0)   PCIe read, ~825 ns      local, ~267 ns (TLB hit)
NxP stack BRAM    PCIe read               on-chip, ~10 ns
translation       hardware-invisible      16-entry TLBs + timed
                  (charged 0, cached)     cross-PCIe table walk
================  ======================  ==========================

The host port enforces the normal NX sense on instruction fetch; the
NxP port enforces the *inverted* sense (Section IV-B2) and additionally
faults on misaligned/illegal fetches, which its interpreter raises
naturally when it wanders into HISA bytes.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Optional, Tuple

from repro.core.config import FlickConfig
from repro.interconnect.pcie import PCIeLink
from repro.memory.cache import Cache, CacheableFilter
from repro.memory.mmu import PageWalker
from repro.memory.paging import PageFault, PageTables, Translation
from repro.memory.physical import PhysicalMemory
from repro.memory.tlb import TLB
from repro.sim.engine import Simulator
from repro.sim.stats import StatRegistry

__all__ = ["HostMemoryPort", "FallbackMemoryPort", "NxpMemoryPort", "TranslationCache"]


class TranslationCache:
    """A software-side memo of recent translations (models the host's
    hardware TLB being effectively free at our timescale).  Invalidated
    whenever the page tables change (generation counter).

    With ``fast`` (default), :meth:`entry` serves hits from one flat
    dict keyed by the 4 KB frame number.  Each value is a reusable
    ``(paddr - vaddr, writable, nx)`` tuple, so a hit is a single probe
    with zero allocation — huge pages simply populate one flat entry per
    4 KB frame actually touched.  With ``fast=False`` every lookup goes
    through the legacy coarsest-first 3-probe path.  Neither path yields
    or counts stats, so the toggle cannot affect simulated results.
    """

    def __init__(self, tables: PageTables, fast: bool = True):
        self.tables = tables
        self.fast = fast
        self._cache: Dict[int, Translation] = {}
        self._flat: Dict[int, Tuple[int, bool, bool]] = {}
        self._generation = tables.generation

    def _sync(self) -> None:
        if self._generation != self.tables.generation:
            self._cache.clear()
            self._flat.clear()
            self._generation = self.tables.generation

    def entry(self, vaddr: int) -> Tuple[int, bool, bool]:
        """Return ``(paddr - vaddr, writable, nx)`` for the page holding
        ``vaddr`` — the allocation-free hot path used by the ports."""
        if self._generation != self.tables.generation:
            self._cache.clear()
            self._flat.clear()
            self._generation = self.tables.generation
        if self.fast:
            key = vaddr >> 12
            e = self._flat.get(key)
            if e is None:
                tr = self.tables.translate(vaddr)
                e = (tr.paddr - vaddr, tr.writable, tr.nx)
                self._flat[key] = e
            return e
        tr = self._probe(vaddr)
        return (tr.paddr - vaddr, tr.writable, tr.nx)

    def translate(self, vaddr: int) -> Translation:
        self._sync()
        return self._probe(vaddr)

    def _probe(self, vaddr: int) -> Translation:
        # Probe coarsest-first so huge pages hit with one lookup.
        for bits in (30, 21, 12):
            key = vaddr >> bits
            tr = self._cache.get((bits << 56) | key)
            if tr is not None and tr.page_base_vaddr <= vaddr < tr.page_base_vaddr + tr.page_size:
                return Translation(
                    vaddr=vaddr,
                    paddr=tr.page_base_paddr | (vaddr - tr.page_base_vaddr),
                    page_size=tr.page_size,
                    writable=tr.writable,
                    user=tr.user,
                    nx=tr.nx,
                )
        tr = self.tables.translate(vaddr)
        bits = {1 << 30: 30, 1 << 21: 21, 1 << 12: 12}[tr.page_size]
        self._cache[(bits << 56) | (vaddr >> bits)] = tr
        return tr


class HostMemoryPort:
    """A host core's view of one process's address space."""

    #: NX sense enforced on instruction fetch: pages whose NX bit equals
    #: this value are executable through this port.  The JIT tier's
    #: trace compiler validates code pages against it (repro.isa.jit).
    exec_nx_sense = False

    def __init__(
        self,
        sim: Simulator,
        cfg: FlickConfig,
        phys: PhysicalMemory,
        link: PCIeLink,
        tables: PageTables,
        stats: Optional[StatRegistry] = None,
    ):
        self.sim = sim
        self.cfg = cfg
        self.phys = phys
        self.link = link
        self.tables = tables
        self.mm = cfg.memory_map
        self.stats = stats or StatRegistry()
        self.tcache = TranslationCache(tables, fast=cfg.translation_fast_path)
        self._c_load = self.stats.counter("host.load")
        self._c_load_pcie = self.stats.counter("host.load_pcie")
        self._c_store = self.stats.counter("host.store")
        self._c_store_pcie = self.stats.counter("host.store_pcie")
        # Timeout objects are immutable; reusing one per fixed latency
        # avoids an allocation on every access.  Each fixed latency is
        # first offered to advance, which ends it in place when nothing
        # else is due first (see Simulator.advance_to).
        self._advance = sim.advance
        self._pause_cached_mem = sim.timeout(cfg.host_cached_mem_ns)

    @property
    def code_generation(self) -> int:
        """Validity token for decoded-instruction caches built over this
        port (see :class:`repro.isa.interpreter.Interpreter`)."""
        return self.tables.code_generation

    def fetch(self, vaddr: int, nbytes: int) -> Generator:
        delta, _writable, nx = self.tcache.entry(vaddr)
        if nx != self.exec_nx_sense:
            # The Flick trigger: host fetched NxP-ISA (or data) pages.
            raise PageFault(vaddr, PageFault.NX_VIOLATION, is_exec=True)
        return self.phys.read(vaddr + delta, nbytes)
        yield  # a port generator like the others; the host I-fetch is free

    def fetch_check(self, vaddr: int, nbytes: int) -> Generator:
        """Charge exactly what :meth:`fetch` charges — same faults, same
        timed yields, same stats — without reading the bytes.  Used by
        the decoded-instruction cache to keep fetch timing and NX
        semantics bit-identical while skipping re-decode."""
        self.fetch_check_sync(vaddr, nbytes)
        return
        yield

    def fetch_check_sync(self, vaddr: int, nbytes: int) -> bool:
        """Synchronous :meth:`fetch_check`: the host I-fetch charges no
        simulated time, so the full check always completes here (True)."""
        if self.tcache.entry(vaddr)[2] != self.exec_nx_sense:
            raise PageFault(vaddr, PageFault.NX_VIOLATION, is_exec=True)
        return True

    def load(self, vaddr: int, nbytes: int) -> Generator:
        delta, _writable, _nx = self.tcache.entry(vaddr)
        paddr = vaddr + delta
        self._c_load.value += 1
        if self.mm.host_dram_contains(paddr):
            if not self._advance(self._pause_cached_mem.delay):
                yield self._pause_cached_mem
            return self.phys.read(paddr, nbytes)
        # BAR access: a real non-posted PCIe read.
        self._c_load_pcie.value += 1
        service = self.cfg.nxp_local_dram_ns - 120.0
        if self.mm.bram_contains(paddr):
            service = self.cfg.nxp_bram_ns
        data = yield from self.link.read(paddr, nbytes, service_ns=service)
        return data

    def store(self, vaddr: int, data: bytes) -> Generator:
        delta, writable, _nx = self.tcache.entry(vaddr)
        if not writable:
            raise PageFault(vaddr, PageFault.WRITE_PROTECT, is_write=True)
        paddr = vaddr + delta
        self._c_store.value += 1
        self.tables.note_code_store(vaddr, len(data))
        if self.mm.host_dram_contains(paddr):
            if not self._advance(self._pause_cached_mem.delay):
                yield self._pause_cached_mem
            self.phys.write(paddr, data)
            return
        self._c_store_pcie.value += 1
        yield from self.link.write(paddr, data, posted=True)


class FallbackMemoryPort(HostMemoryPort):
    """A host core *emulating the NISA* after the NxP died (degraded mode).

    The host-side fallback interpreter executes NxP-ISA code, so its
    fetch path must apply the **inverted** NX sense the NxP MMU would
    (Section IV-B2): NX-set pages hold NISA code and execute normally,
    NX-clear pages are host code and fault — which the fallback loop
    turns into a nested host call.  The host port's fetch methods check
    against :attr:`exec_nx_sense`, so flipping it is the whole
    difference.  Data accesses are unchanged from the host port;
    NxP-resident data (BRAM stack, BAR0 windows) is reached over PCIe
    at host cost, which is part of the degradation penalty.
    """

    exec_nx_sense = True  # inverted: NX-set pages are the executable ones


class NxpMemoryPort:
    """The NxP core's memory pipeline: TLBs + walker + caches + routing."""

    #: Inverted NX sense (Section IV-B2): NX-set pages hold NISA code and
    #: execute here; the I-TLB path enforces it per fetch.
    exec_nx_sense = True

    def __init__(
        self,
        sim: Simulator,
        cfg: FlickConfig,
        phys: PhysicalMemory,
        link: PCIeLink,
        walker: PageWalker,
        stats: Optional[StatRegistry] = None,
        tables_provider: Optional[Callable[[], Optional[PageTables]]] = None,
    ):
        self.sim = sim
        self.cfg = cfg
        self.phys = phys
        self.link = link
        self.walker = walker
        self.tables_provider = tables_provider
        self.mm = cfg.memory_map
        self.stats = stats or StatRegistry()
        self._c_fetch = self.stats.counter("nxp.fetch")
        self._c_load = self.stats.counter("nxp.load")
        self._c_load_local = self.stats.counter("nxp.load_local")
        self._c_load_pcie = self.stats.counter("nxp.load_pcie")
        self._c_store = self.stats.counter("nxp.store")
        self._c_store_pcie = self.stats.counter("nxp.store_pcie")
        self.itlb = TLB("nxp.itlb", cfg.tlb_entries, stats=self.stats)
        self.dtlb = TLB("nxp.dtlb", cfg.tlb_entries, stats=self.stats)
        self.icache = Cache(
            "nxp.icache", cfg.nxp_icache_lines, cfg.nxp_icache_line_bytes, stats=self.stats
        )
        self.dcache = Cache(
            "nxp.dcache", cfg.nxp_dcache_lines, cfg.nxp_dcache_line_bytes, stats=self.stats
        )
        self.cacheable = CacheableFilter()
        # Reusable Timeouts for the fixed latencies on the hot path
        # (immutable, so sharing one object per latency is safe), each
        # first offered to advance, as on the host port.
        self._advance = sim.advance
        self._pause_tlb_hit = sim.timeout(cfg.tlb_hit_ns)
        self._pause_icache_hit = sim.timeout(cfg.nxp_icache_hit_ns)
        self._pause_bram = sim.timeout(cfg.nxp_bram_ns)
        self._pause_local_read = sim.timeout(cfg.nxp_to_local_read_ns)
        self._pause_local_write = sim.timeout(cfg.nxp_to_local_write_ns)
        # Program both TLB remap registers (what the host driver does).
        for tlb in (self.itlb, self.dtlb):
            tlb.program_remap(self.mm.bar0_base, self.mm.nxp_local_size, self.mm.bar0_remap_offset)

    # -- shared translate path ------------------------------------------------

    def _translate(self, tlb: TLB, vaddr: int, is_exec: bool) -> Generator:
        entry = tlb.lookup(vaddr)
        if entry is None:
            tr = yield from self.walker.walk(vaddr)  # raises PageFault if unmapped
            entry = tlb.insert(tr)
        elif not self._advance(self._pause_tlb_hit.delay):
            yield self._pause_tlb_hit
        if is_exec and not entry.nx:
            # Inverted NX sense: host-ISA pages fault on the NxP.
            raise PageFault(vaddr, PageFault.NX_VIOLATION, is_exec=True)
        return entry

    def flush_tlbs(self) -> None:
        """Flushed on context/address-space switch (CR3 change)."""
        self.itlb.flush()
        self.dtlb.flush()

    @property
    def code_generation(self) -> Optional[int]:
        """Validity token for decoded-instruction caches; ``None`` (cache
        disabled) when no address space is installed yet."""
        if self.tables_provider is None:
            return None
        tables = self.tables_provider()
        return tables.code_generation if tables is not None else None

    # -- port interface -----------------------------------------------------------

    def fetch(self, vaddr: int, nbytes: int) -> Generator:
        entry = yield from self._translate(self.itlb, vaddr, is_exec=True)
        paddr = entry.paddr_for(vaddr)
        self._c_fetch.value += 1
        if self.icache.access(paddr):
            if not self._advance(self._pause_icache_hit.delay):
                yield self._pause_icache_hit
            return self.phys.read(paddr, nbytes)
        # I-cache miss: line fill from wherever the code lives (host DRAM
        # for both ISAs' text, per the placement policy).
        line = self.cfg.nxp_icache_line_bytes
        line_base = paddr & ~(line - 1)
        yield from self.link.read(line_base, line, service_ns=self.cfg.host_dram_ns)
        return self.phys.read(paddr, nbytes)

    def fetch_check(self, vaddr: int, nbytes: int) -> Generator:
        """Replay :meth:`fetch`'s exact timing, faults and stats (TLB,
        walker, I-cache, line fill) without returning the bytes; the
        decoded-instruction cache's re-decode bypass."""
        entry = yield from self._translate(self.itlb, vaddr, is_exec=True)
        paddr = entry.paddr_for(vaddr)
        self._c_fetch.value += 1
        if self.icache.access(paddr):
            if not self._advance(self._pause_icache_hit.delay):
                yield self._pause_icache_hit
            return
        line = self.cfg.nxp_icache_line_bytes
        line_base = paddr & ~(line - 1)
        yield from self.link.read(line_base, line, service_ns=self.cfg.host_dram_ns)

    def fetch_check_fast(self, vaddr: int, nbytes: int):
        """:meth:`fetch_check` minus the generator overhead for the
        ITLB-hit + I-cache-hit case: all bookkeeping happens here,
        synchronously, and the caller receives the ``(tlb, icache)``
        pause pair to charge — one event each, the exact delays
        :meth:`fetch_check` would charge.  Any other case returns a
        generator that finishes the check (the probes already done are
        not repeated, so counters stay single-counted).

        Doing the bookkeeping before the pauses are charged is safe
        because this port is private to one core: no other process can
        observe the TLB/I-cache state between the probe and the yields.
        """
        entry = self.itlb.lookup(vaddr)
        if entry is None:
            return self._fetch_check_walk(vaddr)
        if not entry.nx:
            # Inverted NX sense (host-ISA pages fault on the NxP); the
            # fault must fire *after* the TLB-hit latency, as in
            # _translate, so it is raised from a timed continuation.
            return self._fetch_check_nx_fault(vaddr)
        paddr = entry.paddr_for(vaddr)
        self._c_fetch.value += 1
        if self.icache.access(paddr):
            return (self._pause_tlb_hit, self._pause_icache_hit)
        return self._fetch_check_fill(paddr)

    def _fetch_check_walk(self, vaddr: int) -> Generator:
        # ITLB miss (already counted by the probe): walk, insert, then
        # the tail of fetch_check.
        tr = yield from self.walker.walk(vaddr)
        entry = self.itlb.insert(tr)
        if not entry.nx:
            raise PageFault(vaddr, PageFault.NX_VIOLATION, is_exec=True)
        paddr = entry.paddr_for(vaddr)
        self._c_fetch.value += 1
        if self.icache.access(paddr):
            if not self._advance(self._pause_icache_hit.delay):
                yield self._pause_icache_hit
            return
        line = self.cfg.nxp_icache_line_bytes
        line_base = paddr & ~(line - 1)
        yield from self.link.read(line_base, line, service_ns=self.cfg.host_dram_ns)

    def _fetch_check_nx_fault(self, vaddr: int) -> Generator:
        if not self._advance(self._pause_tlb_hit.delay):
            yield self._pause_tlb_hit
        raise PageFault(vaddr, PageFault.NX_VIOLATION, is_exec=True)

    def _fetch_check_fill(self, paddr: int) -> Generator:
        # ITLB hit, I-cache miss (both already recorded): charge the
        # TLB-hit latency, then the line fill.
        if not self._advance(self._pause_tlb_hit.delay):
            yield self._pause_tlb_hit
        line = self.cfg.nxp_icache_line_bytes
        line_base = paddr & ~(line - 1)
        yield from self.link.read(line_base, line, service_ns=self.cfg.host_dram_ns)

    def load(self, vaddr: int, nbytes: int) -> Generator:
        entry = yield from self._translate(self.dtlb, vaddr, is_exec=False)
        paddr = entry.paddr_for(vaddr)
        route, local_paddr = self.dtlb.route(paddr)
        self._c_load.value += 1
        if self.mm.bram_contains(paddr):
            if not self._advance(self._pause_bram.delay):
                yield self._pause_bram
            return self.phys.read(paddr, nbytes)
        if route == "local":
            # Cacheable windows are registered in host-view (BAR)
            # addresses, the canonical physical space of this model.
            if self.cacheable.cacheable(paddr) and self.dcache.access(paddr):
                pause = self._pause_icache_hit
            else:
                pause = self._pause_local_read
            if not self._advance(pause.delay):
                yield pause
            self._c_load_local.value += 1
            return self.phys.read(paddr, nbytes)
        # Cross-PCIe read of host memory.
        self._c_load_pcie.value += 1
        data = yield from self.link.read(paddr, nbytes, service_ns=self.cfg.host_dram_ns)
        return data

    def store(self, vaddr: int, data: bytes) -> Generator:
        entry = yield from self._translate(self.dtlb, vaddr, is_exec=False)
        if not entry.writable:
            raise PageFault(vaddr, PageFault.WRITE_PROTECT, is_write=True)
        paddr = entry.paddr_for(vaddr)
        route, local_paddr = self.dtlb.route(paddr)
        self._c_store.value += 1
        if self.tables_provider is not None:
            tables = self.tables_provider()
            if tables is not None:
                tables.note_code_store(vaddr, len(data))
        if self.mm.bram_contains(paddr):
            if not self._advance(self._pause_bram.delay):
                yield self._pause_bram
            self.phys.write(paddr, data)
            return
        if route == "local":
            if self.cacheable.cacheable(paddr):
                self.dcache.invalidate_range(paddr, len(data))
            if not self._advance(self._pause_local_write.delay):
                yield self._pause_local_write
            self.phys.write(paddr, data)
            return
        self._c_store_pcie.value += 1
        yield from self.link.write(paddr, data, posted=True)
