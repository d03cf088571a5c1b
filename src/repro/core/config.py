"""Timing, sizing and memory-map configuration for the simulated machine.

Every latency in the Flick reproduction is a named constant here, so the
benchmarks can sweep them (ablations) and the calibration test can assert
that the *measured* simulated microbenchmarks land on the paper's
numbers:

* Table III: host-NxP-host null call ~= 18.3 us, NxP-host-NxP ~= 16.9 us
* Section V-A: the host page fault contributes ~= 0.7 us of that
* Section V: host -> NxP-storage word round trip ~= 825 ns,
  NxP -> local storage ~= 267 ns
* Fig. 5a: pointer-chase plateau ~= 2.6x (ratio of per-node costs)

Units: all times in **nanoseconds** (the simulator clock unit), sizes in
bytes, clocks in cycles-per-nanosecond via the ``*_cycle_ns`` helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

__all__ = [
    "FlickConfig",
    "MemoryMap",
    "PriorWorkOverheads",
    "DEFAULT_CONFIG",
    "PRIOR_WORK",
    "RING_SLOTS",
]

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

PAGE_4K = 4 * KB
PAGE_2M = 2 * MB
PAGE_1G = 1 * GB

#: Slots in each inbound descriptor ring (both directions, every device).
#: FlickConfig.__post_init__ holds the hardened retry knobs to this.
RING_SLOTS = 16


@dataclass(frozen=True)
class MemoryMap:
    """The unified physical address map (host view, as in Fig. 3).

    The NxP local DRAM natively decodes at ``nxp_local_base`` on the NxP
    side, but is exposed to the host as a PCIe BAR at ``bar0_base``
    (assigned "dynamically" by the host).  The NxP TLB remap register
    makes the *host-view* BAR addresses work from the NxP by subtracting
    ``bar0_base - nxp_local_base``.
    """

    host_dram_base: int = 0x0
    host_dram_size: int = 2 * GB
    bar0_base: int = 0xA_0000_0000  # host-assigned BAR for NxP DRAM
    nxp_local_base: int = 0x8000_0000  # NxP-side native decode address
    nxp_local_size: int = 4 * GB
    nxp_bram_base: int = 0xB_0000_0000  # BAR for NxP on-chip stack BRAM
    nxp_bram_size: int = 16 * MB
    mmio_base: int = 0xC_0000_0000  # NxP control registers (DMA, TLB, ...)
    mmio_size: int = 64 * KB

    @property
    def bar0_remap_offset(self) -> int:
        """Value the host driver programs into the NxP TLB remap register."""
        return self.bar0_base - self.nxp_local_base

    def host_dram_contains(self, paddr: int) -> bool:
        return self.host_dram_base <= paddr < self.host_dram_base + self.host_dram_size

    def bar0_contains(self, paddr: int) -> bool:
        return self.bar0_base <= paddr < self.bar0_base + self.nxp_local_size

    def bram_contains(self, paddr: int) -> bool:
        return self.nxp_bram_base <= paddr < self.nxp_bram_base + self.nxp_bram_size

    def mmio_contains(self, paddr: int) -> bool:
        return self.mmio_base <= paddr < self.mmio_base + self.mmio_size


@dataclass(frozen=True)
class FlickConfig:
    """All tunable parameters of the simulated heterogeneous-ISA machine."""

    # ---- clocks (Table I: Xeon E5-2620v3 @2.4 GHz, RV64-I @200 MHz) ----
    host_clock_ghz: float = 2.4
    nxp_clock_mhz: float = 200.0

    # ---- raw memory / interconnect latencies (Section V) ----------------
    host_dram_ns: float = 90.0           # host core -> host DRAM (random)
    host_cached_mem_ns: float = 4.0      # host load/store, cache-filtered avg
    nxp_to_local_write_ns: float = 240.0  # NxP posted write to local DRAM
    nxp_local_dram_ns: float = 225.0     # NxP DRAM service time (no TLB)
    nxp_bram_ns: float = 10.0            # NxP on-chip stack BRAM
    pcie_oneway_ns: float = 360.0        # one-way PCIe 3.0 x8 transaction
    pcie_bandwidth_gbps: float = 62.0    # ~7.75 GB/s usable
    # host load from BAR0 = 2 * pcie_oneway + nxp_local_dram service
    # => ~825 ns round trip (paper: "approximately 825ns")
    # NxP load from local DRAM = nxp_local_dram + tlb/arbiter overhead
    nxp_mem_pipeline_ns: float = 42.0    # NxP LSU + TLB-hit + arbiter
    # => ~267 ns (paper: "approximately 267ns")

    # ---- TLB / MMU -------------------------------------------------------
    tlb_entries: int = 16                # per I-TLB and D-TLB (Section IV-A)
    tlb_hit_ns: float = 5.0              # one NxP cycle
    mmu_walk_step_ns: float = 830.0      # one PT read across PCIe (per level)
    mmu_walker_overhead_ns: float = 400.0  # MicroBlaze firmware per walk

    # ---- caches ----------------------------------------------------------
    nxp_icache_lines: int = 256
    nxp_icache_line_bytes: int = 64
    nxp_icache_hit_ns: float = 5.0
    nxp_dcache_lines: int = 128
    nxp_dcache_line_bytes: int = 64

    # ---- host-side migration path (Section IV-B1) ------------------------
    host_page_fault_ns: float = 700.0      # NX fault -> handler redirect (0.7us)
    host_handler_entry_ns: float = 650.0   # user handler prologue + arg gather
    host_stack_alloc_ns: float = 2600.0    # first-migration NxP stack setup
    host_ioctl_entry_ns: float = 1800.0    # syscall + task_struct collection
    host_desc_build_ns: float = 300.0      # pack host->NxP call descriptor
    host_context_switch_ns: float = 1800.0  # deschedule (TASK_KILLABLE) + sched
    host_dma_kick_ns: float = 250.0        # scheduler-side DMA trigger
    host_irq_delivery_ns: float = 2300.0   # MSI -> host IRQ handler entry
    host_irq_handler_ns: float = 600.0     # IRQ handler body (find PID)
    host_wakeup_ns: float = 3750.0         # wake_up -> running on a core
    host_ioctl_return_ns: float = 700.0    # syscall exit back to user handler
    host_handler_return_ns: float = 300.0  # handler epilogue / hijacked return
    host_call_dispatch_ns: float = 250.0   # host handler calling target fn

    # ---- NxP-side migration path (Section IV-B2) --------------------------
    nxp_poll_period_ns: float = 600.0      # DMA status-register poll loop
    nxp_sched_dispatch_ns: float = 650.0   # read descriptor, pick thread
    nxp_context_switch_ns: float = 900.0   # switch to/from thread stack
    nxp_fault_entry_ns: float = 500.0      # NxP exception -> migration handler
    nxp_desc_build_ns: float = 450.0       # pack NxP->host descriptor
    nxp_dma_kick_ns: float = 200.0         # NxP scheduler DMA trigger

    # ---- runtime services ----------------------------------------------
    malloc_service_ns: float = 150.0       # per-region allocator stub call

    # ---- DMA descriptor engine -------------------------------------------
    dma_setup_ns: float = 350.0
    descriptor_bytes: int = 128            # one burst carries a descriptor

    # ---- placement sizes ---------------------------------------------------
    # The host stack is one 2 MB page (repro.os.loader.HOST_STACK_BYTES).
    nxp_stack_bytes: int = 64 * KB

    # ---- host topology -----------------------------------------------------
    # Host cores in the scheduler pool.  The paper's machine has more,
    # but two is enough for every single-process microbenchmark; the
    # serving harness raises it to model a multi-core front end.
    host_cores: int = 2

    # ---- NxP topology (docs/FLEET.md) --------------------------------------
    # Number of PCIe-attached NxP devices on this machine.  Every machine
    # is a fleet: one descriptor-ring pair, DMA engine, IRQ vector, BRAM
    # slice, scheduler and health machine per device, all sharing one
    # PCIe link (natural contention).  1 (the paper's system, and the
    # default) is a fleet of one.
    nxp_count: int = 1
    # Session-placement policy: which device an h2n migration session is
    # routed to.  One of repro.os.placement.POLICIES:
    # "static" | "round_robin" | "least_loaded" | "locality".
    placement_policy: str = "static"

    # ---- memory map --------------------------------------------------------
    memory_map: MemoryMap = field(default_factory=MemoryMap)

    # ---- emulated prior-work overhead injection (Table II / Fig. 5) -------
    # When > 0, every migration (each direction) is padded so that a full
    # round trip costs at least this much, emulating binary-translation /
    # state-transformation systems.
    injected_migration_rt_ns: float = 0.0

    # ---- wall-clock fast paths (docs/PERFORMANCE.md) -----------------------
    # Each toggle trades interpreter/event-loop overhead for wall-clock
    # speed without changing simulated time or stat counters; the parity
    # tests in tests/core/test_fastpath_parity.py hold them to that.
    decode_cache: bool = True          # PC-keyed decoded-instruction cache
    engine_fast_path: bool = True      # DES zero-delay now-queue

    # ---- tracing-JIT tier (docs/PERFORMANCE.md) ----------------------------
    # Hot straight-line/loop superblocks detected by per-entry-PC backedge
    # counters are compiled into flat micro-op lists that execute without
    # generator dispatch, charging the exact per-pause time sequence in
    # one consolidated sleep_until per region (collapsed pauses are
    # credited to the DES event counter, so event counts stay
    # tier-comparable).  Any condition the compiled form cannot express —
    # page fault, NX transition, env call, code-generation invalidation,
    # slow (cross-PCIe) memory route — bails out to the interpreter at a
    # precise architectural state.  Pinned bit-identical (retval, sim ns,
    # stats, event count) by tests/core/test_jit_parity.py.
    jit_enabled: bool = True           # tracing-JIT superblock tier
    jit_hot_threshold: int = 20        # backedge hits before compilation
    jit_max_superblock: int = 64       # max instructions per superblock

    # ---- metrics layer (docs/OBSERVABILITY.md) -----------------------------
    # Gauges and histograms (the derived-metrics tier of StatRegistry):
    # per-leg latency histograms, scheduler queue-depth gauges.  Pure
    # observation — enabled/disabled is pinned bit-identical in retval,
    # simulated ns, base stats and DES event count by
    # tests/core/test_metrics_parity.py.  Counters and accumulators
    # (the base tier) are always on.
    metrics: bool = True

    # ---- request-scoped causal tracing (docs/OBSERVABILITY.md) -------------
    # When on, MigrationTrace decorates every span/event emitted by a
    # task with a registered trace context (``trace.set_context``) with
    # ``trace_id`` + ``span_id``/``parent_span_id`` linkage, placement
    # decisions emit ``placement`` events, and protocol spans carry the
    # serving device index.  Pure observation: attrs never feed timing,
    # and with the knob off the emitting code paths are byte-identical
    # to pre-context behavior (tests/core/test_trace_context.py).
    trace_context: bool = False

    # ---- hosted-mode op batching (docs/PERFORMANCE.md) ---------------------
    # Hosted bodies may issue runs of timed ops between yield points;
    # those runs collapse into one consolidated timed yield of up to
    # ``hosted_batch_size`` ops, and 1 selects the per-op reference path.
    # Batching is pinned bit-identical to the per-op path (retval,
    # simulated ns, stat counters) by tests/core/test_hosted_batching.py;
    # only the DES event count changes (one timed event per batch instead
    # of per flush-threshold crossing).
    hosted_batch_size: int = 256       # max ops per consolidated yield

    # ---- fault injection + hardened migration (docs/ROBUSTNESS.md) ---------
    # ``faults`` is a tuple of repro.sim.faults.FaultRule; non-empty arms
    # the FaultInjector AND the hardened protocol paths (sequence numbers,
    # watchdogs, bounded retry, health tracking).  Empty (the default)
    # leaves the exact pre-hardening code paths — pinned bit-identical by
    # tests/core/test_fault_parity.py.  ``fault_seed`` feeds each rule's
    # private RNG so chaos runs replay deterministically.
    faults: tuple = ()
    fault_seed: int = 0
    # Watchdog on each h2n session leg (DMA kick -> wake), in sim ns.
    # Must exceed the longest legitimate NxP residency of the workloads
    # under test or false trips burn retries (idempotent, but wasteful).
    migration_watchdog_ns: float = 500_000.0
    # Bounded retry with deterministic exponential backoff: after a
    # watchdog trip the leg is retransmitted up to ``migration_retry_limit``
    # times, waiting base * factor**attempt between sends.
    migration_retry_limit: int = 3
    migration_backoff_base_ns: float = 20_000.0
    migration_backoff_factor: float = 2.0
    # Health state machine: this many *consecutive* exhausted legs moves
    # the NxP healthy -> suspect -> dead.  Keep
    # (migration_retry_limit + 1) * nxp_dead_threshold <= ring slots (16)
    # so a dying session can never overflow the inbound descriptor ring.
    nxp_dead_threshold: int = 3
    # Dead-NxP degradation: NISA functions execute on the host instead.
    # Each emulated NISA instruction costs this many host cycles
    # (interpreted mode scales the fallback interpreter's CostModel;
    # hosted mode scales compute charges); memory reaches NxP-resident
    # data across PCIe at the normal host-port cost.
    host_fallback_penalty: float = 20.0
    host_fallback_entry_ns: float = 5_000.0  # switch into the emulation path

    # ---- overload protection + self-healing (docs/ROBUSTNESS.md) -----------
    # All knobs below default *off*; at the defaults every code path is
    # byte-identical to the pre-robustness behavior (pinned by
    # tests/core/test_fault_parity.py and tests/core/test_robustness.py,
    # the ``machine.hardened`` precedent).
    #
    # Admission control: max migration sessions in flight per NxP device
    # before new requests are shed (``AdmissionRejected``) or — with
    # brownout on — routed to the host-fallback path instead of queueing.
    # 0 = unbounded (off).
    admission_queue_limit: int = 0
    # Brownout: instead of shedding, run over-limit / over-deadline-risk
    # calls on the host-fallback path (correct but degraded), freeing NxP
    # capacity for requests that can still meet their deadlines.
    brownout: bool = False
    # Deadline-risk margin for brownout: at migration entry, a task whose
    # remaining deadline budget is below this many ns browns out rather
    # than starting a session it is unlikely to finish in time.
    brownout_margin_ns: float = 0.0
    # Machine-wide retry budget: a deterministic token bucket (refilled
    # in sim time) consulted before *every* watchdog retransmit in both
    # interpreted and hosted modes.  An exhausted budget turns correlated
    # failures into host-fallback degradation instead of a retry storm on
    # the ring.  capacity 0 = unlimited (off).
    retry_budget_tokens: float = 0.0
    retry_budget_refill_per_ms: float = 0.0
    # Circuit breaker + device recovery: when on, DEAD is no longer
    # terminal — ``machine.revive_nxp(index)`` resets the device and
    # moves it DEAD -> RECOVERING; placement sends half-open probes (one
    # in flight at a time) and re-admits after this many consecutive
    # probe successes.  A flapping device re-trips the breaker and is
    # quarantined for base * factor**(trips-1) ns before the next probe.
    nxp_recovery: bool = False
    nxp_probe_successes: int = 3
    nxp_quarantine_base_ns: float = 1_000_000.0
    nxp_quarantine_factor: float = 2.0

    def __post_init__(self):
        # The hardened protocol's ring-capacity invariant (previously
        # only a comment next to nxp_dead_threshold): a dying session
        # can enqueue up to (retry_limit + 1) descriptors per leg for
        # nxp_dead_threshold legs before the device is declared dead, so
        # that product must fit in the 16-slot inbound descriptor ring.
        worst_case = (self.migration_retry_limit + 1) * self.nxp_dead_threshold
        if worst_case > RING_SLOTS:
            raise ValueError(
                "ring-capacity invariant violated: "
                f"(migration_retry_limit + 1) * nxp_dead_threshold = "
                f"({self.migration_retry_limit} + 1) * {self.nxp_dead_threshold} "
                f"= {worst_case} exceeds the {RING_SLOTS}-slot inbound "
                "descriptor ring; a dying session could overflow it"
            )

    # -- derived helpers -----------------------------------------------------

    @property
    def host_cycle_ns(self) -> float:
        return 1.0 / self.host_clock_ghz

    @property
    def nxp_cycle_ns(self) -> float:
        return 1000.0 / self.nxp_clock_mhz

    @property
    def host_to_bar_read_ns(self) -> float:
        """Host load from NxP DRAM through the BAR (paper: ~825 ns)."""
        return 2 * self.pcie_oneway_ns + self.nxp_local_dram_ns - 120.0

    @property
    def nxp_to_local_read_ns(self) -> float:
        """NxP load from its local DRAM, TLB hit (paper: ~267 ns)."""
        return self.nxp_local_dram_ns + self.nxp_mem_pipeline_ns

    @property
    def nxp_to_host_read_ns(self) -> float:
        """NxP load from host DRAM across PCIe."""
        return 2 * self.pcie_oneway_ns + self.host_dram_ns

    @property
    def pcie_ns_per_byte(self) -> float:
        return 8.0 / self.pcie_bandwidth_gbps

    def dma_transfer_ns(self, nbytes: int) -> float:
        """Latency of one burst DMA of ``nbytes`` across PCIe."""
        return self.dma_setup_ns + self.pcie_oneway_ns + nbytes * self.pcie_ns_per_byte

    def host_cycles(self, n: int) -> float:
        return n * self.host_cycle_ns

    def nxp_cycles(self, n: int) -> float:
        return n * self.nxp_cycle_ns

    def with_overrides(self, **kwargs) -> "FlickConfig":
        """Return a copy with some fields replaced (ablation helper)."""
        return replace(self, **kwargs)


DEFAULT_CONFIG = FlickConfig()


@dataclass(frozen=True)
class PriorWorkOverheads:
    """Reported migration round-trip overheads from Table II."""

    name: str
    fast_cores: str
    slow_cores: str
    interconnect: str
    round_trip_ns: float


PRIOR_WORK: Dict[str, PriorWorkOverheads] = {
    "asplos12": PriorWorkOverheads(
        "ASPLOS'12", "MIPS @2GHz", "ARM @833MHz", "Not Considered", 600_000.0
    ),
    "eurosys15": PriorWorkOverheads(
        "EuroSys'15", "Xeon E5-2695 @2.4GHz", "Xeon Phi 3120A @1.1GHz", "PCIe", 700_000.0
    ),
    "isca16": PriorWorkOverheads(
        "ISCA'16", "Xeon E5-2640 @2.5GHz", "ARM Cortex R7 @750MHz", "PCIe Gen3 x4", 430_000.0
    ),
    "biglittle": PriorWorkOverheads(
        "ARM Big-LITTLE", "ARM Cortex A15 @1.8GHz", "ARM Cortex A7", "Onchip Network", 22_000.0
    ),
}
