"""FlickMachine — the whole heterogeneous-ISA system, assembled.

This is the library's main entry point.  It builds the platform of
Table I in simulation — host cores, the PCIe-attached NxP (RISC-V-like
core, local DRAM behind BAR0, stack BRAM, DMA engine, programmable MMU)
— plus the modified OS, and exposes a compile-load-run API:

>>> from repro import FlickMachine
>>> machine = FlickMachine()
>>> outcome = machine.run_program('''
...     @nxp func near_data(x) { return x * 2; }
...     func main(a) { return near_data(a) + 1; }
... ''', args=[20])
>>> outcome.retval
41
>>> outcome.migrations  # one host->NxP->host round trip
1
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.core.config import DEFAULT_CONFIG, FlickConfig
from repro.core.descriptors import DESCRIPTOR_BYTES
from repro.core.health import NxpHealth, RetryBudget
from repro.core.host_runtime import HostThread
from repro.core.nxp_device import NxpDevice
from repro.core.nxp_platform import NxpPlatform
from repro.core.ports import HostMemoryPort
from repro.core.stubs import STUB_SYMBOLS
from repro.core.trace import MigrationTrace
from repro.interconnect.dma import DMAEngine, DescriptorRing
from repro.interconnect.interrupt import MIGRATION_VECTOR, InterruptController
from repro.interconnect.pcie import PCIeLink
from repro.memory.allocator import RegionAllocator
from repro.memory.cache import CacheableFilter
from repro.memory.physical import MemoryRegion, MMIORegion, PhysicalMemory
from repro.os.kernel import Kernel
from repro.os.loader import load_executable
from repro.os.placement import PlacementLayer
from repro.os.scheduler import CorePool
from repro.os.task import Process, Task
from repro.sim.engine import Simulator
from repro.sim.stats import StatRegistry
from repro.toolchain.felf import Executable
from repro.toolchain.flickc import compile_source
from repro.toolchain.linker import link

__all__ = ["FlickMachine", "ProgramOutcome", "signed_retval"]

MB = 1024 * 1024


def signed_retval(value: Optional[int]) -> Optional[int]:
    """Reinterpret a raw 64-bit register value as a signed integer.

    Both interpreters and the hosted descriptor path hand back the
    return register as an unsigned 64-bit word; every consumer that
    shows the value to a user (ProgramOutcome, the chaos probes, the
    serving harness) must apply the same two's-complement fixup or
    negative returns surface as huge positives.  ``None`` (no result
    yet) passes through, and already-signed values (hosted bodies that
    returned a plain negative int without a descriptor crossing) are
    left untouched — the fixup is idempotent.
    """
    if value is not None and value >= (1 << 63):
        return value - (1 << 64)
    return value


@dataclass
class ProgramOutcome:
    """Result of running one program to completion."""

    retval: int
    output: List[int]
    sim_time_ns: float
    migrations: int
    stats: Dict[str, float]
    process: Process
    #: True when at least one NISA call completed via host-fallback
    #: emulation because the NxP was declared dead (chaos runs only).
    degraded: bool = False

    @property
    def sim_time_us(self) -> float:
        return self.sim_time_ns / 1000.0


class FlickMachine:
    """A simulated host + NxP system running the Flick protocol."""

    def __init__(self, cfg: FlickConfig = DEFAULT_CONFIG, host_cores: Optional[int] = None):
        self.cfg = cfg
        if host_cores is None:
            host_cores = cfg.host_cores
        self.memory_map = cfg.memory_map
        self.sim = Simulator(fast_now_queue=cfg.engine_fast_path)
        self.stats = StatRegistry(metrics_enabled=cfg.metrics)
        self.trace = MigrationTrace(self.sim, stats=self.stats)
        self.trace.context_enabled = cfg.trace_context

        # -- physical memory ------------------------------------------------
        mm = self.memory_map
        self.phys = PhysicalMemory()
        self.phys.add_region(MemoryRegion("host_dram", mm.host_dram_base, mm.host_dram_size))
        self.phys.add_region(MemoryRegion("nxp_dram", mm.bar0_base, mm.nxp_local_size))
        self.phys.add_region(MemoryRegion("nxp_bram", mm.nxp_bram_base, mm.nxp_bram_size))
        self.mmio = MMIORegion("nxp_ctrl", mm.mmio_base, mm.mmio_size)
        self.phys.add_region(self.mmio)

        # -- physical allocators ----------------------------------------------
        # host DRAM: [16MB, 256MB) page-table frames, [256MB, end) general.
        self.frame_alloc = RegionAllocator("pt_frames", 16 * MB, 240 * MB)
        self.host_phys = RegionAllocator(
            "host_phys", 256 * MB, mm.host_dram_size - 256 * MB
        )
        self.nxp_phys = RegionAllocator("nxp_phys", mm.bar0_base, mm.nxp_local_size)

        # -- fault injection (tentpole of docs/ROBUSTNESS.md) -----------------
        # The injector exists ONLY when a fault plan is armed; with it
        # absent (the default), every hardened branch below is skipped
        # and the machine executes the exact pre-hardening code paths —
        # that is the faults-off parity contract.
        if cfg.faults:
            from repro.sim.faults import FaultInjector

            self.injector = FaultInjector(
                cfg.faults,
                seed=cfg.fault_seed,
                sim=self.sim,
                stats=self.stats,
                trace=self.trace,
            )
        else:
            self.injector = None
        # -- overload protection (docs/ROBUSTNESS.md) -------------------------
        # Like the injector: the retry budget exists ONLY when its knob
        # is non-default, so budget-off runs skip every consult branch
        # and stay on the exact pre-budget code paths.
        if cfg.retry_budget_tokens > 0:
            self.retry_budget = RetryBudget(
                cfg.retry_budget_tokens,
                cfg.retry_budget_refill_per_ms,
                stats=self.stats,
            )
        else:
            self.retry_budget = None
        # Admission bookkeeping: requests admitted through
        # ``admit_request`` and not yet released.  Only touched when
        # ``admission_queue_limit`` is armed.
        self.admitted_inflight = 0
        # Pids fused to host-fallback execution after a retry-budget
        # denial.  A denial abandons an in-flight leg while the device
        # stays in service, so a late reply for that pid may still
        # arrive; fusing the pid guarantees no later wait exists for the
        # stale reply to wake (the kernel discards it as a late
        # delivery), mirroring how a DEAD latch makes abandonment safe.
        # Empty forever when the retry budget is unarmed.
        self.fused_pids: set = set()
        # Machine-wide outbound (n2h) sequence counters, keyed by pid.
        # One dict shared by every device: the host-side duplicate
        # filter compares against a single per-process high-water mark, so
        # replies must be monotonic per pid across the whole fleet —
        # per-device counters would collide the moment two devices both
        # answered the same process (round-robin placement does exactly
        # that).  Only advanced when the hardened protocol is armed.
        self.n2h_seq: Dict[int, int] = {}

        # -- interconnect -------------------------------------------------------
        self.link = PCIeLink(
            self.sim, cfg, self.phys, stats=self.stats, trace=self.trace,
            injector=self.injector,
        )
        self.irq = InterruptController(self.sim, cfg, stats=self.stats, trace=self.trace)

        # -- NxP devices (docs/FLEET.md) --------------------------------------
        # Every machine is a fleet: one ring pair / DMA engine / MSI vector
        # / BRAM slice / health machine / scheduler per device, all
        # sharing the one PCIe link above.  nxp_count == 1 (the default,
        # and the paper's machine) is a fleet of one.
        if cfg.nxp_count < 1:
            raise ValueError(f"nxp_count must be >= 1, got {cfg.nxp_count}")
        self.devices: List[NxpDevice] = []
        self._build_devices(cfg)
        self.placement = PlacementLayer(self, cfg.placement_policy)

        # -- OS + platforms ---------------------------------------------------------
        self.cores = CorePool(self.sim, host_cores, stats=self.stats)
        self.kernel = Kernel(self.sim, cfg, self)
        # @nxp data windows the loader registers as NxP-D-cacheable; one
        # filter shared by every device's memory port.
        self.nxp_cacheable = CacheableFilter()
        for dev in self.devices:
            dev.platform = NxpPlatform(self, dev)
        self.threads: List[HostThread] = []
        self.runtime_symbols = dict(STUB_SYMBOLS)
        # Multi-ISA kernel modules (Section IV-D): segments shared by
        # every process created after loading; symbols linkable by user
        # programs compiled after loading.
        self.kernel_modules = []
        self.module_symbols: Dict[str, int] = {}
        self.module_isa_of_symbol: Dict[str, object] = {}

    def _build_devices(self, cfg: FlickConfig) -> None:
        """Per-device rings/DMA/vector/BRAM slice/health.

        Device ``i``'s BRAM slice starts at ``i / n`` of the BRAM window
        and allocates its inbound ring first; its STATUS registers sit at
        MMIO offset ``i * 0x10`` and it raises ``MIGRATION_VECTOR + i``.
        """
        mm = self.memory_map
        n = cfg.nxp_count
        if n * 0x10 > mm.mmio_size:
            raise ValueError(f"MMIO window too small for {n} NxP devices")
        slice_bytes = mm.nxp_bram_size // n
        if slice_bytes < cfg.nxp_stack_bytes + 16 * DESCRIPTOR_BYTES:
            raise ValueError(f"BRAM too small to slice across {n} NxP devices")
        for i in range(n):
            bram = RegionAllocator(
                f"bram_phys.{i}", mm.nxp_bram_base + i * slice_bytes, slice_bytes
            )
            dma = DMAEngine(
                self.sim, cfg, self.link, self.irq, stats=self.stats,
                trace=self.trace, injector=self.injector,
                vector=MIGRATION_VECTOR + i,
            )
            nxp_ring_base = bram.alloc(16 * DESCRIPTOR_BYTES, align=4096)
            host_ring_base = self.host_phys.alloc(16 * DESCRIPTOR_BYTES, align=4096)
            nxp_ring = DescriptorRing(self.phys, nxp_ring_base, 16, DESCRIPTOR_BYTES)
            host_ring = DescriptorRing(self.phys, host_ring_base, 16, DESCRIPTOR_BYTES)
            dma.attach_rings(nxp_ring, host_ring)
            dma.register_mmio(self.mmio, base=i * 0x10)
            health = None
            if self.injector is not None:
                health = NxpHealth(
                    cfg.nxp_dead_threshold,
                    stats=self.stats,
                    trace=self.trace,
                    recovery=cfg.nxp_recovery,
                    probe_target=cfg.nxp_probe_successes,
                    quarantine_base_ns=cfg.nxp_quarantine_base_ns,
                    quarantine_factor=cfg.nxp_quarantine_factor,
                )
            self.devices.append(
                NxpDevice(
                    self, i, MIGRATION_VECTOR + i, dma, nxp_ring, host_ring,
                    bram, health,
                )
            )

    @property
    def hardened(self) -> bool:
        """True when a fault plan is armed (protocol hardening active)."""
        return self.injector is not None

    def jit_stats(self) -> Dict[str, float]:
        """Tracing-JIT counters summed over every core: the ``jit.*``
        slice of :meth:`StatRegistry.observed_totals`, which the
        parity-pinned snapshot never includes."""
        totals = self.stats.observed_totals()
        return {k: v for k, v in totals.items() if k.startswith("jit.")}

    # -- program lifecycle ----------------------------------------------------------

    def compile(self, source: str, entry: str = "main") -> Executable:
        """Compile FlickC source; links against the runtime symbols and
        any symbols exported by loaded kernel modules."""
        obj = compile_source(source)
        extra = dict(self.runtime_symbols)
        extra.update(self.module_symbols)
        return link([obj], entry_symbol=entry, extra_symbols=extra)

    def load_module(self, source: str, name: str, entry_symbol: str = "module_init"):
        """Load a multi-ISA kernel module (see repro.os.module)."""
        from repro.os.module import load_module

        return load_module(self, source, name, entry_symbol=entry_symbol)

    def load(self, exe: Executable, name: Optional[str] = None) -> Process:
        process = load_executable(self, exe, name=name)
        self.kernel.register_process(process)
        return process

    def spawn(self, process: Process, entry: Union[str, int] = "main", args=()) -> HostThread:
        """Create a thread running ``entry`` (symbol or address) on the host."""
        if isinstance(entry, str):
            entry_addr = process.symbols[entry]
        else:
            entry_addr = entry
        task = Task(process, name=f"{process.name}.t{len(self.threads)}")
        self.kernel.register_task(task)
        if process.host_port is None:
            process.host_port = HostMemoryPort(
                self.sim, self.cfg, self.phys, self.link, process.page_tables, stats=self.stats
            )
        thread = HostThread(self, task, process.host_port)
        self.threads.append(thread)
        for dev in self.devices:
            dev.platform.start()
        # Keep the sim-process handle: callers that interleave many
        # threads (the serving harness) join on it with ``yield proc``.
        thread.proc = self.sim.spawn(
            thread.thread_main(entry_addr, list(args)), name=task.name
        )
        return thread

    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation until it quiesces (or until ``until`` ns).

        The NxP scheduler is event-driven when idle, so the event queue
        drains exactly when every spawned thread has finished (or is
        durably stuck, which we report).
        """
        if until is not None:
            self.sim.run(until=until)
            return
        self.sim.run()
        stuck = [t.task.name for t in self.threads if t.task.state.value != "done"]
        if stuck:
            raise RuntimeError(f"machine quiesced with unfinished threads: {stuck}")

    def run_program(
        self,
        source_or_exe: Union[str, Executable],
        entry: str = "main",
        args=(),
        name: Optional[str] = None,
    ) -> ProgramOutcome:
        """Compile (if needed), load, run to completion, and summarize."""
        exe = (
            self.compile(source_or_exe, entry=entry)
            if isinstance(source_or_exe, str)
            else source_or_exe
        )
        process = self.load(exe, name=name)
        thread = self.spawn(process, entry=entry, args=args)
        self.run()
        signed = signed_retval(thread.result)
        stats_snapshot = self.stats.snapshot()
        return ProgramOutcome(
            retval=signed,
            output=list(process.output),
            sim_time_ns=thread.finished_at if thread.finished_at is not None else self.sim.now,
            migrations=self.trace.count("h2n_call_done"),
            stats=stats_snapshot,
            process=process,
            degraded=bool(stats_snapshot.get("degraded.calls", 0)),
        )

    # -- optional kernel extensions ------------------------------------------------------

    def enable_lazy_heap(self, process: Process, size: int = 64 * MB) -> "LazyHeap":
        """Switch ``process`` to a demand-paged heap window.

        Subsequent ``alloc()`` calls in the program return addresses in
        an initially-unmapped window; the first touch of each page takes
        a minor fault serviced by the kernel (interpreted mode only).
        """
        from repro.memory.allocator import RegionAllocator
        from repro.os.demand_paging import LazyHeap

        vbase = 0x4000_0000_0000
        lazy = LazyHeap(self, process, vbase, size)
        process.lazy_heap = lazy
        process.host_heap = RegionAllocator("lazy_heap", vbase, size)
        return lazy

    # -- services used by the runtimes -------------------------------------------------

    def alloc_nxp_stack(self, device: NxpDevice) -> int:
        """Allocate one thread's NxP stack from ``device``'s BRAM slice;
        returns its vaddr.  The whole BRAM window is mapped in every
        address space, so the vaddr formula is slice-agnostic.
        """
        from repro.os.loader import NXP_STACK_VBASE

        paddr = device.bram.alloc(self.cfg.nxp_stack_bytes, align=4096)
        return NXP_STACK_VBASE + (paddr - self.memory_map.nxp_bram_base)

    def release_nxp_stack(self, vaddr: int) -> None:
        """Return a finished thread's NxP stack to the BRAM allocator.

        BRAM is 16 MB and stacks are 64 KB, so a machine that never
        recycles them caps out near 250 migrating tasks over its whole
        lifetime.  The serving harness serves thousands of requests per
        run, each on a fresh task — it frees each stack once the task
        is done.  Only call this for tasks that can never migrate again.
        """
        from repro.os.loader import NXP_STACK_VBASE

        paddr = self.memory_map.nxp_bram_base + (vaddr - NXP_STACK_VBASE)
        for dev in self.devices:
            if dev.bram.owns(paddr):
                dev.bram.free(paddr)
                return
        raise ValueError(f"NxP stack vaddr {vaddr:#x} owned by no device")

    def kill_nxp(self, index: int, mode: str = "abrupt") -> None:
        """Chaos hook: take NxP ``index`` out of service mid-run.

        ``mode="drain"`` only excludes the device from new-session
        placement; in-flight sessions complete normally (works with or
        without the hardened protocol).  ``mode="abrupt"`` additionally
        stops the device's scheduler and latches its health DEAD, so
        in-flight legs are recovered by the hardened watchdogs — it
        therefore *requires* an armed fault plan.  Killing the only
        device of a one-NxP machine degrades every later call to host
        fallback.
        """
        dev = self.devices[index]
        if mode == "drain":
            dev.draining = True
        elif mode == "abrupt":
            if not self.hardened:
                raise ValueError(
                    "abrupt kill needs the hardened protocol (arm a fault "
                    "plan, e.g. a never-firing rule) so watchdogs can "
                    "recover the killed device's in-flight legs"
                )
            dev.draining = True
            dev.killed = True
            dev.health.force_dead("killed")
        else:
            raise ValueError(f"unknown kill mode {mode!r}")
        self.trace.record("nxp_kill", device=index, mode=mode)

    def revive_nxp(self, index: int) -> None:
        """Self-healing hook: bring NxP ``index`` back as a half-open
        probe target (docs/ROBUSTNESS.md).

        Resets the device — ring pointers, replay caches, scheduler —
        and moves its health DEAD → RECOVERING; placement re-admits it
        after ``nxp_probe_successes`` consecutive probe successes.
        Requires ``FlickConfig.nxp_recovery`` and the hardened protocol.
        Refuses (``ValueError``) while a re-tripped breaker's quarantine
        window is still open.
        """
        if not self.cfg.nxp_recovery:
            raise ValueError("device recovery is off (FlickConfig.nxp_recovery)")
        if not self.hardened:
            raise ValueError(
                "revive_nxp needs the hardened protocol (arm a fault plan, "
                "e.g. a never-firing rule) — recovery probes ride the "
                "watchdog/health machinery"
            )
        dev = self.devices[index]
        if not (dev.draining or dev.killed or dev.health.dead):
            raise ValueError(f"NxP {index} is in service; nothing to revive")
        # Health gate first: a quarantine refusal must leave the device
        # untouched (still out of service, state unchanged).
        if dev.health.dead:
            dev.health.begin_recovery(self.sim.now)
        dev.draining = False
        dev.killed = False
        # dev.outstanding is NOT reset: a session stranded by the kill
        # may still be mid-watchdog holding its slot, and every session
        # path decrements on exit — zeroing here would double-count the
        # release and pin the counter negative (probe_ready needs == 0).
        # Device reset: both descriptor rings back to empty (any stale
        # in-flight descriptors were already recovered by watchdogs) ...
        for ring in (dev.nxp_ring, dev.host_ring):
            ring.head = ring.tail = ring.reserved = 0
        # ... and the platform's hardened replay caches + scheduler, so
        # the revived device starts from a clean idempotency horizon.
        dev.platform.reset_device()
        self.stats.count("nxp.revived")
        self.trace.record("nxp_revive", device=index)
        dev.platform.start()

    # -- admission control (docs/ROBUSTNESS.md) -----------------------------

    def admission_capacity(self) -> int:
        """Total admission slots: ``admission_queue_limit`` per in-service
        device (0 = unbounded)."""
        limit = self.cfg.admission_queue_limit
        if not limit:
            return 0
        serving = sum(1 for dev in self.devices if dev.alive or dev.probe_ready)
        return limit * max(serving, 1)

    def admit_request(self, deadline_at: Optional[float] = None) -> None:
        """Front-door admission check for one serving request.

        Raises :class:`AdmissionRejected` when the request's deadline has
        already expired, or when every per-device admission queue is full
        and brownout is off (with brownout on, over-limit requests are
        admitted and the migration layer routes them to host fallback).
        On success the request holds one admission slot until
        :meth:`admission_release`.
        """
        from repro.core.errors import AdmissionRejected

        if deadline_at is not None and self.sim.now >= deadline_at:
            self.stats.count("admission.shed.deadline")
            raise AdmissionRejected(
                "deadline", f"expired {self.sim.now - deadline_at:.0f} ns ago"
            )
        capacity = self.admission_capacity()
        if capacity:
            if self.admitted_inflight >= capacity and not self.cfg.brownout:
                self.stats.count("admission.shed.queue")
                raise AdmissionRejected(
                    "queue_full", f"{self.admitted_inflight}/{capacity} in flight"
                )
            self.admitted_inflight += 1

    def admission_release(self) -> None:
        """Return one admission slot (request finished or browned out)."""
        if self.cfg.admission_queue_limit:
            self.admitted_inflight -= 1
