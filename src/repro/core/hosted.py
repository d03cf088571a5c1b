"""Hosted (timing-model) execution mode for large workloads.

The interpreted mode runs real FlickC binaries instruction by
instruction — perfect for protocol correctness and the null-call
microbenchmark, but a pure-Python interpreter cannot chew through the
millions of memory accesses of the pointer-chase sweep (Fig. 5) or BFS
(Table IV).

Hosted mode keeps the *entire migration machinery real* — descriptors,
staging buffers, the DMA engine, rings, interrupts, kernel wakeups, the
NxP dispatch loop, every latency constant — and replaces only the
*function bodies* with Python generators that issue accesses against the
same simulated memory system:

* ``ctx.load``/``ctx.store`` translate through the process page tables
  (and, on the NxP side, through a real 16-entry TLB object with modeled
  walk costs) and touch the same :class:`PhysicalMemory` bytes;
* per-access latencies come from the same :class:`FlickConfig` table;
  they are *accumulated* and emitted as consolidated timed yields so the
  event queue stays small;
* ``yield from ctx.call(name, ...)`` performs a full Flick migration
  when the callee's ISA differs from the current side.

A parity test pins the hosted null-call round trip to the interpreted
one, so the two modes cannot drift.

Charge accounting (the batch accumulator, docs/PERFORMANCE.md):
pending time is held in **integer femtoseconds**, so charging a run of
``n`` same-cost ops with one multiply is *exactly* equal to ``n``
individual charges — integer addition is associative where float
addition is not.  Flushes sleep to an **absolute** instant
(``anchor + charged``), so where the flush boundaries fall cannot move
the clock by even an ulp: batched and unbatched execution produce
bit-identical simulated time, return values and stat counters, and only
the DES event count (one timed event per consolidated yield) differs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.core.config import FlickConfig
from repro.core.descriptors import (
    DIR_N2H,
    KIND_CALL,
    KIND_RETURN,
    MigrationDescriptor,
)
from repro.core.errors import WorkloadHung
from repro.core.host_runtime import HostMigrationHandler
from repro.core.machine import FlickMachine
from repro.core.nxp_platform import NxpMigrationHandler
from repro.core.ports import TranslationCache
from repro.memory.tlb import TLB, TLBEntry
from repro.os.loader import create_address_space
from repro.os.task import Task, TaskState
from repro.sim.engine import Deadlock, Event

__all__ = ["HostedProgram", "HostedMachine", "HostedFunction", "HostedOutcome"]

HOSTED_TEXT_BASE = 0x6000_0000
_FLUSH_THRESHOLD_NS = 50_000.0

# Pending charges are accumulated in integer femtoseconds (1 ns =
# 10**6 fs): exact, associative, and fine enough that quantizing a
# sub-cycle charge loses < 1e-6 ns.
_FS_PER_NS = 1_000_000
_NS_PER_FS = 1e-6
_FLUSH_THRESHOLD_FS = int(_FLUSH_THRESHOLD_NS) * _FS_PER_NS

_U64 = struct.Struct("<Q")  # one little-endian pointer, as both ISAs store it


@dataclass
class HostedFunction:
    name: str
    isa: str  # "hisa" | "nisa"
    body: Callable  # generator function: body(ctx, *args) -> retval
    addr: int = 0


class HostedProgram:
    """A registry of timing-model functions, each pinned to an ISA."""

    def __init__(self) -> None:
        self.functions: Dict[str, HostedFunction] = {}
        self.by_addr: Dict[int, HostedFunction] = {}

    def register(self, name: str, isa: str, body: Callable) -> HostedFunction:
        if isa not in ("hisa", "nisa"):
            raise ValueError(f"bad isa {isa!r}")
        if name in self.functions:
            raise ValueError(f"duplicate hosted function {name!r}")
        fn = HostedFunction(name, isa, body, addr=HOSTED_TEXT_BASE + 0x1000 * len(self.functions))
        self.functions[name] = fn
        self.by_addr[fn.addr] = fn
        return fn

    def host(self, name: Optional[str] = None):
        """Decorator: register a host-side body."""

        def wrap(body):
            self.register(name or body.__name__, "hisa", body)
            return body

        return wrap

    def nxp(self, name: Optional[str] = None):
        """Decorator: register an NxP-side body."""

        def wrap(body):
            self.register(name or body.__name__, "nisa", body)
            return body

        return wrap


class HostedContext:
    """Timed operations available to a hosted body on one side.

    Charges accumulate in an integer-femtosecond batch accumulator and
    are emitted as consolidated timed yields.  Between two yield points
    a body may issue any number of ``load``/``store``/``compute`` ops
    (a *run*); :attr:`batch_ops` is the run length the workloads use,
    and :attr:`need_flush` is the cheap (no generator) boundary check.
    The flush target is the absolute instant ``anchor + charged``, so
    chunking cannot drift the clock — see the module docstring.
    """

    def __init__(self, executor, side: str):
        self._executor = executor
        self.side = side  # "host" | "nxp" | "fallback" (degraded NISA emulation)
        self.machine = executor.machine
        self.cfg: FlickConfig = executor.machine.cfg
        self._sim = executor.machine.sim
        # Batch accumulator state: all charges since ``_anchor`` (the
        # sim time the context last observed), and how much of that has
        # already been emitted as timed yields.
        self._anchor: float = self._sim.now
        self._charged_fs: int = 0
        self._flushed_fs: int = 0
        #: ops per consolidated run in the hosted workload bodies
        #: (1 disables batching: one boundary check per op).
        self.batch_ops: int = self.cfg.hosted_batch_size
        #: The _HostedNxpEngine running this nxp-side body, so nested
        #: calls stay on the session's device; None on host-side contexts.
        self.engine = None

    # -- time accumulation --------------------------------------------------

    def charge(self, ns: float) -> None:
        self._charged_fs += round(ns * _FS_PER_NS)

    def charge_run(self, ns: float, count: int) -> None:
        """Charge ``count`` ops of ``ns`` each — exactly equal to
        ``count`` individual :meth:`charge` calls (integer arithmetic)."""
        self._charged_fs += round(ns * _FS_PER_NS) * count

    def _cycle_ns(self, cycles: int) -> float:
        cfg = self.cfg
        if self.side == "host":
            return cycles * cfg.host_cycle_ns / 3.0  # superscalar host
        if self.side == "fallback":
            # Degraded mode: the host core *emulates* NISA ops serially
            # at the configured per-op penalty (no superscalar credit).
            return cycles * cfg.host_cycle_ns * cfg.host_fallback_penalty
        return cycles * cfg.nxp_cycle_ns

    def compute(self, cycles: int) -> None:
        """Charge ``cycles`` on the current core's clock."""
        self._charged_fs += round(self._cycle_ns(cycles) * _FS_PER_NS)

    def compute_run(self, cycles: int, count: int) -> None:
        """Charge ``count`` same-cost compute steps of ``cycles`` each."""
        self._charged_fs += round(self._cycle_ns(cycles) * _FS_PER_NS) * count

    @property
    def pending_ns(self) -> float:
        """Charged-but-not-yet-flushed time, in nanoseconds."""
        return (self._charged_fs - self._flushed_fs) * _NS_PER_FS

    @property
    def need_flush(self) -> bool:
        """True when pending time crossed the consolidation threshold.

        A plain boolean — the per-run boundary check — so the no-flush
        case costs no generator machinery."""
        return self._charged_fs - self._flushed_fs >= _FLUSH_THRESHOLD_FS

    def flush(self) -> Generator:
        """Drain every pending femtosecond as one timed yield.

        The sleep target is absolute (``anchor + charged``), computed
        from the chunk-independent cumulative charge, and the drain is
        exact by construction: no residue survives, however the charges
        were batched."""
        if self._charged_fs > self._flushed_fs:
            target = self._anchor + self._charged_fs * _NS_PER_FS
            self._flushed_fs = self._charged_fs
            yield self._sim.sleep_until(target)
        assert self._flushed_fs == self._charged_fs, "flush left residue"

    def maybe_flush(self) -> Generator:
        if self._charged_fs - self._flushed_fs >= _FLUSH_THRESHOLD_FS:
            yield from self.flush()

    def _reanchor(self) -> None:
        """Re-base the accumulator after externally advanced sim time
        (a dispatched call); pending charges are carried, not dropped."""
        pending = self._charged_fs - self._flushed_fs
        self._anchor = self._sim.now
        self._charged_fs = pending
        self._flushed_fs = 0

    # -- memory ---------------------------------------------------------------

    def load(self, vaddr: int, nbytes: int = 8) -> int:
        executor = self._executor
        self._charged_fs += round(
            executor.access_latency(self.side, vaddr, write=False) * _FS_PER_NS
        )
        paddr = executor.translate(vaddr)
        phys = self.machine.phys
        if nbytes == 8:
            return phys.read_u64(paddr)
        return int.from_bytes(phys.read(paddr, nbytes), "little")

    def store(self, vaddr: int, value: int, nbytes: int = 8) -> None:
        executor = self._executor
        self._charged_fs += round(
            executor.access_latency(self.side, vaddr, write=True) * _FS_PER_NS
        )
        paddr = executor.translate(vaddr)
        self.machine.phys.write(paddr, (value & (1 << (8 * nbytes)) - 1).to_bytes(nbytes, "little"))

    def chase(self, vaddr: int, count: int, compute_cycles: int = 0) -> int:
        """Follow a chain of ``count`` dependent pointer loads, charging
        ``compute_cycles`` per hop — the batched kernel for linked-data
        traversals (Fig. 5's inner loop).

        The node returned, the charge and every stat counter equal those
        of ``count`` rounds of :meth:`load` + :meth:`compute`, down to
        the D-TLB's LRU stamps.  One loop serves every side, a page run
        at a time.  A hop that enters a page (the first of the call, and
        each that leaves the current page) takes the reference
        :meth:`HostedMachine.access_latency` call, and
        :meth:`HostedMachine.page_run` then memoizes the page: its
        bounds, paddr delta and price.  A hop inside the page is one
        bounds test, one add and one frame-index read.  On the NxP its
        D-TLB hit is only counted: the run's hits are committed with one
        :meth:`TLB.touch` before the next reference call, at return, and
        when a page fault ends the chase.
        """
        executor = self._executor
        side = self.side
        latency = executor.access_latency
        page_run = executor.page_run
        touch = executor._nxp_dtlb.touch
        phys = self.machine.phys
        # Each hop's 8-byte read probes PhysicalMemory's frame index
        # inline; an untouched frame (KeyError), a frame straddle
        # (struct.error) or MMIO falls back to phys.read_u64.
        frames = phys._frames
        read_u64 = phys.read_u64
        unpack = _U64.unpack_from
        step_fs = round(self._cycle_ns(compute_cycles) * _FS_PER_NS) if compute_cycles else 0
        charged = self._charged_fs
        node = vaddr
        lo = hi = delta = hop_fs = 0  # the page memo, empty until the first hop
        run = None  # D-TLB entry hit by the hops after ``entered``, not yet committed
        i = entered = 0
        try:
            for i in range(count):
                if lo <= node < hi:
                    charged += hop_fs
                    paddr = node + delta
                else:
                    if run is not None and i - entered > 1:
                        touch(run, i - entered - 1)
                    run = None
                    charged += round(latency(side, node, False) * _FS_PER_NS) + step_fs
                    entered = i
                    lo, hi, delta, ns, run = page_run(side, node)
                    hop_fs = round(ns * _FS_PER_NS) + step_fs
                    paddr = node + delta
                try:
                    node = unpack(frames[paddr >> 12], paddr & 4095)[0]
                except (KeyError, struct.error):
                    node = read_u64(paddr)
        finally:
            if run is not None and i > entered:
                touch(run, i - entered)
            self._charged_fs = charged
        return node

    # -- calls ------------------------------------------------------------------

    def call(self, name: str, *args) -> Generator:
        """Call another hosted function; migrates when ISAs differ."""
        yield from self.flush()
        result = yield from self._executor.dispatch_call(self, name, list(args))
        self._reanchor()
        return result


class HostedOutcome:
    def __init__(self, retval, sim_time_ns, machine):
        self.retval = retval
        self.sim_time_ns = sim_time_ns
        self.machine = machine
        self.stats = machine.stats.snapshot()

    @property
    def sim_time_us(self) -> float:
        return self.sim_time_ns / 1000.0

    @property
    def sim_time_s(self) -> float:
        return self.sim_time_ns / 1e9


class HostedMachine:
    """Runs a :class:`HostedProgram` on a real :class:`FlickMachine`
    substrate (DMA, interrupts, kernel, latencies) with timing-model
    function bodies."""

    def __init__(
        self,
        program: HostedProgram,
        cfg: Optional[FlickConfig] = None,
        nxp_segments: Optional[List[tuple]] = None,
    ):
        """``nxp_segments``: optional [(vbase, size), ...] windows the
        NxP translates with base+limit segments instead of the TLB — the
        paper's cited alternative for killing TLB misses entirely
        (Section III-A, refs [16, 17])."""
        self.program = program
        self.machine = FlickMachine(cfg) if cfg is not None else FlickMachine()
        self.nxp_segments = list(nxp_segments or [])
        self.sim = self.machine.sim
        self.cfg = self.machine.cfg
        self.process = create_address_space(self.machine, name="hosted")
        self.machine.kernel.register_process(self.process)
        for fn in program.functions.values():
            self.process.add_exec_range(fn.addr, 0x1000, fn.isa)
        self._tcache = TranslationCache(self.process.page_tables)
        # NxP-side translation state: a real TLB object with analytic
        # walk costs (so huge-page behaviour and the 16-entry capacity
        # are preserved without per-access DES events).
        self._nxp_dtlb = TLB("hosted.nxp.dtlb", self.cfg.tlb_entries, stats=self.machine.stats)
        self._nxp_dtlb.program_remap(
            self.cfg.memory_map.bar0_base,
            self.cfg.memory_map.nxp_local_size,
            self.cfg.memory_map.bar0_remap_offset,
        )
        # One hosted engine per device, installed as the device's
        # platform so revive_nxp resets and restarts it.
        for dev in self.machine.devices:
            dev.platform = _HostedNxpEngine(self, dev)
        self._task: Optional[Task] = None
        self._thread: Optional[_HostedHostThread] = None
        # Hot-path latency constants, read by access_latency and
        # _route_ns only.  FlickConfig is frozen, so these derived values
        # cannot change after construction; hoisting them (several are
        # @property recomputes) is a pure wall-clock optimization.
        cfg = self.cfg
        mm = cfg.memory_map
        self._host_dram_lo = mm.host_dram_base
        self._host_dram_hi = mm.host_dram_base + mm.host_dram_size
        self._bram_lo = mm.nxp_bram_base
        self._bram_hi = mm.nxp_bram_base + mm.nxp_bram_size
        self._lat_host_cached = cfg.host_cached_mem_ns
        self._lat_host_bram = 2 * cfg.pcie_oneway_ns + cfg.nxp_bram_ns
        self._lat_posted_write = cfg.pcie_oneway_ns + 8 * cfg.pcie_ns_per_byte
        self._lat_host_bar_read = cfg.host_to_bar_read_ns
        self._lat_tlb_hit = cfg.tlb_hit_ns
        self._lat_nxp_bram = cfg.nxp_bram_ns
        self._lat_nxp_local_write = cfg.nxp_to_local_write_ns
        self._lat_nxp_local_read = cfg.nxp_to_local_read_ns
        self._lat_nxp_host_read = cfg.nxp_to_host_read_ns

    # -- shared helpers used by contexts -------------------------------------------

    def translate(self, vaddr: int) -> int:
        return vaddr + self._tcache.entry(vaddr)[0]

    def access_latency(self, side: str, vaddr: int, write: bool) -> float:
        if side != "nxp":  # host, or degraded-mode emulation on a host core
            return self._route_ns(side, vaddr + self._tcache.entry(vaddr)[0], write)
        # NxP side: segment windows bypass the TLB entirely (O(1)
        # base+limit check in the memory pipeline).
        for seg_base, seg_size in self.nxp_segments:
            if seg_base <= vaddr < seg_base + seg_size:
                self.machine.stats.count("hosted.nxp.segment_hit")
                paddr = self.process.page_tables.translate(vaddr).paddr
                return self._route_ns(side, paddr, write)
        # Otherwise: real TLB lookup, analytic walk cost on miss.
        dtlb = self._nxp_dtlb
        entry = dtlb.lookup(vaddr)
        if entry is None:
            cfg = self.cfg
            tr = self.process.page_tables.translate(vaddr)
            walk_cost = (
                cfg.mmu_walker_overhead_ns
                + len(self.process.page_tables.walk_entry_addrs(vaddr)) * cfg.mmu_walk_step_ns
            )
            entry = dtlb.insert(tr)
            base = walk_cost
        else:
            base = self._lat_tlb_hit
        return base + self._route_ns(side, entry.pbase | (vaddr - entry.vbase), write)

    def _route_ns(self, side: str, paddr: int, write: bool) -> float:
        """What reaching ``paddr`` costs from ``side``'s core, translation
        excluded: the one price of each hosted memory route.
        :meth:`access_latency` prices every op through it, and
        :meth:`page_run` every page run of a pointer chase."""
        if side != "nxp":
            if self._host_dram_lo <= paddr < self._host_dram_hi:
                return self._lat_host_cached
            if self._bram_lo <= paddr < self._bram_hi:
                return self._lat_host_bram
            return self._lat_posted_write if write else self._lat_host_bar_read
        if self._bram_lo <= paddr < self._bram_hi:
            return self._lat_nxp_bram
        remap = self._nxp_dtlb.remap
        if remap.lo <= paddr < remap.hi:
            return self._lat_nxp_local_write if write else self._lat_nxp_local_read
        return self._lat_posted_write if write else self._lat_nxp_host_read

    def page_run(
        self, side: str, vaddr: int
    ) -> Tuple[int, int, int, float, Optional[TLBEntry]]:
        """:meth:`HostedContext.chase`'s memo of the page holding
        ``vaddr``, built right after the reference :meth:`access_latency`
        call for it: ``(lo, hi, paddr - vaddr, ns, entry)``.

        Until the D-TLB changes, a read of any address in ``[lo, hi)``
        costs ``ns`` and, on the NxP, is a hit on ``entry`` (None on the
        host).  The bounds are the translation page's, cut on the NxP to
        the D-TLB entry's page, whose paddrs set the price.  The bounds
        are empty, so that every hop takes the reference call, when
        segment windows are configured and when a bound of a route
        window falls inside the page: such a page has no one price.
        """
        lo, hi, delta = self._tcache.page(vaddr)
        if side != "nxp":
            entry = None
            plo = lo + delta
            bounds = (self._host_dram_lo, self._host_dram_hi, self._bram_lo, self._bram_hi)
        elif self.nxp_segments:
            return 0, 0, delta, 0.0, None
        else:
            # The reference call just looked this entry up or inserted it.
            entry = self._nxp_dtlb.probe(vaddr)
            lo = max(lo, entry.vbase)
            hi = min(hi, entry.vbase + entry.page_size)
            plo = entry.pbase + (lo - entry.vbase)
            remap = self._nxp_dtlb.remap
            bounds = (self._bram_lo, self._bram_hi, remap.lo, remap.hi)
        phi = plo + (hi - lo)
        for bound in bounds:
            if plo < bound < phi:
                return 0, 0, delta, 0.0, None
        ns = self._route_ns(side, plo, False)
        if entry is not None:
            ns = self._lat_tlb_hit + ns
        return lo, hi, delta, ns, entry

    def dispatch_call(self, ctx: HostedContext, name: str, args: List[int]) -> Generator:
        fn = self.program.functions[name]
        if ctx.side == "fallback":
            # Degraded mode: NISA callees stay in the emulator; HISA
            # callees run natively on this (host) core — the NxP is
            # dead, so nothing ever migrates to it.
            ctx.compute(6)
            if fn.isa == "nisa":
                return (yield from self.run_body(fn, args, "fallback"))
            self.machine.trace.record("degraded_n2h_call", pid=self._task.pid, target=fn.addr)
            return (yield from self.run_body(fn, args, "host"))
        same_side = (fn.isa == "hisa") == (ctx.side == "host")
        if same_side:
            ctx.compute(6)  # plain call/ret overhead
            return (yield from self.run_body(fn, args, ctx.side, engine=ctx.engine))
        if ctx.side == "host":
            return (yield from self._thread.migrate_call_to_nxp(fn.addr, args))
        return (yield from ctx.engine.migrate_call_to_host(fn, args))

    def run_body(
        self, fn: HostedFunction, args: List[int], side: str, engine=None
    ) -> Generator:
        ctx = HostedContext(self, side)
        ctx.engine = engine
        retval = yield from fn.body(ctx, *args)
        yield from ctx.flush()
        return retval if retval is not None else 0

    # -- lifecycle -------------------------------------------------------------------

    def run(
        self, entry: str, args=(), reset_time: bool = False, until: Optional[float] = None
    ) -> HostedOutcome:
        """Run ``entry`` (a host-side hosted function) to completion.

        With ``until``, the run is bounded in sim time (chaos runs): a
        program still unfinished at the bound — or idle before it with
        nothing left to wake it — raises :class:`WorkloadHung` instead
        of blocking forever on a dead device.
        """
        fn = self.program.functions[entry]
        if fn.isa != "hisa":
            raise ValueError("hosted entry functions start on the host")
        task = Task(self.process, name=f"hosted.t{len(self.machine.threads)}")
        self.machine.kernel.register_task(task)
        self._task = task
        thread = _HostedHostThread(self, task)
        self._thread = thread
        for dev in self.machine.devices:
            dev.platform.start()
        start = self.sim.now
        self.sim.spawn(thread.thread_main(fn, list(args)), name=task.name)
        if until is None:
            self.sim.run()
            if thread.finished_at is None:
                raise RuntimeError("hosted program did not finish")
        else:
            try:
                self.sim.run(until=until)
            except Deadlock:
                # The NxP scheduler (and any parked body) is always a live
                # process, so every bounded run ends in Deadlock once
                # the queue drains; it only matters if the thread is
                # still unfinished.
                pass
            if thread.finished_at is None:
                raise WorkloadHung(
                    f"hosted program did not finish within {until} ns "
                    f"(t={self.sim.now} ns)"
                )
        return HostedOutcome(thread.result, thread.finished_at - start, self.machine)


class _HostedHostThread(HostMigrationHandler):
    """The hosted executor of the host protocol half: Python bodies
    instead of HISA code, same session, ioctl and fallback wrapper."""

    def __init__(self, hosted: HostedMachine, task: Task):
        super().__init__(hosted.machine, task)
        self.hosted = hosted

    def thread_main(self, fn: HostedFunction, args: List[int]) -> Generator:
        task = self.task
        self.core = yield from self.machine.cores.acquire(task.name)
        task.state = TaskState.RUNNING
        self.machine.trace.record("thread_start", pid=task.pid, target=fn.addr)
        self.machine.trace.begin("thread", pid=task.pid, target=fn.addr)
        retval = yield from self.hosted.run_body(fn, args, "host")
        task.state = TaskState.DONE
        self.machine.trace.record("thread_done", pid=task.pid)
        self.machine.trace.end("thread", pid=task.pid)
        self.machine.cores.release(self.core)
        self.core = None
        self.result = retval
        self.finished_at = self.sim.now
        return retval

    def _call_host_function(self, target: int, args: List[int]) -> Generator:
        yield self.sim.timeout(self.cfg.host_call_dispatch_ns)
        fn = self.hosted.program.by_addr[target]
        return (yield from self.hosted.run_body(fn, args, "host"))

    def _run_fallback_body(self, target: int, args: List[int]) -> Generator:
        """Degraded mode: the NISA body runs in the ``"fallback"`` context
        (penalized host emulation)."""
        fn = self.hosted.program.by_addr[target]
        return (yield from self.hosted.run_body(fn, args, "fallback"))


class _HostedNxpEngine(NxpMigrationHandler):
    """The hosted executor of the NxP protocol half: one per device.

    A dispatched call spawns the body as its own process; the core stays
    busy (the scheduler waits on ``_idle``) until the body parks on a
    host call or finishes.
    """

    def __init__(self, hosted: HostedMachine, device):
        super().__init__(hosted.machine, device)
        self.hosted = hosted
        # Per-pid LIFO of (return event) for bodies parked awaiting a
        # host function's return (nesting-safe).
        self._parked: Dict[int, List[Event]] = {}
        self._idle: Optional[Event] = None  # body finished/parked handshake

    def _execute(self, desc: MigrationDescriptor) -> Generator:
        idle = Event(self.sim, name="nxp.idle")
        self._idle = idle
        if desc.is_call:
            fn = self.hosted.program.by_addr[desc.target]
            task = self.machine.kernel.task_by_pid(desc.pid)
            self.sim.spawn(
                self._run_call(task, fn, desc.args), name=f"nxp-body-{fn.name}"
            )
        else:
            # Resume the most recently parked body for this pid.
            stack = self._parked.get(desc.pid)
            if not stack:
                raise RuntimeError("hosted: return descriptor with no parked body")
            stack.pop().trigger((desc.retval, idle))
        yield idle  # core is busy until the body parks or finishes

    def _run_call(self, task: Task, fn: HostedFunction, args) -> Generator:
        retval = yield from self.hosted.run_body(fn, list(args), "nxp", engine=self)
        # Return migration (mirrors NxpPlatform._return_migration).
        yield self.sim.timeout(self.cfg.nxp_desc_build_ns)
        desc = MigrationDescriptor(
            kind=KIND_RETURN, direction=DIR_N2H, pid=task.pid,
            retval=retval, cr3=task.process.cr3, nxp_sp=task.nxp_sp or 0,
        )
        yield from self._send_to_host(desc)
        self.machine.trace.record("n2h_return", pid=task.pid)
        self.machine.trace.end("nxp_resident", pid=task.pid, exit="return")
        # Hand the core back to the scheduler.  self._idle is always the
        # event the scheduler armed for the *current* activation, which
        # under LIFO nesting is exactly the one waiting on this body.
        self._idle.trigger()

    def migrate_call_to_host(self, fn: HostedFunction, args: List[int]) -> Generator:
        """A nxp-side body calls a host function (NxP-to-host migration)."""
        task = self.hosted._task
        cfg = self.cfg
        yield self.sim.timeout(cfg.nxp_fault_entry_ns)
        yield self.sim.timeout(cfg.nxp_desc_build_ns)
        desc = MigrationDescriptor(
            kind=KIND_CALL, direction=DIR_N2H, pid=task.pid, target=fn.addr,
            args=args[:6], cr3=task.process.cr3, nxp_sp=task.nxp_sp or 0,
        )
        resume = Event(self.sim, name="nxp.body.resume")
        self._parked.setdefault(task.pid, []).append(resume)
        yield from self._send_to_host(desc)
        self.machine.trace.record("n2h_call", pid=task.pid, target=fn.addr)
        self.machine.trace.end("nxp_resident", pid=task.pid, exit="call")
        self._idle.trigger()  # hand the NxP core back to the scheduler
        retval, idle = yield resume  # woken by a host->NxP return descriptor
        self._idle = idle
        return retval
