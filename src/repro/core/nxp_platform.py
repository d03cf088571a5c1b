"""The NxP platform: scheduler, migration handler and core (Listing 2).

The NxP scheduler is a bare-metal loop on the NxP core (the paper boots
it from a tiny ROM through a pre-loaded I-TLB entry): it polls the DMA
status register, and for every inbound descriptor either *calls* the
requested function on a thread's NxP stack, or *resumes* a thread that
was suspended mid-migration.

Outbound migrations mirror Listing 2.  A residency runs the thread
through the one step loop every core shares
(:func:`repro.core.step_loop.step_loop`), and its exit picks the
migration:

* a NISA function finishing -> **return migration** (NxP-to-host return
  descriptor, DMA, host interrupt);
* a NISA function fetching host-ISA bytes -> the inverted-NX page fault
  (or the misaligned/illegal fetch the variable-length HISA encoding
  causes) -> **call migration** with the faulting address as the target.

Reentrancy is handled with a per-thread stack of saved register
contexts: each nested call level pushes one snapshot, exactly as each
level of the paper's handler occupies one more frame of the thread's
NxP stack.

The protocol half — scheduler intake, hardened admission, the replay
caches and the outbound send path — lives in
:class:`NxpMigrationHandler`, written once for both executors; the
interpreted :class:`NxpPlatform` and the hosted engine
(``repro.core.hosted``) only supply how a dispatched call or return
runs.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.descriptors import (
    DESCRIPTOR_BYTES,
    DIR_N2H,
    KIND_CALL,
    KIND_RETURN,
    MigrationDescriptor,
)
from repro.core.errors import DescriptorCorrupt
from repro.core.ports import NxpMemoryPort
from repro.core.step_loop import Crossing, step_loop
from repro.isa.interpreter import CostModel, Interpreter
from repro.memory.mmu import PageWalker
from repro.memory.paging import PageTables
from repro.os.kernel import ProcessCrash
from repro.os.task import CpuContext, Task
from repro.sim.engine import Event

__all__ = ["NxpMigrationHandler", "NxpPlatform"]


class NxpMigrationHandler:
    """Listing 2's protocol half for one NxP device.

    Polls the device's inbound ring, gates each descriptor through the
    hardened admission checks when a fault plan is armed, and ships
    outbound descriptors back over the device's DMA engine.  Subclasses
    supply :meth:`_execute`: run one dispatched call or return until
    the thread leaves the NxP core.
    """

    def __init__(self, machine, device):
        self.machine = machine
        self.device = device
        self.sim = machine.sim
        self.cfg = machine.cfg
        self._proc = None
        self._staging: Optional[list] = None
        self._staging_idx = 0
        # Hardened-protocol state (advanced only when faults are armed):
        # per-pid inbound dedup and the outbound replay cache that lets a
        # retransmitted request be answered without re-executing it.
        # (The outbound sequence counter itself lives on the machine —
        # it must be monotonic per pid across all devices.)
        self._last_req_seq: dict = {}
        self._resp_cache: dict = {}
        self._resp_ready: dict = {}

    def _execute(self, desc: MigrationDescriptor) -> Generator:
        """Run a dispatched call or return until the thread leaves the core."""
        raise NotImplementedError

    def start(self) -> None:
        """Boot the scheduler (idempotent)."""
        if self._proc is None:
            self._proc = self.sim.spawn(
                self._scheduler(), name=f"nxp-scheduler.{self.device.index}"
            )

    def reset_device(self) -> None:
        """Device-reset half of ``machine.revive_nxp`` (docs/ROBUSTNESS.md).

        Clears the hardened replay caches — the revived silicon has no
        memory of pre-kill sequence numbers, and the per-pid dedup
        horizon rebuilds from the next fresh descriptor.  Ring pointers
        and the killed/draining flags are the machine's side of the
        reset.

        The scheduler process is forgotten only if it already exited.
        A kill can leave it *parked* on the arrival channel (it checks
        ``killed`` after waking, and a dead device gets no arrivals to
        wake it) — that parked process resumes as the revived device's
        scheduler.  Spawning a second one next to it would double-pop
        the ring on the next doorbell (RingUnderflow).
        """
        self._last_req_seq.clear()
        self._resp_cache.clear()
        self._resp_ready.clear()
        if self._proc is not None and not self._proc.alive:
            self._proc = None

    # -- the polling scheduler --------------------------------------------------

    def _scheduler(self) -> Generator:
        dev = self.device
        machine = self.machine
        cfg = self.cfg
        ring = dev.nxp_ring
        status_addr = cfg.memory_map.mmio_base + dev.index * 0x10
        while True:
            if dev.killed:
                # Abruptly-killed device (chaos): the scheduler silicon
                # stops.  In-flight host legs are recovered by their
                # watchdogs; this process simply exits so the sim can
                # quiesce.
                return
            if ring.pending == 0:
                # Architecturally the scheduler spins on the DMA STATUS
                # register; the simulation sleeps until the next arrival
                # and charges half a poll period (the mean discovery
                # delay of a free-running poll loop).
                yield dev.dma.nxp_arrival.get()
                if dev.killed:
                    return
                yield self.sim.timeout(cfg.nxp_poll_period_ns / 2.0)
                if machine.phys.read_u64(status_addr) == 0:
                    continue  # stale wakeup: descriptor already consumed
            dispatch_start = self.sim.now
            yield self.sim.timeout(cfg.nxp_sched_dispatch_ns)
            raw = machine.phys.read(ring.pop_addr(), DESCRIPTOR_BYTES)
            if machine.hardened:
                desc = yield from self._hardened_admit(raw)
                if desc is None:
                    continue
            else:
                desc = MigrationDescriptor.unpack(raw)
            yield self.sim.timeout(cfg.nxp_context_switch_ns)
            # The device attr feeds per-device utilization
            # (analysis/metrics.py) and causal trace labels.
            if desc.is_call:
                machine.trace.record("nxp_dispatch_call", pid=desc.pid, target=desc.target)
                machine.trace.begin(
                    "nxp_resident", pid=desc.pid, entry="call", device=dev.index
                )
            else:
                machine.trace.record("nxp_dispatch_return", pid=desc.pid)
                machine.trace.begin(
                    "nxp_resident", pid=desc.pid, entry="return", device=dev.index
                )
            yield from self._execute(desc)
            machine.stats.sample("nxp.busy_ns", self.sim.now - dispatch_start)

    # -- hardened intake (active only when a fault plan is armed) -----------------

    def _hardened_admit(self, raw: bytes) -> Generator:
        """Gate one popped descriptor through faults, checksum and dedup.

        Returns the descriptor to dispatch, or ``None`` when it was
        consumed here (dropped, discarded, or answered from the replay
        cache).  A permanently hung/crashed NxP parks the scheduler on
        a never-triggered event — from the host's perspective the
        device simply stops answering, which is exactly what the
        watchdog/health machinery must detect.
        """
        machine = self.machine
        for rule in machine.injector.pull("nxp"):
            if rule.kind == "nxp_crash":
                machine.stats.count("nxp.crashed")
                machine.trace.record("nxp_crash")
                yield from self._park_forever()
            elif rule.kind == "nxp_hang":
                if rule.delay_ns > 0:
                    # Transient stall: the in-flight descriptor is lost,
                    # but the device recovers — dedup state untouched so
                    # the sender's retransmit is processed fresh.
                    machine.stats.count("nxp.stall")
                    machine.trace.record("nxp_stall", delay_ns=rule.delay_ns)
                    yield self.sim.timeout(rule.delay_ns)
                    return None
                machine.stats.count("nxp.hung")
                machine.trace.record("nxp_hang")
                yield from self._park_forever()
        try:
            desc = MigrationDescriptor.unpack(raw)
        except DescriptorCorrupt:
            machine.stats.count("nxp.desc_corrupt_discarded")
            machine.trace.record("desc_discard", reason="corrupt", side="nxp")
            return None
        last = self._last_req_seq.get(desc.pid, 0)
        if desc.seq <= last:
            if desc.seq == last and self._resp_ready.get(desc.pid):
                # Retransmit of a request already answered: the answer
                # (or its interrupt) was lost in flight — replay it.
                machine.stats.count("nxp.replay")
                machine.trace.record("replay", pid=desc.pid, seq=desc.seq)
                cached = self._resp_cache.get(desc.pid)
                if cached is not None:
                    yield from self._push_desc(cached)
            else:
                # Duplicate of the request currently being processed
                # (or an ancient straggler): nothing to do yet.
                machine.stats.count("nxp.dup_discarded")
            return None
        self._last_req_seq[desc.pid] = desc.seq
        self._resp_ready[desc.pid] = False
        return desc

    def _park_forever(self) -> Generator:
        yield Event(self.sim, name="nxp.dead")  # never triggered

    # -- the outbound send path -------------------------------------------------

    def _send_to_host(self, desc: MigrationDescriptor) -> Generator:
        if self.machine.hardened:
            # Stamp the per-pid n2h sequence and remember the descriptor:
            # if this answer (or its IRQ) is lost, the host's retransmit
            # of the matching request replays it from the cache.  The
            # counter is machine-wide (not per device) so replies stay
            # monotonic per pid across the whole fleet.
            seq = self.machine.n2h_seq.get(desc.pid, 0) + 1
            self.machine.n2h_seq[desc.pid] = seq
            desc.seq = seq
            self._resp_cache[desc.pid] = desc
            self._resp_ready[desc.pid] = True
        yield from self._push_desc(desc)

    def _push_desc(self, desc: MigrationDescriptor) -> Generator:
        cfg = self.cfg
        if cfg.injected_migration_rt_ns:
            # Prior-work overhead emulation (see host_runtime counterpart).
            yield self.sim.timeout(cfg.injected_migration_rt_ns / 2.0)
        if self._staging is None:
            # A small rotating pool so a burst in flight is never
            # overwritten by the next outbound descriptor.
            self._staging = [
                self.device.bram.alloc(DESCRIPTOR_BYTES, align=64) for _ in range(8)
            ]
        buf = self._staging[self._staging_idx]
        self._staging_idx = (self._staging_idx + 1) % len(self._staging)
        self.machine.phys.write(buf, desc.pack())
        yield self.sim.timeout(cfg.nxp_context_switch_ns)  # back to scheduler
        yield self.sim.timeout(cfg.nxp_dma_kick_ns)
        self.sim.spawn(
            self.device.dma.push_to_host(buf, DESCRIPTOR_BYTES, pid=desc.pid),
            name=f"dma-n2h-{desc.pid}",
        )


class NxpPlatform(NxpMigrationHandler):
    """One NxP core + its TLBs/MMU/caches, running the interpreted NISA.

    Stat names stay the legacy ``nxp.*`` on every device, so multi-NxP
    counters aggregate across the fleet of cores.
    """

    def __init__(self, machine, device):
        super().__init__(machine, device)
        self.current_tables: Optional[PageTables] = None
        self.walker = PageWalker(
            self.sim, self.cfg, lambda: self.current_tables, stats=machine.stats, name="nxp.mmu"
        )
        self.port = NxpMemoryPort(
            self.sim,
            self.cfg,
            machine.phys,
            machine.link,
            self.walker,
            stats=machine.stats,
            tables_provider=lambda: self.current_tables,
        )
        # @nxp data is D-cacheable on every device: all ports share the
        # machine's one filter, which the loader fills.
        self.port.cacheable = machine.nxp_cacheable
        self.cpu = Interpreter(
            "nisa",
            self.sim,
            self.port,
            CostModel(self.cfg.nxp_cycle_ns, ipc=1.0),
            stats=machine.stats,
            name="nxp.core",
            decode_cache=self.cfg.decode_cache,
            jit=self.cfg.jit_enabled,
            jit_hot_threshold=self.cfg.jit_hot_threshold,
            jit_max_superblock=self.cfg.jit_max_superblock,
            trace=machine.trace,
        )

    def _execute(self, desc: MigrationDescriptor) -> Generator:
        """Enter the thread on the NxP core and run it until it leaves."""
        task = self.machine.kernel.task_by_pid(desc.pid)
        self._switch_address_space(task, desc.cr3)
        cpu = self.cpu
        if desc.is_call:
            yield from cpu.setup_call(desc.target, desc.args, sp=desc.nxp_sp)
        else:
            if not task.nxp_context_stack:
                raise ProcessCrash(task, "return descriptor with no suspended NxP context")
            ctx = task.nxp_context_stack.pop()
            cpu.regs.restore(ctx.regs)
            # Simulated return from the (hijacked) JAL: pc <- ra,
            # return value in a0.
            cpu.pc = cpu.regs.read(cpu.abi.link_reg)
            cpu.regs.write(cpu.abi.ret_reg, desc.retval)
        out = yield from step_loop(self.machine, task, cpu, on_host=False)
        if type(out) is Crossing:
            yield from self._call_migration(task, out.target, out.trigger)
        else:
            yield from self._return_migration(task, out)

    def _switch_address_space(self, task: Task, cr3: int) -> None:
        tables = task.process.page_tables
        if cr3 and tables.cr3 != cr3:
            raise ProcessCrash(task, f"descriptor CR3 {cr3:#x} != process CR3 {tables.cr3:#x}")
        if self.current_tables is not tables:
            self.current_tables = tables
            self.port.flush_tlbs()
            # Decodes and superblocks are keyed by virtual PC, and
            # another address space may map other code at the same PCs:
            # run on the incoming space's own caches.
            self.cpu.switch_address_space(task.process.decode_caches, tables)
            self.machine.stats.count("nxp.address_space_switch")

    # -- outbound migrations (Listing 2) ----------------------------------------------

    def _return_migration(self, task: Task, retval: int) -> Generator:
        cfg = self.cfg
        yield self.sim.timeout(cfg.nxp_desc_build_ns)
        task.nxp_sp = self.cpu.sp
        desc = MigrationDescriptor(
            kind=KIND_RETURN,
            direction=DIR_N2H,
            pid=task.pid,
            retval=retval,
            cr3=task.process.cr3,
            nxp_sp=self.cpu.sp,
        )
        yield from self._send_to_host(desc)
        self.machine.trace.record("n2h_return", pid=task.pid)
        self.machine.trace.end("nxp_resident", pid=task.pid, exit="return")

    def _call_migration(self, task: Task, target: int, trigger: str) -> Generator:
        cfg = self.cfg
        yield self.sim.timeout(cfg.nxp_fault_entry_ns)
        self.machine.stats.count(f"nxp.migrate_trigger.{trigger}")
        args = self.cpu.get_args(6)
        # Save this nesting level's context; it resumes on the matching
        # return descriptor.
        task.nxp_context_stack.append(
            CpuContext(regs=self.cpu.regs.snapshot(), pc=target)
        )
        task.nxp_sp = self.cpu.sp
        yield self.sim.timeout(cfg.nxp_desc_build_ns)
        desc = MigrationDescriptor(
            kind=KIND_CALL,
            direction=DIR_N2H,
            pid=task.pid,
            target=target,
            args=args,
            cr3=task.process.cr3,
            nxp_sp=self.cpu.sp,
        )
        yield from self._send_to_host(desc)
        self.machine.trace.record("n2h_call", pid=task.pid, target=target)
        self.machine.trace.end("nxp_resident", pid=task.pid, exit="call")
