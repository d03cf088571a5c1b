"""Host-side execution: thread driver + Flick user-space migration handler.

Mirrors Listing 1 of the paper.  A thread always starts on the host.
When its host core fetches NxP-ISA instructions, the NX fault hands
control to :meth:`HostMigrationHandler.migrate_call_to_nxp` — the
user-space migration handler — which packages the hijacked call into a
descriptor, performs the ``ioctl(MIGRATE_AND_SUSPEND)``, and sleeps
until the migration interrupt wakes it.  While awake it loops servicing
*NxP-to-host* call descriptors (the paper's ``while
(nxp_to_host_call)``) until the final return descriptor arrives, then
returns the value as if the hijacked call had executed locally — the
caller never knows the thread left.

The handler is reentrant: a host function called *from* the NxP may
itself call NxP functions; each nesting level is simply a deeper Python
frame of ``_step_loop``/``migrate_call_to_nxp``, exactly as each level
in the paper occupies a deeper stack frame of the real handler.

:class:`HostMigrationHandler` is the protocol half, written once for
both executors: the interpreted :class:`HostThread` below and the
hosted thread of ``repro.core.hosted`` only supply how a host call and
a host-fallback body run.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.core.descriptors import (
    DESCRIPTOR_BYTES,
    DIR_H2N,
    KIND_CALL,
    KIND_RETURN,
    MigrationDescriptor,
)
from repro.core.errors import WATCHDOG_EXPIRED, NxpDeadError
from repro.core.ports import FallbackMemoryPort
from repro.core.stubs import STUB_PCS, service_stub
from repro.isa.base import IllegalInstruction, IsaFault, MisalignedFetch
from repro.isa.interpreter import (
    CostModel,
    EnvCall,
    Halted,
    Interpreter,
    ReturnToRuntime,
)
from repro.memory.paging import PageFault
from repro.os.kernel import ProcessCrash, _ThreadExit
from repro.os.loader import HOST_STACK_TOP
from repro.os.task import Task, TaskState
from repro.sim.engine import Event

__all__ = ["HostMigrationHandler", "HostThread"]


class HostMigrationHandler:
    """Listing 1's protocol half for one task.

    Owns the migration session, the ``ioctl(MIGRATE_AND_SUSPEND)`` (plain
    and hardened), the leg watchdog, the brownout rule and the fallback
    wrapper.  Subclasses supply how bodies run: :meth:`_call_host_function`
    (an NxP-requested host function) and :meth:`_run_fallback_body` (a
    NISA callee emulated on the host when no NxP takes the session).
    """

    def __init__(self, machine, task: Task):
        self.machine = machine
        self.sim = machine.sim
        self.cfg = machine.cfg
        self.task = task
        self.core = None
        self.result: Optional[int] = None
        self.finished_at: Optional[float] = None
        self._staging: Optional[int] = None  # host DRAM descriptor buffer

    def _call_host_function(self, target: int, args: List[int]) -> Generator:
        """Dispatch and run the NxP-requested host function at ``target``
        (a nested level); returns its value."""
        raise NotImplementedError

    def _run_fallback_body(self, target: int, args: List[int]) -> Generator:
        """Run the NISA callee at ``target`` on the host; returns its value."""
        raise NotImplementedError

    # -- Listing 1: the host migration handler --------------------------------------

    def migrate_call_to_nxp(self, target: int, args: List[int]) -> Generator:
        """One migration session, from the NX fault to the final return.

        The placement layer picks one device per *session*; every leg of
        the session (the opening call, the reentrant ladder, the final
        return) goes to that device, because descriptor sequence
        numbers, replay caches and the thread's suspended NxP frames are
        per-device state.  An opening leg that raises
        :class:`NxpDeadError` is re-placed on the next live device (no
        NxP state exists yet, so the call can be restarted whole); with
        every device tried or down, a fused pid, or a brownout, the call
        degrades to host-fallback emulation.  Mid-ladder death is a
        :class:`ProcessCrash`.
        """
        task = self.task
        cfg = self.cfg
        machine = self.machine
        trace = machine.trace
        # NX fault entry + kernel redirect to the user-space handler
        # (measured at ~0.7us in the paper).
        yield self.sim.timeout(cfg.host_page_fault_ns)
        yield self.sim.timeout(cfg.host_handler_entry_ns)
        session_start = self.sim.now
        trace.record("h2n_call_start", pid=task.pid, target=target)
        trace.begin("h2n_session", pid=task.pid, target=target)
        tried = set()
        while True:
            device = None
            if task.pid not in machine.fused_pids:
                # A pid fused after a retry-budget denial must not wait
                # on *any* device: a stale reply to its abandoned leg
                # routes by pid, and must find no armed wait.
                device = machine.placement.pick(task, exclude=frozenset(tried))
            if task.nxp_stack_base is None:  # first migration: allocate NxP stack
                # Before the fallback checks: the host-fallback emulator
                # runs the callee on this stack too.
                home = device if device is not None else machine.devices[0]
                yield self.sim.timeout(cfg.host_stack_alloc_ns)
                task.nxp_stack_base = machine.alloc_nxp_stack(home)
                task.nxp_sp = task.nxp_stack_base + cfg.nxp_stack_bytes
                task.nxp_device = home.index
                trace.record("nxp_stack_alloc", pid=task.pid, addr=task.nxp_stack_base)
            if device is None or (cfg.brownout and self._brownout_risk(device)):
                # No device will take the session (all tried, down or
                # draining, or the pid is fused), or an overload brownout
                # would rather not queue it: run degraded-but-correct on
                # the host (docs/ROBUSTNESS.md).
                retval = yield from self._fallback_execute(target, args, session_start)
                return retval
            if trace.context_enabled:
                # Label the session span with the device serving it (the
                # last annotation wins on failover re-placement).
                trace.annotate(
                    "h2n_session", pid=task.pid,
                    device=device.index, device_label=f"nxp{device.index}",
                )

            desc = MigrationDescriptor(
                kind=KIND_CALL,
                direction=DIR_H2N,
                pid=task.pid,
                target=target,
                args=args[:6],
                cr3=task.process.cr3,
                nxp_sp=task.nxp_sp,
            )
            device.outstanding += 1
            try:
                try:
                    inbound = yield from self._ioctl_migrate_and_suspend(desc, device)
                except NxpDeadError:
                    # The opening call leg never reached the device; no
                    # NxP state exists for this session, so it is
                    # re-placed whole.
                    tried.add(device.index)
                    continue
                # The paper's while (nxp_to_host_call) loop.
                while inbound.is_call:
                    task.nxp_sp = inbound.nxp_sp  # thread's NxP stack advanced
                    yield self.sim.timeout(cfg.host_ioctl_return_ns)
                    trace.record("n2h_call_exec", pid=task.pid, target=inbound.target)
                    trace.begin("n2h_host_exec", pid=task.pid, target=inbound.target)
                    host_retval = yield from self._call_host_function(
                        inbound.target, inbound.args
                    )
                    trace.end("n2h_host_exec", pid=task.pid)
                    ret_desc = MigrationDescriptor(
                        kind=KIND_RETURN,
                        direction=DIR_H2N,
                        pid=task.pid,
                        retval=host_retval,
                        cr3=task.process.cr3,
                        nxp_sp=task.nxp_sp,
                    )
                    try:
                        inbound = yield from self._ioctl_migrate_and_suspend(ret_desc, device)
                    except NxpDeadError:
                        # Mid-ladder death: the thread's suspended NxP
                        # frames (and any state the NISA callee built
                        # there) are gone.  There is no correct way to
                        # resume — this is a crash, which the chaos
                        # invariant accepts as terminal.
                        raise ProcessCrash(
                            task,
                            "NxP died mid-migration-session "
                            "(suspended NxP frames lost)",
                        )
                # Return migration: resume at the original call site.
                yield self.sim.timeout(cfg.host_ioctl_return_ns)
                yield self.sim.timeout(cfg.host_handler_return_ns)
            finally:
                device.outstanding -= 1
            machine.stats.observe(
                "latency.h2n_session_ns", self.sim.now - session_start
            )
            trace.record("h2n_call_done", pid=task.pid, target=target)
            trace.end("h2n_session", pid=task.pid)
            return inbound.retval

    def _brownout_risk(self, device) -> bool:
        """Should this call brown out to host fallback instead of
        queueing on ``device``?  Only consulted when ``cfg.brownout`` is on.

        Two triggers: the task's remaining deadline budget is below
        ``brownout_margin_ns`` (a session started now would likely
        finish late), or the device already has
        ``admission_queue_limit`` sessions in flight (queueing behind
        them only grows the backlog).
        """
        cfg = self.cfg
        machine = self.machine
        deadline = getattr(self.task, "deadline_ns", None)
        if deadline is not None and deadline - self.sim.now < cfg.brownout_margin_ns:
            machine.stats.count("brownout.deadline_risk")
            return True
        limit = cfg.admission_queue_limit
        if limit and device.outstanding >= limit:
            machine.stats.count("brownout.queue_full")
            return True
        return False

    # -- the ioctl(MIGRATE_AND_SUSPEND) path -------------------------------------------

    def _ioctl_migrate_and_suspend(self, desc: MigrationDescriptor, device) -> Generator:
        if self.machine.hardened:
            result = yield from self._ioctl_hardened(desc, device)
            return result
        task = self.task
        cfg = self.cfg
        if cfg.injected_migration_rt_ns:
            # Emulate prior work's per-crossing binary-translation /
            # state-transformation cost (Table II / Fig. 5 baselines).
            yield self.sim.timeout(cfg.injected_migration_rt_ns / 2.0)
        yield self.sim.timeout(cfg.host_ioctl_entry_ns)
        yield self.sim.timeout(cfg.host_desc_build_ns)
        if self._staging is None:
            self._staging = self.machine.host_phys.alloc(DESCRIPTOR_BYTES, align=64)
        self.machine.phys.write(self._staging, desc.pack())

        # Suspend (TASK_KILLABLE) and context switch away.  The DMA kick
        # is deferred until *after* the switch (Section IV-D).
        task.state = TaskState.SUSPENDED
        wake = Event(self.sim, name=f"{task.name}.wake")
        task.wake_event = wake
        yield self.sim.timeout(cfg.host_context_switch_ns)
        self.machine.cores.release(self.core)
        self.core = None

        yield self.sim.timeout(cfg.host_dma_kick_ns)
        self.machine.trace.record("dma_h2n", pid=task.pid, kind=desc.kind)
        self.sim.spawn(
            device.dma.push_to_nxp(self._staging, DESCRIPTOR_BYTES, pid=task.pid),
            name=f"dma-h2n-{task.name}",
        )

        inbound = yield wake  # the IRQ handler wakes us
        self.core = yield from self.machine.cores.acquire(task.name)
        task.state = TaskState.RUNNING
        return inbound

    # -- hardened protocol (active only when a fault plan is armed) ---------------

    def _ioctl_hardened(self, desc: MigrationDescriptor, device) -> Generator:
        """``ioctl(MIGRATE_AND_SUSPEND)`` with watchdog + bounded retry.

        Each *leg* (one h2n descriptor and the n2h answer that wakes us)
        gets a sim-time watchdog.  On expiry the descriptor is resent —
        same sequence number, so the NxP side deduplicates or replays
        its cached response — with deterministic exponential backoff
        between attempts.  ``migration_retry_limit + 1`` consecutive
        expiries are one *leg failure*; ``nxp_dead_threshold`` of those
        flips the health machine to DEAD and raises
        :class:`NxpDeadError` for the caller to degrade.
        """
        task = self.task
        cfg = self.cfg
        machine = self.machine
        health = device.health
        if cfg.injected_migration_rt_ns:
            yield self.sim.timeout(cfg.injected_migration_rt_ns / 2.0)
        yield self.sim.timeout(cfg.host_ioctl_entry_ns)
        yield self.sim.timeout(cfg.host_desc_build_ns)
        task.h2n_seq += 1
        desc.seq = task.h2n_seq
        if self._staging is None:
            self._staging = machine.host_phys.alloc(DESCRIPTOR_BYTES, align=64)
        machine.phys.write(self._staging, desc.pack())

        task.state = TaskState.SUSPENDED
        yield self.sim.timeout(cfg.host_context_switch_ns)
        machine.cores.release(self.core)
        self.core = None

        sends = 0
        while True:
            for attempt in range(cfg.migration_retry_limit + 1):
                if sends and machine.retry_budget is not None:
                    # Machine-wide retry budget: every retransmit (any
                    # attempt after the first send of this seq) must win
                    # a token, or the leg degrades like a dead device —
                    # correlated failures fall back instead of storming
                    # the ring (docs/ROBUSTNESS.md).
                    if not machine.retry_budget.take(self.sim.now):
                        machine.trace.record(
                            "retry_budget_denied", pid=task.pid, seq=desc.seq
                        )
                        # Fuse the pid: a reply to the leg being
                        # abandoned may still arrive, and it would be
                        # mis-delivered to this pid's next wait.
                        machine.fused_pids.add(task.pid)
                        self.core = yield from machine.cores.acquire(task.name)
                        task.state = TaskState.RUNNING
                        raise NxpDeadError(task, "retry budget exhausted")
                sends += 1
                wake = Event(self.sim, name=f"{task.name}.wake.s{desc.seq}a{attempt}")
                task.wake_event = wake
                yield self.sim.timeout(cfg.host_dma_kick_ns)
                machine.trace.record(
                    "dma_h2n", pid=task.pid, kind=desc.kind, attempt=attempt
                )
                if attempt:
                    machine.stats.count("migration.retry")
                    machine.trace.record("retry", pid=task.pid, seq=desc.seq, attempt=attempt)
                self.sim.spawn(
                    device.dma.push_to_nxp(self._staging, DESCRIPTOR_BYTES, pid=task.pid),
                    name=f"dma-h2n-{task.name}-a{attempt}",
                )
                self._spawn_watchdog(wake, cfg.migration_watchdog_ns)
                inbound = yield wake
                if inbound is not WATCHDOG_EXPIRED:
                    health.record_success()
                    self.core = yield from machine.cores.acquire(task.name)
                    task.state = TaskState.RUNNING
                    return inbound
                task.wake_event = None
                machine.stats.count("migration.watchdog_trip")
                machine.trace.record(
                    "watchdog_trip", pid=task.pid, seq=desc.seq, attempt=attempt
                )
                backoff = cfg.migration_backoff_base_ns * (
                    cfg.migration_backoff_factor ** attempt
                )
                yield self.sim.timeout(backoff)
                if health.dead:
                    # The device was latched DEAD under us (another leg's
                    # failure, or a chaos kill) — don't burn the remaining
                    # retries against known-dead silicon; surface the
                    # error so the session is re-placed immediately.
                    self.core = yield from machine.cores.acquire(task.name)
                    task.state = TaskState.RUNNING
                    raise NxpDeadError(task)
            health.record_failure(self.sim.now)
            if health.dead:
                # The thread resumes on a host core to run the fallback
                # (or to crash): reacquire before surfacing the error.
                self.core = yield from machine.cores.acquire(task.name)
                task.state = TaskState.RUNNING
                raise NxpDeadError(task)
            # SUSPECT: keep trying — a transient stall may clear.

    def _spawn_watchdog(self, wake: Event, timeout_ns: float) -> None:
        def watchdog(sim):
            yield sim.timeout(timeout_ns)
            if not wake.triggered:
                wake.trigger(WATCHDOG_EXPIRED)

        self.sim.spawn(watchdog(self.sim), name=f"watchdog-{self.task.name}")

    # -- degraded mode ------------------------------------------------------------

    def _fallback_execute(self, target: int, args: List[int], session_start: float) -> Generator:
        """Run the NISA callee on the host instead of an NxP.

        The degradation path for a dead fleet, a fused pid or a
        brownout: the NISA text and the thread's NxP stack window are
        still mapped in the shared address space, so the host can
        *emulate* the callee at ``host_fallback_penalty`` times the host
        cycle time — correct, but slow.
        """
        task = self.task
        machine = self.machine
        machine.stats.count("degraded.calls")
        machine.trace.record("degraded_call", pid=task.pid, target=target)
        if machine.trace.context_enabled:
            machine.trace.annotate("h2n_session", pid=task.pid, fallback=True)
        # Runtime check + emulator setup on entry to the degraded path.
        yield self.sim.timeout(self.cfg.host_fallback_entry_ns)
        retval = yield from self._run_fallback_body(target, args)
        machine.stats.observe("latency.degraded_session_ns", self.sim.now - session_start)
        machine.trace.record("degraded_done", pid=task.pid, target=target)
        machine.trace.end("h2n_session", pid=task.pid)
        return retval


class HostThread(HostMigrationHandler):
    """Drives one task's execution on the host cores."""

    def __init__(self, machine, task: Task, port):
        super().__init__(machine, task)
        self.kernel = machine.kernel
        self.cpu = Interpreter(
            "hisa",
            self.sim,
            port,
            CostModel(machine.cfg.host_cycle_ns, ipc=3.0),
            stats=machine.stats,
            name=f"host.{task.name}",
            decode_cache=machine.cfg.decode_cache,
            jit=machine.cfg.jit_enabled,
            jit_hot_threshold=machine.cfg.jit_hot_threshold,
            jit_max_superblock=machine.cfg.jit_max_superblock,
            trace=machine.trace,
            decode_caches=task.process.decode_caches,
        )
        self.proc = None  # sim Process handle, set by FlickMachine.spawn
        self._fallback_cpu: Optional[Interpreter] = None  # degraded-mode NISA emulator

    # -- thread entry ------------------------------------------------------------

    def thread_main(self, entry: int, args: List[int]) -> Generator:
        """DES process: run the program's entry function to completion."""
        task = self.task
        self.core = yield from self.machine.cores.acquire(task.name)
        task.state = TaskState.RUNNING
        self.machine.trace.record("thread_start", pid=task.pid, target=entry)
        self.machine.trace.begin("thread", pid=task.pid, target=entry)
        yield from self.cpu.setup_call(entry, args, sp=HOST_STACK_TOP - 64)
        try:
            retval = yield from self._step_loop()
        except _ThreadExit as exit_request:
            retval = exit_request.code
        finally:
            task.state = TaskState.DONE
            if self.core is not None:
                self.machine.cores.release(self.core)
                self.core = None
        self.result = retval
        self.finished_at = self.sim.now
        task.process.exit_code = retval
        self.machine.trace.record("thread_done", pid=task.pid)
        self.machine.trace.end("thread", pid=task.pid)
        return retval

    # -- the step loop (one per nesting level) ------------------------------------

    def _step_loop(self) -> Generator:
        cpu = self.cpu
        step = cpu.step
        stub_pcs = STUB_PCS
        while True:
            if cpu.pc in stub_pcs:
                yield from service_stub(self.machine, self.task, cpu)
                continue
            try:
                yield from step(stub_pcs)
            except PageFault as fault:
                if fault.kind == PageFault.NX_VIOLATION and fault.is_exec:
                    self.kernel.classify_exec_fault(self.task, fault, running_on="hisa")
                    retval = yield from self.migrate_call_to_nxp(
                        fault.vaddr, cpu.get_args(6)
                    )
                    yield from self._hijacked_return(retval)
                elif (
                    fault.kind == PageFault.NOT_PRESENT
                    and self.task.process.lazy_heap is not None
                    and self.task.process.lazy_heap.covers(fault.vaddr)
                ):
                    # Minor fault: demand-page the heap and retry the
                    # instruction (same dispatcher as the NX migration
                    # hook -- it is all one page-fault handler).
                    yield from self.task.process.lazy_heap.service_fault(
                        self.task, fault.vaddr
                    )
                else:
                    raise ProcessCrash(
                        self.task,
                        f"unexpected host page fault at pc={cpu.pc:#x}: "
                        f"{fault.access_kind} access to {fault.vaddr:#x} ({fault.kind})",
                        pc=cpu.pc,
                        fault=fault,
                    )
            except EnvCall:
                code, value = cpu.get_args(2)
                result = self.kernel.service_syscall(self.task, code, value)
                cpu.regs.write(cpu.abi.ret_reg, result or 0)
            except ReturnToRuntime as ret:
                return ret.retval
            except Halted:
                return 0
            except (MisalignedFetch, IllegalInstruction) as fault:
                raise ProcessCrash(
                    self.task, f"host fetch fault at pc={cpu.pc:#x}: {fault}", pc=cpu.pc
                )
            except IsaFault as fault:
                raise ProcessCrash(
                    self.task, f"host fault at pc={cpu.pc:#x}: {fault}", pc=cpu.pc
                )

    def _hijacked_return(self, retval: int) -> Generator:
        """Return from the hijacked call site as if it ran locally."""
        cpu = self.cpu
        raw = yield from cpu.port.load(cpu.sp, 8)
        cpu.sp = cpu.sp + 8
        cpu.pc = int.from_bytes(raw, "little")
        cpu.regs.write(cpu.abi.ret_reg, retval)

    def _call_host_function(self, target: int, args: List[int]) -> Generator:
        yield self.sim.timeout(self.cfg.host_call_dispatch_ns)
        yield from self.cpu.setup_call(target, list(args))  # keep current stack
        return (yield from self._step_loop())

    # -- degraded mode: host-side NISA emulation ----------------------------------

    def _run_fallback_body(self, target: int, args: List[int]) -> Generator:
        """The host-side counterpart of the NxP core's run loop
        (``NxpPlatform._execute``).

        A second interpreter over a :class:`FallbackMemoryPort` (inverted
        NX sense, like the NxP MMU) emulates the callee; NxP-resident
        data (BRAM stack, BAR0 windows) is reached over PCIe, adding the
        natural placement penalty on top.  A fetch that faults under the
        inverted NX sense (or misaligns / fails to decode) is NISA code
        calling back into host code; where the live NxP would emit a
        call-migration descriptor, the emulator just runs the host
        function *inline* on this thread's real host interpreter, then
        replays the NxP's return dispatch (pc <- ra, retval in a0) on
        the emulated register file.
        """
        task = self.task
        machine = self.machine
        cfg = self.cfg
        if self._fallback_cpu is None:
            port = FallbackMemoryPort(
                self.sim,
                cfg,
                machine.phys,
                machine.link,
                task.process.page_tables,
                stats=machine.stats,
            )
            self._fallback_cpu = Interpreter(
                "nisa",
                self.sim,
                port,
                CostModel(cfg.host_cycle_ns * cfg.host_fallback_penalty, ipc=1.0),
                stats=machine.stats,
                name=f"fallback.{task.name}",
                decode_cache=cfg.decode_cache,
                jit=cfg.jit_enabled,
                jit_hot_threshold=cfg.jit_hot_threshold,
                jit_max_superblock=cfg.jit_max_superblock,
                trace=machine.trace,
                decode_caches=task.process.decode_caches,
            )
        fcpu = self._fallback_cpu
        yield from fcpu.setup_call(target, list(args), sp=task.nxp_sp)
        stub_pcs = STUB_PCS
        while True:
            if fcpu.pc in stub_pcs:
                yield from service_stub(machine, task, fcpu)
                continue
            try:
                yield from fcpu.step(stub_pcs)
            except ReturnToRuntime as ret:
                task.nxp_sp = fcpu.sp
                return ret.retval
            except PageFault as fault:
                if fault.kind == PageFault.NX_VIOLATION and fault.is_exec:
                    self.kernel.classify_exec_fault(task, fault, running_on="nisa")
                    yield from self._fallback_host_call(fault.vaddr)
                    continue
                if (
                    fault.kind == PageFault.NOT_PRESENT
                    and task.process.lazy_heap is not None
                    and task.process.lazy_heap.covers(fault.vaddr)
                ):
                    yield from task.process.lazy_heap.service_fault(task, fault.vaddr)
                    continue
                raise ProcessCrash(
                    task,
                    f"fallback page fault at pc={fcpu.pc:#x}: "
                    f"{fault.access_kind} access to {fault.vaddr:#x} ({fault.kind})",
                    pc=fcpu.pc,
                    fault=fault,
                )
            except MisalignedFetch as fault:
                self.kernel.classify_exec_fault(
                    task, PageFault(fault.pc, PageFault.NX_VIOLATION, is_exec=True), "nisa"
                )
                yield from self._fallback_host_call(fault.pc)
            except IllegalInstruction as fault:
                self.kernel.classify_exec_fault(
                    task, PageFault(fault.pc, PageFault.NX_VIOLATION, is_exec=True), "nisa"
                )
                yield from self._fallback_host_call(fault.pc)
            except EnvCall:
                code, value = fcpu.get_args(2)
                result = self.kernel.service_syscall(task, code, value)
                fcpu.regs.write(fcpu.abi.ret_reg, result or 0)
            except Halted:
                task.nxp_sp = fcpu.sp
                return 0
            except IsaFault as fault:
                raise ProcessCrash(
                    task, f"fallback fault at pc={fcpu.pc:#x}: {fault}", pc=fcpu.pc
                )

    def _fallback_host_call(self, target: int) -> Generator:
        """Nested HISA call out of emulated NISA code, executed inline."""
        fcpu = self._fallback_cpu
        task = self.task
        host_args = fcpu.get_args(6)
        saved_regs = fcpu.regs.snapshot()
        task.nxp_sp = fcpu.sp  # deeper fallback levels stack below us
        self.machine.trace.record("degraded_n2h_call", pid=task.pid, target=target)
        host_ret = yield from self._call_host_function(target, host_args)
        # The host function may itself have re-entered the fallback
        # emulator (NxP still dead); restore our register file and
        # replay the NxP's return dispatch.
        fcpu.regs.restore(saved_regs)
        fcpu.pc = fcpu.regs.read(fcpu.abi.link_reg)
        fcpu.regs.write(fcpu.abi.ret_reg, host_ret)
