"""Chaos harness: run workloads under seeded fault plans and classify.

This is the driver behind ``python -m repro chaos`` and the chaos-matrix
tests.  Each case arms one :class:`~repro.sim.faults.FaultPlan` on a
fresh machine, runs a fixed workload with a **simulated-time bound**,
and classifies the terminal state against a golden faults-off run:

============  =====================================================
``survived``  Correct return value, no degraded (host-fallback)
              calls — the hardened protocol absorbed every fault.
``degraded``  Correct return value, but at least one NISA call ran
              on the host-fallback interpreter (NxP declared dead).
``crashed``   The workload raised a typed :class:`ProcessCrash`
              (e.g. the NxP died mid-migration-session).
``hung``      The workload neither finished nor crashed within the
              sim-time bound.  Always a bug: the watchdog/retry/
              fallback ladder must produce one of the above.
``mismatch``  Finished, but with the wrong return value.  Always a
              bug: corruption must never survive the checksum.
``shed``      Overload cases only: every request either completed
              correctly or was rejected with a *typed* admission
              shed — the overload-protection contract
              (docs/ROBUSTNESS.md).
``recovered`` Revive cases only: a killed device was revived, passed
              its half-open breaker probes, and served traffic again
              while the workload completed correctly.
============  =====================================================

Both execution modes are exercised: ``null_call`` is an interpreted
FlickC migration loop; ``pointer_chase`` is a hosted-mode traversal of
a linked list in NxP DRAM whose return value (the final node address)
is data-dependent, so silent corruption cannot hide.

Everything is deterministic: plans are seeded, workloads are fixed, and
the machine has no wall-clock inputs — a matrix run is replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import DEFAULT_CONFIG, FlickConfig
from repro.core.errors import ProcessCrash, WorkloadHung
from repro.core.hosted import HostedMachine, HostedProgram
from repro.core.machine import FlickMachine, signed_retval
from repro.sim.engine import Deadlock, SimulationError
from repro.sim.faults import FaultPlan, FaultRule, builtin_plans
from repro.workloads.pointer_chase import build_chain

__all__ = [
    "ChaosResult",
    "WORKLOADS",
    "DEFAULT_BOUND_NS",
    "run_chaos_case",
    "run_chaos_matrix",
    "run_fleet_kill_case",
    "run_fleet_revive_case",
    "run_overload_storm_case",
    "render_verdicts",
]

#: Generous sim-time ceiling: the slowest legitimate recovery (declare
#: dead after 3 exhausted retry ladders, then fall back) finishes well
#: under 20 ms of simulated time for these workloads.
DEFAULT_BOUND_NS = 50_000_000.0

NULL_CALL_ITERS = 4
NULL_CALL_SRC = """
@nxp func bump(x) { return x + 3; }
func main(n) {
    var i = 0;
    var acc = 0;
    while (i < n) { acc = bump(acc); i = i + 1; }
    return acc;
}
"""

CHASE_NODES = 24
CHASE_CALLS = 3


@dataclass(frozen=True)
class ChaosResult:
    """Terminal classification of one (plan, workload) chaos case."""

    plan: str
    workload: str
    verdict: str  # survived | degraded | crashed | hung | mismatch | shed | recovered
    retval: Optional[int]
    expected: Optional[int]
    sim_ns: float
    degraded_calls: int
    faults_fired: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        """True for the verdicts the hardening contract allows."""
        return self.verdict in ("survived", "degraded", "crashed", "shed", "recovered")


@dataclass
class _Probe:
    """Raw terminal state of one bounded run, before classification."""

    retval: Optional[int]
    done: bool
    sim_ns: float
    degraded_calls: int
    faults_fired: int
    crash: Optional[ProcessCrash] = None


def _bounded_null_call(
    cfg: FlickConfig,
    bound_ns: float,
    iters: int = NULL_CALL_ITERS,
    chaos: Optional[Callable[[FlickMachine], Generator]] = None,
) -> Tuple[_Probe, FlickMachine]:
    """Run ``NULL_CALL_SRC`` for ``iters`` calls up to the sim-time bound,
    with ``chaos(machine)`` spawned alongside when given; returns the
    probe and the finished machine."""
    machine = FlickMachine(cfg)
    process = machine.load(machine.compile(NULL_CALL_SRC))
    thread = machine.spawn(process, args=[iters])
    if chaos is not None:
        machine.sim.spawn(chaos(machine), name="chaos")
    crash = None
    try:
        machine.sim.run(until=bound_ns)
    except Deadlock:
        # The NxP scheduler is always a live waiting process, so every
        # bounded run that drains its queue ends in Deadlock; the
        # thread's own state decides what actually happened.
        pass
    except SimulationError as exc:
        if isinstance(exc.__cause__, ProcessCrash):
            crash = exc.__cause__
        else:
            raise
    done = thread.task.state.value == "done"
    stats = machine.stats.snapshot()
    probe = _Probe(
        retval=signed_retval(thread.result) if done else None,
        done=done,
        sim_ns=thread.finished_at if thread.finished_at is not None else machine.sim.now,
        degraded_calls=int(stats.get("degraded.calls", 0)),
        faults_fired=machine.injector.fired_total if machine.injector else 0,
        crash=crash,
    )
    return probe, machine


def _run_null_call(cfg: FlickConfig, bound_ns: float) -> _Probe:
    """Interpreted mode: a loop of NISA migrations accumulating state."""
    return _bounded_null_call(cfg, bound_ns)[0]


def _chase_program() -> HostedProgram:
    prog = HostedProgram()

    def traverse(ctx, head, count):
        node = head
        remaining = count
        while remaining > 0:
            node = ctx.load(node)
            ctx.compute(10)
            remaining -= 1
            yield from ctx.maybe_flush()
        return node

    prog.register("traverse", "nisa", traverse)

    def main(ctx, head, count, calls):
        last = 0
        for _ in range(calls):
            last = yield from ctx.call("traverse", head, count)
        return last

    prog.register("main", "hisa", main)
    return prog


def _run_pointer_chase(cfg: FlickConfig, bound_ns: float) -> _Probe:
    """Hosted mode: chase a list in NxP DRAM, return the final node."""
    hosted = HostedMachine(_chase_program(), cfg=cfg)
    head = build_chain(hosted, CHASE_NODES, seed=11)
    machine = hosted.machine
    crash = None
    done = False
    retval: Optional[int] = None
    sim_ns = 0.0
    try:
        out = hosted.run("main", [head, CHASE_NODES - 1, CHASE_CALLS], until=bound_ns)
        # Hosted outcomes carry the raw u64 return register; apply the
        # same two's-complement fixup as the interpreted probe so a
        # body that legitimately returns a negative value classifies
        # against its golden run instead of reading as a huge positive.
        retval = signed_retval(out.retval)
        sim_ns = out.sim_time_ns
        done = True
    except WorkloadHung:
        sim_ns = hosted.sim.now
    except SimulationError as exc:
        if isinstance(exc.__cause__, ProcessCrash):
            crash = exc.__cause__
            sim_ns = hosted.sim.now
        else:
            raise
    stats = machine.stats.snapshot()
    return _Probe(
        retval=retval,
        done=done,
        sim_ns=sim_ns,
        degraded_calls=int(stats.get("degraded.calls", 0)),
        faults_fired=machine.injector.fired_total if machine.injector else 0,
        crash=crash,
    )


WORKLOADS = {
    "null_call": _run_null_call,
    "pointer_chase": _run_pointer_chase,
}


def _classify(probe: _Probe, expected: Optional[int]) -> tuple:
    if probe.crash is not None:
        return "crashed", str(probe.crash)
    if not probe.done:
        return "hung", "sim-time bound reached without completion or crash"
    if expected is not None and probe.retval != expected:
        return "mismatch", f"retval {probe.retval} != expected {expected}"
    if probe.degraded_calls:
        return "degraded", f"{probe.degraded_calls} call(s) via host fallback"
    return "survived", ""


def run_chaos_case(
    plan: FaultPlan,
    workload: str,
    cfg: FlickConfig = DEFAULT_CONFIG,
    bound_ns: float = DEFAULT_BOUND_NS,
    expected: Optional[int] = None,
) -> ChaosResult:
    """Run one (plan, workload) case and classify its terminal state.

    ``expected`` is the golden faults-off return value; pass ``None``
    to skip the mismatch check (the matrix driver always supplies it).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (know {sorted(WORKLOADS)})")
    probe = WORKLOADS[workload](plan.apply(cfg), bound_ns)
    verdict, detail = _classify(probe, expected)
    return ChaosResult(
        plan=plan.name or "<unnamed>",
        workload=workload,
        verdict=verdict,
        retval=probe.retval,
        expected=expected,
        sim_ns=probe.sim_ns,
        degraded_calls=probe.degraded_calls,
        faults_fired=probe.faults_fired,
        detail=detail,
    )


def run_chaos_matrix(
    plans: Optional[Sequence[FaultPlan]] = None,
    workloads: Optional[Iterable[str]] = None,
    cfg: FlickConfig = DEFAULT_CONFIG,
    seed: int = 0,
    bound_ns: float = DEFAULT_BOUND_NS,
) -> List[ChaosResult]:
    """The full chaos matrix: every plan crossed with every workload.

    A golden faults-off run per workload supplies the expected return
    value; a golden run that fails is a configuration error, not a
    chaos verdict, and raises immediately.
    """
    if plans is None:
        plans = list(builtin_plans(seed).values())
    names = list(workloads) if workloads is not None else sorted(WORKLOADS)
    golden: Dict[str, int] = {}
    for name in names:
        probe = WORKLOADS[name](cfg.with_overrides(faults=(), fault_seed=0), bound_ns)
        if probe.crash is not None or not probe.done:
            raise RuntimeError(f"golden faults-off run of {name!r} did not complete")
        golden[name] = probe.retval
    results = []
    for plan in plans:
        for name in names:
            results.append(
                run_chaos_case(plan, name, cfg=cfg, bound_ns=bound_ns, expected=golden[name])
            )
    return results


def run_fleet_kill_case(
    nxps: int = 2,
    kill_device: int = 0,
    kill_at_ns: float = 5_000.0,
    kill_mode: str = "abrupt",
    cfg: FlickConfig = DEFAULT_CONFIG,
    bound_ns: float = DEFAULT_BOUND_NS,
) -> ChaosResult:
    """Kill one of ``nxps`` devices mid-run; survivors must finish.

    The fleet drain contract (docs/FLEET.md): an abrupt kill strands
    the dead device's in-flight opening legs, the watchdog recovers
    them, and placement re-routes every later session to a survivor —
    the workload completes with its correct value and no host-fallback.
    Deliberately *not* part of the default chaos matrix (those plans
    describe single-machine fault processes); this case is driven by
    the fleet tests and the CI fleet smoke.
    """
    if nxps < 2:
        raise ValueError("the kill case needs nxps >= 2 (survivors)")
    # Arm the hardened protocol with a never-firing rule, then tighten
    # the recovery knobs: one retry and a one-strike dead threshold is
    # safe here because a single closed-loop workload never queues
    # behind itself, so a watchdog trip really does mean a lost leg.
    run_cfg = cfg.with_overrides(
        nxp_count=nxps,
        placement_policy="round_robin",
        faults=(FaultRule("dma_drop", after_ns=1e18, count=None),),
        fault_seed=1,
        migration_watchdog_ns=50_000.0,
        migration_retry_limit=1,
        nxp_dead_threshold=1,
    )

    def _killer(machine):
        yield machine.sim.timeout(kill_at_ns)
        machine.kill_nxp(kill_device, mode=kill_mode)

    probe = _bounded_null_call(run_cfg, bound_ns, chaos=_killer)[0]
    expected = NULL_CALL_ITERS * 3
    verdict, detail = _classify(probe, expected)
    return ChaosResult(
        plan=f"kill-dev{kill_device}-{kill_mode}@{kill_at_ns:.0f}ns",
        workload="null_call",
        verdict=verdict,
        retval=probe.retval,
        expected=expected,
        sim_ns=probe.sim_ns,
        degraded_calls=probe.degraded_calls,
        faults_fired=probe.faults_fired,
        detail=detail,
    )


def run_overload_storm_case(
    qps: float = 20_000.0,
    requests: int = 120,
    deadline_us: float = 500.0,
    cfg: FlickConfig = DEFAULT_CONFIG,
    seed: int = 0,
) -> ChaosResult:
    """Overload storm with the full protection stack armed.

    Serves ``requests`` null-call requests at ``qps`` (far past the
    single-NxP saturation point) under the ``overload-storm`` fault
    plan, with per-request deadlines, bounded admission queues and a
    machine-wide retry budget.  The overload-protection contract: the
    run quiesces with **zero hangs** — every request either completes
    with its correct value or is rejected with a typed shed — and the
    retransmit storm is capped by the budget.  Verdict ``shed`` when
    load was actually shed, ``survived``/``degraded`` when the machine
    somehow kept up, ``hung``/``mismatch`` on contract violations.
    """
    from repro.analysis.serving import TrafficConfig, run_serving

    plan = builtin_plans(seed)["overload-storm"]
    tc = TrafficConfig(
        scenario="null_call",
        arrival="poisson",
        qps=qps,
        requests=requests,
        clients=8,
        seed=seed,
        deadline_ns=deadline_us * 1000.0,
        admission_limit=4,
        retry_budget_tokens=8.0,
        retry_budget_refill_per_ms=2.0,
    )
    # The storm plan's delays must be able to outlast the watchdog, or
    # the retry budget is never consulted; a high dead-threshold keeps
    # the device in service (the point is shedding, not failover), and
    # (1 + 1) * 8 = 16 stays within the ring-capacity invariant.
    run_cfg = plan.apply(cfg).with_overrides(
        host_cores=tc.host_cores,
        admission_queue_limit=tc.admission_limit,
        retry_budget_tokens=tc.retry_budget_tokens,
        retry_budget_refill_per_ms=tc.retry_budget_refill_per_ms,
        migration_watchdog_ns=100_000.0,
        migration_retry_limit=1,
        nxp_dead_threshold=8,
    )
    name = f"overload-storm@{qps:.0f}qps"
    try:
        result = run_serving(tc, cfg=run_cfg)
    except RuntimeError as exc:
        return ChaosResult(
            plan=name, workload="serving", verdict="hung", retval=None,
            expected=None, sim_ns=0.0, degraded_calls=0, faults_fired=0,
            detail=str(exc),
        )
    bad = [r for r in result.records if not r.shed and not r.ok]
    if bad:
        verdict, detail = "mismatch", f"{len(bad)} completed request(s) wrong"
    elif result.shed:
        verdict = "shed"
        detail = (
            f"{result.shed} typed shed(s) {result.shed_by_reason}, "
            f"{len(result.completed_records)} completed ok, "
            f"retry budget denied {result.retry_budget_denied}"
        )
    elif result.degraded_calls:
        verdict, detail = "degraded", f"{result.degraded_calls} fallback call(s)"
    else:
        verdict, detail = "survived", "machine kept up with the storm"
    return ChaosResult(
        plan=name,
        workload="serving",
        verdict=verdict,
        retval=None,
        expected=None,
        sim_ns=result.sim_ns,
        degraded_calls=result.degraded_calls,
        faults_fired=0,
        detail=detail,
    )


def run_fleet_revive_case(
    nxps: int = 2,
    kill_device: int = 0,
    kill_at_ns: float = 5_000.0,
    revive_at_ns: float = 120_000.0,
    iters: int = 16,
    cfg: FlickConfig = DEFAULT_CONFIG,
    bound_ns: float = DEFAULT_BOUND_NS,
) -> ChaosResult:
    """Kill one device, revive it mid-run, and demand it serve again.

    The self-healing contract (docs/ROBUSTNESS.md): after
    ``machine.revive_nxp`` the breaker goes DEAD → RECOVERING, placement
    feeds the device half-open probe sessions, and after
    ``nxp_probe_successes`` consecutive successes it is a full peer
    again.  Verdict ``recovered`` only when the workload completes with
    its correct value *and* the revived device served sessions after the
    revive instant.
    """
    if nxps < 2:
        raise ValueError("the revive case needs nxps >= 2 (survivors)")
    if revive_at_ns <= kill_at_ns:
        raise ValueError("revive_at_ns must be after kill_at_ns")
    run_cfg = cfg.with_overrides(
        nxp_count=nxps,
        placement_policy="round_robin",
        faults=(FaultRule("dma_drop", after_ns=1e18, count=None),),
        fault_seed=1,
        migration_watchdog_ns=50_000.0,
        migration_retry_limit=1,
        nxp_dead_threshold=1,
        nxp_recovery=True,
    )
    sessions_at_revive: Dict[int, int] = {}

    def _kill_revive(machine):
        yield machine.sim.timeout(kill_at_ns)
        machine.kill_nxp(kill_device, mode="abrupt")
        yield machine.sim.timeout(revive_at_ns - kill_at_ns)
        sessions_at_revive.update(machine.placement.session_counts())
        machine.revive_nxp(kill_device)

    probe, machine = _bounded_null_call(run_cfg, bound_ns, iters=iters, chaos=_kill_revive)
    expected = iters * 3
    verdict, detail = _classify(probe, expected)
    if verdict in ("survived", "degraded"):
        stats = machine.stats.snapshot()
        revived = int(stats.get("nxp.revived", 0))
        served_after = (
            machine.placement.session_counts().get(kill_device, 0)
            - sessions_at_revive.get(kill_device, 0)
        )
        health = machine.devices[kill_device].health
        if revived and served_after > 0 and not health.dead:
            verdict = "recovered"
            detail = (
                f"device {kill_device} revived, {served_after} post-revive "
                f"session(s), {int(stats.get('health.probe_success', 0))} "
                f"probe success(es), health {health.state.value}"
            )
        else:
            verdict, detail = (
                "hung",
                f"revive did not re-admit device {kill_device} "
                f"(revived={revived}, post-revive sessions={served_after}, "
                f"health={health.state.value})",
            )
    return ChaosResult(
        plan=f"kill-revive-dev{kill_device}@{revive_at_ns:.0f}ns",
        workload="null_call",
        verdict=verdict,
        retval=probe.retval,
        expected=expected,
        sim_ns=probe.sim_ns,
        degraded_calls=probe.degraded_calls,
        faults_fired=probe.faults_fired,
        detail=detail,
    )


def render_verdicts(results: Sequence[ChaosResult]) -> str:
    """Aligned verdict table plus a one-line tally."""
    rows = [("plan", "workload", "verdict", "retval", "degraded", "faults", "sim_ms")]
    for r in results:
        rows.append(
            (
                r.plan,
                r.workload,
                r.verdict,
                "-" if r.retval is None else str(r.retval),
                str(r.degraded_calls),
                str(r.faults_fired),
                f"{r.sim_ns / 1e6:.3f}",
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    tally: Dict[str, int] = {}
    for r in results:
        tally[r.verdict] = tally.get(r.verdict, 0) + 1
    order = ["survived", "degraded", "shed", "recovered", "crashed", "hung", "mismatch"]
    summary = ", ".join(f"{tally[v]} {v}" for v in order if v in tally)
    lines.append("")
    lines.append(f"{len(results)} cases: {summary}")
    return "\n".join(lines)
