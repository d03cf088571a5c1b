"""Chaos harness: named scenarios under seeded faults, kills and overload.

``python -m repro chaos``, the chaos-matrix tests and the fleet's kill
drill all run through this module.  A :class:`Scenario` names one case:
a workload, a :class:`~repro.sim.faults.FaultPlan`, a device count, kill
and revive instants and, for ``serving``, the traffic.
:func:`run_scenario` runs it on a fresh machine with a **simulated-time
bound**, and one classifier turns the terminal state into a
:class:`ChaosResult` judged against a golden faults-off run:

============  =====================================================
``survived``  Correct return value, no degraded (host-fallback)
              calls — the hardened protocol absorbed every fault.
``degraded``  Correct return value, but at least one NISA call ran
              on the host-fallback interpreter (NxP declared dead).
``crashed``   The workload raised a typed :class:`ProcessCrash`
              (e.g. the NxP died mid-migration-session).
``hung``      The workload neither finished nor crashed within the
              sim-time bound, or a revived device never served
              again or ended the run DEAD.  Always a bug: the
              watchdog/retry/fallback ladder must produce one of
              the other verdicts.
``mismatch``  Finished, but with a wrong return value.  Always a
              bug: corruption must never survive the checksum.
``shed``      Every request either completed correctly or was
              rejected with a *typed* admission shed — the
              overload-protection contract (docs/ROBUSTNESS.md).
``recovered`` A killed device was revived, served sessions again and
              ended the run out of the DEAD state (its half-open
              probes did not re-trip the breaker), while the workload
              completed correctly.
============  =====================================================

Three workloads: ``null_call`` is an interpreted FlickC migration loop;
``pointer_chase`` is a hosted-mode traversal of a linked list in NxP
DRAM whose return value (the final node address) is data-dependent, so
silent corruption cannot hide; ``serving`` is open-loop traffic through
:func:`~repro.analysis.serving.run_serving`, judged per request against
each profile's golden value.  :func:`matrix_scenarios` crosses the
builtin plans with the two closed-loop workloads; :func:`named_scenarios`
holds the hand-aimed cases beside them.

Everything is deterministic: plans are seeded, workloads are fixed, and
the machine has no wall-clock inputs — every scenario is replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.serving import (
    ServingResult,
    TrafficConfig,
    armed_for_kill,
    check_kill,
    run_serving,
    schedule_kill,
)
from repro.core.config import DEFAULT_CONFIG, FlickConfig
from repro.core.errors import ProcessCrash, WorkloadHung
from repro.core.hosted import HostedMachine, HostedProgram
from repro.core.machine import FlickMachine, signed_retval
from repro.sim.engine import Deadlock, SimulationError
from repro.sim.faults import FaultPlan, builtin_plans
from repro.workloads.pointer_chase import build_chain

__all__ = [
    "ChaosResult",
    "Scenario",
    "WORKLOADS",
    "DEFAULT_BOUND_NS",
    "matrix_scenarios",
    "named_scenarios",
    "run_scenario",
    "run_chaos_matrix",
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

#: The device a closed-loop kill scenario kills.
KILL_DEVICE = 0
#: Leg watchdog of a closed-loop kill: one workload never queues behind
#: itself, so a watchdog trip really does mean a lost leg.
PROBE_WATCHDOG_NS = 50_000.0


@dataclass(frozen=True)
class Scenario:
    """One named chaos case, fully specified (frozen, picklable).

    A closed-loop workload runs one process for ``iters`` calls (the
    pointer chase always makes ``CHASE_CALLS``) on ``devices`` NxPs,
    placed round robin when there are several.  ``kill_at_ns`` kills
    device ``KILL_DEVICE`` in ``kill_mode`` that far into the run, and
    ``revive_at_ns`` revives it; kills run the ``null_call`` probe.  A
    ``serving`` scenario takes its load, machine shape, kill and revive
    from ``traffic`` instead.  ``overrides`` are extra ``FlickConfig``
    fields, as ``(name, value)`` pairs applied last.
    """

    name: str
    workload: str = "null_call"  # null_call | pointer_chase | serving
    plan: FaultPlan = FaultPlan()
    devices: int = 1
    kill_at_ns: Optional[float] = None
    kill_mode: str = "abrupt"  # abrupt | drain
    revive_at_ns: Optional[float] = None
    iters: int = NULL_CALL_ITERS
    traffic: Optional[TrafficConfig] = None
    overrides: Tuple[Tuple[str, object], ...] = ()

    def validate(self) -> None:
        if self.workload == "serving":
            if self.traffic is None:
                raise ValueError("a serving scenario needs traffic")
            if (self.devices, self.kill_at_ns, self.revive_at_ns) != (1, None, None):
                raise ValueError(
                    "a serving scenario takes its devices, kill and revive "
                    "from its traffic"
                )
            self.traffic.validate()
            return
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r} (know {sorted(WORKLOADS)})"
            )
        if self.traffic is not None:
            raise ValueError("only a serving scenario takes traffic")
        if self.kill_at_ns is not None and self.workload != "null_call":
            raise ValueError("a kill scenario runs the null_call probe")
        check_kill(
            self.devices, KILL_DEVICE, self.kill_at_ns, self.kill_mode, self.revive_at_ns
        )


@dataclass(frozen=True)
class ChaosResult:
    """Terminal classification of one scenario."""

    plan: str  # the scenario's name
    workload: str
    verdict: str  # survived | degraded | crashed | hung | mismatch | shed | recovered
    retval: Optional[int]
    expected: Optional[int]
    sim_ns: float
    degraded_calls: int
    faults_fired: int
    detail: str = ""
    #: the serving run behind a ``serving`` verdict (None otherwise, and
    #: when the run did not finish); not part of equality
    serving: Optional[ServingResult] = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        """True for the verdicts the hardening contract allows."""
        return self.verdict in ("survived", "degraded", "crashed", "shed", "recovered")


@dataclass
class _Probe:
    """Raw terminal state of one run, before classification."""

    done: bool
    sim_ns: float
    degraded_calls: int = 0
    retval: Optional[int] = None
    faults_fired: int = 0
    crash: Optional[ProcessCrash] = None
    #: why a run that neither finished nor crashed stopped
    error: str = ""
    served: Optional[ServingResult] = None
    #: revive runs only: (devices revived, post-revive sessions placed
    #: on the killed device, its final health state)
    revive: Optional[Tuple[int, int, str]] = None


def _machine_probe(machine: FlickMachine, **fields) -> _Probe:
    return _Probe(
        degraded_calls=int(machine.stats.snapshot().get("degraded.calls", 0)),
        faults_fired=machine.injector.fired_total if machine.injector else 0,
        **fields,
    )


def _run_null_call(scenario: Scenario, cfg: FlickConfig, bound_ns: float) -> _Probe:
    """Interpreted mode: a loop of NISA migrations accumulating state."""
    machine = FlickMachine(cfg)
    process = machine.load(machine.compile(NULL_CALL_SRC))
    thread = machine.spawn(process, args=[scenario.iters])
    if scenario.kill_at_ns is not None:
        after_kill = schedule_kill(
            machine, KILL_DEVICE, scenario.kill_at_ns, scenario.kill_mode,
            scenario.revive_at_ns,
        )
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
    revive = None
    if scenario.revive_at_ns is not None:
        sessions, health = after_kill()
        revive = (
            int(machine.stats.snapshot().get("nxp.revived", 0)),
            sessions.get(KILL_DEVICE, 0),
            health,
        )
    return _machine_probe(
        machine,
        done=done,
        retval=signed_retval(thread.result) if done else None,
        sim_ns=thread.finished_at if thread.finished_at is not None else machine.sim.now,
        crash=crash,
        revive=revive,
    )


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


def _run_pointer_chase(scenario: Scenario, cfg: FlickConfig, bound_ns: float) -> _Probe:
    """Hosted mode: chase a list in NxP DRAM, return the final node."""
    hosted = HostedMachine(_chase_program(), cfg=cfg)
    head = build_chain(hosted, CHASE_NODES, seed=11)
    try:
        out = hosted.run("main", [head, CHASE_NODES - 1, CHASE_CALLS], until=bound_ns)
    except WorkloadHung:
        return _machine_probe(hosted.machine, done=False, sim_ns=hosted.sim.now)
    except SimulationError as exc:
        if not isinstance(exc.__cause__, ProcessCrash):
            raise
        return _machine_probe(
            hosted.machine, done=False, sim_ns=hosted.sim.now, crash=exc.__cause__
        )
    # Hosted outcomes carry the raw u64 return register; apply the same
    # two's-complement fixup as the interpreted probe so a body that
    # legitimately returns a negative value classifies against its
    # golden run instead of reading as a huge positive.
    return _machine_probe(
        hosted.machine, done=True, retval=signed_retval(out.retval), sim_ns=out.sim_time_ns
    )


#: The closed-loop workloads the matrix crosses with every plan.
WORKLOADS = {
    "null_call": _run_null_call,
    "pointer_chase": _run_pointer_chase,
}


def _run_serving(scenario: Scenario, cfg: FlickConfig, bound_ns: float) -> _Probe:
    """Open-loop traffic, run to quiescence (no sim-time bound)."""
    tc = scenario.traffic
    try:
        served = run_serving(tc, cfg=cfg)
    except RuntimeError as exc:  # unserved requests, or a SimulationError
        crash = exc.__cause__ if isinstance(exc.__cause__, ProcessCrash) else None
        return _Probe(done=False, sim_ns=0.0, crash=crash, error=str(exc))
    revive = None
    if tc.revive_at_ns is not None:
        revive = (
            served.revived,
            served.post_revival_sessions.get(tc.kill_device, 0),
            served.killed_health,
        )
    return _Probe(
        done=True,
        sim_ns=served.sim_ns,
        degraded_calls=served.degraded_calls,
        served=served,
        revive=revive,
    )


def _classify(scenario: Scenario, probe: _Probe, expected: Optional[int]) -> ChaosResult:
    """The one classifier: every runner's terminal state becomes one verdict."""
    served = probe.served
    if probe.crash is not None:
        verdict, detail = "crashed", str(probe.crash)
    elif not probe.done:
        verdict = "hung"
        detail = probe.error or "sim-time bound reached without completion or crash"
    elif expected is not None and probe.retval != expected:
        verdict, detail = "mismatch", f"retval {probe.retval} != expected {expected}"
    elif served is not None and served.errors:
        verdict, detail = "mismatch", f"{served.errors} completed request(s) wrong"
    elif probe.revive is not None:
        revived, sessions, health = probe.revive
        # A post-revive session may be a half-open probe that failed and
        # re-tripped the breaker, so the device must also end alive.
        if revived and sessions > 0 and health != "dead":
            verdict = "recovered"
            detail = (
                f"killed device revived, {sessions} post-revive session(s), "
                f"health {health}"
            )
        else:
            verdict = "hung"
            detail = (
                f"revive did not re-admit the killed device (revived={revived}, "
                f"post-revive sessions={sessions}, health={health})"
            )
    elif served is not None and served.shed:
        verdict = "shed"
        detail = (
            f"{served.shed} typed shed(s) {served.shed_by_reason}, "
            f"{len(served.completed_records)} completed ok, "
            f"retry budget denied {served.retry_budget_denied}"
        )
    elif probe.degraded_calls:
        verdict, detail = "degraded", f"{probe.degraded_calls} call(s) via host fallback"
    else:
        verdict, detail = "survived", ""
    return ChaosResult(
        plan=scenario.name,
        workload=scenario.workload,
        verdict=verdict,
        retval=probe.retval,
        expected=expected,
        sim_ns=probe.sim_ns,
        degraded_calls=probe.degraded_calls,
        faults_fired=probe.faults_fired,
        detail=detail,
        serving=served,
    )


def _machine_config(scenario: Scenario, cfg: FlickConfig) -> FlickConfig:
    cfg = scenario.plan.apply(cfg)
    if scenario.devices > 1:
        cfg = cfg.with_overrides(nxp_count=scenario.devices, placement_policy="round_robin")
    if scenario.kill_at_ns is not None and scenario.kill_mode == "abrupt":
        cfg = armed_for_kill(
            cfg, PROBE_WATCHDOG_NS, revive=scenario.revive_at_ns is not None
        )
    return cfg.with_overrides(**dict(scenario.overrides)) if scenario.overrides else cfg


def _golden(scenario: Scenario, cfg: FlickConfig, bound_ns: float) -> int:
    """The faults-off return value of a closed-loop scenario's workload.

    A golden run that fails is a configuration error, not a chaos
    verdict, and raises immediately.
    """
    plain = Scenario("golden", scenario.workload, iters=scenario.iters)
    probe = WORKLOADS[scenario.workload](
        plain, cfg.with_overrides(faults=(), fault_seed=0), bound_ns
    )
    if probe.crash is not None or not probe.done:
        raise RuntimeError(f"golden faults-off run of {scenario.workload!r} did not complete")
    return probe.retval


def run_scenario(
    scenario: Scenario,
    cfg: FlickConfig = DEFAULT_CONFIG,
    bound_ns: float = DEFAULT_BOUND_NS,
    expected: Optional[int] = None,
) -> ChaosResult:
    """Run one scenario on a fresh machine and classify its terminal state.

    ``cfg`` is the base machine config; the scenario's plan, kill arming
    and overrides apply on top of it.  A closed-loop workload is judged
    against ``expected``, by default the return value of a faults-off
    run of the same workload.  A ``serving`` scenario is judged per
    request against each profile's golden value and runs to quiescence.
    """
    scenario.validate()
    if scenario.workload == "serving":
        run, expected = _run_serving, None
    else:
        run = WORKLOADS[scenario.workload]
        if expected is None:
            expected = _golden(scenario, cfg, bound_ns)
    probe = run(scenario, _machine_config(scenario, cfg), bound_ns)
    return _classify(scenario, probe, expected)


def matrix_scenarios(
    seed: int = 0,
    plans: Optional[Sequence[FaultPlan]] = None,
    workloads: Optional[Iterable[str]] = None,
) -> List[Scenario]:
    """The chaos matrix: every plan (default: the builtin plans at
    ``seed``) crossed with every closed-loop workload (default: all)."""
    if plans is None:
        plans = list(builtin_plans(seed).values())
    names = sorted(WORKLOADS) if workloads is None else list(workloads)
    if not names:
        raise ValueError(f"no workloads selected (know {sorted(WORKLOADS)})")
    return [
        Scenario(plan.name or "<unnamed>", name, plan=plan)
        for plan in plans
        for name in names
    ]


def named_scenarios(seed: int = 0) -> Dict[str, Scenario]:
    """The hand-aimed scenarios beside the matrix, by short name.

    * ``overload-storm`` — null-call traffic far past the single-NxP
      saturation point under the ``overload-storm`` plan, with
      per-request deadlines, bounded admission queues and a retry
      budget.  The storm's delays must outlast the watchdog, or the
      budget is never consulted; a high dead threshold keeps the device
      in service (the point is shedding, not failover), and
      (1 + 1) * 8 = 16 stays within the ring-capacity invariant.
      Expected verdict ``shed``.
    * ``kill-revive`` — kill one of two devices, revive it mid-run and
      demand it serve again (docs/ROBUSTNESS.md).  Expected
      ``recovered``.
    * ``kill-abrupt`` / ``kill-drain`` — kill one of two devices
      mid-run; the survivor must finish with the correct value and no
      host fallback (docs/FLEET.md).  Expected ``survived``.
    """
    storm = TrafficConfig(
        scenario="null_call",
        arrival="poisson",
        qps=20_000.0,
        requests=120,
        clients=8,
        seed=seed,
        deadline_ns=500_000.0,
        admission_limit=4,
        retry_budget_tokens=8.0,
        retry_budget_refill_per_ms=2.0,
    )
    return {
        "overload-storm": Scenario(
            "overload-storm@20000qps",
            "serving",
            plan=builtin_plans(seed)["overload-storm"],
            traffic=storm,
            overrides=(
                ("migration_watchdog_ns", 100_000.0),
                ("migration_retry_limit", 1),
                ("nxp_dead_threshold", 8),
            ),
        ),
        "kill-revive": Scenario(
            "kill-revive-dev0@120000ns",
            devices=2,
            kill_at_ns=5_000.0,
            revive_at_ns=120_000.0,
            iters=16,
        ),
        "kill-abrupt": Scenario("kill-dev0-abrupt@5000ns", devices=2, kill_at_ns=5_000.0),
        "kill-drain": Scenario(
            "kill-dev0-drain@5000ns", devices=2, kill_at_ns=5_000.0, kill_mode="drain"
        ),
    }


def run_chaos_matrix(
    plans: Optional[Sequence[FaultPlan]] = None,
    workloads: Optional[Iterable[str]] = None,
    cfg: FlickConfig = DEFAULT_CONFIG,
    seed: int = 0,
    bound_ns: float = DEFAULT_BOUND_NS,
) -> List[ChaosResult]:
    """Run :func:`matrix_scenarios`, one golden run per workload."""
    scenarios = matrix_scenarios(seed, plans, workloads)
    for scenario in scenarios:
        scenario.validate()
    golden: Dict[str, int] = {}
    for scenario in scenarios:
        if scenario.workload not in golden:
            golden[scenario.workload] = _golden(scenario, cfg, bound_ns)
    return [
        run_scenario(s, cfg=cfg, bound_ns=bound_ns, expected=golden[s.workload])
        for s in scenarios
    ]


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
