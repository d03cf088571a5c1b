"""Faults-off parity contract of the robustness layer.

The fault-injection subsystem and the hardened migration protocol must
be invisible when no plan is armed (docs/ROBUSTNESS.md):

* **empty plan** — applying ``FaultPlan()`` (no rules) leaves
  ``cfg.faults`` empty, so the machine builds no injector and executes
  the exact pre-hardening code paths: return value, simulated
  nanoseconds, processed DES event count, and the base stat snapshot
  are all bit-identical to a default-config run, in both modes;
* **armed but quiet** — a plan whose only rule can never fire
  (``after_ns`` beyond any reachable sim time) activates the hardened
  paths (sequence numbers, checksums, watchdogs, retry loop, guarded
  wakers) yet must still produce the same return value, the same
  simulated time, and the same base stats.  Event counts are exempt:
  watchdog timers add DES events by design.
"""

from repro.core.config import DEFAULT_CONFIG
from repro.core.hosted import HostedMachine, HostedProgram
from repro.core.machine import FlickMachine
from repro.sim.faults import FaultPlan, FaultRule

NULL_CALL = """
@nxp func f() { return 0; }
func main(n) {
    var i = 0;
    while (i < n) { f(); i = i + 1; }
    return 0;
}
"""

DOUBLY_NESTED = """
@nxp func inner(x) { return x * 10; }
func host_mid(x) { return inner(x) + 1; }
@nxp func dev(x) { return host_mid(x) + 100; }
func main() { return dev(2); }
"""

#: Eligible only after ~31 simulated years; occurrence counting still
#: runs at every injection point, so the hardened paths stay hot.
QUIET_PLAN = FaultPlan(
    rules=(FaultRule("dma_drop", after_ns=1e18, count=None),), seed=5, name="quiet"
)


def _run_interpreted(source, args, cfg):
    machine = FlickMachine(cfg)
    outcome = machine.run_program(source, args=args)
    return {
        "retval": outcome.retval,
        "sim_ns": outcome.sim_time_ns,
        "base_stats": machine.stats.base_snapshot(),
        "events": machine.sim.events_processed,
    }


def _nested_hosted_program():
    prog = HostedProgram()

    @prog.host()
    def host_mid(ctx, x):
        result = yield from ctx.call("inner", x)
        return result + 1

    @prog.nxp()
    def inner(ctx, x):
        return x * 10
        yield

    @prog.nxp()
    def dev(ctx, x):
        result = yield from ctx.call("host_mid", x)
        return result + 100

    @prog.host()
    def main(ctx, n):
        total = 0
        for _ in range(n):
            total = yield from ctx.call("dev", 2)
        return total

    return prog


def _run_hosted(cfg):
    hosted = HostedMachine(_nested_hosted_program(), cfg=cfg)
    out = hosted.run("main", [3])
    return {
        "retval": out.retval,
        "sim_ns": out.sim_time_ns,
        "base_stats": hosted.machine.stats.base_snapshot(),
        "events": hosted.sim.events_processed,
    }


def _drop(probe, key):
    return {k: v for k, v in probe.items() if k != key}


class TestEmptyPlanParity:
    """No rules -> no injector -> bit-identical everything."""

    def test_interpreted_null_call(self):
        empty = FaultPlan().apply(DEFAULT_CONFIG)
        assert _run_interpreted(NULL_CALL, [10], empty) == _run_interpreted(
            NULL_CALL, [10], DEFAULT_CONFIG
        )

    def test_interpreted_nested(self):
        empty = FaultPlan().apply(DEFAULT_CONFIG)
        assert _run_interpreted(DOUBLY_NESTED, [], empty) == _run_interpreted(
            DOUBLY_NESTED, [], DEFAULT_CONFIG
        )

    def test_hosted_nested(self):
        empty = FaultPlan().apply(DEFAULT_CONFIG)
        assert _run_hosted(empty) == _run_hosted(DEFAULT_CONFIG)

    def test_empty_plan_machine_is_not_hardened(self):
        machine = FlickMachine(FaultPlan().apply(DEFAULT_CONFIG))
        assert machine.injector is None
        assert machine.devices[0].health is None
        assert not machine.hardened


class TestArmedQuietParity:
    """Hardened paths active, zero firings -> same results and timing."""

    def test_interpreted_null_call(self):
        quiet = _run_interpreted(NULL_CALL, [10], QUIET_PLAN.apply(DEFAULT_CONFIG))
        off = _run_interpreted(NULL_CALL, [10], DEFAULT_CONFIG)
        assert _drop(quiet, "events") == _drop(off, "events")

    def test_interpreted_nested(self):
        quiet = _run_interpreted(DOUBLY_NESTED, [], QUIET_PLAN.apply(DEFAULT_CONFIG))
        off = _run_interpreted(DOUBLY_NESTED, [], DEFAULT_CONFIG)
        assert _drop(quiet, "events") == _drop(off, "events")

    def test_hosted_nested(self):
        quiet = _run_hosted(QUIET_PLAN.apply(DEFAULT_CONFIG))
        off = _run_hosted(DEFAULT_CONFIG)
        assert _drop(quiet, "events") == _drop(off, "events")

    def test_quiet_machine_is_hardened_but_silent(self):
        machine = FlickMachine(QUIET_PLAN.apply(DEFAULT_CONFIG))
        assert machine.hardened
        machine.run_program(NULL_CALL, args=[4])
        assert machine.injector.fired_total == 0
