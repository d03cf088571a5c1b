"""Chaos matrix: every builtin fault plan crossed with both workloads.

The terminal invariant of the hardened protocol (docs/ROBUSTNESS.md):
every bounded chaos run ends in exactly one of {correct return value,
correct-but-degraded, typed ProcessCrash} — never a hang, never a
silently wrong answer.  Permanent NxP death specifically must complete
with *correct* results via host-fallback degradation.
"""

import pytest

from repro.analysis.chaos import (
    DEFAULT_BOUND_NS,
    Scenario,
    matrix_scenarios,
    named_scenarios,
    render_verdicts,
    run_chaos_matrix,
    run_scenario,
)
from repro.core.config import DEFAULT_CONFIG
from repro.core.errors import ProcessCrash
from repro.core.machine import FlickMachine
from repro.sim.engine import SimulationError
from repro.sim.faults import FaultPlan, FaultRule, builtin_plans


@pytest.fixture(scope="module")
def matrix():
    return run_chaos_matrix(seed=7)


class TestTerminalInvariant:
    def test_covers_every_plan_and_workload(self, matrix):
        plans = {r.plan for r in matrix}
        assert plans == set(builtin_plans(7))
        assert {r.workload for r in matrix} == {"null_call", "pointer_chase"}

    def test_no_case_hangs_or_mismatches(self, matrix):
        bad = [r for r in matrix if not r.ok]
        assert not bad, render_verdicts(bad)

    def test_every_case_within_sim_bound(self, matrix):
        assert all(r.sim_ns <= DEFAULT_BOUND_NS for r in matrix)

    def test_completed_cases_return_correct_values(self, matrix):
        for r in matrix:
            if r.verdict in ("survived", "degraded"):
                assert r.retval == r.expected, (r.plan, r.workload)

    def test_transient_plans_survive_without_degradation(self, matrix):
        transient = {
            "none", "dma-drop-h2n", "dma-drop-n2h", "dma-corrupt-h2n",
            "dma-corrupt-n2h", "dma-delay-h2n", "irq-loss", "irq-spurious",
            "pcie-flap", "nxp-stall", "lossy-link",
        }
        for r in matrix:
            if r.plan in transient:
                assert r.verdict == "survived", (r.plan, r.workload, r.detail)
                assert r.degraded_calls == 0

    def test_faulty_plans_actually_fire(self, matrix):
        for r in matrix:
            if r.plan not in ("none", "dma-drop-h2n"):
                # dma-drop-h2n targets the 2nd h2n burst, which the
                # single-session null_call never reaches; every other
                # plan must inject at least once in every workload.
                assert r.faults_fired > 0, (r.plan, r.workload)


class TestDeadNxpDegradation:
    """NxP permanently dead -> host fallback, correct results, no hangs."""

    @pytest.mark.parametrize("plan_name", ["nxp-hang", "nxp-crash"])
    def test_degraded_with_correct_retvals(self, matrix, plan_name):
        cases = [r for r in matrix if r.plan == plan_name]
        assert len(cases) == 2
        for r in cases:
            assert r.verdict == "degraded", (r.plan, r.workload, r.detail)
            assert r.retval == r.expected
            assert r.degraded_calls > 0

    def test_matrix_is_deterministic(self):
        plans = [builtin_plans(7)["nxp-crash"]]
        first = run_chaos_matrix(plans=plans, workloads=["null_call"])
        second = run_chaos_matrix(plans=plans, workloads=["null_call"])
        assert first == second


class TestFastPathsOff:
    """Every named scenario classifies identically with the engine fast
    path, the JIT and the decode cache all off: the fast paths are
    timing-exact, so no verdict, return value, simulated time or fault
    count may move."""

    def test_named_scenarios_unchanged(self):
        slow = DEFAULT_CONFIG.with_overrides(
            engine_fast_path=False,
            jit_enabled=False,
            decode_cache=False,
        )
        scenarios = matrix_scenarios() + list(named_scenarios().values())
        assert len(scenarios) == 34
        moved = [
            (fast, off)
            for fast, off in (
                (run_scenario(s), run_scenario(s, cfg=slow)) for s in scenarios
            )
            if fast != off
        ]
        assert not moved, moved


class TestMidSessionDeath:
    """NxP dying while it holds suspended frames is a typed crash."""

    DOUBLY_NESTED = """
    @nxp func inner(x) { return x * 10; }
    func host_mid(x) { return inner(x) + 1; }
    @nxp func dev(x) { return host_mid(x) + 100; }
    func main() { return dev(2); }
    """

    def test_mid_ladder_crash_is_typed(self):
        plan = FaultPlan(rules=(FaultRule("nxp_crash", nth=2),), seed=1)
        machine = FlickMachine(plan.apply(DEFAULT_CONFIG))
        process = machine.load(machine.compile(self.DOUBLY_NESTED))
        machine.spawn(process, args=[])
        with pytest.raises(SimulationError) as info:
            machine.sim.run(until=60_000_000)
        cause = info.value.__cause__
        assert isinstance(cause, ProcessCrash)
        assert "mid-migration-session" in str(cause)


class TestCaseAPI:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            run_scenario(Scenario("none", "not_a_workload", plan=FaultPlan()))

    def test_mismatch_detection(self):
        plan = builtin_plans(7)["none"]
        result = run_scenario(Scenario(plan.name, "null_call", plan=plan), expected=999)
        assert result.verdict == "mismatch"
        assert not result.ok


NEGATIVE_NULL_CALL_SRC = """
@nxp func bump(x) { return x - 5; }
func main(n) {
    var i = 0;
    var acc = 0;
    while (i < n) { acc = bump(acc); i = i + 1; }
    return acc;
}
"""


class TestSignedRetval:
    """Regression: the two's-complement fixup is one shared helper.

    It used to be hand-duplicated per probe and *missing* from the
    hosted pointer-chase probe, so any hosted workload returning a
    negative value classified as ``mismatch`` against its own golden
    run (both sides saw a huge positive — or worse, only one did).
    """

    def test_helper_contract(self):
        from repro.core.machine import signed_retval

        assert signed_retval(None) is None
        assert signed_retval(0) == 0
        assert signed_retval(41) == 41
        assert signed_retval((1 << 64) - 20) == -20
        # idempotent: an already-signed value passes through
        assert signed_retval(-20) == -20

    def test_interpreted_workload_returning_negative_survives(self, monkeypatch):
        import repro.analysis.chaos as chaos

        monkeypatch.setattr(chaos, "NULL_CALL_SRC", NEGATIVE_NULL_CALL_SRC)
        plan = builtin_plans(3)["none"]
        result = run_scenario(Scenario(plan.name, "null_call", plan=plan), expected=-20)
        assert result.verdict == "survived"
        assert result.retval == -20

    def test_hosted_workload_returning_negative_survives(self, monkeypatch):
        # The NISA-side return crosses back to the host in a descriptor,
        # which masks it to u64; without the probe-side fixup this case
        # reads retval as 2**64 - 13 and classifies as mismatch.
        import repro.analysis.chaos as chaos
        from repro.core.hosted import HostedProgram

        def negative_program():
            prog = HostedProgram()

            def near_data(ctx, x):
                ctx.compute(10)
                yield from ctx.maybe_flush()
                return x - 14

            prog.register("near_data", "nisa", near_data)

            def main(ctx, head, count, calls):
                last = 0
                for _ in range(calls):
                    last = yield from ctx.call("near_data", last)
                return last

            prog.register("main", "hisa", main)
            return prog

        monkeypatch.setattr(chaos, "_chase_program", negative_program)
        plan = builtin_plans(3)["none"]
        result = run_scenario(
            Scenario(plan.name, "pointer_chase", plan=plan), expected=-14 * chaos.CHASE_CALLS
        )
        assert result.verdict == "survived"
        assert result.retval == -14 * chaos.CHASE_CALLS
