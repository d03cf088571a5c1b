"""Multi-NxP topology (docs/FLEET.md).

Three invariants anchor the fleet layer:

1. **Single-device parity** — ``nxp_count=1`` is a fleet of one, and
   ``nxp_count=2`` with the static policy routes every session to
   device 0 over device 0's ring/DMA/vector, so both must produce
   bit-identical timing and stats.
2. **Distribution** — non-static policies actually spread outermost
   sessions across devices, and draining a device excludes it from new
   placements.
3. **Kill semantics** — ``kill_nxp`` validates its preconditions, and an
   abrupt mid-run kill of one device is fully recovered by the hardened
   protocol (the chaos kill case survives with the correct retval).
"""

import pytest

from repro.analysis.chaos import Scenario, named_scenarios, run_scenario
from repro.core.config import FlickConfig
from repro.core.hosted import HostedMachine, HostedProgram
from repro.core.machine import FlickMachine
from repro.interconnect.interrupt import MIGRATION_VECTOR
from repro.sim.faults import FaultRule

BUMP_LOOP = """
@nxp func bump(x) { return x + 3; }
func main(n) {
    var acc = 5;
    var i = 0;
    while (i < n) { acc = bump(acc); i = i + 1; }
    return acc;
}
"""

#: Armed-but-quiet plan: hardens the protocol without ever firing.
QUIET = (FaultRule("dma_drop", after_ns=1e18, count=None),)


def _run(cfg, iters=4):
    machine = FlickMachine(cfg)
    outcome = machine.run_program(BUMP_LOOP, args=[iters])
    return machine, outcome


def _strip_placement(stats):
    return {k: v for k, v in stats.items() if not k.startswith("placement.")}


class TestSingleDeviceParity:
    def test_two_device_static_matches_single(self):
        _, single = _run(FlickConfig())
        _, dual = _run(FlickConfig(nxp_count=2, placement_policy="static"))
        assert dual.retval == single.retval == 17
        assert dual.sim_time_ns == single.sim_time_ns
        assert _strip_placement(dual.stats) == _strip_placement(single.stats)

    def test_parity_holds_under_hardened_protocol(self):
        _, single = _run(FlickConfig(faults=QUIET))
        _, dual = _run(FlickConfig(faults=QUIET, nxp_count=2))
        assert dual.retval == single.retval == 17
        assert dual.sim_time_ns == single.sim_time_ns

    def test_hosted_parity(self):
        def outcome(cfg):
            prog = HostedProgram()

            def bump(ctx, x):
                ctx.compute(10)
                yield from ctx.maybe_flush()
                return x + 3

            def main(ctx, n):
                acc = 5
                for _ in range(n):
                    acc = yield from ctx.call("bump", acc)
                return acc

            prog.register("bump", "nisa", bump)
            prog.register("main", "hisa", main)
            return HostedMachine(prog, cfg=cfg).run("main", [4])

        single = outcome(FlickConfig())
        dual = outcome(FlickConfig(nxp_count=2, placement_policy="round_robin"))
        assert dual.retval == single.retval == 17
        assert dual.sim_time_ns == single.sim_time_ns


class TestTopology:
    def test_per_device_resources(self):
        machine = FlickMachine(FlickConfig(nxp_count=4))
        assert len(machine.devices) == 4
        mm = machine.memory_map
        spans = []
        for i, dev in enumerate(machine.devices):
            assert dev.index == i
            assert dev.vector == MIGRATION_VECTOR + i
            assert dev.dma is not machine.devices[(i + 1) % 4].dma
            lo, hi = dev.bram.base, dev.bram.base + dev.bram.size
            assert mm.nxp_bram_base <= lo < hi <= mm.nxp_bram_base + mm.nxp_bram_size
            spans.append((lo, hi))
        for (lo_a, hi_a), (lo_b, hi_b) in zip(spans, spans[1:]):
            assert hi_a <= lo_b  # slices are disjoint and ordered

    def test_device_zero_matches_single_device_layout(self):
        single = FlickMachine()
        dual = FlickMachine(FlickConfig(nxp_count=2))
        one, zero = single.devices[0], dual.devices[0]
        assert zero.nxp_ring.base == one.nxp_ring.base == dual.memory_map.nxp_bram_base
        assert zero.host_ring.base == one.host_ring.base
        assert zero.bram.base == one.bram.base
        assert zero.vector == one.vector == MIGRATION_VECTOR
        for machine in (single, dual):
            for alias in ("nxp", "dma", "nxp_ring", "host_ring", "bram_phys", "health"):
                assert not hasattr(machine, alias)

    def test_single_machine_has_uniform_device_list(self):
        machine = FlickMachine()
        (dev0,) = machine.devices
        assert dev0.vector == MIGRATION_VECTOR
        assert dev0.platform is not None
        assert machine.placement.policy.name == "static"

    def test_nxp_count_validated(self):
        with pytest.raises(ValueError, match="nxp_count"):
            FlickMachine(FlickConfig(nxp_count=0))


class TestDistribution:
    def test_round_robin_spreads_sessions(self):
        # Each bump() call is its own outermost session, so four
        # iterations on four devices land one session per device.
        machine, outcome = _run(
            FlickConfig(nxp_count=4, placement_policy="round_robin")
        )
        assert outcome.retval == 17
        counts = machine.placement.session_counts()
        assert sum(counts.values()) == 4
        assert all(counts.get(i, 0) == 1 for i in range(4))

    def test_static_pins_device_zero(self):
        machine, _ = _run(FlickConfig(nxp_count=2, placement_policy="static"))
        counts = machine.placement.session_counts()
        assert counts.get(0, 0) == 4 and counts.get(1, 0) == 0

    def test_drained_device_excluded_from_new_sessions(self):
        machine = FlickMachine(
            FlickConfig(nxp_count=2, placement_policy="round_robin")
        )
        machine.kill_nxp(0, mode="drain")
        outcome = machine.run_program(BUMP_LOOP, args=[4])
        assert outcome.retval == 17
        counts = machine.placement.session_counts()
        assert counts.get(0, 0) == 0 and counts.get(1, 0) == 4


class TestKillSemantics:
    def test_drain_kill_works_on_single_nxp(self):
        machine = FlickMachine()
        machine.kill_nxp(0, mode="drain")
        outcome = machine.run_program(BUMP_LOOP, args=[4])
        assert outcome.retval == 17
        assert outcome.stats["degraded.calls"] == 4

    def test_abrupt_kill_requires_hardened_protocol(self):
        machine = FlickMachine(FlickConfig(nxp_count=2))
        with pytest.raises(ValueError, match="hardened"):
            machine.kill_nxp(0, mode="abrupt")

    def test_unknown_mode_rejected(self):
        machine = FlickMachine(FlickConfig(nxp_count=2))
        with pytest.raises(ValueError, match="kill mode"):
            machine.kill_nxp(0, mode="gently")

    def test_abrupt_kill_mid_run_is_recovered(self):
        result = run_scenario(named_scenarios()["kill-abrupt"])
        assert result.verdict == "survived", result.detail
        assert result.retval == result.expected == 12
        assert result.degraded_calls == 0

    def test_drain_kill_mid_run_completes_in_flight(self):
        result = run_scenario(named_scenarios()["kill-drain"])
        assert result.verdict == "survived", result.detail
        assert result.retval == result.expected == 12

    def test_kill_case_validates_topology(self):
        with pytest.raises(ValueError):
            run_scenario(Scenario("kill-one-of-one", devices=1, kill_at_ns=5_000.0))


DEEP = """
@nxp func deep(x) { var a = x + 1; var b = a * 2; var c = b + a; return c; }
func main(x) { return deep(x); }
"""


def _deep_interpreted(cfg, drain=(), deadline_ns=None):
    machine = FlickMachine(cfg)
    for index in drain:
        machine.kill_nxp(index, mode="drain")
    thread = machine.spawn(machine.load(machine.compile(DEEP)), args=[5])
    if deadline_ns is not None:
        thread.task.deadline_ns = deadline_ns
    machine.run()
    assert machine.stats.get("degraded.calls") == 1
    return thread.result, thread.finished_at


def _deep_hosted(cfg, drain=(), deadline_ns=None):
    prog = HostedProgram()

    @prog.nxp()
    def deep(ctx, x):
        ctx.compute(4)
        a = x + 1
        b = a * 2
        return b + a
        yield

    @prog.host()
    def main(ctx, x):
        if deadline_ns is not None:
            hosted._task.deadline_ns = deadline_ns
        return (yield from ctx.call("deep", x))

    hosted = HostedMachine(prog, cfg=cfg)
    for index in drain:
        hosted.machine.kill_nxp(index, mode="drain")
    out = hosted.run("main", [5])
    assert hosted.machine.stats.get("degraded.calls") == 1
    return out.retval, out.sim_time_ns


class TestFirstCallFallback:
    """A task whose *first* call falls back still gets its NxP stack
    (the fallback emulator runs the callee on it), so any fleet matches
    the one-device run."""

    @pytest.mark.parametrize("run", [_deep_interpreted, _deep_hosted])
    def test_fully_drained_fleet(self, run):
        one = run(FlickConfig(), drain=[0])
        two = run(FlickConfig(nxp_count=2), drain=[0, 1])
        assert one == two
        assert one[0] == 18

    @pytest.mark.parametrize("run", [_deep_interpreted, _deep_hosted])
    def test_brownout_on_expired_deadline(self, run):
        one = run(FlickConfig(brownout=True), deadline_ns=0.0)
        two = run(FlickConfig(brownout=True, nxp_count=2), deadline_ns=0.0)
        assert one == two
        assert one[0] == 18

    def test_interpreted_fallback_time(self):
        assert _deep_interpreted(FlickConfig(nxp_count=2), drain=[0, 1]) == (
            18, pytest.approx(19941.48, abs=0.01)
        )


class TestNxpDataCacheOnEveryDevice:
    HOT = """
    @nxp var hot = 5;
    @nxp func churn(n) {
        var acc = 0;
        var i = 0;
        while (i < n) { acc = acc + hot; i = i + 1; }
        return acc;
    }
    func main(n) { return churn(n); }
    """

    def _run(self, drain):
        machine = FlickMachine(FlickConfig(nxp_count=2))
        for index in drain:
            machine.kill_nxp(index, mode="drain")
        outcome = machine.run_program(self.HOT, args=[200])
        dcache = {k: v for k, v in outcome.stats.items() if k.startswith("nxp.dcache.")}
        return outcome.retval, outcome.sim_time_ns, dcache

    def test_device_one_caches_nxp_data_like_device_zero(self):
        on_dev0 = self._run(drain=[])
        on_dev1 = self._run(drain=[0])
        assert on_dev1 == on_dev0
        assert on_dev1[2]["nxp.dcache.hit"] == 199
