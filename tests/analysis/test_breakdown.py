"""Measured-breakdown tests: trace analysis vs config pricing."""

import pytest

from repro import FlickMachine
from repro.analysis.breakdown import (
    measure_breakdown,
    measure_breakdown_by_pid,
    render_breakdown,
)
from repro.analysis.metrics import build_run_report
from repro.baselines import flick_roundtrip_component_ns
from repro.core.config import DEFAULT_CONFIG

NULL_CALL = """
@nxp func f() { return 0; }
func main(n) {
    var i = 0;
    while (i < n) { f(); i = i + 1; }
    return 0;
}
"""

NESTED = """
func host_leaf(x) { return x; }
@nxp func dev(x) { return host_leaf(x); }
func main() { return dev(1); }
"""


@pytest.fixture(scope="module")
def traced_machine():
    machine = FlickMachine()
    machine.run_program(NULL_CALL, args=[10])
    return machine


class TestMeasureBreakdown:
    def test_counts_simple_sessions(self, traced_machine):
        b = measure_breakdown(traced_machine.trace)
        assert b.sessions == 10

    def test_total_matches_calibrated_roundtrip(self, traced_machine):
        """Measured phases + the 0.7us fault = Table III's 18.3us
        (modulo the interpreted nop's handful of instructions)."""
        b = measure_breakdown(traced_machine.trace)
        total_us = (b.total_ns + DEFAULT_CONFIG.host_page_fault_ns) / 1000
        # Sessions include the first (cold) call, so allow some slack up.
        assert 17.5 < total_us < 21.0

    def test_phases_match_config_pricing(self, traced_machine):
        """Cross-check: the measured host_out phase equals the summed
        config constants for that path."""
        b = measure_breakdown(traced_machine.trace)
        cfg = DEFAULT_CONFIG
        expected_host_out = (
            cfg.host_handler_entry_ns
            + cfg.host_ioctl_entry_ns
            + cfg.host_desc_build_ns
            + cfg.host_context_switch_ns
            + cfg.host_dma_kick_ns
        )
        # First session also pays stack allocation; means sit slightly above.
        assert b.phases["host_out"] == pytest.approx(expected_host_out, rel=0.10)

    def test_host_resume_is_biggest_host_phase(self, traced_machine):
        """The wakeup path dominates (the cost of releasing the core)."""
        b = measure_breakdown(traced_machine.trace)
        assert b.phases["host_resume"] > b.phases["host_out"]

    def test_nested_sessions_decomposed(self):
        """A session containing an NxP->host call is measured, not
        skipped: NxP-resident legs under nxp_execute, away-time under
        nested_host, and the phases tile the session duration exactly."""
        machine = FlickMachine()
        machine.run_program(NESTED)
        b = measure_breakdown(machine.trace)
        assert b.sessions == 1
        assert b.nested_sessions == 1
        assert b.phases["nested_host"] > 0.0
        assert b.phases["nxp_execute"] > 0.0
        start = machine.trace.filter("h2n_call_start")[0]
        done = machine.trace.filter("h2n_call_done")[-1]
        # The outer session's phases sum to its wall duration (the inner
        # events all belong to NxP residency or nested_host intervals).
        assert b.total_ns == pytest.approx(done.time - start.time, abs=1e-6)

    def test_simple_sessions_have_zero_nested_host(self, traced_machine):
        b = measure_breakdown(traced_machine.trace)
        assert b.nested_sessions == 0
        assert b.phases["nested_host"] == 0.0

    def test_empty_trace(self):
        machine = FlickMachine()
        b = measure_breakdown(machine.trace)
        assert b.sessions == 0
        assert b.total_ns == 0.0

    def test_concurrent_tasks_match_single_task_oracle(self):
        """Two concurrent migrating tasks (phases interleaved in the
        global event stream) each measure the same per-pid phase means a
        single-task oracle run measures — no cross-task conflation.

        Host-side phases are exact.  NxP-side phases carry genuine
        shared-resource effects which are asserted tightly: the second
        task's first dispatch waits out poll-loop alignment (bounded by
        one poll period amortized over its sessions), and alternating
        address spaces flushes the NxP TLB so every session re-walks its
        pages — a surcharge that is identical for both pids and bounded
        by the oracle's own cold first session.
        """
        oracle = FlickMachine()
        oracle.run_program(NULL_CALL, args=[5])
        ob = measure_breakdown(oracle.trace)
        cold = FlickMachine()
        cold.run_program(NULL_CALL, args=[1])
        cold_nxp = measure_breakdown(cold.trace).phases["nxp_execute"]

        m = FlickMachine(host_cores=2)
        exe = m.compile(NULL_CALL)
        p1 = m.load(exe, name="a")
        p2 = m.load(exe, name="b")
        m.spawn(p1, args=[5])
        m.sim.run(until=9500)  # half a round trip: phases interleave
        m.spawn(p2, args=[5])
        m.run()

        # The two tasks' events genuinely interleave in the stream.
        order = [e.pid for e in m.trace.events if e.pid in (p1.pid, p2.pid)]
        assert sum(1 for a, b in zip(order, order[1:]) if a != b) > 10

        by_pid = measure_breakdown_by_pid(m.trace)
        assert set(by_pid) == {p1.pid, p2.pid}
        for b in by_pid.values():
            assert b.sessions == 5
            for phase in ("host_out", "return_to_host", "host_resume", "nested_host"):
                assert b.phases[phase] == pytest.approx(ob.phases[phase], abs=1e-6)
            lag = b.phases["transfer_to_nxp"] - ob.phases["transfer_to_nxp"]
            assert 0.0 <= lag <= DEFAULT_CONFIG.nxp_poll_period_ns
            assert ob.phases["nxp_execute"] <= b.phases["nxp_execute"] <= cold_nxp
        # The TLB-thrash surcharge attributes identically to both pids.
        assert by_pid[p1.pid].phases["nxp_execute"] == pytest.approx(
            by_pid[p2.pid].phases["nxp_execute"], abs=1e-6
        )

    def test_pid_filter(self):
        machine = FlickMachine(host_cores=2)
        exe = machine.compile(NULL_CALL)
        p1 = machine.load(exe, name="a")
        p2 = machine.load(exe, name="b")
        machine.spawn(p1, args=[3])
        machine.spawn(p2, args=[5])
        machine.run()
        assert measure_breakdown(machine.trace, pid=p1.pid).sessions == 3
        assert measure_breakdown(machine.trace, pid=p2.pid).sessions == 5


class TestRender:
    def test_render_includes_all_phases_and_total(self, traced_machine):
        text = render_breakdown(measure_breakdown(traced_machine.trace))
        for phase in ("host_out", "transfer_to_nxp", "nxp_execute", "return_to_host", "host_resume"):
            assert phase in text
        assert "TOTAL" in text
        assert "page fault" in text


DEGRADING_NESTED = """
@nxp func inner(x) { return x * 10; }
func host_mid(x) { return inner(x) + 1; }
@nxp func dev(x) { return host_mid(x) + 100; }
func main(n) {
    var i = 0;
    var acc = 0;
    while (i < n) { acc = acc + dev(2); i = i + 1; }
    return acc;
}
"""


class TestDegradedNestedCall:
    """A nested host->NxP call that falls back to host emulation (its
    only NxP is drained mid-run) ends in ``degraded_done``, never in a
    completed round trip.  It must stay out of the session means without
    swallowing the enclosing session, which an NxP still served."""

    @staticmethod
    def _drained_at(until_ns):
        machine = FlickMachine()
        process = machine.load(machine.compile(DEGRADING_NESTED))
        thread = machine.spawn(process, args=[3])
        machine.sim.run(until=until_ns)
        machine.kill_nxp(0, mode="drain")
        machine.run()
        return machine, thread

    def test_enclosing_sessions_still_counted(self):
        machine, thread = self._drained_at(80_000)
        assert thread.result == 3 * (2 * 10 + 1 + 100)
        assert len(machine.trace.finished_spans("h2n_session")) == 6
        assert machine.trace.count("degraded_call") == 3
        b = measure_breakdown(machine.trace)
        assert (b.sessions, b.nested_sessions) == (3, 2)
        assert build_run_report(machine).sessions == 3
        for phase in ("host_out", "transfer_to_nxp", "nxp_execute", "nested_host",
                      "return_to_host", "host_resume"):
            assert b.phases[phase] > 0.0

    def test_first_inner_call_degraded(self):
        machine, _thread = self._drained_at(30_000)
        b = measure_breakdown(machine.trace)
        assert (b.sessions, b.nested_sessions) == (1, 1)
        assert build_run_report(machine).sessions == 1
        # The served session is the first dev() call, and its phases
        # still tile its span exactly around the degraded inner call.
        first = min(machine.trace.finished_spans("h2n_session"), key=lambda s: s.start)
        assert b.total_ns == pytest.approx(first.duration, abs=1e-6)
