"""Timing-invariance contract of the acceleration layer.

Every fast path (docs/PERFORMANCE.md) must be invisible to the
simulation: with the toggles on or off, a workload must produce the same
return value, the same simulated nanoseconds, the same stat counters,
and the same number of processed DES events.  These tests run real
workloads both ways — individually per toggle and with everything
off at once — and require bit-identical results.
"""

import itertools

import pytest

from repro.core.config import FlickConfig
from repro.core.machine import FlickMachine, signed_retval
from repro.workloads.null_call import measure_h2n_roundtrip
from repro.workloads.pointer_chase import run_pointer_chase
from repro.workloads.serving_profiles import PROFILES

from .microloops import COMPUTE_LOOP, NULL_CALL_LOOP, slow_config
from .pooled_processes import (
    ADDEND,
    LOOPS,
    counting_decodes,
    pooled_machine,
    run_interleaved,
    serve,
)
from .test_mode_fidelity import NESTED_CALLS, NESTED_SRC

TOGGLES = ("decode_cache", "engine_fast_path")


def _run_interpreted(cfg: FlickConfig, n: int = 40):
    machine = FlickMachine(cfg)
    outcome = machine.run_program(NULL_CALL_LOOP, args=[n])
    return {
        "retval": outcome.retval,
        "sim_ns": outcome.sim_time_ns,
        "stats": outcome.stats,
        "events": machine.sim.events_processed,
    }


class TestInterpretedNullCallLoop:
    """The interpreted migration loop — interpreter, ports, TLBs, DMA
    and engine all in play."""

    def test_all_fast_paths_off_is_bit_identical(self):
        assert _run_interpreted(FlickConfig()) == _run_interpreted(slow_config())

    @pytest.mark.parametrize("toggle", TOGGLES)
    def test_each_toggle_alone_is_bit_identical(self, toggle):
        cfg = FlickConfig(**{toggle: False})
        assert _run_interpreted(FlickConfig()) == _run_interpreted(cfg)

    def test_toggle_pairs_are_bit_identical(self):
        reference = _run_interpreted(FlickConfig())
        for pair in itertools.combinations(TOGGLES, 2):
            cfg = FlickConfig(**{name: False for name in pair})
            assert _run_interpreted(cfg) == reference, pair


#: Each microloop's deterministic observables on the default config:
#: (retval, simulated ns, instructions, events_processed).  These are
#: pure functions of the model; a change here means the simulation
#: changed, not that the machine was slow.
MICROLOOP_PINS = {
    "null_call_loop": (NULL_CALL_LOOP, 60, (1830, 1122547.3593189863, 3027, 9301)),
    "compute_loop": (
        COMPUTE_LOOP, 600, (-3255518093052514740, 38968.97222223703, 18627, 27641),
    ),
}


@pytest.mark.parametrize("workload", sorted(MICROLOOP_PINS))
def test_microloop_counts_are_pinned(workload):
    source, n, expected = MICROLOOP_PINS[workload]
    machine = FlickMachine(FlickConfig())
    outcome = machine.run_program(source, args=[n])
    instructions = sum(int(v) for k, v in outcome.stats.items() if k.endswith(".inst"))
    observed = (outcome.retval, outcome.sim_time_ns, instructions, machine.sim.events_processed)
    assert observed == expected


class TestPooledProcesses:
    """Per-address-space caches: two reused processes of one executable
    interleave on the NxP, each keeping its decode cache, translation
    cache and NxP superblocks across the other's residencies."""

    @pytest.mark.parametrize("nxp_count", [1, 2])
    def test_interleaved_processes_are_bit_identical(self, nxp_count):
        reference = run_interleaved(
            FlickConfig(nxp_count=nxp_count, decode_cache=False, jit_enabled=False),
            patch_last=True,
        )
        assert reference["stats"]["nxp.address_space_switch"] >= 4
        # a's last request rewrote ``work``: the new code ran.
        assert reference["retvals"] == {
            "a": [LOOPS * ADDEND, LOOPS * ADDEND, LOOPS * (ADDEND + 1)],
            "b": [LOOPS * ADDEND] * 3,
        }
        for decode_cache, jit in ((True, True), (True, False), (False, True)):
            cfg = FlickConfig(nxp_count=nxp_count, decode_cache=decode_cache, jit_enabled=jit)
            assert run_interleaved(cfg, patch_last=True) == reference, (decode_cache, jit)

    @pytest.mark.parametrize("jit", [True, False])
    def test_second_request_of_pooled_process_decodes_nothing(self, jit):
        machine = FlickMachine(FlickConfig(jit_enabled=jit))
        profile = PROFILES["null_call"]
        process = machine.load(machine.compile(profile.source))
        assert serve(machine, process, profile.args) == profile.expected
        with counting_decodes() as calls:
            assert serve(machine, process, profile.args) == profile.expected
        assert calls == {}

    def test_code_change_drops_only_that_process_decodes(self):
        machine, a, b = pooled_machine(FlickConfig(jit_enabled=False))
        for process in (a, b):
            serve(machine, process)
        # NISA text is NX already: only the code generation moves.
        a.page_tables.set_nx(a.symbols["work"], True)
        with counting_decodes() as calls:
            assert serve(machine, b) == LOOPS * ADDEND
        assert calls == {}
        with counting_decodes() as calls:
            assert serve(machine, a) == LOOPS * ADDEND
        assert calls["hisa"] > 0 and calls["nisa"] > 0


class TestNullCallRoundtrip:
    def test_roundtrip_ns_identical(self):
        fast = measure_h2n_roundtrip(cfg=FlickConfig(), calls=20)
        slow = measure_h2n_roundtrip(cfg=slow_config(), calls=20)
        assert fast.roundtrip_us == slow.roundtrip_us


class TestPointerChase:
    @pytest.mark.parametrize("mode", ["flick", "host"])
    def test_avg_call_ns_identical(self, mode):
        fast = run_pointer_chase(32, calls=4, mode=mode, cfg=FlickConfig())
        slow = run_pointer_chase(32, calls=4, mode=mode, cfg=slow_config())
        assert fast.avg_call_ns == slow.avg_call_ns


def _run_cut(cfg: FlickConfig, source: str, arg: int, cuts=()):
    """Run ``source(arg)`` as ``run(until=cut)`` chunks, then to the end.

    Returns the observables plus the dispatched-event count.  Trace pids
    are process-global, so they are renumbered in order of appearance.
    """
    machine = FlickMachine(cfg)
    thread = machine.spawn(machine.load(machine.compile(source)), args=[arg])
    for cut in cuts:
        machine.run(until=cut)
        assert machine.sim.now == cut
    machine.run()
    pids = {None: None}
    trace = [
        (ev.time, ev.name, pids.setdefault(ev.pid, len(pids)), ev.attrs)
        for ev in machine.trace.events
    ]
    observed = {
        "retval": signed_retval(thread.result),
        "sim_ns": thread.finished_at,
        "stats": machine.stats.snapshot(),
        "events": machine.sim.events_processed,
        "trace": trace,
    }
    return observed, machine.sim.events_dispatched


class TestRunAheadBoundaries:
    """Exact-lookahead run-ahead on whole machines: cutting a run at
    pause ends, running it in one go, and the heap-only engine (which
    never runs ahead) all give the same machine, and the run-ahead does
    take most events off the event loop."""

    PROGRAMS = {"null_call_loop": (NULL_CALL_LOOP, 12), "nested": (NESTED_SRC, NESTED_CALLS)}

    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    def test_until_chunks_one_run_and_heap_only_agree(self, program):
        source, arg = self.PROGRAMS[program]
        heap_only, _ = _run_cut(FlickConfig(engine_fast_path=False), source, arg)
        # Every instant the heap-only run traced (before the last, after
        # which the machine quiesces) is the end of some pause.
        cuts = sorted({t for t, *_ in heap_only["trace"]})[:-1]
        assert len(cuts) > 10
        whole, _ = _run_cut(FlickConfig(), source, arg)
        chunked, _ = _run_cut(FlickConfig(), source, arg, cuts)
        assert whole == heap_only
        assert chunked == heap_only

    def test_runahead_engages_on_the_null_call_loop(self):
        source, arg = self.PROGRAMS["null_call_loop"]
        fast, fast_dispatched = _run_cut(FlickConfig(), source, arg)
        slow, slow_dispatched = _run_cut(FlickConfig(engine_fast_path=False), source, arg)
        assert fast["events"] == slow["events"]
        assert 4 * fast_dispatched <= slow_dispatched
