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

from repro.analysis.simspeed import NULL_CALL_LOOP, fast_config, slow_config
from repro.core.config import FlickConfig
from repro.core.machine import FlickMachine
from repro.workloads.null_call import measure_h2n_roundtrip
from repro.workloads.pointer_chase import run_pointer_chase
from repro.workloads.serving_profiles import PROFILES

from .pooled_processes import (
    ADDEND,
    LOOPS,
    counting_decodes,
    pooled_machine,
    run_interleaved,
    serve,
)

TOGGLES = ("decode_cache", "translation_fast_path", "engine_fast_path")


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
        assert _run_interpreted(fast_config()) == _run_interpreted(slow_config())

    @pytest.mark.parametrize("toggle", TOGGLES)
    def test_each_toggle_alone_is_bit_identical(self, toggle):
        cfg = FlickConfig(**{toggle: False})
        assert _run_interpreted(fast_config()) == _run_interpreted(cfg)

    def test_toggle_pairs_are_bit_identical(self):
        reference = _run_interpreted(fast_config())
        for pair in itertools.combinations(TOGGLES, 2):
            cfg = FlickConfig(**{name: False for name in pair})
            assert _run_interpreted(cfg) == reference, pair


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
        fast = measure_h2n_roundtrip(cfg=fast_config(), calls=20)
        slow = measure_h2n_roundtrip(cfg=slow_config(), calls=20)
        assert fast.roundtrip_us == slow.roundtrip_us


class TestPointerChase:
    @pytest.mark.parametrize("mode", ["flick", "host"])
    def test_avg_call_ns_identical(self, mode):
        fast = run_pointer_chase(32, calls=4, mode=mode, cfg=fast_config())
        slow = run_pointer_chase(32, calls=4, mode=mode, cfg=slow_config())
        assert fast.avg_call_ns == slow.avg_call_ns
