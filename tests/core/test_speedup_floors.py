"""Speedup floors of the acceleration layer (docs/PERFORMANCE.md).

The parity suites (test_fastpath_parity, test_jit_parity,
test_hosted_batching) prove that the fast paths change nothing the
simulation can observe.  These tests prove the fast paths pay for
themselves on the wall clock:

* the null-call loop (every iteration a full migration) runs >= 2x
  faster with every fast path on than with all of them off, and the
  tracing JIT does not make it slower (no-JIT / all-on >= 0.9);
* the compute loop runs >= 10x faster, and the JIT alone gives >= 1.5x;
* hosted op batching runs the million-access pointer chase >= 2x faster
  than the per-op path, with the same retval, simulated ns and stats.

Wall-clock ratios need a quiet machine, so the module is marked
``perf`` and the tier-1 run deselects it.  Each config gets one untimed
warm-up; the timed runs interleave the configs, best of 3 rounds (2
for the hosted sweep), and time only the simulation, never machine
construction, compilation or chain building.  Every ratio is printed:

    PYTHONPATH=src python -m pytest -m perf tests/core/test_speedup_floors.py -s -q
"""

import time
from dataclasses import replace

import pytest

from repro.core.config import FlickConfig
from repro.core.hosted import HostedMachine
from repro.core.machine import FlickMachine
from repro.workloads.pointer_chase import _make_program, build_chain

from .microloops import COMPUTE_LOOP, NULL_CALL_LOOP, slow_config

pytestmark = pytest.mark.perf

MICROLOOP_CONFIGS = {
    "all_on": FlickConfig(),
    "no_jit": FlickConfig(jit_enabled=False),
    "all_off": slow_config(),
}

#: workload -> (source, n, all-off/all-on floor, no-JIT/all-on floor).
#: On the null-call loop the migration machinery dominates, so the JIT's
#: marginal ratio sits near 1x and its floor only guards against the
#: tier making migrations slower.
MICROLOOP_FLOORS = {
    "null_call_loop": (NULL_CALL_LOOP, 400, 2.0, 0.9),
    "compute_loop": (COMPUTE_LOOP, 4000, 10.0, 1.5),
}

HOSTED_ACCESSES = 1_000_000
HOSTED_FLOOR = 2.0


def _best_walls(run, configs, rounds):
    """Best wall seconds per config over ``rounds`` interleaved rounds;
    ``run(cfg)`` returns ``(wall_s, observables)``.  Also returns each
    config's last observables."""
    best = dict.fromkeys(configs, float("inf"))
    seen = {}
    for _ in range(rounds):
        for name, cfg in configs.items():
            wall, seen[name] = run(cfg)
            best[name] = min(best[name], wall)
    return best, seen


def _run_microloop(source, n, cfg):
    machine = FlickMachine(cfg)
    exe = machine.compile(source)
    t0 = time.perf_counter()
    machine.run_program(exe, args=[n])
    return time.perf_counter() - t0, None


def _run_hosted(cfg):
    hosted = HostedMachine(_make_program(), cfg=cfg)
    head = build_chain(hosted, HOSTED_ACCESSES)
    t0 = time.perf_counter()
    out = hosted.run("main", [head, HOSTED_ACCESSES, 1, 1, 0.0])
    return time.perf_counter() - t0, (out.retval, out.sim_time_ns, out.stats)


def _check_floors(label, ratios):
    """Print one line per floor, then assert each, naming the ratio."""
    print()
    for name, (ratio, floor) in ratios.items():
        print(f"{label}: {name} {ratio:.3f}x (floor {floor}x)")
    for name, (ratio, floor) in ratios.items():
        assert ratio >= floor, f"{label}: {name} {ratio:.3f}x is below its {floor}x floor"


@pytest.mark.parametrize("workload", list(MICROLOOP_FLOORS))
def test_microloop_speedup_floors(workload):
    source, n, overall_floor, jit_floor = MICROLOOP_FLOORS[workload]
    for cfg in MICROLOOP_CONFIGS.values():
        _run_microloop(source, max(10, n // 10), cfg)  # untimed warm-up
    wall, _ = _best_walls(
        lambda cfg: _run_microloop(source, n, cfg), MICROLOOP_CONFIGS, rounds=3
    )
    _check_floors(
        f"{workload} n={n}",
        {
            "all-off/all-on": (wall["all_off"] / wall["all_on"], overall_floor),
            "no-JIT/all-on": (wall["no_jit"] / wall["all_on"], jit_floor),
        },
    )


def test_hosted_batching_speedup_floor():
    batched = FlickConfig()
    configs = {"batched": batched, "unbatched": replace(batched, hosted_batch_size=1)}
    wall, seen = _best_walls(_run_hosted, configs, rounds=2)
    assert seen["batched"] == seen["unbatched"], "hosted batching changed simulated results"
    _check_floors(
        f"hosted_pointer_chase {HOSTED_ACCESSES} accesses",
        {"unbatched/batched": (wall["unbatched"] / wall["batched"], HOSTED_FLOOR)},
    )
