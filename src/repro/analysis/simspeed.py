"""Simulator wall-clock speed: instructions/sec and events/sec.

The acceleration layer (docs/PERFORMANCE.md) promises two things at
once: the fast paths change nothing the simulation can observe, and
they make the wall clock meaningfully faster.  This module measures
both on interpreted workloads, running each one three ways — all
``FlickConfig`` fast-path toggles on (tracing JIT included), JIT off
with the other fast paths on, then everything off — and reporting:

* wall-clock seconds per config (best of ``repeats`` runs),
* simulated instructions per wall second (from the ``*.inst`` counters),
* DES events per wall second (``Simulator.events_processed``),
* the speedup ratio, and
* the parity verdict: retval, simulated ns, every stat counter, and the
  processed-event count must be bit-identical across the two configs.

:func:`measure_hosted_batching` applies the same discipline to hosted
mode: the million-access pointer-chase sweep with op batching on vs off,
where parity is *bit-identical* (retval, simulated ns, every stat
counter) and the speedup is the batching layer's headline number.

``benchmarks/bench_simspeed.py`` runs the standard workloads and writes
the result to ``BENCH_simspeed.json`` so the perf trajectory is tracked
release over release; ``python -m repro bench --quick`` runs a smaller
smoke of the same measurement (add ``--hosted`` for the batching smoke).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from repro.core.config import FlickConfig
from repro.core.machine import FlickMachine

__all__ = [
    "SimSpeedResult",
    "HostedSpeedResult",
    "WORKLOADS",
    "fast_config",
    "nojit_config",
    "slow_config",
    "measure_simspeed",
    "measure_all",
    "measure_hosted_batching",
    "write_report",
    "render",
    "render_hosted",
]

# The interpreted null-call loop: every iteration is a full Flick
# migration, so it exercises interpreter, ports, TLBs, DMA and the DES
# engine together.  The compute loop stays on the host core and isolates
# pure interpreter + decode overhead.
NULL_CALL_LOOP = """
@nxp func f(x) { return x + 1; }
func main(n) {
    var acc = 0;
    var i = 0;
    while (i < n) { acc = f(acc) + i; i = i + 1; }
    return acc;
}
"""

COMPUTE_LOOP = """
func main(n) {
    var acc = 0;
    var i = 0;
    while (i < n) { acc = acc * 3 + i; i = i + 1; }
    return acc;
}
"""

WORKLOADS = {
    "null_call_loop": (NULL_CALL_LOOP, 400),
    "compute_loop": (COMPUTE_LOOP, 4000),
}


@dataclass(frozen=True)
class SimSpeedResult:
    workload: str
    iterations: int
    wall_s_fast: float
    wall_s_slow: float
    speedup: float
    instructions: int
    inst_per_sec_fast: float
    inst_per_sec_slow: float
    events: int
    events_per_sec_fast: float
    events_per_sec_slow: float
    sim_ns: float
    parity: bool
    #: Same run with every fast path on except the tracing JIT — isolates
    #: the JIT tier's marginal contribution (jit_speedup = nojit / fast).
    wall_s_nojit: float = 0.0
    jit_speedup: float = 1.0


def fast_config() -> FlickConfig:
    """All fast paths on (the defaults), tracing JIT included."""
    return FlickConfig()


def nojit_config() -> FlickConfig:
    """All fast paths on except the tracing-JIT tier."""
    return FlickConfig(jit_enabled=False)


def slow_config() -> FlickConfig:
    """Every fast path off — the reference timing path."""
    return FlickConfig(
        decode_cache=False,
        translation_fast_path=False,
        engine_fast_path=False,
        jit_enabled=False,
    )


def _run_once(source: str, n: int, cfg: FlickConfig):
    # Machine construction and toolchain compilation are one-time setup,
    # identical across configs — the timed window is the simulation only.
    machine = FlickMachine(cfg)
    exe = machine.compile(source)
    t0 = time.perf_counter()
    outcome = machine.run_program(exe, args=[n])
    wall = time.perf_counter() - t0
    instructions = sum(
        int(v) for k, v in outcome.stats.items() if k.endswith(".inst")
    )
    return {
        "wall": wall,
        "retval": outcome.retval,
        "sim_ns": outcome.sim_time_ns,
        "stats": outcome.stats,
        "instructions": instructions,
        "events": machine.sim.events_processed,
    }


def measure_simspeed(
    workload: str,
    iterations: Optional[int] = None,
    repeats: int = 2,
) -> SimSpeedResult:
    """Measure one workload fast-vs-slow; wall times are best-of-repeats."""
    source, default_n = WORKLOADS[workload]
    n = default_n if iterations is None else iterations
    # Untimed warmup: the first simulation in a fresh process pays
    # allocator and code warm-up that would skew the fast/slow ratio.
    _run_once(source, max(10, n // 10), fast_config())
    _run_once(source, max(10, n // 10), slow_config())
    fast = nojit = slow = None
    wall_fast = wall_nojit = wall_slow = float("inf")
    for _ in range(max(1, repeats)):
        run = _run_once(source, n, fast_config())
        wall_fast = min(wall_fast, run["wall"])
        fast = run
        run = _run_once(source, n, nojit_config())
        wall_nojit = min(wall_nojit, run["wall"])
        nojit = run
        run = _run_once(source, n, slow_config())
        wall_slow = min(wall_slow, run["wall"])
        slow = run
    # Three-way parity: JIT-on, JIT-off and all-slow must agree on every
    # simulated observable bit-for-bit.
    parity = all(
        fast["retval"] == other["retval"]
        and fast["sim_ns"] == other["sim_ns"]
        and fast["stats"] == other["stats"]
        and fast["events"] == other["events"]
        for other in (nojit, slow)
    )
    return SimSpeedResult(
        workload=workload,
        iterations=n,
        wall_s_fast=wall_fast,
        wall_s_slow=wall_slow,
        speedup=wall_slow / wall_fast,
        instructions=fast["instructions"],
        inst_per_sec_fast=fast["instructions"] / wall_fast,
        inst_per_sec_slow=slow["instructions"] / wall_slow,
        events=fast["events"],
        events_per_sec_fast=fast["events"] / wall_fast,
        events_per_sec_slow=slow["events"] / wall_slow,
        sim_ns=fast["sim_ns"],
        parity=parity,
        wall_s_nojit=wall_nojit,
        jit_speedup=wall_nojit / wall_fast,
    )


def measure_all(repeats: int = 2, scale: float = 1.0) -> List[SimSpeedResult]:
    """Measure every standard workload; ``scale`` shrinks iteration counts
    (the CLI's --quick smoke uses scale < 1 to stay under 30 s)."""
    results = []
    for name, (_source, default_n) in WORKLOADS.items():
        n = max(10, int(default_n * scale))
        results.append(measure_simspeed(name, iterations=n, repeats=repeats))
    return results


@dataclass(frozen=True)
class HostedSpeedResult:
    """Hosted-mode op batching, on vs off (docs/PERFORMANCE.md)."""

    workload: str
    accesses: int
    calls: int
    wall_s_batched: float
    wall_s_unbatched: float
    speedup: float
    sim_ns: float
    parity: bool


def _hosted_run(cfg: FlickConfig, accesses: int, calls: int):
    from repro.core.hosted import HostedMachine
    from repro.workloads.pointer_chase import _make_program, build_chain

    # Machine construction and chain materialization are one-time setup
    # shared by both configs — the timed window is the simulation only.
    hosted = HostedMachine(_make_program(), cfg=cfg)
    head = build_chain(hosted, accesses)
    t0 = time.perf_counter()
    out = hosted.run("main", [head, accesses, calls, 1, 0.0])
    wall = time.perf_counter() - t0
    return {
        "wall": wall,
        "retval": out.retval,
        "sim_ns": out.sim_time_ns,
        "stats": out.stats,
    }


def measure_hosted_batching(
    accesses: int = 1_000_000,
    calls: int = 1,
    repeats: int = 2,
) -> HostedSpeedResult:
    """The hosted million-access pointer-chase sweep, op batching on vs
    off; wall times are best-of-repeats.

    Parity here is *bit-identical*: return value, simulated ns, and
    every stat counter must match exactly across the toggle (the
    per-batch contract in docs/PERFORMANCE.md).
    """
    from dataclasses import replace

    batched_cfg = FlickConfig()
    unbatched_cfg = replace(batched_cfg, hosted_batch_size=1)
    batched = unbatched = None
    wall_batched = wall_unbatched = float("inf")
    for _ in range(max(1, repeats)):
        run = _hosted_run(batched_cfg, accesses, calls)
        wall_batched = min(wall_batched, run["wall"])
        batched = run
        run = _hosted_run(unbatched_cfg, accesses, calls)
        wall_unbatched = min(wall_unbatched, run["wall"])
        unbatched = run
    parity = (
        batched["retval"] == unbatched["retval"]
        and batched["sim_ns"] == unbatched["sim_ns"]
        and batched["stats"] == unbatched["stats"]
    )
    return HostedSpeedResult(
        workload="hosted_pointer_chase",
        accesses=accesses,
        calls=calls,
        wall_s_batched=wall_batched,
        wall_s_unbatched=wall_unbatched,
        speedup=wall_unbatched / wall_batched,
        sim_ns=batched["sim_ns"],
        parity=parity,
    )


def write_report(
    results: List[SimSpeedResult],
    path: str,
    hosted: Optional[HostedSpeedResult] = None,
) -> None:
    payload: Dict[str, object] = {
        "benchmark": "simspeed",
        "workloads": [asdict(r) for r in results],
    }
    if hosted is not None:
        payload["hosted_batching"] = asdict(hosted)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def render(results: List[SimSpeedResult]) -> str:
    lines = [
        f"{'workload':<16} {'fast':>8} {'slow':>8} {'speedup':>8} "
        f"{'jit':>7} {'Minst/s':>8} {'Mev/s':>8} {'parity':>7}"
    ]
    for r in results:
        lines.append(
            f"{r.workload:<16} {r.wall_s_fast:>7.3f}s {r.wall_s_slow:>7.3f}s "
            f"{r.speedup:>7.2f}x {r.jit_speedup:>6.2f}x "
            f"{r.inst_per_sec_fast / 1e6:>8.3f} "
            f"{r.events_per_sec_fast / 1e6:>8.3f} {str(r.parity):>7}"
        )
    return "\n".join(lines)


def render_hosted(r: HostedSpeedResult) -> str:
    return (
        f"{r.workload:<22} {r.accesses} accesses x {r.calls} call(s): "
        f"batched {r.wall_s_batched:.3f}s  unbatched {r.wall_s_unbatched:.3f}s  "
        f"speedup {r.speedup:.2f}x  parity {r.parity}"
    )
