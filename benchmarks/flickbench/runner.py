"""flickbench: host-time benchmark of the Flick simulator.

``--workload W`` runs one workload in this process: set-up (timed in
fresh interpreters), one untimed warm-up pass at a tenth of the size,
timed passes for ``--seconds`` (at least five; the fastest is reported),
and with ``--trace 1`` a layer pass under cProfile.  The last
line printed is the JSON result: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.

Without ``--workload`` it runs the suite: each workload in its own fresh
subprocess, one after another, ``--sets`` times with the workload order
alternating, then the median, quartiles and largest set-to-set spread of
every metric.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

import repro
from benchmarks.flickbench.layers import LAYERS, LayerFold
from benchmarks.flickbench.workloads import WORKLOADS, Calibration, PassOutcome, tail_pct
from repro.sim.stats import quantile

ROOT = Path(__file__).resolve().parents[2]
RUN_PY = Path(__file__).resolve().parent / "run.py"
SRC_ROOT = os.path.dirname(os.path.dirname(repro.__file__))

RUN_SECONDS = 15  # BENCHMARK.json "run_seconds"
# Interference from other tenants only ever adds host time, in bursts of
# seconds to minutes.  Over ten runs the spread of each run's median pass
# reached 15%, that of its fastest of five or more 2-10% (README.md,
# "Steadiness"), so runs report their fastest pass.
MIN_PASSES = 5
WARMUP_FRACTION = 0.1
SETUP_PROBES = 5  # one set-up alone varied from 0.23 to 0.45 s
PROBE_TIMEOUT_S = 120
WORKER_TIMEOUT_S = 900
REPORT_PREFIX = "flickbench-report "
END_TO_END = ("sim_req_per_s", "setup_s", "peak_rss_mb")

Metrics = Dict[str, Tuple[float, str]]


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def probe_setup(name: str, seed: int, smoke: bool) -> float:
    """Seconds from a fresh interpreter to a workload ready to run."""
    cmd = [sys.executable, "-m", "benchmarks.flickbench.setup_probe", name, str(seed)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {name} failed:\n{proc.stderr[-4000:]}")
    return float(proc.stdout.split()[-1])


def _sum(counters: Counter, suffix: str = "", prefix: str = "") -> float:
    return sum(v for k, v in counters.items() if k.endswith(suffix) and k.startswith(prefix))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def count_metrics(outcome: PassOutcome, calibration: Calibration) -> Metrics:
    """Per-layer counts and modelled results; all deterministic per seed."""
    c, n = outcome.counters, outcome.units
    inst = _sum(c, ".inst")
    accesses = sum(c[k] for k in ("host.load", "host.store", "nxp.fetch", "nxp.load", "nxp.store"))
    pcie = sum(c[k] for k in ("host.load_pcie", "host.store_pcie", "nxp.load_pcie", "nxp.store_pcie"))
    tlb_hits, tlb_misses = _sum(c, "tlb.hit"), _sum(c, "tlb.miss")
    cache_hits, cache_misses = _sum(c, "cache.hit"), _sum(c, "cache.miss")
    latencies = outcome.latencies_ns
    return {
        "isa.inst_per_req": (inst / n, "1/req"),
        "isa.jit.blocks_compiled": (c["jit.compiled_blocks"], "count"),
        "isa.jit.exec_per_compile": (_ratio(c["jit.block_exec_total"], c["jit.compiled_blocks"]), "ratio"),
        "isa.jit.inst_share": (_ratio(c["jit.block_inst_total"], inst), "ratio"),
        "memory.walks_per_req": (_sum(c, ".walk") / n, "1/req"),
        "memory.tlb_hit_ratio": (_ratio(tlb_hits, tlb_hits + tlb_misses), "ratio"),
        "memory.cache_hit_ratio": (_ratio(cache_hits, cache_hits + cache_misses), "ratio"),
        "core.ports.accesses_per_req": (accesses / n, "1/req"),
        "core.ports.pcie_share": (_ratio(pcie, accesses), "ratio"),
        "core.protocol.migrations_per_req": (
            (c["latency.h2n_session_ns.count"] + _sum(c, prefix="nxp.migrate_trigger.")) / n,
            "1/req",
        ),
        "core.protocol.watchdog_trips": (c["migration.watchdog_trip"], "count"),
        "core.protocol.retries": (c["migration.retry"], "count"),
        "core.protocol.health_transitions": (c["health.transitions"], "count"),
        "interconnect.dma_per_req": ((c["dma.to_nxp"] + c["dma.to_host"]) / n, "1/req"),
        "interconnect.irq_per_req": (_sum(c, prefix="irq.") / n, "1/req"),
        "interconnect.pcie_wait_ns_per_req": (c["pcie.queue_wait_ns.total"] / n, "ns"),
        "os.placement_imbalance": (outcome.placement_imbalance, "ratio"),
        "sim.engine.events_per_req": (c["sim.events"] / n, "1/req"),
        "core.trace.events_per_req": (c["trace.events"] / n, "1/req"),
        "core.trace.dropped": (c["trace.dropped"], "count"),
        "model.host_core_util": (outcome.util["host_core"], "ratio"),
        "model.nxp_util": (outcome.util["nxp"], "ratio"),
        "model.dma_util": (outcome.util["dma"], "ratio"),
        "model.queue_wait_us": (outcome.queue_wait_ns / 1000, "us"),
        "model.sim_p50_us": (quantile(latencies, 50) / 1000, "us"),
        "model.sim_tail_us": (quantile(latencies, tail_pct(len(latencies))) / 1000, "us"),
        "model.calib_err_pct": (calibration.err_pct, "%"),
    }


def layer_metrics(layer_pass: PassOutcome, fold: LayerFold, best_host_s: float) -> Metrics:
    """Host self time per layer, and call counts, from the layer pass;
    its overhead is against the fastest timed pass."""
    seconds = fold.layer_seconds()
    total = sum(seconds.values())
    n = layer_pass.units
    out: Metrics = {}
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (seconds[layer] / total, "ratio")
        out[f"{layer}.self_us_per_req"] = (seconds[layer] * 1e6 / n, "us")
    out["isa.step_calls_per_req"] = (
        fold.calls("repro/isa/interpreter.py", {"step"}) / n, "1/req")
    out["memory.region_lookups_per_req"] = (
        fold.calls("repro/memory/physical.py", {"region_for", "contains"}) / n, "1/req")
    out["layer_pass.overhead"] = (layer_pass.host_s / best_host_s, "ratio")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One workload, end to end, in this process; returns its report."""
    workload = WORKLOADS[name]
    setup = [probe_setup(name, seed, smoke) for _ in range(1 if smoke else SETUP_PROBES)]
    inputs = workload.inputs(seed, smoke)
    workload.run_pass(workload.inputs(seed, smoke, WARMUP_FRACTION))

    # Timed passes until the next one would end past ``seconds``.
    passes: List[PassOutcome] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + passes[-1].host_s <= seconds
    ):
        passes.append(workload.run_pass(inputs))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    timed_host_s = [p.host_s for p in passes]
    best_host_s = min(timed_host_s)
    first = passes[0]
    metrics: Metrics = {
        "sim_req_per_s": (first.units / best_host_s, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    layer_host_s = None
    if trace:
        profiler = cProfile.Profile()
        layer_pass = workload.run_pass(inputs, profiler)
        passes.append(layer_pass)
        layer_host_s = layer_pass.host_s
        metrics.update(layer_metrics(layer_pass, LayerFold(profiler, SRC_ROOT), best_host_s))
    calibration = workload.calibrate(inputs, first)
    metrics.update(count_metrics(first, calibration))

    checks = {"digest_stable": len({p.digest for p in passes}) == 1}
    if calibration.ok is not None:
        checks["calibration"] = calibration.ok
    attempted = sum(p.units for p in passes) + len(checks)
    failed = sum(p.failed for p in passes) + sum(not ok for ok in checks.values())
    return {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "inputs": workload.fingerprint(inputs),
        "digest": first.digest,
        "timed_host_s": timed_host_s,
        "layer_host_s": layer_host_s,
        "setup_probes_s": setup,
        "checks": checks,
        "calibration": calibration.detail,
        "tail_pct": tail_pct(len(first.latencies_ns)),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "err_rate": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def format_report(report: dict) -> str:
    lines = [
        f"== {report['workload']} seed={report['seed']}  "
        f"attempted={report['attempted']} failed={report['failed']} "
        f"err_rate={report['err_rate']:.4g}  {report['calibration']}  "
        f"tail=p{report['tail_pct']:g}  checks={report['checks']}"
    ]
    for name, m in report["metrics"].items():
        lines.append(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    return "\n".join(lines)


def _write_json(path: str, doc) -> None:
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


def _single(args) -> int:
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(format_report(report))
    print(REPORT_PREFIX + json.dumps(report))
    if args.out:
        _write_json(args.out, report)
    wanted = {
        name: m for name, m in report["metrics"].items()
        if (name in END_TO_END) != bool(args.trace)
    }
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": wanted,
    }))
    return 0 if report["correct"] else 1


def summarise(sets: List[Dict[str, dict]]) -> Dict[str, Dict[str, dict]]:
    """Median, quartiles and largest set-to-set spread of every metric."""
    summary: Dict[str, Dict[str, dict]] = {}
    for name in WORKLOADS:
        runs = [s[name] for s in sets if name in s]
        if not runs:
            continue
        summary[name] = {}
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            summary[name][metric] = {
                "unit": first["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": _ratio(max(values) - min(values), abs(median)),
            }
    return summary


def _suite(args) -> int:
    names = list(WORKLOADS)
    sets: List[Dict[str, dict]] = []
    ok = True
    for k in range(args.sets):
        results: Dict[str, dict] = {}
        for name in names if k % 2 == 0 else names[::-1]:
            cmd = [
                sys.executable, str(RUN_PY), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "1",
            ]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
            )
            reports = [
                json.loads(line[len(REPORT_PREFIX):])
                for line in proc.stdout.splitlines()
                if line.startswith(REPORT_PREFIX)
            ]
            if not reports:
                ok = False
                print(f"== {name}: worker exited {proc.returncode}\n{proc.stderr[-4000:]}")
                continue
            report = reports[-1]
            ok = ok and proc.returncode == 0 and report["correct"]
            results[name] = report
            print(f"[set {k + 1}/{args.sets}] " + format_report(report), flush=True)
        sets.append(results)
    summary = summarise(sets)
    if args.sets > 1:
        print(f"\n== summary over {args.sets} sets, seed {args.seed}: median [q1, q3] spread")
        for name, metrics in summary.items():
            print(f"-- {name}")
            for metric, s in metrics.items():
                print(
                    f"  {metric:<36} {s['median']:>12.6g} [{s['q1']:.6g}, {s['q3']:.6g}] "
                    f"{100 * s['spread']:.1f}% {s['unit']}"
                )
    if args.out:
        _write_json(args.out, {
            "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
            "sets": sets, "summary": summary,
        })
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="flickbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run one workload in this process (default: the suite)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float,
                        help=f"minimum host seconds of timed passes "
                             f"(default {RUN_SECONDS}; 0 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: add the cProfile layer pass (default 1)")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one set-up probe")
    parser.add_argument("--sets", type=int, default=1, help="suite repetitions (default 1)")
    parser.add_argument("--out", help="write the JSON report here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0 if args.smoke else RUN_SECONDS
    if args.sets < 1:
        parser.error("--sets must be >= 1")
    if args.workload:
        if args.sets != 1:
            parser.error("--sets applies to the suite, not to one --workload")
        return _single(args)
    return _suite(args)
