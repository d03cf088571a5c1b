"""Command-line interface: compile, run and disassemble FlickC programs.

Usage (also via ``python -m repro``):

    python -m repro run program.fc --args 6 7 --trace
    python -m repro compile program.fc
    python -m repro disasm program.fc
    python -m repro trace program.fc --out program.trace.json
    python -m repro profile program.fc --args 10
    python -m repro metrics program.fc --format openmetrics
    python -m repro bench --quick
    python -m repro bench --quick --check benchmarks/baseline_simspeed.json
    python -m repro chaos
    python -m repro chaos --plan nxp-crash --seed 3
    python -m repro chaos --plan-file myplan.json
    python -m repro serve --qps 1000 5000 20000 --scenario null_call --seed 7
    python -m repro serve --qps 2000 --scenario mixed --arrival bursty --out curve.json
    python -m repro serve --qps 40000 --nxps 2 --policy round_robin
    python -m repro serve --qps 20000 --traced --slo p99:500us --slo-gate
    python -m repro why --p99 --qps 20000 --seed 7
    python -m repro why --p99 --nxps 2 --kill-aim
    python -m repro fleet
    python -m repro fleet --smoke --gate --slo p99:2ms

``run`` executes on a fresh simulated machine and reports the return
value, program output, simulated time and migration count.  ``compile``
prints the linked image's sections and symbols.  ``disasm`` shows both
ISAs' text sections side by side — useful for seeing what the dual
backends emitted.  ``trace`` runs the program and exports the event
timeline as Chrome ``trace_event`` JSON (load it in ``chrome://tracing``
or Perfetto); ``--phases`` overlays each migration session's phases
(docs/OBSERVABILITY.md, "Phase model"), ``--detail`` adds per-TLP PCIe
events.  ``profile`` runs the program and prints the observability
summary: the mean phases of the sessions an NxP served (per pid with
``--by-pid``), the span census, and the statistics the run changed.  ``metrics``
runs the program and emits the derived metrics — latency histograms,
per-device utilization, counters — as OpenMetrics/Prometheus text or a
JSON ``RunReport`` (``--format``, ``--by-pid`` for per-pid series).
``chaos`` runs the chaos matrix (docs/ROBUSTNESS.md): seeded fault plans
crossed with fixed workloads on the hardened migration protocol, plus
the overload-storm and kill-then-revive scenarios, with a verdict per
case (survived/degraded/shed/recovered/crashed/hung/mismatch); exit 1
if any case hangs or returns a wrong value.  ``--plan``/``--plan-file``
select plans, ``--seed`` reseeds them, ``--list`` shows what's built in.
``serve`` replays deterministic seeded serving traffic (open- or
closed-loop; Poisson, bursty or uniform arrivals; scenario request
mixes) against one simulated machine per offered-QPS point and prints
the latency-vs-load table — p50/p95/p99 session latency with queueing
delay included, achieved vs offered throughput, per-device utilization,
and the saturation point (docs/OBSERVABILITY.md's serving-metrics
section); ``--out`` lands the curve as ``flick.serving.v2`` JSON,
``--format openmetrics`` emits scrape-ready series, and ``--tolerance``
turns the achieved/offered ratio into an exit-code gate (the CI smoke);
``--nxps``/``--policy`` serve against a multi-NxP machine (docs/FLEET.md);
``--traced`` threads a per-request trace id through every span the
request touches and prints a tail-attribution line per point;
``--slo``/``--slo-gate`` evaluate latency SLOs (windowed burn rates)
and optionally gate on them.
``why`` serves one traced traffic point and explains its latency tail:
the percentile-band phase breakdown (phases tile each request's latency
exactly), the dominant phase, and exemplar trace ids; ``--kill-aim``
first runs an untouched baseline, then re-runs the identical traffic
killing one device at an instant aimed inside an in-flight leg, so the
report shows watchdog/failover recovery dominating the tail.
``fleet`` runs the multi-NxP study — throughput-vs-device-count scaling
curve, placement-policy ablation, and a kill-one-device chaos drain —
with ``--smoke`` for a CI-sized subset and ``--gate`` as an exit-code
check (the drain's chaos verdict must be allowed; throughput must rise
with device count).
``serve``, ``why`` and ``fleet`` share one output path
(``--format``/``--out``); they and ``chaos`` share one exit-code gate
and one usage-error path: invalid flags or scenarios print
``error: ...`` and exit 2.
``bench`` measures simulator throughput with the fast paths on vs off
(docs/PERFORMANCE.md); ``--quick`` shrinks the workloads to a
sub-30-second smoke, ``--hosted`` adds the hosted-mode op-batching
measurement (batched vs unbatched pointer chase, asserting bit-identical
parity via the exit code), ``--save`` writes the report as a baseline
JSON, and ``--check BASELINE`` gates the run against a saved baseline
(exit 1 on regression — the CI perf job).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.machine import FlickMachine
from repro.isa.disasm import disassemble
from repro.toolchain.felf import FelfError
from repro.toolchain.flickc import compile_source
from repro.toolchain.linker import link
from repro.core.stubs import STUB_SYMBOLS

__all__ = ["main", "build_parser"]


def _traffic_args(parser: argparse.ArgumentParser, seed: int) -> None:
    """The traffic flags ``serve`` and ``why`` share."""
    parser.add_argument(
        "--scenario",
        default="null_call",
        help="request mix (null_call, pointer_chase, kv_filter, bfs, mixed)",
    )
    parser.add_argument(
        "--arrival",
        choices=("poisson", "bursty", "uniform"),
        default="poisson",
        help="arrival process (default: poisson)",
    )
    parser.add_argument(
        "--seed", type=int, default=seed, help=f"traffic seed (default: {seed})"
    )
    parser.add_argument(
        "--requests", type=int, default=200, help="requests per point (default: 200)"
    )
    parser.add_argument(
        "--clients", type=int, default=8, help="connection-pool size (default: 8)"
    )
    parser.add_argument("--nxps", type=int, default=1, help="NxP devices (default: 1)")
    parser.add_argument(
        "--policy",
        choices=("static", "round_robin", "least_loaded", "locality"),
        default="static",
        help="session placement policy for --nxps > 1 (default: static)",
    )


def _output_args(parser: argparse.ArgumentParser, formats, report: str = "") -> None:
    """``--format`` (and, given a report schema, ``--out``); see :func:`_report`."""
    parser.add_argument(
        "--format", choices=formats, default="table", help="stdout format (default: table)"
    )
    if report:
        parser.add_argument(
            "--out", default=None, help=f"also write the {report} JSON report here"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Flick reproduction: run FlickC programs on the simulated "
        "heterogeneous-ISA machine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="compile and run a FlickC program")
    run_p.add_argument("file", help="FlickC source file")
    run_p.add_argument("--args", nargs="*", type=int, default=[], help="main() arguments")
    run_p.add_argument("--entry", default="main", help="entry function (default: main)")
    run_p.add_argument("--trace", action="store_true", help="print the migration trace")
    run_p.add_argument("--optimize", action="store_true", help="enable constant folding")
    run_p.add_argument("--stats", action="store_true", help="dump machine statistics")

    compile_p = sub.add_parser("compile", help="compile and link; show the image")
    compile_p.add_argument("file")
    compile_p.add_argument("--entry", default="main")
    compile_p.add_argument("--optimize", action="store_true")

    disasm_p = sub.add_parser("disasm", help="disassemble both text sections")
    disasm_p.add_argument("file")
    disasm_p.add_argument("--entry", default="main")
    disasm_p.add_argument("--optimize", action="store_true")

    trace_p = sub.add_parser(
        "trace", help="run and export a Chrome trace_event JSON timeline"
    )
    trace_p.add_argument("file")
    trace_p.add_argument("--args", nargs="*", type=int, default=[])
    trace_p.add_argument("--entry", default="main")
    trace_p.add_argument("--optimize", action="store_true")
    trace_p.add_argument(
        "--out", default=None, help="output path (default: <file>.trace.json)"
    )
    trace_p.add_argument(
        "--phases",
        action="store_true",
        help="overlay the measured per-migration phase decomposition",
    )
    trace_p.add_argument(
        "--detail", action="store_true", help="record per-TLP PCIe events too"
    )
    trace_p.add_argument(
        "--limit", type=int, default=None, help="event ring size (default 100000)"
    )

    profile_p = sub.add_parser(
        "profile", help="run and print the observability summary"
    )
    profile_p.add_argument("file")
    profile_p.add_argument("--args", nargs="*", type=int, default=[])
    profile_p.add_argument("--entry", default="main")
    profile_p.add_argument("--optimize", action="store_true")
    profile_p.add_argument(
        "--by-pid", action="store_true", help="one breakdown table per migrating task"
    )

    metrics_p = sub.add_parser(
        "metrics", help="run and emit derived metrics (OpenMetrics or JSON)"
    )
    metrics_p.add_argument("file")
    metrics_p.add_argument("--args", nargs="*", type=int, default=[])
    metrics_p.add_argument("--entry", default="main")
    metrics_p.add_argument("--optimize", action="store_true")
    metrics_p.add_argument(
        "--format",
        choices=("openmetrics", "json"),
        default="openmetrics",
        help="output format (default: openmetrics)",
    )
    metrics_p.add_argument(
        "--by-pid",
        action="store_true",
        help="include per-pid latency histogram series",
    )
    metrics_p.add_argument(
        "--out", default=None, help="write to a file instead of stdout"
    )

    bench_p = sub.add_parser(
        "bench", help="measure simulator throughput, fast paths on vs off"
    )
    bench_p.add_argument(
        "--quick",
        action="store_true",
        help="smaller workloads, one repeat (a quick smoke, not a stable number)",
    )
    bench_p.add_argument(
        "--hosted",
        action="store_true",
        help="also measure hosted-mode op batching (on vs off, exact parity)",
    )
    bench_p.add_argument(
        "--save",
        metavar="PATH",
        default=None,
        help="write this run's report as a baseline JSON",
    )
    bench_p.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help="gate this run against a saved baseline (exit 1 on regression)",
    )

    chaos_p = sub.add_parser(
        "chaos", help="run workloads under seeded fault plans; verdict table"
    )
    chaos_p.add_argument(
        "--plan",
        action="append",
        default=None,
        metavar="NAME",
        help="builtin plan to run (repeatable; default: the whole matrix)",
    )
    chaos_p.add_argument(
        "--plan-file",
        action="append",
        default=None,
        metavar="PATH",
        help="fault plan JSON (flick.fault_plan.v1) to run (repeatable)",
    )
    chaos_p.add_argument(
        "--seed", type=int, default=0, help="plan seed (default: 0)"
    )
    chaos_p.add_argument(
        "--bound-us",
        type=float,
        default=None,
        help="sim-time bound per case in microseconds (default: 50000)",
    )
    chaos_p.add_argument(
        "--workloads",
        nargs="*",
        default=None,
        help="workload subset (default: all)",
    )
    chaos_p.add_argument(
        "--list", action="store_true", help="list builtin plans and workloads, then exit"
    )

    serve_p = sub.add_parser(
        "serve", help="replay seeded serving traffic; latency-vs-load table"
    )
    serve_p.add_argument(
        "--qps",
        nargs="+",
        type=float,
        default=[1000.0],
        metavar="QPS",
        help="offered load point(s) in requests/sec of simulated time "
        "(repeat values for a sweep; default: 1000)",
    )
    _traffic_args(serve_p, seed=0)
    serve_p.add_argument(
        "--mode",
        choices=("open", "closed"),
        default="open",
        help="open loop (arrivals independent of completions, queueing "
        "delay counted) or closed loop (default: open)",
    )
    serve_p.add_argument(
        "--think-us",
        type=float,
        default=0.0,
        help="closed-loop think time between requests, microseconds",
    )
    serve_p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="sweep worker processes (default: one per point, capped at cores)",
    )
    _output_args(serve_p, ("table", "json", "openmetrics"), report="flick.serving.v2")
    serve_p.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="FRAC",
        help="gate: exit 1 unless every point achieves at least FRAC of its "
        "offered QPS and reports a finite p99 (the CI smoke check)",
    )
    serve_p.add_argument(
        "--traced",
        action="store_true",
        help="request-scoped causal tracing: per-request trace ids and "
        "exactly-tiling critical paths; adds a tail-attribution line "
        "per point (docs/OBSERVABILITY.md)",
    )
    serve_p.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="SPEC",
        help="latency SLO to evaluate per point, e.g. p99:500us "
        "(repeatable; windowed burn rates printed per point; evaluated "
        "over completed requests, shed requests reported separately)",
    )
    serve_p.add_argument(
        "--slo-gate",
        action="store_true",
        help="exit 1 if any --slo promise is violated at any point",
    )
    serve_p.add_argument(
        "--deadline-us",
        type=float,
        default=0.0,
        help="per-request deadline in microseconds; requests whose "
        "deadline expires before dispatch are shed with a typed "
        "rejection instead of served late (docs/ROBUSTNESS.md)",
    )
    serve_p.add_argument(
        "--admission-limit",
        type=int,
        default=0,
        help="admission-control queue depth per in-service device; "
        "arrivals beyond it are shed at the front door (0 = unbounded)",
    )
    serve_p.add_argument(
        "--brownout",
        action="store_true",
        help="brownout mode: route over-limit / deadline-risk calls to "
        "host fallback instead of shedding (needs --admission-limit "
        "or --deadline-us)",
    )

    why_p = sub.add_parser(
        "why",
        help="serve traced traffic and explain the latency tail: "
        "percentile-band phase breakdown, dominant phase, exemplar "
        "trace ids (docs/OBSERVABILITY.md)",
    )
    why_p.add_argument(
        "--qps", type=float, default=20_000.0, help="offered load (default: 20000)"
    )
    _traffic_args(why_p, seed=7)
    why_p.add_argument(
        "--p99",
        dest="percentile",
        action="store_const",
        const=99.0,
        default=99.0,
        help="attribute the p99 tail (the default)",
    )
    why_p.add_argument(
        "--percentile",
        dest="percentile",
        type=float,
        help="attribute this percentile's tail instead of p99",
    )
    why_p.add_argument(
        "--kill-aim",
        action="store_true",
        help="chaos: run an untouched baseline, then kill one device at "
        "an instant aimed inside an in-flight leg and attribute the "
        "killed run (needs --nxps >= 2)",
    )
    why_p.add_argument(
        "--kill-device",
        type=int,
        default=0,
        help="device --kill-aim kills (default: 0)",
    )
    _output_args(why_p, ("table", "json"))

    fleet_p = sub.add_parser(
        "fleet",
        help="multi-NxP fleet study: scaling curve, placement ablation, "
        "chaos drain (docs/FLEET.md)",
    )
    fleet_p.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized study (two device counts, two load points)",
    )
    fleet_p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="sweep worker processes (default: capped at cores)",
    )
    _output_args(fleet_p, ("table", "json"), report="flick.fleet.v3")
    fleet_p.add_argument(
        "--gate",
        action="store_true",
        help="exit 1 unless the chaos drill's verdict is allowed, every "
        "ablation policy serves correctly and peak throughput rises with "
        "device count (the CI fleet smoke)",
    )
    fleet_p.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="SPEC",
        help="latency SLO evaluated against the chaos runs, e.g. p99:2ms "
        "(repeatable; with --gate a violated SLO fails the gate)",
    )
    fleet_p.add_argument(
        "--revive-at-ns",
        type=float,
        default=None,
        metavar="NS",
        help="kill-then-revive drain: revive the killed device at this "
        "sim instant (must land after the kill); the device re-enters "
        "service through half-open breaker probes and with --gate must "
        "reach the 'recovered' verdict (docs/ROBUSTNESS.md)",
    )

    return parser


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _link(source: str, entry: str, optimize: bool):
    obj = compile_source(source, optimize=optimize)
    return link([obj], entry_symbol=entry, extra_symbols=dict(STUB_SYMBOLS))


def _cmd_run(args, out) -> int:
    machine = FlickMachine()
    obj = compile_source(_read(args.file), optimize=args.optimize)
    exe = link([obj], entry_symbol=args.entry, extra_symbols=machine.runtime_symbols)
    outcome = machine.run_program(exe, entry=args.entry, args=args.args)
    if outcome.output:
        for value in outcome.output:
            print(value, file=out)
    print(f"return value: {outcome.retval}", file=out)
    print(f"simulated time: {outcome.sim_time_us:.3f} us", file=out)
    print(f"migrations: {outcome.migrations}", file=out)
    if args.trace:
        print(machine.trace.render(), file=out)
    if args.stats:
        for key, value in sorted(outcome.stats.items()):
            print(f"  {key} = {value}", file=out)
    return 0


def _cmd_compile(args, out) -> int:
    exe = _link(_read(args.file), args.entry, args.optimize)
    print("segments:", file=out)
    for seg in exe.segments:
        isa = seg.isa or "-"
        print(
            f"  {seg.section_name:12s} vaddr={seg.vaddr:#10x} size={seg.size:6d} "
            f"isa={isa:5s} placement={seg.placement}",
            file=out,
        )
    print("symbols:", file=out)
    for name, addr in sorted(exe.symbols.items(), key=lambda kv: kv[1]):
        isa = exe.isa_of_symbol.get(name) or "data/ext"
        print(f"  {addr:#10x}  {name}  [{isa}]", file=out)
    return 0


def _cmd_disasm(args, out) -> int:
    exe = _link(_read(args.file), args.entry, args.optimize)
    for section_name, isa in ((".text.hisa", "hisa"), (".text.nisa", "nisa")):
        try:
            seg = exe.segment_named(section_name)
        except FelfError:
            continue  # program has no functions on this ISA
        print(f"{section_name} ({isa}):", file=out)
        print(disassemble(seg.data, isa, base=seg.vaddr), file=out)
        print(file=out)
    return 0


def _run_machine(args):
    """Shared compile+load+run for the observability commands."""
    machine = FlickMachine()
    if getattr(args, "limit", None):
        machine.trace.limit = args.limit
    if getattr(args, "detail", False):
        machine.trace.detail = True
    obj = compile_source(_read(args.file), optimize=args.optimize)
    exe = link([obj], entry_symbol=args.entry, extra_symbols=machine.runtime_symbols)
    outcome = machine.run_program(exe, entry=args.entry, args=args.args)
    return machine, outcome


def _cmd_trace(args, out) -> int:
    from repro.analysis.breakdown import chrome_phase_events

    machine, outcome = _run_machine(args)
    extra = chrome_phase_events(machine.trace, allow_truncated=True) if args.phases else None
    dst = args.out or f"{args.file}.trace.json"
    machine.trace.export_chrome(dst, extra_events=extra)
    print(
        f"{len(machine.trace.events)} events, {outcome.migrations} migrations, "
        f"{outcome.sim_time_us:.3f} us simulated -> {dst}",
        file=out,
    )
    if machine.trace.truncated:
        print(
            f"WARNING: ring dropped {machine.trace.dropped} events "
            f"({machine.trace.spans_dropped} spans); raise --limit for a full trace",
            file=out,
        )
        return 1
    return 0


def _cmd_profile(args, out) -> int:
    from repro.analysis.breakdown import (
        measure_breakdown,
        measure_breakdown_by_pid,
        render_breakdown,
    )

    machine, outcome = _run_machine(args)
    trace = machine.trace
    print(f"return value: {outcome.retval}", file=out)
    print(f"simulated time: {outcome.sim_time_us:.3f} us", file=out)
    print(file=out)
    if args.by_pid:
        for pid, breakdown in measure_breakdown_by_pid(trace).items():
            print(f"pid {pid}:", file=out)
            print(render_breakdown(breakdown, machine.cfg.host_page_fault_ns), file=out)
            print(file=out)
    else:
        breakdown = measure_breakdown(trace)
        print(render_breakdown(breakdown, machine.cfg.host_page_fault_ns), file=out)
        print(file=out)
    spans = trace.finished_spans()
    open_spans = trace.open_spans()
    if spans or open_spans:
        print("spans:", file=out)
        census = {}
        for span in spans:
            census.setdefault(span.name, []).append(span.duration)
        for name, durations in sorted(census.items()):
            total_us = sum(durations) / 1000.0
            print(
                f"  {name:14s} n={len(durations):4d} total={total_us:10.3f}us "
                f"mean={total_us / len(durations):8.3f}us",
                file=out,
            )
        if open_spans:
            unfinished = {}
            for span in open_spans:
                unfinished[span.name] = unfinished.get(span.name, 0) + 1
            for name, count in sorted(unfinished.items()):
                print(f"  {name:14s} n={count:4d} UNFINISHED", file=out)
        print(file=out)
    print("observed (parity-exempt):", file=out)
    for key, value in sorted(machine.stats.observed_totals().items()):
        print(f"  {key} = {value}", file=out)
    print(file=out)
    print("stats:", file=out)
    for key, value in sorted(outcome.stats.items()):
        print(f"  {key} = {value}", file=out)
    return 0


def _cmd_metrics(args, out) -> int:
    from repro.analysis.metrics import (
        build_run_report,
        render_json,
        render_openmetrics,
    )

    machine, _outcome = _run_machine(args)
    report = build_run_report(machine, allow_truncated=True)
    if not args.by_pid:
        report.by_pid = {}
    text = render_json(report) if args.format == "json" else render_openmetrics(report)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {args.format} report -> {args.out}", file=out)
    else:
        out.write(text)
    return 0


def _cmd_bench(args, out) -> int:
    from dataclasses import asdict

    from repro.analysis.simspeed import (
        measure_all,
        measure_hosted_batching,
        render,
        render_hosted,
    )

    if args.quick:
        results = measure_all(repeats=1, scale=0.15)
    else:
        results = measure_all(repeats=3)
    print(render(results), file=out)
    ok = all(r.parity for r in results)
    hosted = None
    if args.hosted:
        if args.quick:
            hosted = measure_hosted_batching(accesses=30_000, repeats=1)
        else:
            hosted = measure_hosted_batching()
        print(render_hosted(hosted), file=out)
        ok = ok and hosted.parity

    if args.save or args.check:
        doc = {
            "benchmark": "simspeed",
            "workloads": [asdict(r) for r in results],
        }
        if hosted is not None:
            doc["hosted_batching"] = asdict(hosted)
        if args.save:
            with open(args.save, "w") as handle:
                json.dump(doc, handle, indent=2)
            print(f"baseline saved -> {args.save}", file=out)
        if args.check:
            from repro.analysis.regression import compare_files, render_regression

            gate = compare_files(args.check, current_doc=doc)
            print(render_regression(gate), file=out)
            ok = ok and gate.ok
    return 0 if ok else 1


def _report(args, out, doc, render, runs=(), notes=()) -> None:
    """Print an analysis command's result in its ``--format`` and write
    its ``--out``.

    ``doc`` builds the JSON document, only when ``--format json`` or
    ``--out`` asks for it; ``render`` maps every other format to a
    function returning its text.  ``notes`` print first and ``runs``
    (ServingResults) are checked for trace-ring truncation.  In json
    mode the document must be alone on stdout (machine parseable), so
    notes and warnings go to stderr.
    """
    fmt, path = args.format, getattr(args, "out", None)  # ``why`` has no --out
    note_out = sys.stderr if fmt == "json" else out
    for note in notes:
        print(note, file=note_out)
    if fmt == "json" or path:
        document = doc()
        encoded = json.dumps(document, indent=2) + "\n"
    text = encoded if fmt == "json" else render[fmt]()
    out.write(text if text.endswith("\n") else text + "\n")
    for r in runs:
        # A bounded trace ring silently windows every span-derived
        # number; say so out loud.
        dropped = r.observed["trace.dropped"]
        spans_dropped = r.observed["trace.spans_dropped"]
        if dropped or spans_dropped:
            print(
                f"WARNING: @ {r.offered_qps:g} qps the trace ring dropped "
                f"{dropped} events / {spans_dropped} spans; "
                "utilization and critical paths cover a window of the run",
                file=note_out,
            )
    if path:
        with open(path, "w") as handle:
            handle.write(encoded)
        # "serving report -> ...", "fleet report -> ..."
        print(f"{document['benchmark']} report -> {path}", file=note_out)


def _gate(label: str, failures: List[str], out, ok_note: Optional[str] = None) -> int:
    """End an analysis command: exit 1 with a ``FAILED`` block when its
    gate found failures, else exit 0 — printing ``<label> gate ok``
    plus ``ok_note`` when a gate was asked for (``ok_note`` not None)."""
    if failures:
        print(f"{label} gate FAILED:", file=out)
        for line in failures:
            print(f"  {line}", file=out)
        return 1
    if ok_note is not None:
        print(f"{label} gate ok{ok_note}", file=out)
    return 0


def _cmd_chaos(args, out) -> int:
    from repro.analysis.chaos import (
        DEFAULT_BOUND_NS,
        WORKLOADS,
        named_scenarios,
        render_verdicts,
        run_chaos_matrix,
        run_scenario,
    )
    from repro.sim.faults import FaultPlan, builtin_plans

    builtin = builtin_plans(args.seed)
    if args.list:
        print("builtin plans:", file=out)
        for name, plan in builtin.items():
            print(f"  {name} ({len(plan.rules)} rule(s))", file=out)
        print(f"workloads: {', '.join(sorted(WORKLOADS))}", file=out)
        return 0
    plans = None
    if args.plan or args.plan_file:
        plans = []
        for name in args.plan or []:
            if name not in builtin:
                raise ValueError(f"unknown plan {name!r} (try --list)")
            plans.append(builtin[name])
        for path in args.plan_file or []:
            plans.append(FaultPlan.from_json(_read(path)).with_seed(args.seed))
    bound_ns = args.bound_us * 1000.0 if args.bound_us is not None else DEFAULT_BOUND_NS
    results = run_chaos_matrix(
        plans=plans, workloads=args.workloads, seed=args.seed, bound_ns=bound_ns
    )
    if plans is None and args.workloads is None:
        # Full-matrix runs also exercise the robustness scenarios:
        # admission + retry-budget under an overload storm, and the
        # breaker's kill-then-revive path (docs/ROBUSTNESS.md).
        named = named_scenarios(args.seed)
        for name in ("overload-storm", "kill-revive"):
            results.append(run_scenario(named[name], bound_ns=bound_ns))
    print(render_verdicts(results), file=out)
    return _gate(
        "chaos",
        [f"{r.plan} / {r.workload}: {r.verdict} ({r.detail})" for r in results if not r.ok],
        out,
    )


def _cmd_serve(args, out) -> int:
    import math

    from repro.analysis.serving import (
        TrafficConfig,
        render_serving_openmetrics,
        render_serving_table,
        serving_report_doc,
        sweep_latency_vs_load,
    )
    from repro.analysis.slo import evaluate_slo, parse_slo, render_slo

    base = TrafficConfig(
        scenario=args.scenario,
        arrival=args.arrival,
        mode=args.mode,
        seed=args.seed,
        requests=args.requests,
        clients=args.clients,
        think_ns=args.think_us * 1000.0,
        nxps=args.nxps,
        policy=args.policy,
        traced=args.traced,
        deadline_ns=args.deadline_us * 1000.0,
        admission_limit=args.admission_limit,
        brownout=args.brownout,
    )
    base.validate()
    if args.brownout and not (args.admission_limit or args.deadline_us):
        raise ValueError(
            "--brownout needs --admission-limit or --deadline-us "
            "(nothing to brown out otherwise)"
        )
    slos = [parse_slo(spec) for spec in args.slo or []]
    results = sweep_latency_vs_load(args.qps, base, workers=args.workers)

    def table() -> str:
        lines = [render_serving_table(results)]
        if args.traced:
            from repro.analysis.critical_path import why_report

            for r in results:
                rep = why_report(r.paths)
                exemplars = ", ".join(rep.tail.exemplars)
                lines.append(
                    f"p99 attribution @ {r.offered_qps:g} qps: "
                    f"{rep.tail.dominant} ({exemplars})"
                )
        return "\n".join(lines)

    _report(
        args,
        out,
        lambda: serving_report_doc(results),
        {"table": table, "openmetrics": lambda: render_serving_openmetrics(results)},
        runs=results,
    )

    failures = []
    for slo in slos:
        for r in results:
            # Percentiles over completed requests only: a shed request
            # has no latency, and counting it would let heavy shedding
            # masquerade as a latency win.  The shed count rides along.
            rep = evaluate_slo(r.completed_records, slo, shed=r.shed)
            print(f"@ {r.offered_qps:g} qps: {render_slo(rep).splitlines()[0]}", file=out)
            if args.slo_gate and not rep.ok:
                failures.append(f"{r.offered_qps:g} qps: violates {slo.spec}")
    if args.tolerance is not None:
        for r in results:
            # achieved_qps already counts completed requests only, so a
            # point that sheds its way out of overload fails the ratio
            # check unless the tolerance allows for the shed fraction.
            ratio = r.achieved_qps / r.offered_qps if r.offered_qps > 0 else 0.0
            if ratio < args.tolerance:
                note = f" ({r.shed} shed)" if r.shed else ""
                failures.append(
                    f"{r.offered_qps:g} qps: achieved/offered {ratio:.3f}{note}"
                )
            if not math.isfinite(r.p99_ns):
                failures.append(f"{r.offered_qps:g} qps: no p99 (empty latency sample)")
            if r.errors:
                failures.append(f"{r.offered_qps:g} qps: {r.errors} wrong return value(s)")
        ok_note = f" (tolerance {args.tolerance})"
    else:
        ok_note = "" if args.slo_gate else None
    return _gate("serve", failures, out, ok_note)


def _cmd_why(args, out) -> int:
    from repro.analysis.critical_path import render_why, why_doc, why_report
    from repro.analysis.serving import TrafficConfig, run_serving

    base = TrafficConfig(
        scenario=args.scenario,
        arrival=args.arrival,
        mode="open",
        seed=args.seed,
        qps=args.qps,
        requests=args.requests,
        clients=args.clients,
        nxps=args.nxps,
        policy=args.policy,
        traced=True,
    )
    base.validate()
    notes, failures = [], []
    if args.kill_aim:
        from repro.analysis.fleet import kill_drill

        if args.nxps < 2:
            raise ValueError("--kill-aim needs --nxps >= 2 (survivors)")
        drill = kill_drill(base, device=args.kill_device)
        result = drill.killed
        notes.append(
            f"killed device {args.kill_device} at "
            f"{result.config.kill_at_ns / 1000.0:.1f} us "
            "(aimed at an in-flight leg observed in the baseline)"
        )
        if not drill.result.ok:
            failures.append(
                f"kill drill verdict {drill.result.verdict!r}: {drill.result.detail}"
            )
    else:
        result = run_serving(base)
    report = why_report(result.paths, percentile=args.percentile)
    _report(
        args, out, lambda: why_doc(report), {"table": lambda: render_why(report)},
        runs=[result], notes=notes,
    )
    return _gate("why", failures, out)


def _cmd_fleet(args, out) -> int:
    from dataclasses import replace

    from repro.analysis.fleet import (
        FleetConfig,
        fleet_report_doc,
        render_ablation_table,
        render_chaos_summary,
        render_scaling_table,
        run_fleet,
    )
    from repro.analysis.slo import evaluate_slo, parse_slo, render_slo

    slos = [parse_slo(spec) for spec in args.slo or []]
    fc = FleetConfig.smoke() if args.smoke else FleetConfig()
    if args.revive_at_ns is not None:
        fc = replace(fc, chaos_revive_at_ns=args.revive_at_ns)
    report = run_fleet(fc, workers=args.workers)
    chaos = report.chaos

    def table() -> str:
        return "\n".join(
            [
                "== scaling: throughput vs NxP count ==",
                render_scaling_table(report.scaling),
                "",
                "== placement ablation ==",
                render_ablation_table(report.ablation),
                "",
                "== chaos drain ==",
                render_chaos_summary(chaos),
            ]
        )

    _report(
        args, out, lambda: fleet_report_doc(report), {"table": table},
        runs=[chaos.baseline, chaos.killed],
    )

    failures = []
    for slo in slos:
        for label, run in (("baseline", chaos.baseline), ("killed", chaos.killed)):
            rep = evaluate_slo(run.completed_records, slo, shed=run.shed)
            print(f"chaos {label}: {render_slo(rep).splitlines()[0]}", file=out)
            if not rep.ok:
                failures.append(f"chaos {label} violates {slo.spec}")
    if not args.gate:
        return 0
    if not chaos.result.ok:
        failures.append(
            f"kill drill verdict {chaos.result.verdict!r}: {chaos.result.detail}"
        )
    peaks = [pt.peak_achieved_qps for pt in report.scaling]
    if any(b <= a for a, b in zip(peaks, peaks[1:])):
        failures.append(
            "peak achieved QPS does not rise with device count: "
            + ", ".join(f"{p:.0f}" for p in peaks)
        )
    for row in report.ablation:
        if row.result.errors:
            failures.append(
                f"ablation policy {row.policy!r}: "
                f"{row.result.errors} wrong return value(s)"
            )
    return _gate("fleet", failures, out, ok_note="")


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    programs = {
        "run": _cmd_run,
        "compile": _cmd_compile,
        "disasm": _cmd_disasm,
        "trace": _cmd_trace,
        "profile": _cmd_profile,
        "metrics": _cmd_metrics,
        "bench": _cmd_bench,
    }
    if args.command in programs:
        return programs[args.command](args, out)
    analyses = {"chaos": _cmd_chaos, "serve": _cmd_serve, "why": _cmd_why, "fleet": _cmd_fleet}
    try:
        return analyses[args.command](args, out)
    except ValueError as exc:
        # An analysis command's flag, traffic, scenario or drill failed
        # validation: a usage error, not a crash.
        print(f"error: {exc}", file=out)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
