"""The four flickbench workloads: generated inputs, one pass, set-up.

Each workload turns ``--seed`` into the program's inputs (a
:class:`~repro.analysis.serving.TrafficConfig`, or a pointer-chase sweep
spec), runs one pass of the program on them, and summarises the pass
from outside: the host seconds of the program call alone, a digest of
everything simulated, and the program's own deterministic counters.  No
machine outlives its pass, so passes do not add up in memory.
"""

from __future__ import annotations

import gc
import hashlib
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.figures import plateau_value
from repro.analysis.metrics import device_utilization
from repro.analysis.serving import TrafficConfig, draw_kinds, generate_arrivals, run_serving
from repro.core.hosted import HostedMachine
from repro.core.machine import FlickMachine
from repro.workloads.null_call import measure_h2n_roundtrip
from repro.workloads.pointer_chase import run_pointer_chase
from repro.workloads.serving_profiles import PROFILES, scenario_mix

PAPER_H2N_US = 18.3  # Table III host->NxP->host round trip
PAPER_PLATEAU = 2.6  # Fig. 5a normalized-performance plateau
DEVICES = ("host_core", "nxp", "dma")


@dataclass
class PassOutcome:
    """What one pass leaves behind once its machines are gone."""

    host_s: float
    units: int  # requests offered, or traversal calls made
    failed: int  # wrong return value, or shed
    digest: str
    latencies_ns: List[float]
    counters: Counter  # summed stats snapshots plus sidecar counters
    placement_imbalance: float  # max / mean sessions per device; 0 without placement
    util: Dict[str, float]
    queue_wait_ns: float
    plateau: float = 0.0  # Fig. 5a sweeps only


@dataclass(frozen=True)
class Calibration:
    """Simulated result against the paper's number."""

    err_pct: float
    ok: Optional[bool]  # None: reported, not gated
    detail: str


@contextmanager
def captured_machines():
    """Every :class:`FlickMachine` built inside the block, in build order."""
    built: List[FlickMachine] = []
    original = FlickMachine.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    FlickMachine.__init__ = init
    try:
        yield built
    finally:
        FlickMachine.__init__ = original


class _Stop(Exception):
    """Raised by :func:`stopped_at` to leave the program at a known point."""


@contextmanager
def stopped_at(cls, name: str):
    """Make ``cls.name`` raise :class:`_Stop` carrying its arguments."""
    original = getattr(cls, name)

    def stop(self, *args, **kwargs):
        raise _Stop(*args)

    setattr(cls, name, stop)
    try:
        yield
    finally:
        setattr(cls, name, original)


def timed(fn: Callable, profiler=None):
    """``fn()`` and its host seconds; the profiler, if any, covers the
    same region, so timed and profiled passes time the same code."""
    gc.collect()
    if profiler is not None:
        profiler.enable()
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        elapsed = time.perf_counter() - start
        if profiler is not None:
            profiler.disable()
    return result, elapsed


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _summarise(machines) -> Tuple[Counter, float, str]:
    """Counters, placement imbalance and state digest of finished machines."""
    counters: Counter = Counter()
    imbalance = 0.0
    state = []
    for machine in machines:
        snapshot = machine.stats.snapshot()
        state.append((sorted(snapshot.items()), machine.sim.events_processed))
        counters.update(snapshot)
        counters.update(machine.jit_stats())
        counters["sim.events"] += machine.sim.events_processed
        counters["trace.events"] += len(machine.trace.events) + machine.trace.dropped
        counters["trace.dropped"] += machine.trace.dropped
        if machine.placement is not None:
            sessions = list(machine.placement.session_counts().values())
            if sessions and sum(sessions):
                imbalance = max(imbalance, max(sessions) * len(sessions) / sum(sessions))
    return counters, imbalance, _sha(state)


def tail_pct(samples: int) -> float:
    """The highest percentile (to 0.1) with at least ten samples beyond
    it; the median when there are too few samples for a tail."""
    return max(50.0, math.floor(1000 * (1 - 10 / samples)) / 10)


@dataclass(frozen=True)
class Serving:
    """An open-loop Poisson serving run of :func:`run_serving`."""

    name: str
    scenario: str
    qps: float
    requests: int
    smoke_requests: int
    nxps: int = 1
    policy: str = "static"
    #: kill device 0 abruptly at 35% of the arrival horizon, revive at 65%
    chaos: bool = False
    #: gate the machine's h2n round trip at 5% of the paper's 18.3 us
    calib_gate: bool = False

    def inputs(self, seed: int, smoke: bool, fraction: float = 1.0) -> TrafficConfig:
        requests = self.smoke_requests if smoke else self.requests
        tc = TrafficConfig(
            scenario=self.scenario,
            arrival="poisson",
            qps=self.qps,
            requests=max(8, round(requests * fraction)),
            clients=8,
            seed=seed,
            nxps=self.nxps,
            policy=self.policy,
        )
        if self.chaos:
            horizon = generate_arrivals(tc)[-1]
            tc = replace(tc, kill_at_ns=0.35 * horizon, revive_at_ns=0.65 * horizon)
        return tc

    def fingerprint(self, tc: TrafficConfig) -> str:
        return _sha((tc, generate_arrivals(tc), draw_kinds(tc)))

    def run_pass(self, tc: TrafficConfig, profiler=None) -> PassOutcome:
        with captured_machines() as machines:
            result, host_s = timed(lambda: run_serving(tc), profiler)
        counters, imbalance, state = _summarise(machines)
        records = [
            (r.index, r.kind, r.client, r.arrival_ns, r.start_ns, r.end_ns, r.ok, r.shed)
            for r in result.records
        ]
        return PassOutcome(
            host_s=host_s,
            units=len(result.records),
            failed=result.errors + result.shed,
            digest=_sha((records, state)),
            latencies_ns=result.latencies_ns,
            counters=counters,
            placement_imbalance=imbalance,
            util={d: result.utilization[d].fraction for d in DEVICES},
            queue_wait_ns=result.mean_wait_ns,
        )

    @staticmethod
    def _config(tc: TrafficConfig):
        """The FlickConfig run_serving builds its machine from."""
        try:
            with stopped_at(FlickMachine, "__init__"):
                run_serving(tc)
        except _Stop as stop:
            return stop.args[0]
        raise RuntimeError("run_serving built no FlickMachine")

    def calibrate(self, tc: TrafficConfig, outcome: PassOutcome) -> Calibration:
        """The workload machine's h2n round trip against Table III."""
        rtt_us = measure_h2n_roundtrip(cfg=self._config(tc), calls=200).roundtrip_us
        err = abs(rtt_us - PAPER_H2N_US) / PAPER_H2N_US
        return Calibration(
            err_pct=100 * err,
            ok=err <= 0.05 if self.calib_gate else None,
            detail=f"h2n round trip {rtt_us:.3f} us (paper {PAPER_H2N_US})",
        )

    def set_up(self, tc: TrafficConfig) -> None:
        """Build the machine run_serving would build and compile and load
        every program its connection pool uses, then stop."""
        machine = FlickMachine(self._config(tc))
        for kind, _weight in scenario_mix(tc.scenario):
            exe = machine.compile(PROFILES[kind].source)
            for client in range(min(tc.clients, tc.requests)):
                machine.load(exe, name=f"c{client}.{kind}")


@dataclass(frozen=True)
class SweepSpec:
    points: Tuple[int, ...]
    calls: int
    seed: int


@dataclass(frozen=True)
class PointerChaseSweep:
    """Fig. 5a in hosted mode: flick and host-direct at every point."""

    name: str
    points: Tuple[int, ...]
    calls: int
    smoke_points: Tuple[int, ...]
    smoke_calls: int

    def inputs(self, seed: int, smoke: bool, fraction: float = 1.0) -> SweepSpec:
        calls = self.smoke_calls if smoke else self.calls
        return SweepSpec(
            points=self.smoke_points if smoke else self.points,
            calls=max(1, round(calls * fraction)),
            seed=seed,
        )

    def fingerprint(self, spec: SweepSpec) -> str:
        return _sha(spec)

    def _sweep(self, spec: SweepSpec) -> List[Tuple[int, float, float]]:
        # The loop sweep_pointer_chase(..., workers=1) runs, with the
        # chain seed passed through.
        rows = []
        for n in spec.points:
            flick = run_pointer_chase(n, calls=spec.calls, mode="flick", seed=spec.seed)
            host = run_pointer_chase(n, calls=spec.calls, mode="host", seed=spec.seed)
            rows.append((n, flick.avg_call_ns, host.avg_call_ns))
        return rows

    def run_pass(self, spec: SweepSpec, profiler=None) -> PassOutcome:
        with captured_machines() as machines:
            rows, host_s = timed(lambda: self._sweep(spec), profiler)
        counters, _imbalance, state = _summarise(machines)
        busy = Counter()
        for machine in machines:
            for device, summary in device_utilization(machine.trace, machine.sim.now).items():
                busy[device] += summary.busy_ns
                busy[device + ".total"] += summary.total_ns
        # Every call of a point walks the same warm chain, so each is
        # charged the point's mean call time.
        latencies = [
            avg for _n, flick, host in rows for avg in (flick, host) for _ in range(spec.calls)
        ]
        return PassOutcome(
            host_s=host_s,
            units=len(latencies),
            failed=0,
            digest=_sha((rows, state)),
            latencies_ns=latencies,
            counters=counters,
            placement_imbalance=0.0,
            util={d: busy[d] / busy[d + ".total"] for d in DEVICES},
            queue_wait_ns=0.0,
            plateau=plateau_value({n: host / flick for n, flick, host in rows}),
        )

    def calibrate(self, spec: SweepSpec, outcome: PassOutcome) -> Calibration:
        """The pass's plateau against Fig. 5a's, gated to [2.2, 2.8]."""
        err = abs(outcome.plateau - PAPER_PLATEAU) / PAPER_PLATEAU
        return Calibration(
            err_pct=100 * err,
            ok=2.2 <= outcome.plateau <= 2.8,
            detail=f"plateau {outcome.plateau:.3f}x (paper {PAPER_PLATEAU}x)",
        )

    def set_up(self, spec: SweepSpec) -> None:
        """Build every point's hosted machine and chain, then stop."""
        with stopped_at(HostedMachine, "run"):
            for n in spec.points:
                for mode in ("flick", "host"):
                    try:
                        run_pointer_chase(n, calls=spec.calls, mode=mode, seed=spec.seed)
                    except _Stop:
                        pass


#: Sizes are fixed: the simulator's host cost per request grows with run
#: length, so a different size is a different workload.
WORKLOADS = {
    w.name: w
    for w in (
        Serving("rpc", "null_call", qps=20_000, requests=1000, smoke_requests=40,
                calib_gate=True),
        Serving("scan", "kv_filter", qps=6_000, requests=250, smoke_requests=16),
        Serving("fleet_revive", "null_call", qps=100_000, requests=1000,
                smoke_requests=120, nxps=4, policy="least_loaded", chaos=True),
        PointerChaseSweep(
            "fig5a",
            points=(4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024),
            calls=200,
            smoke_points=(4, 64, 512, 768, 1024),
            smoke_calls=10,
        ),
    )
}
