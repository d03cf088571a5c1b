"""Fleet-scale serving: NxP scaling curves, placement ablation, chaos drain.

The serving harness (:mod:`repro.analysis.serving`) measures one machine
under open-loop load.  This module asks the *fleet* questions a
multi-NxP topology (``FlickConfig.nxp_count``, :mod:`repro.os.placement`)
exists to answer:

* **Scaling** — how does saturation throughput grow with the number of
  NxP devices behind one PCIe link?  One latency-vs-load sweep per
  device count, all points fanned over
  :func:`repro.analysis.sweep.parallel_map` in a single flat job list
  (a point is an independent machine, so the curve is bit-identical at
  any worker count).

* **Placement ablation** — the same traffic under each placement
  policy.  ``static`` pins every session to device 0 and should
  saturate like a single-device machine; ``round_robin`` and
  ``least_loaded`` spread sessions and should track the scaling curve.
  The per-device session counts come from the placement layer's
  ``placement.pick.dev{i}`` counters in the observed stats tier.

* **Chaos drain** — kill one of N devices mid-run and compare against
  the same traffic with no kill: every request must still complete
  with its expected retval, traffic must drain to the survivors, and
  the p99 must stay bounded (the kill run uses the hardened protocol's
  watchdog/failover machinery; see ``TrafficConfig.kill_at_ns``).  The
  drill (:func:`kill_drill`, shared with ``python -m repro why
  --kill-aim``) is judged by the chaos classifier
  (:func:`repro.analysis.chaos.run_scenario`).

Everything lands in a ``flick.fleet.v3`` JSON document plus rendered
tables.  Exposed as ``python -m repro fleet`` (``--smoke`` runs a
CI-sized subset).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.chaos import ChaosResult, Scenario, run_scenario
from repro.analysis.serving import (
    ServingResult,
    TrafficConfig,
    aim_kill_ns,
    run_serving,
    saturation_point,
)
from repro.analysis.sweep import parallel_map

__all__ = [
    "FleetConfig",
    "ScalingPoint",
    "AblationRow",
    "ChaosOutcome",
    "FleetReport",
    "fleet_scaling",
    "policy_ablation",
    "kill_drill",
    "chaos_drain",
    "run_fleet",
    "fleet_report_doc",
    "render_scaling_table",
    "render_ablation_table",
    "render_chaos_summary",
]


@dataclass(frozen=True)
class FleetConfig:
    """Knobs for one fleet study (defaults = the full curve)."""

    scenario: str = "null_call"
    arrival: str = "poisson"
    requests: int = 200
    clients: int = 16
    seed: int = 7
    #: host cores per machine — generous so the host side is not the
    #: bottleneck before the devices are (the study varies *devices*)
    host_cores: int = 8
    #: device counts for the scaling curve
    nxps_list: Tuple[int, ...] = (1, 2, 4)
    #: offered-load points for each device count's sweep
    qps_list: Tuple[float, ...] = (
        20_000.0,
        40_000.0,
        60_000.0,
        80_000.0,
        120_000.0,
        160_000.0,
    )
    #: placement policy used on multi-device scaling points
    scaling_policy: str = "round_robin"
    #: ablation: every policy, same machine shape and load
    policies: Tuple[str, ...] = (
        "static",
        "round_robin",
        "least_loaded",
        "locality",
    )
    ablation_nxps: int = 2
    ablation_qps: float = 60_000.0
    #: chaos drain: kill one of ``chaos_nxps`` devices mid-run.
    #: ``chaos_kill_at_ns=None`` aims the kill at an in-flight h2n leg
    #: observed in the traced baseline (serving.aim_kill_ns) — an
    #: abrupt kill only strands legs that are in flight or ring-queued,
    #: so a blindly-timed kill at moderate load usually lands between
    #: legs and recovers nothing.
    chaos_nxps: int = 2
    chaos_qps: float = 24_000.0
    chaos_kill_at_ns: Optional[float] = None
    chaos_kill_device: int = 0
    chaos_kill_mode: str = "abrupt"
    #: kill-then-revive drain (docs/ROBUSTNESS.md): revive the killed
    #: device at epoch + this instant (must be after the kill; requires
    #: an abrupt kill).  The killed device re-enters service through the
    #: breaker's half-open probes; ``recovered`` needs it to serve again
    #: and end the run out of DEAD.  ``None`` keeps the plain drain study.
    chaos_revive_at_ns: Optional[float] = None
    #: trace the chaos pair (request-scoped causal tracing) so the
    #: outcome carries exactly-tiling critical paths and the report can
    #: attribute the kill's tail cost to retry/failover phases.
    #: Required for kill auto-aim.
    chaos_traced: bool = True

    @classmethod
    def smoke(cls) -> "FleetConfig":
        """A CI-sized study: two device counts, two load points."""
        return cls(
            requests=60,
            clients=8,
            nxps_list=(1, 2),
            # 60k offered saturates one device (~40k) but not two, so
            # even the smoke run shows the fleet's throughput headroom.
            qps_list=(20_000.0, 60_000.0),
            ablation_qps=20_000.0,
            chaos_qps=20_000.0,
        )

    def base_traffic(self) -> TrafficConfig:
        return TrafficConfig(
            scenario=self.scenario,
            arrival=self.arrival,
            qps=self.qps_list[0],
            requests=self.requests,
            clients=self.clients,
            mode="open",
            seed=self.seed,
            host_cores=self.host_cores,
        )


@dataclass
class ScalingPoint:
    """One device count's latency-vs-load sweep."""

    nxps: int
    policy: str
    results: List[ServingResult]

    @property
    def saturation_qps(self) -> Optional[float]:
        return saturation_point(self.results)

    @property
    def peak_achieved_qps(self) -> float:
        return max(r.achieved_qps for r in self.results)


@dataclass
class AblationRow:
    """One placement policy under the ablation traffic."""

    policy: str
    result: ServingResult

    @property
    def device_share(self) -> Dict[int, float]:
        """Fraction of sessions each device received."""
        total = sum(self.result.device_sessions.values())
        if not total:
            return {}
        return {
            dev: count / total
            for dev, count in sorted(self.result.device_sessions.items())
        }

    @property
    def imbalance(self) -> float:
        """max/min session share across devices (1.0 = perfectly even;
        infinite when a device received nothing)."""
        shares = list(self.device_share.values())
        if not shares:
            return 1.0
        lo = min(shares)
        return float("inf") if lo == 0.0 else max(shares) / lo


@dataclass
class ChaosOutcome:
    """A kill drill: the killed run's verdict vs the same traffic unkilled."""

    baseline: ServingResult
    #: the killed run, judged by the chaos classifier; ``result.serving``
    #: is the killed ServingResult
    result: ChaosResult
    kill_device: int
    kill_mode: str

    @property
    def killed(self) -> ServingResult:
        return self.result.serving

    @property
    def all_served_ok(self) -> bool:
        return self.killed.errors == 0 and all(
            rec.ok for rec in self.killed.records
        )

    @property
    def p99_ratio(self) -> float:
        """Killed-run p99 over baseline p99 (the drain's tail cost)."""
        if self.baseline.p99_ns <= 0:
            return float("inf")
        return self.killed.p99_ns / self.baseline.p99_ns

    @property
    def survivor_sessions(self) -> int:
        return sum(
            count
            for dev, count in self.killed.device_sessions.items()
            if dev != self.kill_device
        )

    @property
    def revived(self) -> bool:
        """The killed device was revived during the run."""
        return self.killed.revived > 0

    @property
    def post_revival_share(self) -> float:
        """Fraction of post-revive sessions the revived device served
        (0.0 on a run without a revive, or before any post-revive
        session landed).  Nonzero means placement re-admitted the
        device; the ``recovered`` verdict also needs it to end the run
        out of the DEAD state."""
        total = sum(self.killed.post_revival_sessions.values())
        if not total:
            return 0.0
        return self.killed.post_revival_sessions.get(self.kill_device, 0) / total

    @property
    def recovered_requests(self) -> List:
        """Requests whose critical path crossed watchdog recovery
        (retry or failover time > 0); empty on an untraced run."""
        return [
            p
            for p in self.killed.paths
            if p.phases.get("retry_backoff", 0.0) > 0.0
            or p.phases.get("failover", 0.0) > 0.0
        ]

    def why(self, percentile: float = 99.0):
        """Tail attribution of the killed run (traced runs only)."""
        if not self.killed.paths:
            return None
        from repro.analysis.critical_path import why_report

        return why_report(self.killed.paths, percentile=percentile)


@dataclass
class FleetReport:
    config: FleetConfig
    scaling: List[ScalingPoint]
    ablation: List[AblationRow]
    chaos: ChaosOutcome
    workers: Optional[int] = None
    extras: Dict[str, object] = field(default_factory=dict)


def fleet_scaling(
    fc: FleetConfig, workers: Optional[int] = None
) -> List[ScalingPoint]:
    """One latency-vs-load sweep per device count, flattened into a
    single ``parallel_map`` so slow high-load points overlap across
    device counts instead of serializing sweep-by-sweep."""
    base = fc.base_traffic()
    jobs: List[TrafficConfig] = []
    shapes: List[Tuple[int, str]] = []
    for nxps in fc.nxps_list:
        policy = fc.scaling_policy if nxps > 1 else "static"
        shapes.append((nxps, policy))
        for qps in fc.qps_list:
            jobs.append(
                replace(base, qps=float(qps), nxps=nxps, policy=policy)
            )
    flat = parallel_map(run_serving, jobs, workers=workers)
    points: List[ScalingPoint] = []
    per = len(fc.qps_list)
    for i, (nxps, policy) in enumerate(shapes):
        points.append(
            ScalingPoint(nxps, policy, flat[i * per : (i + 1) * per])
        )
    return points


def policy_ablation(
    fc: FleetConfig, workers: Optional[int] = None
) -> List[AblationRow]:
    """The same traffic once per placement policy."""
    base = replace(
        fc.base_traffic(), qps=fc.ablation_qps, nxps=fc.ablation_nxps
    )
    jobs = [replace(base, policy=policy) for policy in fc.policies]
    results = parallel_map(run_serving, jobs, workers=workers)
    return [
        AblationRow(policy, result)
        for policy, result in zip(fc.policies, results)
    ]


def kill_drill(
    base: TrafficConfig,
    device: int = 0,
    mode: str = "abrupt",
    kill_at_ns: Optional[float] = None,
    revive_at_ns: Optional[float] = None,
) -> ChaosOutcome:
    """Kill ``device`` mid-run; the baseline is the same traffic unkilled.

    When ``kill_at_ns`` is ``None`` the kill is *aimed*: the (traced)
    baseline runs first, and the kill instant is chosen inside one of
    the victim device's in-flight h2n transfers
    (:func:`~repro.analysis.serving.aim_kill_ns`) — the killed run
    replays the identical pre-kill history, so the aimed leg is
    guaranteed to be stranded and recovered by the watchdog/failover
    machinery, which the traced tail attribution then names.  A
    kill-then-revive drill needs arrivals *after* the revive instant,
    or the revived device has nothing to serve, so its kill is aimed
    into the first half of the run.  The killed run is a ``serving``
    scenario, so its verdict comes from the chaos classifier.
    """
    if kill_at_ns is None and not base.traced:
        raise ValueError(
            "an aimed kill (kill_at_ns=None) needs traced traffic to "
            "observe the baseline's in-flight legs"
        )
    baseline = run_serving(base)
    if kill_at_ns is None:
        if revive_at_ns is None:
            kill_at_ns = aim_kill_ns(baseline, device)
        else:
            kill_at_ns = aim_kill_ns(baseline, device, frac_lo=0.15, frac_hi=0.45)
    killed = replace(
        base,
        kill_at_ns=kill_at_ns,
        kill_device=device,
        kill_mode=mode,
        revive_at_ns=revive_at_ns,
    )
    result = run_scenario(
        Scenario(f"kill-dev{device}-{mode}@{kill_at_ns:.0f}ns", "serving", traffic=killed)
    )
    if result.serving is None:
        raise RuntimeError(f"{result.plan}: {result.verdict} ({result.detail})")
    return ChaosOutcome(baseline, result, device, mode)


def chaos_drain(fc: FleetConfig) -> ChaosOutcome:
    """The fleet study's :func:`kill_drill` on its chaos traffic."""
    base = replace(
        fc.base_traffic(),
        qps=fc.chaos_qps,
        nxps=fc.chaos_nxps,
        policy="round_robin",
        traced=fc.chaos_traced,
    )
    return kill_drill(
        base,
        device=fc.chaos_kill_device,
        mode=fc.chaos_kill_mode,
        kill_at_ns=fc.chaos_kill_at_ns,
        revive_at_ns=fc.chaos_revive_at_ns,
    )


def run_fleet(
    fc: Optional[FleetConfig] = None, workers: Optional[int] = None
) -> FleetReport:
    """The full study: scaling curve, policy ablation, chaos drain."""
    fc = fc if fc is not None else FleetConfig()
    return FleetReport(
        config=fc,
        scaling=fleet_scaling(fc, workers=workers),
        ablation=policy_ablation(fc, workers=workers),
        chaos=chaos_drain(fc),
        workers=workers,
    )


# ---------------------------------------------------------------------------
# rendering / export
# ---------------------------------------------------------------------------


def _table(rows: Sequence[Tuple[str, ...]]) -> List[str]:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        for row in rows
    ]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return lines


def render_scaling_table(points: Sequence[ScalingPoint]) -> str:
    """Throughput vs device count (the fleet's headline table)."""
    rows: List[Tuple[str, ...]] = [
        ("nxps", "policy", "saturation_qps", "peak_achieved", "p99_us@low")
    ]
    for pt in points:
        sat = pt.saturation_qps
        rows.append(
            (
                str(pt.nxps),
                pt.policy,
                "none" if sat is None else f"{sat:.0f}",
                f"{pt.peak_achieved_qps:.0f}",
                f"{pt.results[0].p99_ns / 1000.0:.1f}",
            )
        )
    lines = _table(rows)
    base = points[0].peak_achieved_qps if points else 0.0
    if base > 0 and len(points) > 1:
        speedups = ", ".join(
            f"{pt.nxps}x-dev={pt.peak_achieved_qps / base:.2f}x"
            for pt in points[1:]
        )
        lines.append(f"peak throughput vs 1 device: {speedups}")
    return "\n".join(lines)


def render_ablation_table(rows_in: Sequence[AblationRow]) -> str:
    rows: List[Tuple[str, ...]] = [
        ("policy", "achieved", "p99_us", "sessions/device", "imbalance")
    ]
    for row in rows_in:
        sessions = " ".join(
            f"d{dev}:{count}"
            for dev, count in sorted(row.result.device_sessions.items())
        )
        imb = row.imbalance
        rows.append(
            (
                row.policy,
                f"{row.result.achieved_qps:.0f}",
                f"{row.result.p99_ns / 1000.0:.1f}",
                sessions or "-",
                "inf" if imb == float("inf") else f"{imb:.2f}",
            )
        )
    return "\n".join(_table(rows))


def render_chaos_summary(outcome: ChaosOutcome) -> str:
    killed = outcome.killed
    lines = [
        f"chaos drain: kill device {outcome.kill_device} "
        f"({outcome.kill_mode}) at "
        f"{killed.config.kill_at_ns / 1000.0:.0f} us into the run",
        f"  requests: {len(killed.records)} served, "
        f"{killed.errors} errors, all retvals "
        f"{'correct' if outcome.all_served_ok else 'WRONG'}",
        f"  sessions: {dict(sorted(killed.device_sessions.items()))} "
        f"(survivors took {outcome.survivor_sessions})",
        f"  p99: {killed.p99_ns / 1000.0:.1f} us vs baseline "
        f"{outcome.baseline.p99_ns / 1000.0:.1f} us "
        f"({outcome.p99_ratio:.2f}x)",
        f"  host-fallback calls: {killed.degraded_calls}",
    ]
    if killed.config.revive_at_ns is not None:
        lines.append(
            f"  revive: device {outcome.kill_device} at "
            f"{killed.config.revive_at_ns / 1000.0:.0f} us — "
            f"{'revived' if outcome.revived else 'NOT revived'}, "
            f"post-revive sessions "
            f"{dict(sorted(killed.post_revival_sessions.items()))} "
            f"(revived device share {outcome.post_revival_share:.2f}) "
            f"-> verdict {outcome.result.verdict}"
        )
    recovered = outcome.recovered_requests
    if recovered:
        ids = ", ".join(p.trace_id for p in recovered[:4])
        lines.append(
            f"  watchdog-recovered requests: {len(recovered)} ({ids})"
        )
    why = outcome.why()
    if why is not None:
        lines.append(
            f"  p99 attribution: dominant phase "
            f"{why.tail.dominant} — {why.culprit}"
        )
    return "\n".join(lines)


def fleet_report_doc(report: FleetReport) -> dict:
    """The ``flick.fleet.v3`` JSON document for the whole study."""
    fc = report.config
    return {
        "benchmark": "fleet",
        "schema": "flick.fleet.v3",
        "scenario": fc.scenario,
        "arrival": fc.arrival,
        "seed": fc.seed,
        "host_cores": fc.host_cores,
        "scaling": [
            {
                "nxps": pt.nxps,
                "policy": pt.policy,
                "saturation_qps": pt.saturation_qps,
                "peak_achieved_qps": pt.peak_achieved_qps,
                "points": [r.to_point() for r in pt.results],
            }
            for pt in report.scaling
        ],
        "ablation": [
            {
                "policy": row.policy,
                "point": row.result.to_point(),
                "device_share": {
                    str(dev): share
                    for dev, share in row.device_share.items()
                },
            }
            for row in report.ablation
        ],
        "chaos": {
            "kill_device": report.chaos.kill_device,
            "kill_mode": report.chaos.kill_mode,
            "kill_at_ns": report.chaos.killed.config.kill_at_ns,
            "revive_at_ns": report.chaos.killed.config.revive_at_ns,
            "revived": report.chaos.revived,
            "post_revival_share": report.chaos.post_revival_share,
            "verdict": report.chaos.result.verdict,
            "detail": report.chaos.result.detail,
            "all_served_ok": report.chaos.all_served_ok,
            "p99_ratio": report.chaos.p99_ratio,
            "survivor_sessions": report.chaos.survivor_sessions,
            "degraded_calls": report.chaos.killed.degraded_calls,
            "baseline": report.chaos.baseline.to_point(),
            "killed": report.chaos.killed.to_point(),
            "recovered_trace_ids": [
                p.trace_id for p in report.chaos.recovered_requests
            ],
            "why": (
                report.chaos.why().to_dict()
                if report.chaos.killed.paths
                else None
            ),
        },
    }
