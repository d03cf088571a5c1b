"""Serving-traffic harness: open-loop load, QPS sweeps, tail latency.

Every other workload in this repository is a closed-loop single-process
run: issue a call, wait, issue the next.  A serving system is measured
the other way around — requests arrive on *their* schedule, not the
machine's, and the question is what happens to the latency distribution
as offered load rises.  This module is that harness (the
harness/workload-profile split follows llm-d-benchmark; the request
programs live in :mod:`repro.workloads.serving_profiles`):

* **Deterministic seeded traffic**: :func:`generate_arrivals` produces
  the complete arrival schedule *closed-form* from the config before
  the simulation starts — Poisson, bursty (on/off-modulated Poisson) or
  uniform inter-arrivals — and :func:`draw_kinds` draws each request's
  type from the scenario mix on an independent seeded stream.  Same
  seed + config ⇒ bit-identical schedule, always.

* **Open-loop mode**: each arrival is posted with
  :meth:`~repro.sim.engine.Simulator.spawn_at` at its absolute instant,
  so nothing the machine does can delay an arrival.  Arrivals land in
  per-client FIFO queues (a fixed-size connection pool); a request's
  latency runs from its *arrival* to its completion, so queueing delay
  — the thing that explodes past saturation — is part of every
  percentile reported.

* **Closed-loop mode**: each client issues its next request only after
  the previous one completes (plus optional think time) — the classic
  paper-style measurement, kept for comparison.

* **Reporting**: p50/p95/p99/mean session latency (exact order
  statistics via :func:`repro.sim.stats.quantile`), achieved vs offered
  requests/sec, per-device utilization over the serving window (from
  the span machinery via
  :func:`repro.analysis.metrics.device_utilization`), queue-wait, and a
  per-request ``serve_request`` span in the trace.  A latency-vs-load
  sweep (:func:`sweep_latency_vs_load`) fans points over
  :func:`repro.analysis.sweep.parallel_map` and lands curves in a
  ``flick.serving.v2`` JSON document; :func:`saturation_point` reads
  the knee off the curve from each point's keep-up ratio.

Everything is deterministic and wall-clock-free: a serving run is
replayable bit-for-bit, and the sweep produces identical results at any
worker count.  Exposed as ``python -m repro serve``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.critical_path import extract_request_paths
from repro.analysis.metrics import (
    HistogramSummary,
    UtilizationSummary,
    _emit_family,
    _emit_histogram,
    _metric_name,
    device_utilization,
)
from repro.analysis.sweep import parallel_map
from repro.core.config import DEFAULT_CONFIG, FlickConfig
from repro.core.errors import AdmissionRejected
from repro.core.machine import FlickMachine, signed_retval
from repro.sim.faults import FaultRule
from repro.sim.stats import Histogram, quantile
from repro.workloads.serving_profiles import PROFILES, scenario_mix

__all__ = [
    "TrafficConfig",
    "RequestRecord",
    "ServingResult",
    "generate_arrivals",
    "draw_kinds",
    "run_serving",
    "check_kill",
    "armed_for_kill",
    "schedule_kill",
    "aim_kill_ns",
    "sweep_latency_vs_load",
    "saturation_point",
    "render_serving_table",
    "render_serving_openmetrics",
    "serving_report_doc",
]

ARRIVALS = ("poisson", "bursty", "uniform")
MODES = ("open", "closed")


def check_kill(
    devices: int,
    device: int,
    kill_at_ns: Optional[float],
    kill_mode: str,
    revive_at_ns: Optional[float],
) -> None:
    """Validate a kill of ``device`` on a ``devices``-NxP machine and its
    revive; ``kill_at_ns`` is None when nothing is killed."""
    if kill_at_ns is not None:
        if devices < 2:
            raise ValueError("a kill needs at least 2 devices (survivors)")
        if not 0 <= device < devices:
            raise ValueError("kill_device out of range")
        if kill_mode not in ("abrupt", "drain"):
            raise ValueError(f"unknown kill mode {kill_mode!r}")
    if revive_at_ns is not None:
        if kill_at_ns is None or kill_mode != "abrupt":
            raise ValueError(
                "a revive needs an abrupt kill (kill_at_ns + "
                "kill_mode='abrupt'): recovery rides the hardened "
                "protocol's breaker"
            )
        if revive_at_ns <= kill_at_ns:
            raise ValueError(
                f"revive_at_ns={revive_at_ns:.0f} is not after "
                f"kill_at_ns={kill_at_ns:.0f}"
            )


@dataclass(frozen=True)
class TrafficConfig:
    """One serving run, fully specified (hashable, picklable, frozen).

    ``qps`` is offered load in requests per *simulated* second.  In
    closed-loop mode the arrival schedule is ignored (completions pace
    the clients) but ``qps`` is still recorded as the nominal point.
    """

    scenario: str = "null_call"
    arrival: str = "poisson"  # poisson | bursty | uniform
    qps: float = 1000.0
    requests: int = 200
    #: connection-pool size: max concurrently-served requests (open
    #: mode) / number of request-issuing clients (closed mode)
    clients: int = 8
    mode: str = "open"  # open | closed
    seed: int = 0
    #: closed-loop think time between a completion and the next issue
    think_ns: float = 0.0
    #: bursty arrival shape: on/off cycle length and duty fraction; the
    #: ON windows carry Poisson arrivals at rate qps/duty so the mean
    #: offered load stays qps
    burst_period_ns: float = 2_000_000.0
    burst_duty: float = 0.25
    #: host cores on the serving machine (FlickConfig.host_cores)
    host_cores: int = 4
    #: NxP devices on the serving machine (FlickConfig.nxp_count); 1
    #: keeps the exact single-device machine the pre-fleet harness built
    nxps: int = 1
    #: session-placement policy for nxps > 1 (repro.os.placement)
    policy: str = "static"
    #: chaos: kill device ``kill_device`` at epoch + ``kill_at_ns``
    #: simulated ns (None = no kill).  ``abrupt`` mode arms a quiet
    #: fault plan and tightens the watchdogs so in-flight sessions fail
    #: over with bounded latency; ``drain`` only stops new placements.
    kill_at_ns: Optional[float] = None
    kill_device: int = 0
    kill_mode: str = "abrupt"  # abrupt | drain
    #: self-healing: revive ``kill_device`` at epoch + ``revive_at_ns``
    #: (None = no revive).  Requires an abrupt kill run — the revive
    #: rides the hardened protocol's breaker (docs/ROBUSTNESS.md) — and
    #: arms ``FlickConfig.nxp_recovery`` on the serving machine.
    revive_at_ns: Optional[float] = None
    #: per-request deadline, measured from *arrival* (0 = no deadlines).
    #: A request still queued when its deadline passes is shed with a
    #: typed ``deadline`` rejection instead of being served late.
    deadline_ns: float = 0.0
    #: admission-queue bound per in-service device (FlickConfig.
    #: admission_queue_limit; 0 = unbounded).  Arrivals beyond the bound
    #: are shed ``queue_full`` at the front door.
    admission_limit: int = 0
    #: brownout mode: over-limit / deadline-risk requests run on the
    #: host-fallback path instead of being shed (FlickConfig.brownout)
    brownout: bool = False
    brownout_margin_ns: float = 0.0
    #: machine-wide watchdog-retransmit budget (FlickConfig.
    #: retry_budget_tokens / retry_budget_refill_per_ms; 0 = unlimited)
    retry_budget_tokens: float = 0.0
    retry_budget_refill_per_ms: float = 0.0
    #: request-scoped causal tracing (docs/OBSERVABILITY.md): every
    #: request gets a deterministic ``trace_id`` threaded through its
    #: spans, and the result carries exactly-tiling critical paths
    #: (repro.analysis.critical_path).  Off (the default) leaves the
    #: exact untraced code paths — pinned bit-identical.
    traced: bool = False

    def validate(self) -> None:
        if self.arrival not in ARRIVALS:
            raise ValueError(f"unknown arrival {self.arrival!r} (know {ARRIVALS})")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r} (know {MODES})")
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.qps <= 0:
            raise ValueError("qps must be > 0")
        if not 0.0 < self.burst_duty <= 1.0:
            raise ValueError("burst_duty must be in (0, 1]")
        if self.nxps < 1:
            raise ValueError("nxps must be >= 1")
        if self.nxps > 1:
            from repro.os.placement import POLICIES

            if self.policy not in POLICIES:
                raise ValueError(
                    f"unknown placement policy {self.policy!r} "
                    f"(know {sorted(POLICIES)})"
                )
        check_kill(
            self.nxps, self.kill_device, self.kill_at_ns, self.kill_mode, self.revive_at_ns
        )
        if self.deadline_ns < 0:
            raise ValueError("deadline_ns must be >= 0 (0 = no deadlines)")
        if self.admission_limit < 0:
            raise ValueError("admission_limit must be >= 0 (0 = unbounded)")
        scenario_mix(self.scenario)  # raises on unknown scenario


@dataclass(frozen=True)
class RequestRecord:
    """One served request: timestamps in absolute simulated ns."""

    index: int
    kind: str
    client: int
    arrival_ns: float
    start_ns: float  # dequeued by a client (== arrival in closed mode)
    end_ns: float
    ok: bool  # retval matched the profile's golden value
    #: admission control rejected this request instead of serving it
    #: (``ok`` is False; latency/percentile stats exclude shed records)
    shed: bool = False
    shed_reason: str = ""  # deadline | queue_full (empty when served)

    @property
    def latency_ns(self) -> float:
        return self.end_ns - self.arrival_ns

    @property
    def wait_ns(self) -> float:
        return self.start_ns - self.arrival_ns


def _request_trace_id(seed: int, idx: int) -> str:
    """Deterministic per-request trace id: same config ⇒ same ids, so
    exemplar ids in reports and EXPERIMENTS.md are stable across runs."""
    return f"req-{seed:x}-{idx:04d}"


def _stream(seed: int, label: str) -> random.Random:
    """An independent deterministic RNG stream.

    String seeding is hashed with SHA-512 inside ``random.seed`` —
    stable across processes and interpreter runs, unlike tuple seeds
    (which go through PYTHONHASHSEED-randomized ``hash``).
    """
    return random.Random(f"flick-serving/{seed}/{label}")


def generate_arrivals(tc: TrafficConfig) -> List[float]:
    """The closed-form arrival schedule: ``requests`` offsets in ns.

    Offsets are relative to the serving epoch, nondecreasing, and
    depend only on the config — never on anything the simulation does.
    The open-loop independence test pins observed arrival instants to
    exactly this list even when the machine is saturated.
    """
    tc.validate()
    rng = _stream(tc.seed, "arrivals")
    out: List[float] = []
    if tc.arrival == "uniform":
        period = 1e9 / tc.qps
        return [i * period for i in range(tc.requests)]
    if tc.arrival == "poisson":
        t = 0.0
        for _ in range(tc.requests):
            t += rng.expovariate(tc.qps) * 1e9
            out.append(t)
        return out
    # bursty: Poisson at peak rate qps/duty, folded onto the ON windows
    # of an on/off square wave — mean rate stays qps, but arrivals club
    # together (the tail-latency stress a smooth Poisson never applies).
    peak = tc.qps / tc.burst_duty
    on_ns = tc.burst_period_ns * tc.burst_duty
    busy = 0.0  # cumulative on-window time consumed
    for _ in range(tc.requests):
        busy += rng.expovariate(peak) * 1e9
        cycles = int(busy // on_ns)
        out.append(cycles * tc.burst_period_ns + (busy - cycles * on_ns))
    return out


def draw_kinds(tc: TrafficConfig) -> List[str]:
    """Each request's type, drawn from the scenario mix.

    A separate stream from the arrival schedule, so changing the mix
    never perturbs the arrival instants (and vice versa).
    """
    mix = scenario_mix(tc.scenario)
    rng = _stream(tc.seed, "mix")
    kinds: List[str] = []
    for _ in range(tc.requests):
        draw = rng.random()
        acc = 0.0
        kind = mix[-1][0]
        for name, weight in mix:
            acc += weight
            if draw < acc:
                kind = name
                break
        kinds.append(kind)
    return kinds


@dataclass
class ServingResult:
    """Everything one serving run measured."""

    config: TrafficConfig
    records: List[RequestRecord]
    #: observed arrival instants (absolute ns) in request-index order;
    #: in open mode these equal epoch + generate_arrivals() exactly
    arrivals_ns: List[float]
    epoch_ns: float  # serving start (t0)
    sim_ns: float  # last completion - epoch
    offered_qps: float
    achieved_qps: float
    p50_ns: float
    p95_ns: float
    p99_ns: float
    mean_ns: float
    max_ns: float
    mean_wait_ns: float
    errors: int
    kind_counts: Dict[str, int]
    latency_histogram: HistogramSummary
    utilization: Dict[str, UtilizationSummary] = field(default_factory=dict)
    #: trace health after the run: zero, like ``trace.span_anomalies``
    #: in :attr:`observed`, for a clean run
    open_spans: int = 0
    #: the machine's observed tier summed over scopes
    #: (``StatRegistry.observed_totals``): ``jit.*``, ``placement.*`` and
    #: ``trace.*``.  Nonzero ``trace.dropped``/``trace.spans_dropped``
    #: mean every span-derived number above covers a *window* of the run.
    observed: Dict[str, float] = field(default_factory=dict)
    #: sessions placed per device index (``placement.pick.dev{i}``)
    device_sessions: Dict[int, int] = field(default_factory=dict)
    #: NISA calls that completed via host-fallback emulation (all
    #: devices down, or a kill run's tail) — from ``degraded.calls``
    degraded_calls: int = 0
    #: requests admission control shed (typed rejections; these carry
    #: ``RequestRecord.shed`` and are excluded from every latency stat)
    shed: int = 0
    shed_by_reason: Dict[str, int] = field(default_factory=dict)
    #: calls the brownout router sent to host fallback instead of the NxP
    brownout_calls: int = 0
    #: watchdog retransmits the machine-wide retry budget denied
    retry_budget_denied: int = 0
    #: devices revived (``nxp.revived``) during the run
    revived: int = 0
    #: revive runs only: sessions placed per device *after* the revive
    #: instant (final placement counters minus the pre-revive snapshot)
    post_revival_sessions: Dict[int, int] = field(default_factory=dict)
    #: revive runs only: the killed device's health state at the end of
    #: the run (``dead`` when a failed half-open probe re-tripped it)
    killed_health: str = ""
    #: traced runs only (config.traced): one exactly-tiling critical
    #: path per request, request-index order
    #: (repro.analysis.critical_path.RequestPath); empty when untraced
    paths: list = field(default_factory=list)
    #: traced multi-NxP runs only: per device index, the ``(start, end)``
    #: interval of every h2n DMA transfer aimed at it, kick order.
    #: Chaos harnesses use these to aim a kill at an in-flight leg
    #: (:func:`aim_kill_ns`) — arrivals are seeded, so a window observed
    #: in a baseline run exists at the same instant in a kill run.
    device_kicks: Dict[int, List[Tuple[float, float]]] = field(default_factory=dict)

    @property
    def latencies_ns(self) -> List[float]:
        return [r.latency_ns for r in self.completed_records]

    @property
    def keep_up(self) -> float:
        """Achieved requests/sec over the *realized* arrival rate (every
        request over the span from the epoch to the last arrival).

        Near 1.0 while the machine keeps pace with its arrivals, falling
        past saturation; shed requests count against it.  The realized
        rate, not the nominal ``offered_qps``, is the denominator: a
        few-hundred-request Poisson sample lands several percent off its
        nominal rate, which would read as saturation on an idle machine.
        Closed-loop points keep up by construction (1.0).
        """
        if self.config.mode != "open":
            return 1.0
        arrival_span_ns = max(self.arrivals_ns) - self.epoch_ns
        return self.achieved_qps * arrival_span_ns / (len(self.records) * 1e9)

    @property
    def completed_records(self) -> List[RequestRecord]:
        """Records that were actually served (shed rejections excluded);
        the population every latency/SLO statistic is computed over."""
        return [r for r in self.records if not r.shed]

    def to_point(self) -> dict:
        """One latency-vs-load curve point (JSON-friendly)."""
        return {
            "scenario": self.config.scenario,
            "arrival": self.config.arrival,
            "mode": self.config.mode,
            "seed": self.config.seed,
            "requests": len(self.records),
            "clients": self.config.clients,
            "offered_qps": self.offered_qps,
            "achieved_qps": self.achieved_qps,
            "p50_ns": self.p50_ns,
            "p95_ns": self.p95_ns,
            "p99_ns": self.p99_ns,
            "mean_ns": self.mean_ns,
            "max_ns": self.max_ns,
            "mean_wait_ns": self.mean_wait_ns,
            "errors": self.errors,
            "sim_ns": self.sim_ns,
            "kind_counts": dict(self.kind_counts),
            "latency_histogram": self.latency_histogram.to_dict(),
            "utilization": {
                device: summary.fraction
                for device, summary in self.utilization.items()
            },
            "open_spans": self.open_spans,
            "observed": dict(self.observed),
            "nxps": self.config.nxps,
            "policy": self.config.policy,
            "device_sessions": {str(k): v for k, v in self.device_sessions.items()},
            "degraded_calls": self.degraded_calls,
            "shed": self.shed,
            "shed_by_reason": dict(self.shed_by_reason),
            "brownout_calls": self.brownout_calls,
            "retry_budget_denied": self.retry_budget_denied,
            "revived": self.revived,
            "post_revival_sessions": {
                str(k): v for k, v in self.post_revival_sessions.items()
            },
        }


#: A rule that never fires: arming it turns on the hardened protocol
#: (sequence numbers, watchdogs, retry, health) without injecting a fault.
QUIET_RULE = FaultRule("dma_drop", after_ns=1e18, count=None)


def armed_for_kill(cfg: FlickConfig, watchdog_ns: float, revive: bool = False) -> FlickConfig:
    """``cfg`` armed for an abrupt device kill (and a revive).

    An abrupt kill needs the hardened protocol, so a config without a
    fault plan gets :data:`QUIET_RULE`.  The recovery knobs tighten to
    one retry and a one-strike dead threshold, so a leg lost to the
    killed device fails over after one ``watchdog_ns`` wait instead of
    the defaults' ~5 ms.  The watchdog must stay above the worst-case
    *queueing* delay at a loaded survivor, or a slow-but-healthy device
    is latched DEAD too (retries are seq-deduplicated, so a trip itself
    is harmless; only the dead threshold is destructive).  A closed-loop
    probe never queues behind itself and can use a much shorter one.
    A revive also needs ``nxp_recovery``.
    """
    return cfg.with_overrides(
        faults=cfg.faults or (QUIET_RULE,),
        migration_watchdog_ns=watchdog_ns,
        migration_retry_limit=1,
        nxp_dead_threshold=1,
        nxp_recovery=cfg.nxp_recovery or revive,
    )


def schedule_kill(
    machine: FlickMachine,
    device: int,
    kill_at_ns: float,
    mode: str = "abrupt",
    revive_at_ns: Optional[float] = None,
) -> Callable[[], Tuple[Dict[int, int], str]]:
    """Kill ``device`` ``kill_at_ns`` from now, and revive it
    ``revive_at_ns`` from now when given.

    The killer and the reviver are separate processes, both timed from
    now.  Returns a reader to call once the run is over: the sessions
    placed per device since the revive instant (every device's full
    count when nothing was revived), and the killed device's health
    state.
    """
    sim = machine.sim
    at_revive: Dict[int, int] = {}

    def _killer():
        yield sim.timeout(kill_at_ns)
        machine.kill_nxp(device, mode=mode)

    sim.spawn(_killer(), name="chaos-killer")
    if revive_at_ns is not None:

        def _reviver():
            yield sim.timeout(revive_at_ns)
            at_revive.update(machine.placement.session_counts())
            machine.revive_nxp(device)

        sim.spawn(_reviver(), name="chaos-reviver")

    def after_kill() -> Tuple[Dict[int, int], str]:
        sessions = {
            dev: count - at_revive.get(dev, 0)
            for dev, count in machine.placement.session_counts().items()
        }
        return sessions, machine.devices[device].health.state.value

    return after_kill


def run_serving(tc: TrafficConfig, cfg: Optional[FlickConfig] = None) -> ServingResult:
    """Serve one traffic config on a fresh machine; fully deterministic.

    ``cfg`` is the base machine config (default :data:`DEFAULT_CONFIG`);
    the traffic config's machine shape and robustness knobs are applied
    on top of it.
    """
    tc.validate()
    overrides: Dict[str, object] = {"host_cores": tc.host_cores}
    if tc.nxps > 1:
        overrides["nxp_count"] = tc.nxps
        overrides["placement_policy"] = tc.policy
    if tc.traced:
        overrides["trace_context"] = True
    # Robustness knobs (docs/ROBUSTNESS.md); each stays at its
    # parity-pinned default unless the traffic config arms it.
    if tc.admission_limit:
        overrides["admission_queue_limit"] = tc.admission_limit
    if tc.brownout:
        overrides["brownout"] = True
        overrides["brownout_margin_ns"] = tc.brownout_margin_ns
    if tc.retry_budget_tokens:
        overrides["retry_budget_tokens"] = tc.retry_budget_tokens
        overrides["retry_budget_refill_per_ms"] = tc.retry_budget_refill_per_ms
    cfg = (cfg or DEFAULT_CONFIG).with_overrides(**overrides)
    if tc.kill_at_ns is not None and tc.kill_mode == "abrupt":
        # Kill runs should use single-leg scenarios (``null_call``) at
        # moderate load: a mid-ladder leg lost to a kill is a
        # ProcessCrash by design.
        cfg = armed_for_kill(cfg, 250_000.0, revive=tc.revive_at_ns is not None)
    machine = FlickMachine(cfg)
    # Size the trace rings to the run so utilization and the per-request
    # spans are derived from complete data, not a truncated window.
    machine.trace.limit = max(machine.trace.limit, tc.requests * 150)
    machine.trace.span_limit = max(machine.trace.span_limit, tc.requests * 40)
    sim = machine.sim
    trace = machine.trace

    kinds = draw_kinds(tc)
    clients = min(tc.clients, tc.requests)
    epoch = sim.now

    exes: Dict[str, object] = {}
    procs: Dict[Tuple[int, str], object] = {}
    arrivals_seen: List[Optional[float]] = [None] * tc.requests
    records: List[Optional[RequestRecord]] = [None] * tc.requests

    def _process_for(client: int, kind: str):
        # One loaded process per (connection, request type), reused for
        # every request that connection serves of that type — requests
        # on one connection serialize, so reuse is race-free, and the
        # profiles are re-entrant by construction.
        key = (client, kind)
        if key not in procs:
            if kind not in exes:
                exes[kind] = machine.compile(PROFILES[kind].source)
            procs[key] = machine.load(exes[kind], name=f"c{client}.{kind}")
        return procs[key]

    def _shed(client: int, idx: int, kind: str, span, reason: str) -> None:
        """Record a typed admission rejection (no thread is spawned)."""
        trace.close(span, client=client, shed=reason)
        records[idx] = RequestRecord(
            index=idx,
            kind=kind,
            client=client,
            arrival_ns=arrivals_seen[idx],
            start_ns=sim.now,
            end_ns=sim.now,
            ok=False,
            shed=True,
            shed_reason=reason,
        )

    def _serve_one(client: int, idx: int, kind: str, span):
        profile = PROFILES[kind]
        if tc.deadline_ns:
            # The deadline clock starts at *arrival*: a request that
            # already burned its budget queueing is shed here (typed),
            # not served late — the admission slot it held goes back.
            deadline_at = arrivals_seen[idx] + tc.deadline_ns
            if sim.now >= deadline_at:
                machine.stats.count("admission.shed.deadline")
                if tc.admission_limit:
                    machine.admission_release()
                _shed(client, idx, kind, span, "deadline")
                return
        process = _process_for(client, kind)
        start = sim.now
        thread = machine.spawn(process, entry="main", args=profile.args)
        if tc.deadline_ns:
            # Brownout risk assessment reads the task's deadline.
            thread.task.deadline_ns = arrivals_seen[idx] + tc.deadline_ns
        if tc.traced and span is not None:
            # Thread the request's causal context into everything its
            # fresh task emits (h2n legs, DMA, retries, placement); the
            # serve_request root adopts the task pid as its child root.
            trace.set_context(
                thread.task.pid,
                span.attrs["trace_id"],
                root_span_id=span.attrs.get("span_id"),
                request=idx,
            )
        yield thread.proc  # join: resumes when the request thread finishes
        if tc.traced:
            trace.clear_context(thread.task.pid)
        trace.close(span, client=client)
        retval = signed_retval(thread.result)
        records[idx] = RequestRecord(
            index=idx,
            kind=kind,
            client=client,
            arrival_ns=arrivals_seen[idx],
            start_ns=start,
            end_ns=sim.now,
            ok=retval == profile.expected,
        )
        # Recycle the finished task's 64 KB NxP stack: BRAM would cap
        # the run near 250 requests otherwise.
        if thread.task.nxp_stack_base is not None:
            machine.release_nxp_stack(thread.task.nxp_stack_base)
        if tc.admission_limit:
            machine.admission_release()

    if tc.mode == "open":
        offsets = generate_arrivals(tc)
        channels = [sim.channel(f"client[{c}]") for c in range(clients)]
        counts = [0] * clients
        for idx in range(tc.requests):
            counts[idx % clients] += 1

        def _arrive(idx: int, kind: str):
            # Runs at exactly epoch + offsets[idx]: the instant was
            # fixed by spawn_at before the simulation started, so the
            # arrival cannot be delayed by a congested machine — the
            # open-loop property.  Queueing shows up as channel wait.
            arrivals_seen[idx] = sim.now
            if tc.traced:
                span = trace.open_span(
                    "serve_request", kind=kind, index=idx,
                    trace_id=_request_trace_id(tc.seed, idx),
                )
            else:
                span = trace.open_span("serve_request", kind=kind, index=idx)
            if tc.admission_limit or tc.deadline_ns:
                deadline_at = (
                    sim.now + tc.deadline_ns if tc.deadline_ns else None
                )
                try:
                    machine.admit_request(deadline_at)
                except AdmissionRejected as exc:
                    # Front-door shed: the client still consumes one
                    # channel item (counts[] is precomputed), but the
                    # marker carries no work.
                    _shed(idx % clients, idx, kind, span, exc.reason)
                    channels[idx % clients].put(None)
                    return
            channels[idx % clients].put((idx, kind, span))
            return
            yield  # unreachable; makes this function a generator

        def _client(c: int):
            for _ in range(counts[c]):
                item = yield channels[c].get()
                if item is None:
                    continue  # arrival was shed at the front door
                idx, kind, span = item
                yield from _serve_one(c, idx, kind, span)

        for idx, (off, kind) in enumerate(zip(offsets, kinds)):
            sim.spawn_at(epoch + off, _arrive(idx, kind), name=f"arrive[{idx}]")
        for c in range(clients):
            sim.spawn(_client(c), name=f"client[{c}]")
    else:  # closed loop: completions pace the clients

        def _client(c: int):
            for idx in range(c, tc.requests, clients):
                kind = kinds[idx]
                arrivals_seen[idx] = sim.now
                if tc.traced:
                    span = trace.open_span(
                        "serve_request", kind=kind, index=idx,
                        trace_id=_request_trace_id(tc.seed, idx),
                    )
                else:
                    span = trace.open_span("serve_request", kind=kind, index=idx)
                if tc.admission_limit or tc.deadline_ns:
                    deadline_at = (
                        sim.now + tc.deadline_ns if tc.deadline_ns else None
                    )
                    try:
                        machine.admit_request(deadline_at)
                    except AdmissionRejected as exc:
                        _shed(c, idx, kind, span, exc.reason)
                        continue
                yield from _serve_one(c, idx, kind, span)
                if tc.think_ns > 0:
                    yield sim.timeout(tc.think_ns)

        for c in range(clients):
            sim.spawn(_client(c), name=f"client[{c}]")

    if tc.kill_at_ns is not None:
        after_kill = schedule_kill(
            machine, tc.kill_device, tc.kill_at_ns, tc.kill_mode, tc.revive_at_ns
        )

    sim.run()

    unserved = [i for i, r in enumerate(records) if r is None]
    if unserved:
        raise RuntimeError(
            f"serving run quiesced with {len(unserved)} unserved request(s): "
            f"{unserved[:5]}..."
        )
    done: List[RequestRecord] = records  # type: ignore[assignment]
    served = [r for r in done if not r.shed]
    if not served:
        raise RuntimeError(
            "serving run shed every request; nothing to measure — lower "
            "the load or loosen deadline_ns/admission_limit"
        )

    latencies = [r.latency_ns for r in served]
    t_end = max(r.end_ns for r in served)
    window_ns = t_end - epoch
    achieved = len(served) / (window_ns / 1e9) if window_ns > 0 else 0.0
    offered = tc.qps if tc.mode == "open" else achieved
    hist = Histogram("serve_latency_ns")
    for value in latencies:
        hist.observe(value)
    kind_counts: Dict[str, int] = {}
    for r in served:
        kind_counts[r.kind] = kind_counts.get(r.kind, 0) + 1
    shed_by_reason: Dict[str, int] = {}
    for r in done:
        if r.shed:
            shed_by_reason[r.shed_reason] = shed_by_reason.get(r.shed_reason, 0) + 1
    stats = machine.stats.snapshot()
    post_revival, killed_health = after_kill() if tc.revive_at_ns is not None else ({}, "")

    return ServingResult(
        config=tc,
        records=done,
        arrivals_ns=[r.arrival_ns for r in done],
        epoch_ns=epoch,
        sim_ns=window_ns,
        offered_qps=offered,
        achieved_qps=achieved,
        p50_ns=quantile(latencies, 50),
        p95_ns=quantile(latencies, 95),
        p99_ns=quantile(latencies, 99),
        mean_ns=sum(latencies) / len(latencies),
        max_ns=max(latencies),
        mean_wait_ns=sum(r.wait_ns for r in served) / len(served),
        errors=sum(1 for r in served if not r.ok),
        kind_counts=kind_counts,
        latency_histogram=HistogramSummary.of(hist),
        utilization=device_utilization(
            trace, t_end, t_start=epoch,
            nxp_devices=tc.nxps if tc.nxps > 1 else None,
        ),
        open_spans=len(trace.open_spans()),
        observed=dict(sorted(machine.stats.observed_totals().items())),
        device_sessions=machine.placement.session_counts(),
        degraded_calls=int(stats.get("degraded.calls", 0)),
        shed=len(done) - len(served),
        shed_by_reason=shed_by_reason,
        brownout_calls=int(
            stats.get("brownout.deadline_risk", 0)
            + stats.get("brownout.queue_full", 0)
        ),
        retry_budget_denied=int(stats.get("retry_budget.denied", 0)),
        revived=int(stats.get("nxp.revived", 0)),
        post_revival_sessions=post_revival,
        killed_health=killed_health,
        paths=(
            extract_request_paths(trace, served) if tc.traced else []
        ),
        device_kicks=(
            _device_kicks(trace) if tc.traced and tc.nxps > 1 else {}
        ),
    )


def _device_kicks(trace) -> Dict[int, List[Tuple[float, float]]]:
    """Per-device h2n transfer intervals (traced runs label DMA spans
    with their engine's device index)."""
    out: Dict[int, List[Tuple[float, float]]] = {}
    for span in trace.finished_spans("dma.h2n"):
        dev = span.attrs.get("device")
        if dev is not None:
            out.setdefault(int(dev), []).append((span.start, span.end))
    for kicks in out.values():
        kicks.sort()
    return out


def aim_kill_ns(
    result: ServingResult,
    device: int,
    frac_lo: float = 0.5,
    frac_hi: float = 0.85,
) -> float:
    """Pick a kill instant that strands in-flight legs on ``device``.

    A leg is lost to an abrupt kill only if its descriptor is still in
    flight (DMA transfer running) or ring-queued when the device dies —
    a body already dispatched completes and replies.  This scans the
    *baseline* run's h2n transfer intervals for ``device`` inside the
    ``[frac_lo, frac_hi]`` span of the run and returns the midpoint of
    the transfer overlapped by the most concurrent transfers (latest
    such moment wins ties, keeping the post-kill degraded window
    short).  Arrivals are seeded, so the killed run replays the same
    history up to this instant.
    """
    kicks = result.device_kicks.get(device)
    if not kicks:
        raise ValueError(
            f"no h2n kicks recorded for device {device}; aim_kill_ns "
            "needs a traced multi-NxP baseline (TrafficConfig.traced)"
        )
    t_end = max(end for _start, end in kicks)
    lo, hi = frac_lo * t_end, frac_hi * t_end
    window = [k for k in kicks if lo <= k[0] <= hi] or kicks
    best = None
    for start, end in window:
        mid = start + 0.5 * (end - start)
        overlap = sum(1 for s, e in kicks if s <= mid < e)
        key = (overlap, mid)
        if best is None or key > best[0]:
            best = (key, mid)
    return best[1]


# ---------------------------------------------------------------------------
# latency-vs-load sweep
# ---------------------------------------------------------------------------


def sweep_latency_vs_load(
    qps_list: Sequence[float],
    base: Optional[TrafficConfig] = None,
    workers: Optional[int] = None,
) -> List[ServingResult]:
    """One serving run per offered-QPS point, fanned over worker
    processes; results come back in input order and are bit-identical
    at any worker count (each point is an independent machine)."""
    base = base if base is not None else TrafficConfig()
    jobs = [replace(base, qps=float(qps)) for qps in qps_list]
    return parallel_map(run_serving, jobs, workers=workers)


def saturation_point(
    results: Sequence[ServingResult], tolerance: float = 0.95
) -> Optional[float]:
    """The largest offered QPS the machine still keeps up with.

    A point "keeps up" when its :attr:`ServingResult.keep_up` ratio is
    >= ``tolerance`` (closed-loop points always keep up by
    construction).  Returns ``None`` when every point is past saturation.
    """
    good = [r.offered_qps for r in results if r.keep_up >= tolerance]
    return max(good) if good else None


# ---------------------------------------------------------------------------
# rendering / export
# ---------------------------------------------------------------------------


def render_serving_table(results: Sequence[ServingResult]) -> str:
    """The latency-vs-load table ``python -m repro serve`` prints."""
    rows = [
        (
            "offered_qps", "achieved", "p50_us", "p95_us", "p99_us",
            "wait_us", "host", "nxp", "dma", "shed", "err",
        )
    ]
    for r in results:
        util = {d: s.fraction for d, s in r.utilization.items()}
        rows.append(
            (
                f"{r.offered_qps:.0f}",
                f"{r.achieved_qps:.0f}",
                f"{r.p50_ns / 1000.0:.1f}",
                f"{r.p95_ns / 1000.0:.1f}",
                f"{r.p99_ns / 1000.0:.1f}",
                f"{r.mean_wait_ns / 1000.0:.1f}",
                f"{util.get('host_core', 0.0):.2f}",
                f"{util.get('nxp', 0.0):.2f}",
                f"{util.get('dma', 0.0):.2f}",
                str(r.shed),
                str(r.errors),
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows
    ]
    lines.insert(1, "  ".join("-" * w for w in widths))
    sat = saturation_point(results)
    first = results[0]
    lines.append("")
    lines.append(
        f"scenario={first.config.scenario} arrival={first.config.arrival} "
        f"mode={first.config.mode} seed={first.config.seed} "
        f"requests/point={len(first.records)} clients={first.config.clients}"
    )
    lines.append(
        "saturation: "
        + (f"~{sat:.0f} qps (last point with keep-up >= 0.95)"
           if sat is not None else "below the lowest offered point")
    )
    return "\n".join(lines)


def render_serving_openmetrics(results: Sequence[ServingResult]) -> str:
    """Serving curves as OpenMetrics text: one series per offered QPS in
    each family, every family declared once, observed-tier counters
    included."""
    lines: List[str] = []

    def point(r: ServingResult, **extra) -> Dict[str, str]:
        return {"offered_qps": f"{r.offered_qps:g}", "scenario": r.config.scenario, **extra}

    _emit_histogram(
        lines,
        _metric_name("serving_latency_ns"),
        [(point(r), r.latency_histogram) for r in results],
    )
    _emit_family(
        lines, "gauge", "serving_achieved_qps", [(point(r), r.achieved_qps) for r in results]
    )
    _emit_family(
        lines,
        "gauge",
        "serving_device_utilization",
        [
            ({"offered_qps": f"{r.offered_qps:g}", "device": device}, summary.fraction)
            for r in results
            for device, summary in r.utilization.items()
        ],
    )
    _emit_family(
        lines,
        "counter",
        "serving_shed",
        [
            (point(r, reason=reason), n)
            for r in results
            for reason, n in sorted(r.shed_by_reason.items())
        ],
    )
    _emit_family(
        lines,
        "counter",
        "serving_retry_budget_denied",
        [(point(r), r.retry_budget_denied) for r in results],
    )
    _emit_family(lines, "counter", "serving_revived", [(point(r), r.revived) for r in results])
    for key in sorted({key for r in results for key in r.observed}):
        _emit_family(
            lines,
            "counter",
            key,
            [(point(r), r.observed[key]) for r in results if key in r.observed],
        )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def serving_report_doc(results: Sequence[ServingResult]) -> dict:
    """The ``flick.serving.v2`` JSON document for the sweep."""
    first = results[0].config if results else TrafficConfig()
    return {
        "benchmark": "serving",
        "schema": "flick.serving.v2",
        "scenario": first.scenario,
        "arrival": first.arrival,
        "mode": first.mode,
        "seed": first.seed,
        "saturation_qps": saturation_point(results),
        "points": [r.to_point() for r in results],
    }
