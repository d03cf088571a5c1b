"""Critical-path extraction: the exact-tiling property and tail attribution.

The load-bearing invariant: for every request of a traced run —
interpreted or hosted, clean or suffering retries/failover — the phase
breakdown partitions the measured latency *exactly* (``math.fsum`` of
phases equals ``end - arrival`` to float precision).  Nothing
double-counted, nothing unattributed.
"""

import math
from dataclasses import replace

import pytest

from repro.analysis.critical_path import (
    DEFAULT_BANDS,
    PHASES,
    RequestPath,
    _elementary_slices,
    _tile,
    extract_request_paths,
    session_skeletons,
    render_why,
    tail_attribution,
    why_doc,
    why_report,
)
from repro import FlickMachine
from repro.analysis import serving
from repro.analysis.breakdown import measure_breakdown
from repro.analysis.chaos import named_scenarios, run_scenario
from repro.analysis.serving import (
    RequestRecord,
    TrafficConfig,
    aim_kill_ns,
    run_serving,
)
from repro.core.config import DEFAULT_CONFIG
from repro.core.hosted import HostedMachine, HostedProgram
from repro.sim.faults import FaultRule

QUICK_TRACED = TrafficConfig(qps=2000.0, requests=24, clients=3, seed=7, traced=True)


def assert_tiles(path):
    assert math.isclose(
        path.phase_sum_ns, path.latency_ns, rel_tol=1e-9, abs_tol=1e-6
    ), (
        f"request {path.trace_id}: phases sum {path.phase_sum_ns} != "
        f"latency {path.latency_ns} ({path.phases})"
    )
    assert set(path.phases) <= set(PHASES)
    assert all(v >= 0.0 for v in path.phases.values())
    assert path.dominant in PHASES


class TestInterpretedTiling:
    def test_clean_run_tiles_exactly(self):
        r = run_serving(QUICK_TRACED)
        assert len(r.paths) == len(r.records)
        for path in r.paths:
            assert_tiles(path)

    def test_clean_run_phases_are_plausible(self):
        r = run_serving(QUICK_TRACED)
        # every request crosses the ISA boundary at least once: protocol
        # and device time must appear somewhere in the run
        assert any(p.phases.get("protocol_host", 0.0) > 0.0 for p in r.paths)
        assert any(p.phases.get("nxp_execute", 0.0) > 0.0 for p in r.paths)
        for p in r.paths:
            assert p.retries == 0
            assert p.failovers == 0
            assert not p.fallback

    def test_multi_nxp_devices_on_path(self):
        tc = replace(QUICK_TRACED, nxps=2, policy="round_robin")
        r = run_serving(tc)
        for path in r.paths:
            assert_tiles(path)
        devices = set()
        for p in r.paths:
            devices.update(p.devices)
        assert devices == {0, 1}
        assert all(
            lbl.startswith("nxp") for p in r.paths for lbl in p.device_labels
        )


class TestKillRunTiling:
    @pytest.fixture(scope="class")
    def killed(self):
        base = TrafficConfig(
            qps=20_000.0,
            requests=120,
            clients=8,
            seed=7,
            nxps=2,
            policy="round_robin",
            traced=True,
        )
        baseline = run_serving(base)
        kill_at = aim_kill_ns(baseline, base.kill_device)
        return run_serving(replace(base, kill_at_ns=kill_at))

    def test_tiles_exactly_under_failover(self, killed):
        for path in killed.paths:
            assert_tiles(path)

    def test_recovery_phases_attributed(self, killed):
        tripped = [p for p in killed.paths if p.retries > 0]
        assert tripped, "aimed kill produced no watchdog trips"
        recovered = [
            p
            for p in killed.paths
            if p.phases.get("retry_backoff", 0.0) > 0.0
            or p.phases.get("failover", 0.0) > 0.0
        ]
        assert recovered

    def test_why_names_recovery_with_exemplars(self, killed):
        rep = why_report(killed.paths, percentile=99.0)
        assert rep.culprit_phase in ("failover", "retry_backoff")
        assert rep.tail.exemplars
        # exemplars are real request trace ids from this run
        ids = {p.trace_id for p in killed.paths}
        assert set(rep.tail.exemplars) <= ids


def _traced_hosted_run(prog, cfg, entry="main", args=()):
    """Run a hosted program under a synthetic serve_request root and
    fold it into a RequestPath."""
    hm = HostedMachine(prog, cfg=cfg)
    tr = hm.machine.trace
    tid = "req-hosted-0000"
    root = tr.open_span("serve_request", pid=None, trace_id=tid, index=0)
    orig = hm.machine.kernel.register_task

    def hook(task):
        orig(task)
        tr.set_context(task.pid, tid, root_span_id=root.attrs["span_id"])

    hm.machine.kernel.register_task = hook
    arrival = hm.sim.now
    out = hm.run(entry, list(args))
    end = hm._thread.finished_at
    tr.close(root)
    rec = RequestRecord(
        index=0,
        kind="hosted",
        client=0,
        arrival_ns=arrival,
        start_ns=arrival,
        end_ns=end,
        ok=True,
    )
    (path,) = extract_request_paths(tr, [rec])
    return out, path


def _hosted_program():
    prog = HostedProgram()

    @prog.nxp()
    def dev(ctx, x):
        ctx.compute(300)
        return x + 7
        yield

    @prog.host()
    def main(ctx, n):
        total = 0
        for i in range(n):
            total += yield from ctx.call("dev", i)
        return total

    return prog


class TestHostedTiling:
    def test_hosted_clean_run_tiles(self):
        cfg = DEFAULT_CONFIG.with_overrides(trace_context=True)
        out, path = _traced_hosted_run(_hosted_program(), cfg, args=[3])
        assert out.retval == 0 + 1 + 2 + 3 * 7
        assert_tiles(path)
        assert path.phases.get("nxp_execute", 0.0) > 0.0
        assert path.phases.get("protocol_host", 0.0) > 0.0
        assert path.retries == 0

    def test_hosted_retry_run_tiles(self):
        cfg = DEFAULT_CONFIG.with_overrides(
            trace_context=True,
            faults=(FaultRule("dma_drop", direction="h2n", nth=1, count=1),),
            migration_watchdog_ns=20_000.0,
        )
        out, path = _traced_hosted_run(_hosted_program(), cfg, args=[3])
        assert out.retval == 0 + 1 + 2 + 3 * 7
        assert_tiles(path)
        assert path.retries >= 1
        assert path.phases.get("retry_backoff", 0.0) > 0.0


def mk_path(idx, latency_ns, phases, ok=True):
    dominant = max(PHASES, key=lambda p: (phases.get(p, 0.0), -PHASES.index(p)))
    return RequestPath(
        trace_id=f"req-s-{idx:04d}",
        index=idx,
        kind="nisa",
        ok=ok,
        arrival_ns=0.0,
        end_ns=latency_ns,
        phases=phases,
        dominant=dominant,
    )


class TestTailAttribution:
    def test_default_bands_partition(self):
        paths = [
            mk_path(i, 1000.0 * (i + 1), {"host_execute": 1000.0 * (i + 1)})
            for i in range(100)
        ]
        bands = tail_attribution(paths)
        assert [b.label for b in bands] == ["p0-p50", "p50-p95", "p95-p99", "p99-p100"]
        assert [b.count for b in bands] == [50, 45, 4, 1]

    def test_exemplars_worst_first(self):
        paths = [
            mk_path(i, 1000.0 * (i + 1), {"host_execute": 1000.0 * (i + 1)})
            for i in range(10)
        ]
        (band,) = tail_attribution(paths, bands=((0.0, 100.0),), exemplars=3)
        assert band.exemplars == ("req-s-0009", "req-s-0008", "req-s-0007")

    def test_band_phase_means(self):
        paths = [mk_path(i, 100.0, {"dma_h2n": 60.0, "host_execute": 40.0}) for i in range(4)]
        (band,) = tail_attribution(paths, bands=((0.0, 100.0),))
        assert band.phases["dma_h2n"] == pytest.approx(60.0)
        assert band.phases["host_execute"] == pytest.approx(40.0)
        assert band.dominant == "dma_h2n"


class TestWhyReport:
    def _paths(self):
        # 98 uniform requests plus 2 tail requests that pay a retry storm
        body = [mk_path(i, 100.0, {"host_execute": 100.0}) for i in range(98)]
        tail = [
            mk_path(98 + j, 1000.0, {"host_execute": 100.0, "retry_backoff": 900.0})
            for j in range(2)
        ]
        return body + tail

    def test_culprit_is_excess_over_baseline(self):
        rep = why_report(self._paths(), percentile=99.0)
        assert rep.culprit_phase == "retry_backoff"
        assert "retry" in rep.culprit
        assert rep.tail.label == "p99-p100"
        assert set(rep.tail.exemplars) <= {"req-s-0098", "req-s-0099"}

    def test_render_and_doc(self):
        rep = why_report(self._paths(), percentile=99.0)
        text = render_why(rep)
        assert "verdict:" in text
        assert "req-s-" in text
        doc = why_doc(rep)
        assert doc["schema"] == "flick.why.v1"
        assert doc["culprit_phase"] == "retry_backoff"
        assert doc["tail"]["band"] == "p99-p100"

    def test_empty_paths_raises(self):
        with pytest.raises(ValueError):
            why_report([])

    def test_uniform_load_blames_dominant(self):
        paths = [mk_path(i, 100.0, {"queue_wait": 70.0, "host_execute": 30.0}) for i in range(20)]
        rep = why_report(paths, percentile=99.0)
        assert rep.culprit_phase == "queue_wait"


class TestUnknownTraces:
    def test_untraced_record_still_tiles(self):
        # a record whose spans were never traced: whole window defaults
        # to coarse phases but the tiling invariant still holds
        r = run_serving(QUICK_TRACED)
        trace_less = RequestRecord(
            index=9999,
            kind="nisa",
            client=0,
            arrival_ns=0.0,
            start_ns=0.0,
            end_ns=5000.0,
            ok=True,
        )

        class _EmptyTrace:
            events = []

            @staticmethod
            def finished_spans(name=None):
                return []

        (path,) = extract_request_paths(_EmptyTrace(), [trace_less])
        assert path.trace_id == "req-unknown-9999"
        assert_tiles(path)
        assert path.phases == {"host_execute": 5000.0}


def _record_machines(monkeypatch):
    """The machines ``run_serving`` builds from now on, in build order."""
    machines = []

    class Recording(serving.FlickMachine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            machines.append(self)

    monkeypatch.setattr(serving, "FlickMachine", Recording)
    return machines


class TestGroupingsReconcile:
    """The request and session groupings read one phase model, so over a
    whole traced run they account for the same time: NxP residency, and
    everything a request spends inside migration sessions (all of its
    latency but host execution and queueing)."""

    @pytest.mark.parametrize(
        "tc",
        [
            replace(QUICK_TRACED, scenario="null_call", requests=60),
            replace(QUICK_TRACED, qps=20_000.0, requests=120, clients=8,
                    nxps=2, policy="round_robin"),
            replace(QUICK_TRACED, scenario="mixed", requests=40),
        ],
        ids=["null_call", "two_nxps", "mixed"],
    )
    def test_request_sums_match_session_means(self, tc, monkeypatch):
        machines = _record_machines(monkeypatch)
        r = run_serving(tc)
        (machine,) = machines
        b = measure_breakdown(machine.trace)
        assert b.sessions > 0
        nxp = math.fsum(p.phases.get("nxp_execute", 0.0) for p in r.paths)
        assert nxp == pytest.approx(b.sessions * b.phases["nxp_execute"], rel=1e-9)
        in_sessions = math.fsum(
            p.latency_ns - p.phases.get("host_execute", 0.0) - p.phases.get("queue_wait", 0.0)
            for p in r.paths
        )
        assert in_sessions == pytest.approx(b.sessions * b.total_ns, rel=1e-9)


class TestSkeletonTiling:
    NESTED = """
    @nxp func inner(x) { return x * 10; }
    func host_mid(x) { return inner(x) + 1; }
    @nxp func dev(x) { return host_mid(x) + 100; }
    func main(n) {
        var i = 0;
        var acc = 0;
        while (i < n) { acc = acc + dev(i); i = i + 1; }
        return acc;
    }
    """

    def test_partition_path_matches_elementary_slices(self):
        """A skeleton already partitions its session, so _tile takes its
        claims as the slices; cutting and awarding them the general way
        gives the same per-phase sums, bit for bit."""
        machine = FlickMachine()
        machine.run_program(self.NESTED, args=[3])
        skeletons = session_skeletons(machine.trace.finished_spans(), machine.trace.events)
        assert len(skeletons) == 6
        for session, _legs, skeleton in skeletons:
            general: dict = {}
            for phase, a, b in _elementary_slices(session.start, session.end, skeleton):
                general.setdefault(phase, []).append(b - a)
            tiled = _tile(session.start, session.end, skeleton)
            assert tiled == {phase: math.fsum(w) for phase, w in general.items()}
            assert math.fsum(tiled.values()) == pytest.approx(session.duration, abs=1e-6)


class TestLegBeforeFallback:
    """Under the overload storm a reply can be delayed past the watchdog
    after its leg ran, and the retry budget then denies the retransmit,
    so the session ends in host fallback.  It has no skeleton and stays
    out of the session means, but its leg is still NxP residency on the
    request's path."""

    def test_leg_still_claims_nxp_execute(self, monkeypatch):
        machines = _record_machines(monkeypatch)
        storm = named_scenarios(0)["overload-storm"]
        result = run_scenario(replace(storm, traffic=replace(storm.traffic, traced=True)))
        assert result.verdict == "shed"
        (machine,) = machines
        spans: dict = {}
        for s in machine.trace.finished_spans():
            spans.setdefault(s.attrs.get("trace_id"), []).append(s)
        events: dict = {}
        for e in machine.trace.events:
            events.setdefault(e.attrs.get("trace_id"), []).append(e)
        fell_back_after_leg = []
        for path in result.serving.paths:
            assert_tiles(path)
            mine = spans.get(path.trace_id, [])
            legs = math.fsum(s.duration for s in mine if s.name == "nxp_resident")
            assert path.phases.get("nxp_execute", 0.0) == pytest.approx(legs, rel=1e-9)
            cuts = session_skeletons(mine, events.get(path.trace_id, []))
            if any(own and not skeleton for _s, own, skeleton in cuts):
                fell_back_after_leg.append(path)
        first = fell_back_after_leg[0]
        assert (first.index, first.fallback, first.retries) == (35, True, 1)
        assert first.phases == pytest.approx({
            "host_execute": 2872.6388888957445,
            "protocol_host": 6750.0,
            "dma_n2h": 730.6451612904202,
            "nxp_execute": 11025.967741935281,
            "retry_backoff": 108974.03225806472,
            "fallback": 18405.56989246863,
        }, rel=1e-9)
