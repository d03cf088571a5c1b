"""Unit tests for statistics helpers."""

import math

import pytest

from repro.sim import Accumulator, Counter, Gauge, Histogram, StatRegistry, mean, percentile
from repro.sim.stats import RESERVOIR_SIZE


def test_mean_basic():
    assert mean([1, 2, 3]) == 2


def test_mean_empty_is_nan():
    # Regression: used to raise ValueError; a report over an idle
    # device must never throw mid-render.
    assert math.isnan(mean([]))


def test_percentile_nearest_rank():
    vals = list(range(1, 101))
    assert percentile(vals, 50) == 50
    assert percentile(vals, 99) == 99
    assert percentile(vals, 100) == 100
    assert percentile(vals, 0) == 1


def test_percentile_out_of_range():
    with pytest.raises(ValueError):
        percentile([1], 101)
    with pytest.raises(ValueError):
        percentile([1], -0.5)


def test_percentile_empty_is_nan():
    # Regression: used to raise ValueError (satellite: empty-state safety).
    assert math.isnan(percentile([], 50))
    assert math.isnan(percentile([], 0))
    assert math.isnan(percentile([], 100))


def test_counter_add():
    c = Counter("x")
    c.add()
    c.add(4)
    assert c.value == 5


def test_counter_rejects_negative():
    c = Counter("x")
    with pytest.raises(ValueError):
        c.add(-1)


class TestGauge:
    def test_set_and_high_water(self):
        g = Gauge("depth")
        g.set(3)
        g.set(1)
        assert g.value == 1
        assert g.max_value == 3

    def test_add_moves_both_ways(self):
        g = Gauge("depth")
        g.add(5)
        g.add(-2)
        assert g.value == 3
        assert g.max_value == 5


class TestAccumulator:
    def test_stats(self):
        a = Accumulator("lat")
        for v in [10.0, 20.0, 30.0]:
            a.add(v)
        assert a.count == 3
        assert a.total == 60.0
        assert a.mean == 20.0
        assert a.min == 10.0
        assert a.max == 30.0

    def test_empty_state_is_nan_not_raise(self):
        a = Accumulator("idle")
        assert a.count == 0
        assert a.total == 0.0
        assert math.isnan(a.mean)
        assert math.isnan(a.min)
        assert math.isnan(a.max)
        assert math.isnan(a.percentile(50))

    def test_reservoir_is_bounded_with_exact_aggregates(self):
        # Acceptance: >= 100k samples, memory bounded, aggregates exact.
        a = Accumulator("big")
        n = 120_000
        for i in range(n):
            a.add(float(i))
        assert len(a.samples) == RESERVOIR_SIZE
        assert a.count == n
        assert a.total == sum(float(i) for i in range(n))
        assert a.min == 0.0
        assert a.max == float(n - 1)
        # The reservoir is a uniform sample: quantile estimates stay in range
        # and roughly centered.
        p50 = a.percentile(50)
        assert 0.0 <= p50 <= float(n - 1)
        assert abs(p50 - n / 2) < n * 0.1

    def test_reservoir_is_deterministic(self):
        # Two accumulators with the same name fed the same sequence keep
        # bit-identical reservoirs (required by the parity contracts).
        a, b = Accumulator("rt"), Accumulator("rt")
        for i in range(20_000):
            a.add(float(i % 997))
            b.add(float(i % 997))
        assert a.samples == b.samples
        assert a.percentile(99) == b.percentile(99)

    def test_small_sample_percentile_is_exact(self):
        a = Accumulator("rt")
        for v in [1.0, 2.0, 3.0, 4.0]:
            a.add(v)
        assert a.percentile(0) == 1.0
        assert a.percentile(100) == 4.0
        assert a.percentile(50) == 2.5  # linear interpolation


class TestRegistry:
    def test_counter_is_shared(self):
        reg = StatRegistry()
        reg.count("tlb.miss")
        reg.count("tlb.miss", 2)
        assert reg.get("tlb.miss") == 3
        assert reg.get("nonexistent") == 0
        assert reg.get("nonexistent", default=-1) == -1

    def test_sample_and_snapshot(self):
        reg = StatRegistry()
        reg.count("migrations", 5)
        reg.sample("rt", 18.3)
        reg.sample("rt", 16.9)
        snap = reg.snapshot()
        assert snap["migrations"] == 5
        assert snap["rt.count"] == 2
        assert snap["rt.mean"] == pytest.approx(17.6)
        # richer derived keys ride along
        assert snap["rt.total"] == pytest.approx(35.2)
        assert snap["rt.min"] == 16.9
        assert snap["rt.max"] == 18.3
        assert "rt.p50" in snap and "rt.p99" in snap

    def test_same_name_same_object(self):
        reg = StatRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.accumulator("b") is reg.accumulator("b")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_snapshot_never_contains_nan(self):
        reg = StatRegistry()
        reg.accumulator("idle")  # registered but empty
        reg.histogram("quiet")
        reg.count("events")
        snap = reg.snapshot()
        assert snap == {"events": 1}
        assert not any(isinstance(v, float) and math.isnan(v) for v in snap.values())

    def test_histogram_and_gauge_in_snapshot(self):
        reg = StatRegistry()
        reg.observe("lat", 100.0)
        reg.observe("lat", 200.0)
        reg.set_gauge("depth", 4)
        snap = reg.snapshot()
        assert snap["lat.count"] == 2
        assert snap["lat.sum"] == 300.0
        assert snap["lat.min"] == 100.0
        assert snap["lat.max"] == 200.0
        assert snap["depth"] == 4
        assert snap["depth.max"] == 4

    def test_metrics_disabled_registers_nothing(self):
        reg = StatRegistry(metrics_enabled=False)
        reg.observe("lat", 100.0)
        reg.set_gauge("depth", 4)
        reg.count("events")
        reg.sample("rt", 1.0)
        assert reg.histograms == {}
        assert reg.gauges == {}
        assert reg.snapshot() == reg.base_snapshot()

    def test_base_snapshot_excludes_metrics_tier(self):
        reg = StatRegistry()
        reg.count("events", 2)
        reg.sample("rt", 1.0)
        reg.observe("lat", 100.0)
        reg.set_gauge("depth", 4)
        base = reg.base_snapshot()
        assert "events" in base and "rt.mean" in base
        assert not any(k.startswith(("lat", "depth")) for k in base)


class TestDelta:
    def test_delta_reports_only_changes(self):
        reg = StatRegistry()
        reg.count("migrations", 5)
        reg.count("tlb.miss", 2)
        before = reg.snapshot()
        reg.count("migrations", 3)
        reg.count("dma.to_nxp")  # born after the snapshot: counts from zero
        delta = reg.delta(before)
        assert delta == {"migrations": 3, "dma.to_nxp": 1}

    def test_delta_of_unchanged_registry_is_empty(self):
        reg = StatRegistry()
        reg.count("migrations", 5)
        reg.sample("rt", 18.3)
        reg.observe("lat", 100.0)
        assert reg.delta(reg.snapshot()) == {}

    def test_delta_is_monotone_counts_and_totals_not_means(self):
        # Semantics change (documented): deltas operate on counts/totals,
        # which only grow; a falling mean must never produce a negative
        # (or any) ".mean" delta entry.
        reg = StatRegistry()
        reg.sample("rt", 100.0)
        before = reg.snapshot()
        reg.sample("rt", 10.0)  # mean drops from 100 to 55
        delta = reg.delta(before)
        assert delta == {"rt.count": 1, "rt.total": 10.0}
        assert all(v >= 0 for v in delta.values())
        assert not any(
            k.endswith((".mean", ".min", ".max", ".p50", ".p99")) for k in delta
        )

    def test_delta_covers_histograms(self):
        reg = StatRegistry()
        reg.observe("lat", 8.0)
        before = reg.snapshot()
        reg.observe("lat", 4.0)
        delta = reg.delta(before)
        assert delta == {"lat.count": 1, "lat.sum": 4.0}

    def test_phase_mean_from_delta(self):
        # The documented recipe: mean over a phase = delta total / delta count.
        reg = StatRegistry()
        reg.sample("rt", 100.0)
        before = reg.snapshot()
        reg.sample("rt", 10.0)
        reg.sample("rt", 20.0)
        d = reg.delta(before)
        assert d["rt.total"] / d["rt.count"] == 15.0


class TestObservedTier:
    """Parity-exempt counters: always recorded, never in a snapshot."""

    def _registry(self, metrics_enabled=True):
        reg = StatRegistry(metrics_enabled=metrics_enabled)
        reg.count("events", 2)
        reg.sample("rt", 1.0)
        reg.count_observed("trace.dropped", 3)
        reg.observed_counter("jit.compiled_blocks", "host.main.t0").value += 4
        reg.observed_counter("jit.compiled_blocks", "nxp.core").value += 1
        return reg

    def test_never_in_snapshot_base_snapshot_or_delta(self):
        reg = self._registry()
        before = reg.snapshot()
        for view in (before, reg.base_snapshot(), reg.delta({})):
            assert not any(k.startswith("trace.") or "jit." in k for k in view)
        reg.count_observed("trace.dropped")
        reg.observed_counter("jit.compiled_blocks", "nxp.core").value += 1
        assert reg.delta(before) == {}

    def test_recorded_with_metrics_off(self):
        reg = self._registry(metrics_enabled=False)
        assert reg.observed_snapshot() == {
            "trace.dropped": 3,
            "host.main.t0.jit.compiled_blocks": 4,
            "nxp.core.jit.compiled_blocks": 1,
        }

    def test_totals_sum_over_scopes(self):
        reg = self._registry()
        assert reg.observed_totals() == {"trace.dropped": 3, "jit.compiled_blocks": 5}
        assert reg.observed_counter("jit.compiled_blocks", "nxp.core") is (
            reg.observed_counter("jit.compiled_blocks", "nxp.core")
        )

    def test_jit_on_and_off_runs_differ_only_in_jit_counters(self):
        from repro.analysis.simspeed import COMPUTE_LOOP
        from repro.core.config import FlickConfig
        from repro.core.machine import FlickMachine

        tiers = []
        snapshots = []
        for jit in (True, False):
            machine = FlickMachine(FlickConfig(jit_enabled=jit))
            machine.run_program(COMPUTE_LOOP, args=[200])
            snapshots.append(machine.stats.snapshot())
            tiers.append(machine.stats.observed_snapshot())
        on, off = tiers
        assert snapshots[0] == snapshots[1]
        assert on["host.main.t0.jit.compiled_blocks"] > 0
        differing = {k for k in on.keys() | off.keys() if on.get(k) != off.get(k)}
        assert differing and all(".jit." in k for k in differing)
        assert not any(".jit." in k for k in off)
