"""Placement-policy units (src/repro/os/placement.py).

Policies are exercised against lightweight fake devices so each routing
property is pinned in isolation: static pins the lowest live index,
round-robin keeps its phase stable when devices leave and rejoin,
least-loaded follows outstanding-session counts, and locality honours a
task's stack-home device.  The layer-level tests cover the observed-tier
counters (pick/failover/exhausted) that the fleet report aggregates.
"""

import pytest

from repro.os.placement import (
    POLICIES,
    LeastLoadedPolicy,
    LocalityPolicy,
    PlacementLayer,
    RoundRobinPolicy,
    StaticPolicy,
)
from repro.sim.stats import StatRegistry


class FakeDevice:
    def __init__(self, index, alive=True, outstanding=0, probe_ready=False):
        self.index = index
        self.alive = alive
        self.outstanding = outstanding
        self.probe_ready = probe_ready

    def __repr__(self):
        return f"dev{self.index}"


class FakeTask:
    def __init__(self, nxp_device=None):
        self.nxp_device = nxp_device


class FakeMachine:
    def __init__(self, devices):
        self.devices = devices
        self.stats = StatRegistry()


def _devs(n, **kw):
    return [FakeDevice(i, **kw) for i in range(n)]


class TestPolicies:
    def test_registry_is_complete(self):
        assert sorted(POLICIES) == [
            "least_loaded", "locality", "round_robin", "static",
        ]
        for name, cls in POLICIES.items():
            assert cls.name == name

    def test_static_pins_lowest_live_index(self):
        devs = _devs(3)
        policy = StaticPolicy()
        assert policy.choose(FakeTask(), devs).index == 0
        assert policy.choose(FakeTask(), devs[1:]).index == 1

    def test_round_robin_cycles_in_index_order(self):
        devs = _devs(3)
        policy = RoundRobinPolicy()
        picks = [policy.choose(FakeTask(), devs).index for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_round_robin_phase_survives_device_departure(self):
        # dev1 dying must not reshuffle the phase for its peers: the
        # cycle position is tracked by device *index*, not list slot.
        devs = _devs(3)
        policy = RoundRobinPolicy()
        assert policy.choose(FakeTask(), devs).index == 0
        without_dev1 = [devs[0], devs[2]]
        assert policy.choose(FakeTask(), without_dev1).index == 2
        assert policy.choose(FakeTask(), devs).index == 0

    def test_least_loaded_follows_outstanding(self):
        devs = [FakeDevice(0, outstanding=2), FakeDevice(1, outstanding=1)]
        assert LeastLoadedPolicy().choose(FakeTask(), devs).index == 1

    def test_least_loaded_ties_break_to_lowest_index(self):
        devs = _devs(3, outstanding=1)
        assert LeastLoadedPolicy().choose(FakeTask(), devs).index == 0

    def test_locality_prefers_stack_home(self):
        devs = [FakeDevice(0), FakeDevice(1, outstanding=9)]
        assert LocalityPolicy().choose(FakeTask(nxp_device=1), devs).index == 1

    def test_locality_falls_back_when_home_is_gone(self):
        devs = [FakeDevice(0, outstanding=3), FakeDevice(2)]
        assert LocalityPolicy().choose(FakeTask(nxp_device=1), devs).index == 2

    def test_locality_first_migrator_uses_least_loaded(self):
        devs = [FakeDevice(0, outstanding=5), FakeDevice(1)]
        assert LocalityPolicy().choose(FakeTask(), devs).index == 1


class TestPlacementLayer:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown placement policy"):
            PlacementLayer(FakeMachine(_devs(2)), "first_fit")

    def test_pick_skips_dead_and_excluded_devices(self):
        devs = _devs(3)
        devs[0].alive = False
        machine = FakeMachine(devs)
        layer = PlacementLayer(machine, "static")
        assert layer.pick(FakeTask()).index == 1
        assert layer.pick(FakeTask(), exclude=frozenset({1})).index == 2
        assert machine.stats.observed_snapshot()["placement.failover"] == 1

    def test_exhausted_returns_none_and_counts(self):
        devs = _devs(2, alive=False)
        machine = FakeMachine(devs)
        layer = PlacementLayer(machine, "round_robin")
        assert layer.pick(FakeTask()) is None
        assert machine.stats.observed_snapshot()["placement.exhausted"] == 1

    def test_session_counts_cover_every_device(self):
        devs = _devs(2)
        layer = PlacementLayer(FakeMachine(devs), "round_robin")
        for _ in range(3):
            layer.pick(FakeTask())
        assert layer.session_counts() == {0: 2, 1: 1}
