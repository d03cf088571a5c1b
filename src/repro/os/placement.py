"""Session placement across a machine's NxP devices (docs/FLEET.md).

Every host→NxP migration *session* (the outermost ISA-crossing call, including any reentrant
ladder it spawns) must be routed to exactly one device: descriptor
sequence numbers, replay caches and the task's suspended NxP frames are
all per-device state, so a session cannot straddle devices.  The
:class:`PlacementLayer` makes that routing decision once per session,
through a pluggable policy:

``static``
    Always the lowest-indexed live device — the default, and the
    baseline for ablations.
``round_robin``
    Cycle through live devices in index order.  Oblivious but fair;
    the default for fleet serving runs.
``least_loaded``
    The live device with the fewest outstanding sessions (ties break
    to the lowest index).  Adapts to skewed session lengths.
``locality``
    Prefer the device whose BRAM already holds the task's NxP stack
    (``task.nxp_device``); fall back to least-loaded for first-time
    migrators.  Models stack/BRAM affinity: re-placing a task on its
    stack's home device avoids cross-device stack reallocation.

Placement bookkeeping (``placement.*``) lives in the observed tier of
the machine's :class:`~repro.sim.stats.StatRegistry`: the parity
contract pins base stats bit-identical across fleet sizes (a two-device
static fleet equals the paper's one-device machine), so placement
observability must stay out of that snapshot.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

__all__ = ["PlacementLayer", "PlacementPolicy", "POLICIES"]


class PlacementPolicy:
    """Chooses one device from the live candidates for a new session."""

    name = "abstract"

    def choose(self, task, candidates):
        raise NotImplementedError


class StaticPolicy(PlacementPolicy):
    name = "static"

    def choose(self, task, candidates):
        return candidates[0]


class RoundRobinPolicy(PlacementPolicy):
    name = "round_robin"

    def __init__(self):
        self._next = 0

    def choose(self, task, candidates):
        # Cycle over device *indices*, not the candidate list: a device
        # leaving and rejoining the candidate set must not reshuffle the
        # phase for its peers.
        chosen = min(candidates, key=lambda d: ((d.index - self._next) % _span(candidates), d.index))
        self._next = chosen.index + 1
        return chosen


def _span(candidates) -> int:
    return max(d.index for d in candidates) + 1


class LeastLoadedPolicy(PlacementPolicy):
    name = "least_loaded"

    def choose(self, task, candidates):
        return min(candidates, key=lambda d: (d.outstanding, d.index))


class LocalityPolicy(PlacementPolicy):
    name = "locality"

    def __init__(self):
        self._fallback = LeastLoadedPolicy()

    def choose(self, task, candidates):
        home = getattr(task, "nxp_device", None)
        if home is not None:
            for dev in candidates:
                if dev.index == home:
                    return dev
        return self._fallback.choose(task, candidates)


POLICIES = {
    "static": StaticPolicy,
    "round_robin": RoundRobinPolicy,
    "least_loaded": LeastLoadedPolicy,
    "locality": LocalityPolicy,
}


class PlacementLayer:
    """Per-machine routing of migration sessions to NxP devices."""

    def __init__(self, machine, policy: str = "static"):
        try:
            self.policy = POLICIES[policy]()
        except KeyError:
            raise ValueError(
                f"unknown placement policy {policy!r}; "
                f"choose from {sorted(POLICIES)}"
            ) from None
        self.machine = machine
        # Observed counters (see module docstring): pick.dev{i} per
        # device, probe (a half-open breaker probe), failover
        # (re-placement after a dead pick) and exhausted (no live
        # device left -> host fallback).
        self._count = machine.stats.count_observed

    def pick(self, task, exclude: FrozenSet[int] = frozenset()):
        """Choose a live device for a new session, or ``None`` when no
        device outside ``exclude`` is live (the caller degrades to
        host-fallback emulation).

        ``RECOVERING`` devices join the candidate set only while
        :attr:`~repro.core.nxp_device.NxpDevice.probe_ready` — at most
        one in-flight session, the half-open breaker probe.  With
        recovery off no device ever reports probe_ready, so the
        candidate set is byte-identical to the pre-recovery behavior.
        """
        candidates = [
            d for d in self.machine.devices
            if (d.alive or d.probe_ready) and d.index not in exclude
        ]
        trace = getattr(self.machine, "trace", None)
        traced = trace is not None and trace.context_enabled
        if not candidates:
            self._count("placement.exhausted")
            if traced:
                trace.record(
                    "placement", pid=task.pid, policy=self.policy.name,
                    device=None, failover=bool(exclude), exhausted=True,
                )
            return None
        dev = self.policy.choose(task, candidates)
        self._count(f"placement.pick.dev{dev.index}")
        if dev.probe_ready:
            self._count("placement.probe")
        if exclude:
            self._count("placement.failover")
        if traced:
            trace.record(
                "placement", pid=task.pid, policy=self.policy.name,
                device=dev.index, device_label=f"nxp{dev.index}",
                failover=bool(exclude),
            )
        return dev

    def session_counts(self) -> Dict[int, int]:
        """Sessions placed per device index (for reports/tests)."""
        tier = self.machine.stats.observed_snapshot()
        return {
            dev.index: tier.get(f"placement.pick.dev{dev.index}", 0)
            for dev in self.machine.devices
        }
