"""NxP health state machine: healthy → suspect → dead (→ recovering).

The hardened migration path (docs/ROBUSTNESS.md) needs a single answer
to one question before every ISA-crossing call: *is the device still
worth talking to?*  This module keeps that answer, plus the machine-wide
retry budget the watchdog retransmit path consults.

Semantics
---------

* Every migration-session leg that completes (a descriptor went out and
  its answer came back) reports :meth:`NxpHealth.record_success`, which
  resets the machine to ``HEALTHY``.
* Every leg that exhausts its bounded retries reports
  :meth:`NxpHealth.record_failure`.  The first failure moves the
  machine to ``SUSPECT``; after ``threshold`` *consecutive* failures it
  latches ``DEAD``.
* Without device recovery (``FlickConfig.nxp_recovery`` off, the
  default) ``DEAD`` is terminal for the simulated machine's lifetime:
  the host runtime stops sending descriptors entirely and degrades new
  NISA calls to host-side emulation (:class:`NxpDeadError` triggers the
  switch; subsequent calls check :attr:`NxpHealth.dead` up front and
  never touch the wire).
* With recovery on, ``DEAD`` becomes a tripped circuit breaker:
  ``machine.revive_nxp(index)`` resets the device and calls
  :meth:`NxpHealth.begin_recovery`, moving it to ``RECOVERING``.
  Placement then sends *half-open probes* (one in-flight session at a
  time); ``probe_target`` consecutive probe successes re-close the
  breaker (``HEALTHY``), while a probe failure re-trips it and
  quarantines the device for ``quarantine_base_ns *
  quarantine_factor**(retrips - 1)`` ns — a flapping device backs off
  exponentially instead of oscillating.

State changes are counted in the stat registry and recorded as trace
events; steady-state success paths emit nothing, so an armed-but-quiet
fault configuration stays bit-identical in base stats to a run without
the hardening layer (pinned by ``tests/core/test_fault_parity.py``).
"""

from __future__ import annotations

import enum

__all__ = ["HealthState", "NxpHealth", "RetryBudget"]


class HealthState(enum.Enum):
    HEALTHY = "healthy"
    SUSPECT = "suspect"
    DEAD = "dead"
    RECOVERING = "recovering"


class NxpHealth:
    """Tracks consecutive migration-leg failures for one NxP device."""

    def __init__(
        self,
        threshold: int,
        stats=None,
        trace=None,
        recovery: bool = False,
        probe_target: int = 3,
        quarantine_base_ns: float = 1_000_000.0,
        quarantine_factor: float = 2.0,
    ):
        if threshold < 1:
            raise ValueError(f"dead threshold must be >= 1, got {threshold}")
        if recovery and probe_target < 1:
            raise ValueError(f"probe target must be >= 1, got {probe_target}")
        self.threshold = threshold
        self.stats = stats
        self.trace = trace
        self.recovery = recovery
        self.probe_target = probe_target
        self.quarantine_base_ns = quarantine_base_ns
        self.quarantine_factor = quarantine_factor
        self.state = HealthState.HEALTHY
        self.consecutive_failures = 0
        self.total_failures = 0
        self.transitions = 0  # real state *changes*, not re-entries
        self.probe_successes = 0  # consecutive, while RECOVERING
        self.trips = 0  # entries into DEAD (breaker trips)
        self.retrips = 0  # trips out of RECOVERING (flaps)
        self.quarantine_until_ns = 0.0

    @property
    def dead(self) -> bool:
        return self.state is HealthState.DEAD

    @property
    def recovering(self) -> bool:
        return self.state is HealthState.RECOVERING

    def record_success(self) -> HealthState:
        """A leg completed; a dead device stays dead (no flapping)."""
        if self.state is HealthState.DEAD:
            return self.state
        if self.state is HealthState.RECOVERING:
            self.probe_successes += 1
            if self.stats is not None:
                self.stats.count("health.probe_success")
            if self.probe_successes >= self.probe_target:
                self._transition(HealthState.HEALTHY)
                self.probe_successes = 0
            self.consecutive_failures = 0
            return self.state
        if self.state is HealthState.SUSPECT:
            self._transition(HealthState.HEALTHY)
        self.consecutive_failures = 0
        return self.state

    def record_failure(self, now: float = 0.0) -> HealthState:
        """A leg exhausted its retries; returns the resulting state.

        ``now`` (sim ns) only matters while ``RECOVERING``: a failed
        half-open probe re-trips the breaker and starts the exponential
        quarantine clock from that instant.
        """
        if self.state is HealthState.DEAD:
            return self.state
        self.consecutive_failures += 1
        self.total_failures += 1
        if self.stats is not None:
            self.stats.count("health.leg_failure")
        if self.state is HealthState.RECOVERING:
            # Half-open probes get no grace: one failure re-trips.
            self._retrip(now)
            return self.state
        if self.consecutive_failures >= self.threshold:
            self._trip()
        else:
            self._transition(HealthState.SUSPECT)
        return self.state

    def force_dead(self, reason: str = "forced") -> HealthState:
        """Administratively latch ``DEAD`` (e.g. a chaos kill of this
        device); idempotent, and terminal unless recovery is on."""
        if self.state is not HealthState.DEAD:
            if self.state is HealthState.RECOVERING:
                self.retrips += 1
            self._trip()
            if self.trace is not None:
                self.trace.record("health_forced", reason=reason)
        return self.state

    def begin_recovery(self, now: float) -> HealthState:
        """DEAD → RECOVERING (the breaker goes half-open).

        Refuses while the quarantine window from a previous re-trip is
        still open, so a flapping device cannot be hammered back in.
        """
        if not self.recovery:
            raise ValueError("device recovery is off (FlickConfig.nxp_recovery)")
        if self.state is not HealthState.DEAD:
            raise ValueError(f"cannot begin recovery from {self.state.value}")
        if now < self.quarantine_until_ns:
            raise ValueError(
                f"device quarantined until {self.quarantine_until_ns:.0f} ns "
                f"(now {now:.0f} ns)"
            )
        self.probe_successes = 0
        self.consecutive_failures = 0
        self._transition(HealthState.RECOVERING)
        return self.state

    def _trip(self) -> None:
        self.trips += 1
        self._transition(HealthState.DEAD)

    def _retrip(self, now: float) -> None:
        """A recovering device failed its probe: trip again, back off."""
        self.retrips += 1
        self.probe_successes = 0
        self.quarantine_until_ns = now + self.quarantine_base_ns * (
            self.quarantine_factor ** (self.retrips - 1)
        )
        if self.stats is not None:
            self.stats.count("health.retrip")
        self._trip()

    def _transition(self, new: HealthState) -> None:
        if new is self.state:
            # Re-entering the current state (a suspect->suspect failure
            # storm) is not a transition: emitting stats/trace here would
            # inflate ``health.transitions`` once fleets aggregate
            # per-device health.
            return
        old, self.state = self.state, new
        self.transitions += 1
        if self.stats is not None:
            self.stats.count(f"health.transition.{new.value}")
            self.stats.count("health.transitions")
        if self.trace is not None:
            self.trace.record("health", state=new.value, prev=old.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NxpHealth {self.state.value} "
            f"fails={self.consecutive_failures}/{self.threshold}>"
        )


class RetryBudget:
    """Machine-wide token bucket for watchdog retransmits, in sim time.

    Consulted before *every* retransmit by the one hardened ioctl
    (``HostMigrationHandler._ioctl_hardened``, both executors).  Refill is a pure function of the
    simulated clock — ``tokens += (now - last) * refill_per_ns``, capped
    at ``capacity`` — so identical seeds replay identical grant/deny
    sequences at any ``parallel_map`` worker count.  A denied take makes
    the leg behave as if the device were declared dead: the caller
    degrades to host fallback instead of storming the ring.
    """

    def __init__(self, capacity: float, refill_per_ms: float, stats=None):
        if capacity <= 0:
            raise ValueError(f"retry budget capacity must be > 0, got {capacity}")
        self.capacity = float(capacity)
        self.refill_per_ns = refill_per_ms / 1e6
        self.tokens = float(capacity)
        self.last_refill_ns = 0.0
        self.stats = stats
        self.granted = 0
        self.denied = 0

    def take(self, now: float) -> bool:
        """Spend one token (returns True) or report exhaustion (False)."""
        if now > self.last_refill_ns:
            self.tokens = min(
                self.capacity,
                self.tokens + (now - self.last_refill_ns) * self.refill_per_ns,
            )
            self.last_refill_ns = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.granted += 1
            if self.stats is not None:
                self.stats.count("retry_budget.granted")
            return True
        self.denied += 1
        if self.stats is not None:
            self.stats.count("retry_budget.denied")
        return False
