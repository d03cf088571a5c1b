"""One NxP device slot of a machine (docs/FLEET.md).

Every :class:`~repro.core.machine.FlickMachine` is a fleet: it owns
``cfg.nxp_count`` :class:`NxpDevice` records (one for the paper's
machine), one per PCIe-attached NxP.  Each device bundles its own
hardware:

* a descriptor-ring pair (NxP inbound in the device's BRAM slice, host
  inbound in host DRAM),
* a DMA engine raising its own MSI vector (``MIGRATION_VECTOR + i``)
  with STATUS registers at MMIO offset ``i * 0x10``,
* a BRAM slice allocator (stacks + staging buffers for this device),
* an :class:`~repro.core.health.NxpHealth` machine when faults are
  armed, and
* the device's scheduler: an
  :class:`~repro.core.nxp_platform.NxpMigrationHandler` (the interpreted
  ``NxpPlatform``, or a hosted machine's engine).

All devices share one PCIe link, so concurrent descriptor traffic
serializes there — the natural contention model.
"""

from __future__ import annotations

__all__ = ["NxpDevice"]


class NxpDevice:
    """Hardware + health bundle for one NxP of a machine."""

    def __init__(self, machine, index: int, vector: int, dma, nxp_ring,
                 host_ring, bram, health=None):
        self.machine = machine
        self.index = index
        self.vector = vector
        self.dma = dma
        self.nxp_ring = nxp_ring
        self.host_ring = host_ring
        self.bram = bram  # RegionAllocator over this device's BRAM slice
        self.health = health  # NxpHealth, or None when faults are unarmed
        self.platform = None  # NxpMigrationHandler, attached by the machine
        #: Migration sessions currently routed to this device (opened by
        #: the host runtime, closed when the session's final return
        #: lands).  The ``least_loaded`` placement policy reads this.
        self.outstanding = 0
        #: Placement stops routing *new* sessions here (chaos "drain"
        #: kill); in-flight sessions complete normally.
        self.draining = False
        #: The device stopped responding entirely (chaos "abrupt" kill):
        #: its scheduler exits and in-flight legs are recovered by the
        #: hardened protocol's watchdogs.
        self.killed = False

    @property
    def alive(self) -> bool:
        """Eligible for unrestricted new-session placement.

        A ``RECOVERING`` device is *not* alive — the half-open breaker
        admits it probe-by-probe via :attr:`probe_ready` instead.
        """
        if self.draining or self.killed:
            return False
        if self.health is None:
            return True
        return not self.health.dead and not self.health.recovering

    @property
    def probe_ready(self) -> bool:
        """Half-open breaker: a ``RECOVERING`` device accepts exactly one
        in-flight probe session at a time (docs/ROBUSTNESS.md)."""
        if self.draining or self.killed or self.health is None:
            return False
        return self.health.recovering and self.outstanding == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "down"
        return (
            f"<NxpDevice {self.index} {state} "
            f"outstanding={self.outstanding} vector={self.vector:#x}>"
        )
