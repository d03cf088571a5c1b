"""The NxP platform's descriptor DMA engine (Section IV-B).

Flick transfers each migration descriptor in **one PCIe burst** instead of
many MMIO stores — that is one of the reasons its round trip beats prior
work.  The same engine serves both directions:

* host → NxP: the (modified) Linux scheduler kicks the engine *after*
  suspending the thread; the descriptor lands in an NxP-local inbound
  ring, and a **status register** (polled by the NxP scheduler) counts
  pending descriptors.
* NxP → host: the NxP scheduler kicks the engine; the descriptor lands in
  a host-DRAM inbound ring and the engine raises the migration interrupt.

MMIO register map (offsets within the platform's control window):

====== ==========================
0x00   STATUS: pending inbound descriptor count (NxP side, read to poll)
0x08   HOST_STATUS: pending inbound count on the host side
0x10   (reserved for SRC/DST/LEN of a general-purpose channel)
====== ==========================

Fault-injection sites (docs/ROBUSTNESS.md): an armed
:class:`repro.sim.faults.FaultInjector` is consulted once per transfer.
``dma_delay`` stalls the engine before the burst; ``dma_drop`` occupies
the wire for the full transfer time but never claims a ring slot,
publishes, or signals arrival; ``dma_corrupt`` lands the burst and then
flips one deterministic byte in the slot (caught by the descriptor
checksum on the consumer side); ``irq_loss``/``irq_spurious`` suppress
or duplicate the NxP→host migration interrupt.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.config import FlickConfig
from repro.core.errors import (
    RingOverflow,
    RingPublishError,
    RingsNotAttached,
    RingUnderflow,
)
from repro.interconnect.interrupt import MIGRATION_VECTOR, InterruptController
from repro.interconnect.pcie import PCIeLink
from repro.memory.physical import MMIORegion
from repro.sim.engine import Simulator
from repro.sim.stats import StatRegistry

__all__ = ["DMAEngine", "DescriptorRing"]


class DescriptorRing:
    """A one-producer/one-consumer descriptor ring in simulated memory."""

    def __init__(self, phys, base: int, slots: int, slot_bytes: int):
        self.phys = phys
        self.base = base
        self.slots = slots
        self.slot_bytes = slot_bytes
        self.head = 0  # next slot the consumer reads
        self.tail = 0  # next published (consumer-visible) slot
        self.reserved = 0  # next slot a producer may claim

    @property
    def pending(self) -> int:
        return self.tail - self.head

    def slot_addr(self, index: int) -> int:
        return self.base + (index % self.slots) * self.slot_bytes

    def claim_addr(self) -> int:
        """Reserve the next slot for an in-flight transfer.

        Claiming before the burst starts (and publishing only when it
        completes) is what keeps concurrent producers from clobbering
        one another's descriptors.
        """
        if self.reserved - self.head >= self.slots:
            raise RingOverflow("descriptor ring overflow")
        addr = self.slot_addr(self.reserved)
        self.reserved += 1
        return addr

    def publish(self) -> None:
        """Make the oldest claimed slot visible to the consumer.

        Transfers on the serialized link complete in claim order, so a
        single tail pointer suffices.
        """
        if self.tail >= self.reserved:
            raise RingPublishError("publish without a claimed slot")
        self.tail += 1

    def push_addr(self) -> int:
        """Claim + publish in one step (synchronous producers/tests)."""
        addr = self.claim_addr()
        self.publish()
        return addr

    def pop_addr(self) -> int:
        if not self.pending:
            raise RingUnderflow("descriptor ring underflow")
        addr = self.slot_addr(self.head)
        self.head += 1
        return addr


class DMAEngine:
    """Burst-copies descriptors between host DRAM and NxP local memory."""

    def __init__(
        self,
        sim: Simulator,
        cfg: FlickConfig,
        link: PCIeLink,
        irq: InterruptController,
        stats: Optional[StatRegistry] = None,
        trace=None,
        injector=None,
        vector: int = MIGRATION_VECTOR,
    ):
        self.sim = sim
        self.cfg = cfg
        self.link = link
        self.irq = irq
        self.stats = stats or StatRegistry()
        self.trace = trace  # optional MigrationTrace for device-level spans
        self.injector = injector  # optional FaultInjector (None = unarmed)
        #: MSI vector this engine raises on n2h delivery: device ``i``
        #: raises ``MIGRATION_VECTOR + i``.
        self.vector = vector
        #: index of the NxP device this engine serves (the vector
        #: offset).  Used only to label transfer spans when
        #: trace-context propagation is on.
        self.device_index = vector - MIGRATION_VECTOR
        self.nxp_inbound: Optional[DescriptorRing] = None
        self.host_inbound: Optional[DescriptorRing] = None
        # Completion notification for the NxP side.  Hardware-wise the
        # NxP scheduler discovers arrivals by polling the STATUS
        # register; the simulation sleeps on this channel instead and
        # charges the poll-quantization delay on wakeup, so idle polling
        # does not flood the event queue.
        self.nxp_arrival = sim.channel("dma.nxp_arrival")

    def attach_rings(self, nxp_inbound: DescriptorRing, host_inbound: DescriptorRing) -> None:
        self.nxp_inbound = nxp_inbound
        self.host_inbound = host_inbound

    def register_mmio(self, mmio: MMIORegion, base: int = 0x00) -> None:
        """Register this engine's STATUS words.  ``base`` strides the
        register pair per device (device ``i`` at ``i * 0x10``)."""
        mmio.register(base + 0x00, read=self._read_status)
        mmio.register(base + 0x08, read=self._read_host_status)

    def _read_status(self) -> int:
        return self.nxp_inbound.pending if self.nxp_inbound else 0

    def _read_host_status(self) -> int:
        return self.host_inbound.pending if self.host_inbound else 0

    # -- fault hooks -------------------------------------------------------------

    def _pull_dma_faults(self, direction: str):
        """Returns ``(delay_ns, dropped, corrupt_rule)`` for one transfer."""
        delay_ns, dropped, corrupt = 0.0, False, None
        for rule in self.injector.pull("dma", direction=direction):
            if rule.kind == "dma_delay":
                delay_ns += rule.delay_ns
            elif rule.kind == "dma_drop":
                dropped = True
            elif rule.kind == "dma_corrupt":
                corrupt = rule
        return delay_ns, dropped, corrupt

    def _corrupt_slot(self, dst: int, nbytes: int, rule) -> None:
        offset = self.injector.corrupt_offset(rule, nbytes)
        raw = bytearray(self.link.phys.read(dst, nbytes))
        raw[offset] ^= 0xFF
        self.link.phys.write(dst, bytes(raw))
        self.stats.count("fault.dma_corrupt_applied")
        if self.trace is not None:
            self.trace.record("fault_inject_detail", site="dma", offset=offset)

    # -- transfers ---------------------------------------------------------------

    def push_to_nxp(self, src_paddr: int, nbytes: int, pid: Optional[int] = None) -> Generator:
        """Burst a descriptor from host DRAM into the NxP inbound ring.

        The NxP scheduler's poll of the STATUS register sees the new
        pending count only after the burst completes.  ``pid`` (when the
        caller knows it) attributes the transfer span to a task; bursts
        may overlap, so the span uses the stack-free handle API.
        """
        if self.nxp_inbound is None:
            raise RingsNotAttached("rings not attached")
        if self.injector is not None:
            delay_ns, dropped, corrupt = self._pull_dma_faults("h2n")
            if delay_ns:
                yield self.sim.timeout(delay_ns)
            if dropped:
                # The wire carries the burst; nothing lands, no slot is
                # claimed, the consumer never learns of it.
                yield from self.link.burst(src_paddr, 0, nbytes, deliver=False)
                return
        else:
            corrupt = None
        dst = self.nxp_inbound.claim_addr()
        self.stats.count("dma.to_nxp")
        trace = self.trace
        span = None
        if trace is not None:
            if trace.context_enabled:
                span = trace.open_span(
                    "dma.h2n", pid=pid, bytes=nbytes,
                    device=self.device_index,
                    device_label=f"nxp{self.device_index}",
                )
            else:
                span = trace.open_span("dma.h2n", pid=pid, bytes=nbytes)
        t0 = self.sim.now
        yield from self.link.burst(src_paddr, dst, nbytes)
        self.stats.observe("latency.dma.h2n_ns", self.sim.now - t0)
        if trace is not None:
            trace.close(span)
        if corrupt is not None:
            self._corrupt_slot(dst, nbytes, corrupt)
        self.nxp_inbound.publish()
        self.nxp_arrival.put(True)

    def push_to_host(
        self,
        src_paddr: int,
        nbytes: int,
        interrupt: bool = True,
        pid: Optional[int] = None,
    ) -> Generator:
        """Burst a descriptor from NxP memory into the host inbound ring,
        then (optionally) raise the migration interrupt."""
        if self.host_inbound is None:
            raise RingsNotAttached("rings not attached")
        irq_lost, spurious = False, 0
        if self.injector is not None:
            delay_ns, dropped, corrupt = self._pull_dma_faults("n2h")
            if delay_ns:
                yield self.sim.timeout(delay_ns)
            if dropped:
                yield from self.link.burst(src_paddr, 0, nbytes, deliver=False)
                return
            for rule in self.injector.pull("irq", direction="n2h"):
                if rule.kind == "irq_loss":
                    irq_lost = True
                elif rule.kind == "irq_spurious":
                    spurious += 1
        else:
            corrupt = None
        dst = self.host_inbound.claim_addr()
        self.stats.count("dma.to_host")
        trace = self.trace
        span = None
        if trace is not None:
            if trace.context_enabled:
                span = trace.open_span(
                    "dma.n2h", pid=pid, bytes=nbytes,
                    device=self.device_index,
                    device_label=f"nxp{self.device_index}",
                )
            else:
                span = trace.open_span("dma.n2h", pid=pid, bytes=nbytes)
        t0 = self.sim.now
        yield from self.link.burst(src_paddr, dst, nbytes)
        self.stats.observe("latency.dma.n2h_ns", self.sim.now - t0)
        if trace is not None:
            trace.close(span)
        if corrupt is not None:
            self._corrupt_slot(dst, nbytes, corrupt)
        self.host_inbound.publish()
        if interrupt:
            for _ in range(spurious):
                # A duplicate MSI with no descriptor behind it: the
                # hardened IRQ handler must drain/dedup around it.
                self.irq.raise_irq(self.vector, payload=None)
            if irq_lost:
                self.stats.count("fault.irq_loss_applied")
            else:
                self.irq.raise_irq(self.vector, payload=dst)
