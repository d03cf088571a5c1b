"""Physical memory: sparse byte-addressable regions plus MMIO dispatch.

The simulated machine has one *unified physical address space* (the host
view, Fig. 3 of the paper): host DRAM at 0x0, the NxP's 4 GB DRAM exposed
through BAR0, the NxP stack BRAM through another BAR, and a small MMIO
window for the NxP platform's control registers (DMA engine, TLB remap
register, doorbells).

Regions are *functional* stores — reads and writes here are instantaneous.
Timing is charged by whoever performs the access (a core model, the MMU
walker, or the DMA engine) using the latencies in
:class:`repro.core.config.FlickConfig`.  Backing storage is sparse
(4 KB pages allocated on first touch) so a 4 GB region costs nothing
until used.

:class:`PhysicalMemory` also keeps a frame index, ``pfn -> page``, that
each RAM region fills as it allocates a page.  Pages are never freed,
so an indexed frame stays valid for the machine's lifetime, and a
single-page access to a touched frame is one dict probe.  Untouched
pages, page or region straddles, MMIO and undecoded addresses take the
region walk, :meth:`PhysicalMemory.region_for`.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["MemoryRegion", "MMIORegion", "PhysicalMemory", "BadAddress"]

_PAGE = 4096
_PAGE_SHIFT = 12


class BadAddress(Exception):
    """Access to a physical address no region decodes."""


class MemoryRegion:
    """A sparse byte-addressable RAM region ``[base, base+size)``."""

    def __init__(self, name: str, base: int, size: int):
        if base % _PAGE:
            raise ValueError(f"region {name!r} base not page aligned: {base:#x}")
        if size <= 0:
            raise ValueError(f"region {name!r} has non-positive size")
        self.name = name
        self.base = base
        self.size = size
        self._pages: Dict[int, bytearray] = {}
        # The owning PhysicalMemory's frame index, once added to one.
        # Only pages wholly inside the region are indexed, so an indexed
        # access never reaches past the region's end.
        self._frames: Optional[Dict[int, bytearray]] = None
        self._pfn_base = base >> _PAGE_SHIFT
        self._whole_pages = size >> _PAGE_SHIFT

    def attach_frames(self, frames: Dict[int, bytearray]) -> None:
        """Publish this region's pages, now and as they are allocated,
        into ``frames`` (a :class:`PhysicalMemory` frame index)."""
        self._frames = frames
        for idx, page in self._pages.items():
            if idx < self._whole_pages:
                frames[self._pfn_base + idx] = page

    def contains(self, paddr: int, nbytes: int = 1) -> bool:
        return self.base <= paddr and paddr + nbytes <= self.base + self.size

    def _page_for(self, offset: int, create: bool) -> Optional[bytearray]:
        idx = offset // _PAGE
        page = self._pages.get(idx)
        if page is None and create:
            page = bytearray(_PAGE)
            self._pages[idx] = page
            if self._frames is not None and idx < self._whole_pages:
                self._frames[self._pfn_base + idx] = page
        return page

    def read(self, paddr: int, nbytes: int) -> bytes:
        if not self.contains(paddr, nbytes):
            raise BadAddress(
                f"read [{paddr:#x}, +{nbytes}) outside region {self.name!r}"
            )
        offset = paddr - self.base
        in_page = offset % _PAGE
        if in_page + nbytes <= _PAGE:  # the common case: one page
            page = self._pages.get(offset // _PAGE)
            if page is None:
                return bytes(nbytes)
            return bytes(page[in_page : in_page + nbytes])
        out = bytearray(nbytes)
        done = 0
        while done < nbytes:
            in_page = offset % _PAGE
            chunk = min(nbytes - done, _PAGE - in_page)
            page = self._page_for(offset, create=False)
            if page is not None:
                out[done : done + chunk] = page[in_page : in_page + chunk]
            offset += chunk
            done += chunk
        return bytes(out)

    def write(self, paddr: int, data: bytes) -> None:
        if not self.contains(paddr, len(data)):
            raise BadAddress(
                f"write [{paddr:#x}, +{len(data)}) outside region {self.name!r}"
            )
        offset = paddr - self.base
        in_page = offset % _PAGE
        if in_page + len(data) <= _PAGE:
            page = self._page_for(offset, create=True)
            page[in_page : in_page + len(data)] = data
            return
        done = 0
        while done < len(data):
            in_page = offset % _PAGE
            chunk = min(len(data) - done, _PAGE - in_page)
            page = self._page_for(offset, create=True)
            page[in_page : in_page + chunk] = data[done : done + chunk]
            offset += chunk
            done += chunk

    def read_u64(self, paddr: int) -> int:
        """Single-call 8-byte little-endian read (the dominant access
        size on every hot path); falls back to :meth:`read` for
        page-straddling or out-of-range addresses."""
        offset = paddr - self.base
        in_page = offset & (_PAGE - 1)
        if 0 <= offset and in_page <= _PAGE - 8 and offset + 8 <= self.size:
            page = self._pages.get(offset >> 12)
            if page is None:
                return 0
            return int.from_bytes(page[in_page : in_page + 8], "little")
        return int.from_bytes(self.read(paddr, 8), "little")

    @property
    def touched_bytes(self) -> int:
        """Bytes of backing store actually allocated (diagnostics)."""
        return len(self._pages) * _PAGE


class MMIORegion:
    """A region whose reads/writes invoke registered register handlers.

    Registers are 8-byte aligned 64-bit words.  Unregistered offsets read
    as zero and ignore writes (matching typical device reserved space).
    """

    def __init__(self, name: str, base: int, size: int):
        self.name = name
        self.base = base
        self.size = size
        self._read_handlers: Dict[int, Callable[[], int]] = {}
        self._write_handlers: Dict[int, Callable[[int], None]] = {}

    def contains(self, paddr: int, nbytes: int = 1) -> bool:
        return self.base <= paddr and paddr + nbytes <= self.base + self.size

    def register(
        self,
        offset: int,
        read: Optional[Callable[[], int]] = None,
        write: Optional[Callable[[int], None]] = None,
    ) -> None:
        if offset % 8:
            raise ValueError(f"MMIO register offset must be 8-aligned: {offset:#x}")
        if read is not None:
            self._read_handlers[offset] = read
        if write is not None:
            self._write_handlers[offset] = write

    def read(self, paddr: int, nbytes: int) -> bytes:
        offset = (paddr - self.base) & ~0x7
        handler = self._read_handlers.get(offset)
        word = handler() if handler else 0
        raw = struct.pack("<Q", word & 0xFFFF_FFFF_FFFF_FFFF)
        start = paddr - self.base - offset
        return raw[start : start + nbytes]

    def write(self, paddr: int, data: bytes) -> None:
        offset = (paddr - self.base) & ~0x7
        handler = self._write_handlers.get(offset)
        if handler is None:
            return
        padded = bytes(data) + b"\x00" * (8 - len(data))
        handler(struct.unpack("<Q", padded[:8])[0])

    def read_u64(self, paddr: int) -> int:
        return int.from_bytes(self.read(paddr, 8), "little")


class PhysicalMemory:
    """Routes physical addresses to regions; the machine's backing store."""

    def __init__(self) -> None:
        self._regions: List[object] = []
        self._last_region = None  # most-recently-decoded region (hot path)
        self._frames: Dict[int, bytearray] = {}  # pfn -> touched RAM page

    def add_region(self, region) -> None:
        for other in self._regions:
            lo = max(region.base, other.base)
            hi = min(region.base + region.size, other.base + other.size)
            if lo < hi:
                raise ValueError(
                    f"region {region.name!r} overlaps {other.name!r}"
                )
        self._regions.append(region)
        if isinstance(region, MemoryRegion):
            region.attach_frames(self._frames)

    def region_for(self, paddr: int, nbytes: int = 1):
        last = self._last_region
        if last is not None and last.contains(paddr, nbytes):
            return last
        for region in self._regions:
            if region.contains(paddr, nbytes):
                self._last_region = region
                return region
        raise BadAddress(f"no region decodes [{paddr:#x}, +{nbytes})")

    def region_by_name(self, name: str):
        for region in self._regions:
            if region.name == name:
                return region
        raise KeyError(name)

    # -- byte access --------------------------------------------------------

    def read(self, paddr: int, nbytes: int) -> bytes:
        in_page = paddr & (_PAGE - 1)
        if in_page + nbytes <= _PAGE:
            page = self._frames.get(paddr >> _PAGE_SHIFT)
            if page is not None:
                return bytes(page[in_page : in_page + nbytes])
        return self.region_for(paddr, nbytes).read(paddr, nbytes)

    def write(self, paddr: int, data: bytes) -> None:
        nbytes = len(data)
        in_page = paddr & (_PAGE - 1)
        if in_page + nbytes <= _PAGE:
            page = self._frames.get(paddr >> _PAGE_SHIFT)
            if page is not None:
                page[in_page : in_page + nbytes] = data
                return
        self.region_for(paddr, nbytes).write(paddr, data)

    # -- typed helpers (little-endian, matching both our toy ISAs) ----------

    def read_u8(self, paddr: int) -> int:
        return self.read(paddr, 1)[0]

    def read_u16(self, paddr: int) -> int:
        return struct.unpack("<H", self.read(paddr, 2))[0]

    def read_u32(self, paddr: int) -> int:
        return struct.unpack("<I", self.read(paddr, 4))[0]

    def read_u64(self, paddr: int) -> int:
        in_page = paddr & (_PAGE - 1)
        if in_page <= _PAGE - 8:
            page = self._frames.get(paddr >> _PAGE_SHIFT)
            if page is not None:
                return int.from_bytes(page[in_page : in_page + 8], "little")
        return self.region_for(paddr, 8).read_u64(paddr)

    def write_u8(self, paddr: int, value: int) -> None:
        self.write(paddr, bytes([value & 0xFF]))

    def write_u16(self, paddr: int, value: int) -> None:
        self.write(paddr, struct.pack("<H", value & 0xFFFF))

    def write_u32(self, paddr: int, value: int) -> None:
        self.write(paddr, struct.pack("<I", value & 0xFFFF_FFFF))

    def write_u64(self, paddr: int, value: int) -> None:
        self.write(paddr, struct.pack("<Q", value & 0xFFFF_FFFF_FFFF_FFFF))
