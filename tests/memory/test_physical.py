"""Tests for physical memory regions and MMIO dispatch."""

import pytest

from repro.memory import BadAddress, MemoryRegion, MMIORegion, PhysicalMemory

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


@pytest.fixture
def phys():
    pm = PhysicalMemory()
    pm.add_region(MemoryRegion("dram", 0x0, 16 * MB))
    pm.add_region(MemoryRegion("nxp", 0xA_0000_0000, 4 * GB))
    return pm


def test_read_untouched_memory_is_zero(phys):
    assert phys.read(0x1000, 16) == b"\x00" * 16


def test_write_then_read_roundtrip(phys):
    phys.write(0x2000, b"hello world")
    assert phys.read(0x2000, 11) == b"hello world"


def test_write_spanning_page_boundary(phys):
    data = bytes(range(200)) * 50  # 10000 bytes, crosses pages
    phys.write(0x0FFE, data)
    assert phys.read(0x0FFE, len(data)) == data


def test_read_spanning_touched_and_untouched_pages(phys):
    phys.write(0x1FF8, b"\xff" * 8)  # last 8 bytes of page 1
    got = phys.read(0x1FF0, 24)
    assert got == b"\x00" * 8 + b"\xff" * 8 + b"\x00" * 8


def test_typed_u64_roundtrip_little_endian(phys):
    phys.write_u64(0x3000, 0x1122334455667788)
    assert phys.read_u64(0x3000) == 0x1122334455667788
    assert phys.read_u8(0x3000) == 0x88  # little-endian low byte first


def test_typed_u32_u16_u8(phys):
    phys.write_u32(0x100, 0xDEADBEEF)
    assert phys.read_u32(0x100) == 0xDEADBEEF
    phys.write_u16(0x200, 0xCAFE)
    assert phys.read_u16(0x200) == 0xCAFE
    phys.write_u8(0x300, 0xAB)
    assert phys.read_u8(0x300) == 0xAB


def test_u64_write_masks_to_64_bits(phys):
    phys.write_u64(0x400, 1 << 64 | 5)
    assert phys.read_u64(0x400) == 5


def test_high_region_addressing(phys):
    addr = 0xA_0000_0000 + 3 * GB + 123
    phys.write(addr, b"deep")
    assert phys.read(addr, 4) == b"deep"


def test_unmapped_address_raises(phys):
    with pytest.raises(BadAddress):
        phys.read(0x5000_0000, 1)
    with pytest.raises(BadAddress):
        phys.write(0x5000_0000, b"x")


def test_access_straddling_region_end_raises(phys):
    with pytest.raises(BadAddress):
        phys.read(16 * MB - 4, 8)


def test_overlapping_regions_rejected():
    pm = PhysicalMemory()
    pm.add_region(MemoryRegion("a", 0x0, 8 * KB))
    with pytest.raises(ValueError):
        pm.add_region(MemoryRegion("b", 4 * KB, 8 * KB))


def test_region_by_name(phys):
    assert phys.region_by_name("dram").base == 0
    with pytest.raises(KeyError):
        phys.region_by_name("nope")


def test_sparse_backing_is_lazy(phys):
    region = phys.region_by_name("nxp")
    assert region.touched_bytes == 0
    phys.write_u8(0xA_0000_0000 + 2 * GB, 1)
    assert region.touched_bytes == 4 * KB


def test_region_base_must_be_page_aligned():
    with pytest.raises(ValueError):
        MemoryRegion("bad", 0x100, 4 * KB)


def test_region_size_must_be_positive():
    with pytest.raises(ValueError):
        MemoryRegion("bad", 0x0, 0)


class TestMMIO:
    def test_register_read(self):
        mmio = MMIORegion("regs", 0xC000_0000, 4 * KB)
        mmio.register(0x10, read=lambda: 0x42)
        pm = PhysicalMemory()
        pm.add_region(mmio)
        assert pm.read_u64(0xC000_0010) == 0x42

    def test_register_write_invokes_handler(self):
        written = []
        mmio = MMIORegion("regs", 0xC000_0000, 4 * KB)
        mmio.register(0x20, write=written.append)
        pm = PhysicalMemory()
        pm.add_region(mmio)
        pm.write_u64(0xC000_0020, 0xBEEF)
        assert written == [0xBEEF]

    def test_unregistered_offset_reads_zero_ignores_write(self):
        mmio = MMIORegion("regs", 0xC000_0000, 4 * KB)
        pm = PhysicalMemory()
        pm.add_region(mmio)
        assert pm.read_u64(0xC000_0FF8) == 0
        pm.write_u64(0xC000_0FF8, 7)  # no handler: silently ignored

    def test_partial_width_read_of_register(self):
        mmio = MMIORegion("regs", 0xC000_0000, 4 * KB)
        mmio.register(0x0, read=lambda: 0x1122334455667788)
        pm = PhysicalMemory()
        pm.add_region(mmio)
        assert pm.read_u32(0xC000_0000) == 0x55667788

    def test_unaligned_register_offset_rejected(self):
        mmio = MMIORegion("regs", 0xC000_0000, 4 * KB)
        with pytest.raises(ValueError):
            mmio.register(0x4, read=lambda: 0)

    def test_mixed_ram_and_mmio_routing(self):
        pm = PhysicalMemory()
        pm.add_region(MemoryRegion("ram", 0x0, 4 * KB))
        mmio = MMIORegion("regs", 0x1000_0000, 4 * KB)
        mmio.register(0x0, read=lambda: 9)
        pm.add_region(mmio)
        pm.write_u64(0x0, 5)
        assert pm.read_u64(0x0) == 5
        assert pm.read_u64(0x1000_0000) == 9


class TestFrameIndex:
    """PhysicalMemory's ``pfn -> page`` index: filled as RAM pages are
    allocated, consulted before the region walk, and never a way
    around a region's bounds or an MMIO handler."""

    def test_page_first_touched_after_add_region_is_indexed(self, phys):
        assert phys._frames == {}
        phys.write_u64(0x5008, 0xABCD)
        region = phys.region_by_name("dram")
        assert phys._frames == {0x5: region._pages[0x5]}
        assert phys.read_u64(0x5008) == 0xABCD
        assert phys.read(0x5008, 2) == b"\xcd\xab"

    def test_region_added_with_pages_already_touched(self):
        region = MemoryRegion("late", 0x10_0000, 64 * KB)
        region.write(0x10_2000, b"early")
        pm = PhysicalMemory()
        pm.add_region(region)
        assert pm._frames == {0x102: region._pages[0x2]}
        assert pm.read(0x10_2000, 5) == b"early"
        # Writes through the index land in the region's own page.
        pm.write(0x10_2000, b"E")
        assert region.read(0x10_2000, 5) == b"Early"

    def test_untouched_page_reads_zero_and_creates_no_frame(self, phys):
        assert phys.read_u64(0xA_0000_0000 + 7 * MB) == 0
        assert phys.read(0x7000, 16) == bytes(16)
        assert phys._frames == {}
        assert phys.region_by_name("nxp").touched_bytes == 0

    def test_page_straddles_keep_bytes(self, phys):
        phys.write(0x1FFC, bytes(range(1, 9)))  # 4 bytes in each page
        assert set(phys._frames) == {0x1, 0x2}
        assert phys.read(0x1FFC, 8) == bytes(range(1, 9))
        assert phys.read_u64(0x1FFC) == int.from_bytes(bytes(range(1, 9)), "little")
        assert phys.read(0x1FF8, 16) == bytes(4) + bytes(range(1, 9)) + bytes(4)

    def test_region_straddles_still_raise(self, phys):
        phys.write(16 * MB - 8, b"\x01" * 8)  # last page of "dram": indexed
        assert (16 * MB >> 12) - 1 in phys._frames
        with pytest.raises(BadAddress):
            phys.read(16 * MB - 4, 8)
        with pytest.raises(BadAddress):
            phys.read_u64(16 * MB - 4)
        with pytest.raises(BadAddress):
            phys.write(16 * MB - 4, b"\x00" * 8)
        assert phys.read(16 * MB - 8, 8) == b"\x01" * 8

    def test_partial_last_page_is_not_indexed(self):
        pm = PhysicalMemory()
        region = MemoryRegion("odd", 0x0, 4 * KB + 100)
        pm.add_region(region)
        pm.write(4 * KB, b"x")  # inside the partial page
        assert 0x1 not in pm._frames
        assert pm.read(4 * KB, 1) == b"x"
        # Bytes past the region's end stay undecoded, though their page
        # is backed.
        with pytest.raises(BadAddress):
            pm.read(4 * KB + 100, 1)
        with pytest.raises(BadAddress):
            pm.write(4 * KB + 96, b"\x00" * 8)

    def test_mmio_reaches_handlers_and_stays_out_of_the_index(self):
        written = []
        mmio = MMIORegion("regs", 0xC000_0000, 4 * KB)
        mmio.register(0x10, read=lambda: 0x42, write=written.append)
        pm = PhysicalMemory()
        pm.add_region(MemoryRegion("ram", 0x0, 4 * KB))
        pm.add_region(mmio)
        pm.write_u64(0xC000_0010, 7)
        pm.write(0xC000_0010, b"\x09")
        assert written == [7, 9]
        assert pm.read_u64(0xC000_0010) == 0x42
        assert pm.read(0xC000_0010, 1) == b"\x42"
        assert pm._frames == {}
