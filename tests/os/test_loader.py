"""Loader tests: placement policy, NX marking, process windows."""

import pytest

from repro import FlickMachine
from repro.core.errors import LoadError
from repro.memory.paging import PAGE_1G, PAGE_2M, PageFault
from repro.os.loader import (
    HOST_HEAP_VBASE,
    HOST_STACK_TOP,
    NXP_STACK_VBASE,
    NXP_WINDOW_VBASE,
    create_address_space,
)

SRC = """
@nxp var device_data = 11;
var host_data = 22;
@nxp func dev() { return device_data; }
func main() { return host_data; }
"""


@pytest.fixture
def loaded():
    machine = FlickMachine()
    exe = machine.compile(SRC)
    process = machine.load(exe)
    return machine, exe, process


class TestWindows:
    def test_nxp_window_uses_four_1g_pages(self):
        machine = FlickMachine()
        process = create_address_space(machine, "t")
        for i in range(4):
            tr = process.page_tables.translate(NXP_WINDOW_VBASE + i * PAGE_1G)
            assert tr.page_size == PAGE_1G
            assert tr.paddr == machine.memory_map.bar0_base + i * PAGE_1G

    def test_nxp_stack_window_maps_bram(self):
        machine = FlickMachine()
        process = create_address_space(machine, "t")
        tr = process.page_tables.translate(NXP_STACK_VBASE)
        assert tr.paddr == machine.memory_map.nxp_bram_base
        assert tr.page_size == PAGE_2M

    def test_host_heap_and_stack_host_resident(self):
        machine = FlickMachine()
        process = create_address_space(machine, "t")
        heap_tr = process.page_tables.translate(HOST_HEAP_VBASE)
        stack_tr = process.page_tables.translate(HOST_STACK_TOP - 8)
        assert machine.memory_map.host_dram_contains(heap_tr.paddr)
        assert machine.memory_map.host_dram_contains(stack_tr.paddr)

    def test_host_heap_backed_as_allocations_reach_it(self):
        machine = FlickMachine()
        process = create_address_space(machine, "t")
        second_page = HOST_HEAP_VBASE + PAGE_2M
        with pytest.raises(PageFault):
            process.page_tables.translate(second_page)
        assert process.host_heap.alloc(PAGE_2M + 8) == HOST_HEAP_VBASE
        tr = process.page_tables.translate(second_page)
        assert tr.page_size == PAGE_2M and tr.nx and tr.writable
        assert machine.memory_map.host_dram_contains(tr.paddr)

    def test_unused_heaps_cost_no_host_dram(self):
        # Each address space reserves a 64 MB heap window; 64 of them
        # only fit in host DRAM because untouched heap pages are unbacked.
        machine = FlickMachine()
        for i in range(64):
            create_address_space(machine, f"t{i}")

    def test_windows_marked_nx(self):
        """Data windows are never executable on the host."""
        machine = FlickMachine()
        process = create_address_space(machine, "t")
        for vaddr in (NXP_WINDOW_VBASE, HOST_HEAP_VBASE, NXP_STACK_VBASE):
            assert process.page_tables.translate(vaddr).nx


class TestSegmentPlacement:
    def test_text_sections_in_host_dram(self, loaded):
        machine, exe, process = loaded
        for section in (".text.hisa", ".text.nisa"):
            seg = exe.segment_named(section)
            tr = process.page_tables.translate(seg.vaddr)
            assert machine.memory_map.host_dram_contains(tr.paddr), section

    def test_nxp_data_section_in_nxp_dram(self, loaded):
        machine, exe, process = loaded
        seg = exe.segment_named(".data.nxp")
        tr = process.page_tables.translate(seg.vaddr)
        assert machine.memory_map.bar0_contains(tr.paddr)

    def test_host_data_section_in_host_dram(self, loaded):
        machine, exe, process = loaded
        seg = exe.segment_named(".data")
        tr = process.page_tables.translate(seg.vaddr)
        assert machine.memory_map.host_dram_contains(tr.paddr)

    def test_initializers_copied(self, loaded):
        machine, exe, process = loaded
        host_tr = process.page_tables.translate(exe.symbol("host_data"))
        dev_tr = process.page_tables.translate(exe.symbol("device_data"))
        assert machine.phys.read_u64(host_tr.paddr) == 22
        assert machine.phys.read_u64(dev_tr.paddr) == 11


class TestNXMarking:
    def test_nisa_text_is_nx(self, loaded):
        _machine, exe, process = loaded
        seg = exe.segment_named(".text.nisa")
        assert process.page_tables.translate(seg.vaddr).nx

    def test_hisa_text_is_executable(self, loaded):
        _machine, exe, process = loaded
        seg = exe.segment_named(".text.hisa")
        assert not process.page_tables.translate(seg.vaddr).nx

    def test_exec_ranges_recorded_per_isa(self, loaded):
        _machine, exe, process = loaded
        assert process.isa_at(exe.symbol("main")) == "hisa"
        assert process.isa_at(exe.symbol("dev")) == "nisa"
        assert process.isa_at(exe.symbol("host_data")) is None

    def test_unmapped_addresses_fault(self, loaded):
        _machine, _exe, process = loaded
        with pytest.raises(PageFault):
            process.page_tables.translate(0x5555_5000)


class TestNxpAlignmentGuard:
    """Misaligned @nxp segments must be rejected at load time.

    The loader maps segments at the page-aligned-down base; for device
    placement that silently shifts the segment's BAR offset, so every
    device access lands ``vaddr % 4K`` bytes away from where the
    initializers were copied.  Host segments tolerate the alignment fixup
    (host DRAM has no window congruence requirement) and must keep
    loading.
    """

    @staticmethod
    def _exe(section, placement, vaddr):
        from repro.toolchain.felf import Executable, Segment

        seg = Segment(
            section_name=section,
            vaddr=vaddr,
            data=b"\x11" * 16,
            bss_size=0,
            isa=None,
            placement=placement,
            writable=True,
        )
        return Executable(
            entry_symbol="blob",
            segments=[seg],
            symbols={"blob": vaddr},
            isa_of_symbol={"blob": None},
        )

    def test_misaligned_nxp_segment_rejected(self):
        machine = FlickMachine()
        with pytest.raises(LoadError, match="page-congruent"):
            machine.load(self._exe(".data.nxp", "nxp", 0x40_1008))

    def test_aligned_nxp_segment_loads(self):
        machine = FlickMachine()
        process = machine.load(self._exe(".data.nxp", "nxp", 0x40_1000))
        tr = process.page_tables.translate(0x40_1000)
        assert machine.memory_map.bar0_contains(tr.paddr)

    def test_misaligned_host_segment_still_loads(self):
        machine = FlickMachine()
        process = machine.load(self._exe(".data", "host", 0x40_1008))
        tr = process.page_tables.translate(0x40_1008)
        assert machine.memory_map.host_dram_contains(tr.paddr)


class TestIsolation:
    def test_processes_get_disjoint_physical_segments(self):
        machine = FlickMachine()
        exe = machine.compile(SRC)
        p1 = machine.load(exe, name="p1")
        p2 = machine.load(exe, name="p2")
        tr1 = p1.page_tables.translate(exe.symbol("host_data"))
        tr2 = p2.page_tables.translate(exe.symbol("host_data"))
        assert tr1.paddr != tr2.paddr

    def test_processes_share_nxp_window_mapping(self):
        """The 4GB window maps the same physical device memory in every
        process (it is the device, not private memory)."""
        machine = FlickMachine()
        p1 = create_address_space(machine, "a")
        p2 = create_address_space(machine, "b")
        tr1 = p1.page_tables.translate(NXP_WINDOW_VBASE + 123)
        tr2 = p2.page_tables.translate(NXP_WINDOW_VBASE + 123)
        assert tr1.paddr == tr2.paddr
