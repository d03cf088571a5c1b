"""Superblocks whose memory ops leave the fast path.

A compiled host load or store runs inline only when its translation hits
(writable, for stores) host DRAM.  Anything else — a translation fault,
a write-protected page, a cross-PCIe route — flushes the block and hands
the whole access to the port.  An NxP block does the same for any route
but BRAM and the local window.  Each case here runs with the JIT on and
off and must agree bit for bit (retval, simulated ns, stats, DES events);
the JIT's own counters are pinned so the slow route is known to have run
inside a block, and a fault on it counts ``jit.bailouts.fault`` on
either side.
"""

from repro.core.config import FlickConfig
from repro.core.errors import ProcessCrash
from repro.core.machine import FlickMachine
from repro.memory.paging import PAGE_2M
from repro.os.loader import HOST_HEAP_VBASE

#: Every iteration touches a fresh demand-paged page, first with loads
#: (the first loop) and then with stores (the second): each access
#: faults inside the block, the kernel maps the page, and the new
#: mapping moves the code generation, so the loop recompiles.
LAZY_HEAP_LOOPS = """
func main(n) {
    var buf = alloc(2 * n * 4096);
    var acc = 0;
    var i = 0;
    while (i < n) {
        acc = acc + load(buf + i * 4096) + i;
        i = i + 1;
    }
    while (i < 2 * n) {
        store(buf + i * 4096, i);
        acc = acc + load(buf + i * 4096);
        i = i + 1;
    }
    return acc;
}
"""

#: ``hits`` lives in NxP DRAM: the host reaches it over PCIe.
PCIE_LOOP = """
@nxp var hits = 300;
func main(n) {
    var i = 0;
    while (i < n) {
        hits = hits + i;
        i = i + 1;
    }
    return hits;
}
"""

#: Stores walk up to, and then into, a read-only heap page.
STORE_WALK = """
func main(base, n) {
    var i = 0;
    while (i < n) {
        store(base + i * 8, i);
        i = i + 1;
    }
    return i;
}
"""


#: The same walk on the NxP: every store to the host heap crosses PCIe,
#: so each one leaves the block for the port.
NXP_STORE_WALK = """
@nxp func walk(base, n) {
    var i = 0;
    while (i < n) {
        store(base + i * 8, i);
        i = i + 1;
    }
    return i;
}
func main(base, n) { return walk(base, n); }
"""


def _run(source, args, jit, setup=None):
    """Run ``source`` to completion or crash; ``setup(machine, process)``
    may prepare the address space and return leading arguments."""
    machine = FlickMachine(FlickConfig(jit_enabled=jit))
    process = machine.load(machine.compile(source))
    lead = setup(machine, process) if setup is not None else []
    thread = machine.spawn(process, args=[*lead, *args])
    crash = None
    try:
        machine.run()
    except Exception as exc:  # the crash surfaces wrapped by the engine
        crash = exc.__cause__ or exc
    probe = {
        "retval": thread.result,
        "sim_ns": machine.sim.now,
        "stats": machine.stats.snapshot(),
        "events": machine.sim.events_processed,
        "crash": None if crash is None else (type(crash), str(crash), crash.pc),
    }
    return machine, probe


def _lazy_heap(machine, process):
    machine.enable_lazy_heap(process)
    return []


def _read_only_second_heap_page(machine, process):
    """Back the heap's second 2 MB page, remap it read-only, and start
    the store walk 40 words below it."""
    process.host_heap.alloc(PAGE_2M + 4096)
    page = HOST_HEAP_VBASE + PAGE_2M
    paddr = process.page_tables.translate(page).paddr
    process.page_tables.map_page(page, paddr, PAGE_2M, writable=False, nx=True)
    return [page - 40 * 8]


class TestHostSuperblockSlowRoutes:
    def test_demand_paged_heap_faults_inside_block(self):
        on_machine, on = _run(LAZY_HEAP_LOOPS, [60], True, _lazy_heap)
        _, off = _run(LAZY_HEAP_LOOPS, [60], False, _lazy_heap)
        assert on == off
        assert (on["retval"], on["sim_ns"]) == (7140, 241934.22222218759)
        assert on["stats"]["kernel.minor_fault"] == 120
        # 20 faulting loads and 20 faulting stores ran inside blocks.
        assert on_machine.jit_stats() == {
            "jit.compiled_blocks": 42,
            "jit.block_exec_total": 42,
            "jit.block_inst_total": 1149,
            "jit.block_sim_ns": 2388.194444437926,
            "jit.invalidations": 40,
            "jit.bailouts.codegen": 40,
            "jit.bailouts.fault": 40,
        }

    def test_pcie_route_delegates_to_port(self):
        on_machine, on = _run(PCIE_LOOP, [60], True)
        _, off = _run(PCIE_LOOP, [60], False)
        assert on == off
        assert (on["retval"], on["sim_ns"]) == (2070, 75233.876344088)
        assert (on["stats"]["host.load_pcie"], on["stats"]["host.store_pcie"]) == (61, 60)
        assert on_machine.jit_stats() == {
            "jit.compiled_blocks": 1,
            "jit.block_exec_total": 1,
            "jit.block_inst_total": 1132,
            "jit.block_sim_ns": 1944.611111113023,
            "jit.invalidations": 0,
        }

    def test_write_protect_crashes_at_the_same_pc(self):
        on_machine, on = _run(STORE_WALK, [60], True, _read_only_second_heap_page)
        _, off = _run(STORE_WALK, [60], False, _read_only_second_heap_page)
        assert on == off
        kind, message, pc = on["crash"]
        assert kind is ProcessCrash
        assert "write_protect" in message
        assert pc == 0x40007E
        assert on["sim_ns"] == 3168.249999999929
        assert on_machine.jit_stats() == {
            "jit.compiled_blocks": 1,
            "jit.block_exec_total": 1,
            "jit.block_inst_total": 706,
            "jit.block_sim_ns": 1601.722222222137,
            "jit.invalidations": 0,
            "jit.bailouts.fault": 1,
        }


class TestNxpSuperblockSlowRoutes:
    def test_write_protect_crashes_at_the_same_pc(self):
        on_machine, on = _run(NXP_STORE_WALK, [60], True, _read_only_second_heap_page)
        _, off = _run(NXP_STORE_WALK, [60], False, _read_only_second_heap_page)
        assert on == off
        kind, message, pc = on["crash"]
        assert kind is ProcessCrash
        assert "unexpected nxp page fault" in message and "write_protect" in message
        assert pc == 0x401118
        assert on["sim_ns"] == 76542.67383512536
        assert on_machine.jit_stats() == {
            "jit.compiled_blocks": 1,
            "jit.block_exec_total": 1,
            "jit.block_inst_total": 768,
            "jit.block_sim_ns": 17130.0,
            "jit.invalidations": 0,
            "jit.bailouts.fault": 1,
        }
