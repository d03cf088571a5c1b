"""One machine-level test per exit of the shared step loop
(:mod:`repro.core.step_loop`), on each core it applies to.

The loop runs an interpreter until the function returns (RET to the
runtime, or HALT) or fetches the other ISA's code (an ``nx``,
``misaligned`` or ``illegal`` crossing).  It services host-side
lazy-heap faults in place; anything else crashes the process.
"""

from dataclasses import replace

import pytest

from repro import FlickMachine
from repro.os.kernel import ProcessCrash
from repro.toolchain import link
from repro.toolchain.asm_unit import assemble_unit


def run_asm(obj, args=(), prepare=None):
    """Link, load and run an assembly unit's ``main`` on a fresh machine;
    ``prepare(machine, process, thread)`` runs before the simulation."""
    machine = FlickMachine()
    exe = link([obj], entry_symbol="main", extra_symbols=machine.runtime_symbols)
    process = machine.load(exe)
    thread = machine.spawn(process, args=args)
    if prepare is not None:
        prepare(machine, process, thread)
    machine.run()
    return machine, process, thread


def crash_of(run) -> ProcessCrash:
    with pytest.raises(Exception) as excinfo:
        run()
    root = excinfo.value.__cause__ or excinfo.value
    assert isinstance(root, ProcessCrash), root
    return root


# -- a lazy-heap page nothing has touched yet ---------------------------------

LAZY_SUM = """
@nxp func dev_sum(buf, n) {
    var total = 0;
    var i = 0;
    while (i < n) { total = total + load(buf + i * 8); i = i + 1; }
    return total;
}
func host_sum(buf, n) {
    var total = 0;
    var i = 0;
    while (i < n) { total = total + load(buf + i * 8); i = i + 1; }
    return total;
}
func main(n, on_nxp) {
    var buf = alloc(n * 8);
    if (on_nxp) { return dev_sum(buf, n); }
    return host_sum(buf, n);
}
"""


def run_lazy_sum(where: str):
    """Sum four untouched longs of a demand-paged heap on ``where``:
    the host thread, the NxP, or the fallback emulator (the only NxP
    drained before the run)."""
    machine = FlickMachine()
    process = machine.load(machine.compile(LAZY_SUM))
    lazy = machine.enable_lazy_heap(process)
    thread = machine.spawn(process, args=[4, int(where != "host")])
    if where == "fallback":
        machine.kill_nxp(0, mode="drain")
    machine.run()
    return machine, thread, lazy


class TestLazyHeapFault:
    def test_host_thread_services_it(self):
        machine, thread, lazy = run_lazy_sum("host")
        assert thread.result == 0
        assert lazy.minor_faults == 1
        assert machine.stats.get("latency.h2n_session_ns.count") == 0

    def test_fallback_emulator_services_it(self):
        machine, thread, lazy = run_lazy_sum("fallback")
        assert thread.result == 0
        assert lazy.minor_faults == 1
        assert machine.stats.get("degraded.calls") == 1

    def test_nxp_crashes(self):
        """The NxP's walk misses and nothing demand-pages it: NxP-visible
        memory must be populated before migration."""
        crash = crash_of(lambda: run_lazy_sum("nxp"))
        assert "unexpected nxp page fault" in str(crash)
        assert crash.fault.kind == "not_present"


# -- crossings out of NISA code ------------------------------------------------


def cross_to_host(trigger: str):
    """An NxP function calls the host function ``helper``; return
    ``(machine, thread, helper address)``.

    For ``misaligned`` and ``illegal`` the NxP's I-TLB is first given an
    entry that lets it execute the host text page (as an NxP without the
    inverted-NX check would), so the HISA bytes reach the NISA decoder:
    ``helper`` sits off the 8-byte grid for ``misaligned`` and on it for
    ``illegal``, where HISA opcodes (all < 0x80) are no NISA opcode.
    """
    pad = "    nop\n" * 3 if trigger == "illegal" else ""
    obj = assemble_unit(
        hisa_source=f"""
        main:
            la r10, dev
            call r10
            ret
        {pad}
        helper:
            mov rax, rdi
            add rax, 100
            ret
        """,
        nisa_source="""
        dev:
            add sp, sp, -16
            st ra, 0(sp)
            call helper
            ld ra, 0(sp)
            add sp, sp, 16
            ret
        """,
    )

    def plant_itlb_entry(machine, process, thread):
        if trigger == "nx":
            return
        platform = machine.devices[0].platform
        platform._switch_address_space(thread.task, 0)
        tr = process.page_tables.translate(process.symbols["helper"])
        platform.port.itlb.insert(replace(tr, nx=True))

    machine, process, thread = run_asm(obj, args=[5], prepare=plant_itlb_entry)
    return machine, thread, process.symbols["helper"]


@pytest.mark.parametrize("trigger", ["nx", "misaligned", "illegal"])
def test_nisa_fetch_of_host_code_crosses_to_the_host(trigger):
    machine, thread, helper = cross_to_host(trigger)
    if trigger == "misaligned":
        assert helper % 8
    elif trigger == "illegal":
        assert helper % 8 == 0
    assert thread.result == 105
    triggers = {
        name: machine.stats.get(f"nxp.migrate_trigger.{name}")
        for name in ("nx", "misaligned", "illegal")
    }
    assert triggers == {name: int(name == trigger) for name in triggers}
    assert machine.trace.count("n2h_call") == 1


def test_host_core_decoding_an_illegal_opcode_crashes():
    """HISA has no misaligned or illegal crossing: the host reaches NxP
    code only through the NX fault, so an undecodable opcode on a host
    core is a crash (here 0x7f, the immediate of ``li rax, 127``)."""
    obj = assemble_unit(
        hisa_source="""
        main:
            la r10, blob
            add r10, 2
            call r10
            ret
        blob:
            li rax, 127
            ret
        """
    )
    crash = crash_of(lambda: run_asm(obj))
    assert "host fetch fault" in str(crash)


# -- HALT ----------------------------------------------------------------------


def test_halt_on_a_host_core_returns_zero():
    _machine, _process, thread = run_asm(
        assemble_unit(hisa_source="main:\n li rax, 5\n hlt\n ret")
    )
    assert thread.result == 0


def test_halt_on_an_nxp_core_returns_zero_to_the_host():
    machine, _process, thread = run_asm(
        assemble_unit(
            hisa_source="main:\n la r10, dev\n call r10\n ret",
            nisa_source="dev:\n li a0, 7\n halt\n ret",
        )
    )
    assert thread.result == 0
    assert machine.trace.count("n2h_return") == 1
