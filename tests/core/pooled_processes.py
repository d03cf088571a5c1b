"""Two pooled processes of one executable sharing the NxP cores.

Shared by the decode-cache and JIT parity suites.  Each process serves
one request at a time and is reused, as the serving harness's connection
pool does.  Both pools run at once, so their residencies interleave on
the NxP and most residencies switch address space.
"""

from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

from repro.core.machine import FlickMachine
from repro.isa import hisa, nisa
from repro.memory.paging import PAGE_4K

#: ``work`` is a hot NxP loop: it compiles to a superblock at the
#: default threshold.  ``main`` first stores ``word`` at ``addr`` when
#: ``addr`` is nonzero, which is how a request patches ``work``.
SOURCE = """
@nxp func work(n) {
    var acc = 0;
    var i = 0;
    while (i < n) { acc = acc + 77; i = i + 1; }
    return acc;
}
func main(n, addr, word) {
    if (addr != 0) { store(addr, word); }
    return work(n);
}
"""
LOOPS = 30
ADDEND = 77


def pooled_machine(cfg):
    """A machine with processes ``a`` and ``b`` loaded from SOURCE."""
    machine = FlickMachine(cfg)
    exe = machine.compile(SOURCE)
    return machine, machine.load(exe, name="a"), machine.load(exe, name="b")


def serve(machine, process, args=(LOOPS, 0, 0)):
    """One request on ``process``, run to quiescence; its return value."""
    thread = machine.spawn(process, args=list(args))
    machine.run()
    return thread.result


@contextmanager
def counting_decodes():
    """Count ``hisa.decode`` / ``nisa.decode`` calls inside the block,
    keyed by ISA (the interpreters and the JIT both decode through
    these module functions)."""
    calls = Counter()
    originals = {module: module.decode for module in (hisa, nisa)}

    def counted(module, name):
        def decode(raw, pc):
            calls[name] += 1
            return originals[module](raw, pc)

        return decode

    hisa.decode = counted(hisa, "hisa")
    nisa.decode = counted(nisa, "nisa")
    try:
        yield calls
    finally:
        for module, original in originals.items():
            module.decode = original


def patch_args(machine, process, addend):
    """``main`` args that rewrite ``work`` to add ``addend`` per loop.

    Remaps the page holding the instruction writable (NISA text loads
    read-only), so the host's store lands and, being a store into a
    registered executable range, moves the code generation.
    """
    tables = process.page_tables
    addr = process.symbols["work"]
    while True:
        inst, length = nisa.decode(machine.phys.read(tables.translate(addr).paddr, 8), addr)
        if inst.imm == ADDEND:
            break
        addr += length
    page = addr & ~(PAGE_4K - 1)
    tables.map_page(page, tables.translate(page).paddr, writable=True, nx=True)
    word = int.from_bytes(nisa.encode(replace(inst, imm=addend)), "little")
    return (LOOPS, addr, word)


def run_interleaved(cfg, requests=3, patch_last=False):
    """Serve ``requests`` requests on each pooled process at once.

    With ``patch_last``, process ``a``'s last request rewrites ``work``
    first, so it must return the new code's result from warm caches.
    Returns every observable the parity contract pins, plus the return
    values in order.
    """
    machine, a, b = pooled_machine(cfg)
    patched = patch_args(machine, a, ADDEND + 1) if patch_last else None
    retvals = {"a": [], "b": []}

    def client(process, key):
        for r in range(requests):
            args = patched if patched and key == "a" and r == requests - 1 else (LOOPS, 0, 0)
            thread = machine.spawn(process, args=list(args))
            yield thread.proc
            retvals[key].append(thread.result)

    for process, key in ((a, "a"), (b, "b")):
        machine.sim.spawn(client(process, key), name=f"client.{key}")
    machine.run()
    return {
        "retvals": retvals,
        "sim_ns": machine.sim.now,
        "stats": machine.stats.snapshot(),
        "events": machine.sim.events_processed,
    }
