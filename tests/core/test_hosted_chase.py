"""``HostedContext.chase`` against the per-op path, across translation pages.

``chase`` runs a pointer chain a page run at a time (docs/PERFORMANCE.md,
"Batched kernels"): the hop that enters a page takes the reference
``access_latency`` call, the hops inside it reuse the page's bounds,
paddr delta and price, and on the NxP their D-TLB hits are committed
late, with one ``TLB.touch`` per run.  ``build_chain``'s chains live in
one 1 GB page, so the workload parity suite never leaves the first page
run.  Here each draw places a chain by hand across the NxP window
(1 GB pages), the host heap (2 MB) and the NxP stack BRAM (2 MB), with
nodes whose 8-byte read crosses a 4 KB frame and an optional end in an
untouched frame (after which the next hop faults at address 0).

Twin machines run the same chain: one through ``ctx.chase`` in calls of
``hosted_batch_size`` hops, the other as ``ctx.load`` + ``ctx.compute``
per hop.  An optional load of another site between calls moves the
D-TLB under the chase.  The two must agree on the node returned (or the
fault raised), the context's charge, the stats snapshot, and the
D-TLB's resident entries with their LRU stamps and its stamp sequence.
"""

from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import DEFAULT_CONFIG, MB
from repro.core.hosted import HostedContext, HostedMachine, HostedProgram
from repro.memory.paging import PAGE_1G, PAGE_2M, PageFault
from repro.os.loader import HOST_HEAP_VBASE, NXP_STACK_VBASE, NXP_WINDOW_VBASE

_MM = DEFAULT_CONFIG.memory_map

#: ``straddle`` shrinks NxP DRAM to 3.5 GB and puts the stack BRAM right
#: after it, so the NxP window's last 1 GB page holds both: a route
#: window's bound falls inside one translation page, on either side.
MAPS = {
    "default": _MM,
    "straddle": replace(
        _MM,
        nxp_local_size=3 * PAGE_1G + 512 * MB,
        nxp_bram_base=_MM.bar0_base + 3 * PAGE_1G + 512 * MB,
    ),
}

#: The NxP window's last page, and the part of it that is NxP DRAM on
#: the default map and the stack BRAM on ``straddle``.
STRADDLE_PAGE = NXP_WINDOW_VBASE + 3 * PAGE_1G
PAST_STRADDLE = STRADDLE_PAGE + 512 * MB

#: Disjoint node slots in every page: the page's first slot, a read
#: across a 4 KB frame, a plain slot, and a frame's last slot.
OFFSETS = (0x8, 0xFFC, 0x2010, 0x3FF8)
PAGE_SITES = {
    page: [page + off for off in OFFSETS]
    for page in (
        [NXP_WINDOW_VBASE + k * PAGE_1G for k in (0, 1, 3)]
        + [HOST_HEAP_VBASE + k * PAGE_2M for k in (0, 1)]
        + [NXP_STACK_VBASE + k * PAGE_2M for k in (1, 5)]
    )
}
PAGE_SITES[NXP_WINDOW_VBASE] += [NXP_WINDOW_VBASE + PAGE_1G - 8]  # a 1 GB page's last slot
PAGE_SITES[HOST_HEAP_VBASE] += [HOST_HEAP_VBASE + PAGE_2M - 8]  # a 2 MB page's last slot
PAGE_SITES[STRADDLE_PAGE] += [PAST_STRADDLE + 0x10, PAST_STRADDLE + 0x1FFC]
SITES = sorted(site for sites in PAGE_SITES.values() for site in sites)

#: Mapped, never written: a node here reads 0.
UNTOUCHED = NXP_WINDOW_VBASE + PAGE_1G + 0x2000_0000

#: Base+limit windows that bypass the D-TLB when segments are on: the
#: NxP window's first page and one BRAM page.
SEGMENTS = [(NXP_WINDOW_VBASE, PAGE_1G), (NXP_STACK_VBASE + 5 * PAGE_2M, PAGE_2M)]


def _machine(cfg, segments, chain, end):
    hosted = HostedMachine(HostedProgram(), cfg=cfg, nxp_segments=SEGMENTS if segments else None)
    hosted.process.host_heap.alloc(2 * PAGE_2M)  # back the heap's first two pages
    phys = hosted.machine.phys
    tail = chain[0] if end == "cycle" else UNTOUCHED
    for here, nxt in zip(chain, chain[1:] + [tail]):
        phys.write(hosted.translate(here), nxt.to_bytes(8, "little"))
    return hosted


def _observe(hosted, ctx, walk):
    try:
        outcome = walk()
    except PageFault as fault:
        outcome = ("fault", fault.vaddr, fault.kind)
    dtlb = hosted._nxp_dtlb
    resident = sorted(
        (e.vbase, e.page_size, e.pbase, e.lru_stamp)
        for _shift, pages in dtlb._resident
        for e in pages.values()
    )
    return outcome, ctx._charged_fs, hosted.machine.stats.snapshot(), resident, dtlb._stamp


def _chased(hosted, side, head, hops, cycles, interloper):
    ctx = HostedContext(hosted, side)

    def walk():
        node, left = head, hops
        while left:
            run = min(ctx.batch_ops, left)
            node = ctx.chase(node, run, cycles)
            left -= run
            if interloper is not None:
                ctx.load(interloper)
        return node

    return _observe(hosted, ctx, walk)


def _per_op(hosted, side, head, hops, cycles, interloper):
    ctx = HostedContext(hosted, side)

    def walk():
        node = head
        for hop in range(1, hops + 1):
            node = ctx.load(node)
            ctx.compute(cycles)
            if interloper is not None and (hop % ctx.batch_ops == 0 or hop == hops):
                ctx.load(interloper)
        return node

    return _observe(hosted, ctx, walk)


@st.composite
def chains(draw):
    """Up to ten distinct sites from one to three pages, so that hops
    both stay in a page and leave it.  The page that straddles a route
    bound on the ``straddle`` map is drawn twice as often."""
    pages = sorted(PAGE_SITES) + [STRADDLE_PAGE]
    pages = draw(st.lists(st.sampled_from(pages), min_size=1, max_size=3, unique=True))
    sites = [site for page in pages for site in PAGE_SITES[page]]
    return draw(st.lists(st.sampled_from(sites), min_size=1, max_size=10, unique=True))


@settings(max_examples=400, deadline=None)
@given(
    side=st.sampled_from(("host", "fallback", "nxp", "nxp")),
    chain=chains(),
    end=st.sampled_from(("cycle", "cycle", "untouched")),
    hops=st.integers(1, 600),
    cycles=st.sampled_from((0, 1, 10, 37)),
    tlb_entries=st.sampled_from((1, 1, 2, 3, 4, 16)),
    batch=st.integers(2, 256),
    segments=st.sampled_from((False, False, True)),
    memory_map=st.sampled_from(sorted(MAPS)),
    interloper=st.none() | st.sampled_from(SITES),
)
# Shrunk counterexamples of deliberate breakages, each failing one:
# the run's D-TLB hits committed after the reference lookup instead of
# before (the next hop ends in an untouched frame and faults);
@example(
    side="nxp", chain=[NXP_WINDOW_VBASE + 0x8], end="untouched", hops=3, cycles=0,
    tlb_entries=1, batch=3, segments=False, memory_map="default", interloper=None,
)
# the page memo carried from one call to the next, past a load that
# evicts its D-TLB entry;
@example(
    side="nxp", chain=[NXP_WINDOW_VBASE + 0x8], end="cycle", hops=3, cycles=0,
    tlb_entries=1, batch=2, segments=False, memory_map="default",
    interloper=NXP_WINDOW_VBASE + PAGE_1G + 0x8,
)
# the memo kept across a page that has none (a straddling one), though
# that page's lookup evicted the memo's D-TLB entry;
@example(
    side="nxp",
    chain=[NXP_WINDOW_VBASE + PAGE_1G + 0x8, STRADDLE_PAGE + 0x8],
    end="cycle", hops=3, cycles=0, tlb_entries=1, batch=3, segments=False,
    memory_map="straddle", interloper=None,
)
# and one price for a page that a route window's bound falls inside.
@example(
    side="host", chain=[PAST_STRADDLE + 0x10], end="cycle", hops=2, cycles=0,
    tlb_entries=1, batch=2, segments=False, memory_map="straddle", interloper=None,
)
@example(
    side="nxp", chain=[PAST_STRADDLE + 0x10], end="cycle", hops=2, cycles=0,
    tlb_entries=1, batch=2, segments=False, memory_map="straddle", interloper=None,
)
def test_chase_matches_per_op_path(
    side, chain, end, hops, cycles, tlb_entries, batch, segments, memory_map, interloper
):
    cfg = replace(
        DEFAULT_CONFIG,
        tlb_entries=tlb_entries,
        hosted_batch_size=batch,
        memory_map=MAPS[memory_map],
    )
    chased = _chased(_machine(cfg, segments, chain, end), side, chain[0], hops, cycles, interloper)
    per_op = _per_op(_machine(cfg, segments, chain, end), side, chain[0], hops, cycles, interloper)
    assert chased == per_op
