"""Differential tests: the indexed TLB and cache against their list-scan
reference models (``reference_models.py``).

Each test drives a new structure and its reference through one random
operation sequence and, after every step, requires equal return values,
equal hit/miss/evict/flush counters and equal resident sets, down to
each entry's LRU stamp.  The sequences include the batched commits,
``TLB.touch(entry, n)`` and ``Cache.touch(addr, n)``, each checked
against ``n`` single hits on the reference.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import PAGE_1G, PAGE_2M, PAGE_4K, Cache, TLB, Translation
from repro.sim import StatRegistry

from .reference_models import ReferenceCache, ReferenceTLB

# A pool of disjoint pages of all three sizes: 4 KB pages inside the
# first 2 MB, 2 MB pages inside the second GB, 1 GB pages from 8 GB up.
PAGES = (
    [(k * PAGE_4K, PAGE_4K) for k in range(1, 13)]
    + [(PAGE_1G + j * PAGE_2M, PAGE_2M) for j in range(6)]
    + [((8 + i) * PAGE_1G, PAGE_1G) for i in range(4)]
)
#: Addresses no pool page covers (every lookup of them misses).
UNMAPPED = [0x0, 0x20_0000, 2 * PAGE_1G, 12 * PAGE_1G]


def _entry(e):
    if e is None:
        return None
    return (e.vbase, e.page_size, e.pbase, e.writable, e.user, e.nx, e.lru_stamp)


def _tlb_resident(tlb):
    return sorted(_entry(e) for _shift, pages in tlb._resident for e in pages.values())


def _ref_tlb_resident(ref):
    return sorted(_entry(e) for e in ref._entries)


_offsets = st.integers(min_value=0, max_value=PAGE_1G - 1)

_tlb_op = st.one_of(
    st.tuples(
        st.just("insert"),
        st.integers(0, len(PAGES) - 1),
        _offsets,
        st.integers(0, 7),  # physical frame variant: re-inserts may remap
        st.booleans(),
        st.booleans(),
    ),
    st.tuples(st.just("lookup"), st.integers(0, len(PAGES) - 1), _offsets),
    st.tuples(st.just("probe_touch"), st.integers(0, len(PAGES) - 1), _offsets),
    st.tuples(
        st.just("touch_n"), st.integers(0, len(PAGES) - 1), _offsets, st.integers(1, 9)
    ),
    st.tuples(st.just("miss"), st.sampled_from(UNMAPPED)),
    st.tuples(st.just("flush")),
)


def _vaddr(page_idx, offset):
    vbase, size = PAGES[page_idx]
    return vbase + offset % size


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 16), ops=st.lists(_tlb_op, max_size=80))
def test_tlb_matches_list_scan_reference(capacity, ops):
    new = TLB("t", entries=capacity, stats=StatRegistry())
    ref = ReferenceTLB("t", entries=capacity, stats=StatRegistry())
    for op in ops:
        kind = op[0]
        if kind == "insert":
            _, idx, offset, frame, writable, nx = op
            vaddr = _vaddr(idx, offset)
            vbase, size = PAGES[idx]
            paddr = (16 + frame) * PAGE_1G + (vaddr - vbase)
            tr = Translation(vaddr, paddr, size, writable, True, nx)
            assert _entry(new.insert(tr)) == _entry(ref.insert(tr))
        elif kind == "lookup":
            vaddr = _vaddr(op[1], op[2])
            assert _entry(new.lookup(vaddr)) == _entry(ref.lookup(vaddr))
        elif kind == "probe_touch":
            # The JIT's pattern: probe, then commit the hit.  The
            # reference commits with a counted lookup, as it did there.
            vaddr = _vaddr(op[1], op[2])
            got, want = new.probe(vaddr), ref.probe(vaddr)
            assert _entry(got) == _entry(want)
            if got is not None:
                new.touch(got)
                ref.lookup(vaddr)
                assert _entry(got) == _entry(want)
        elif kind == "touch_n":
            # A run of n hits on one page committed at once (the JIT's
            # D-TLB and I-TLB runs) against n counted lookups.
            vaddr, n = _vaddr(op[1], op[2]), op[3]
            got = new.probe(vaddr)
            if got is not None:
                assert new.touch(got, n) is None
                for _ in range(n):
                    want = ref.lookup(vaddr)
                assert _entry(got) == _entry(want)
            else:
                assert ref.probe(vaddr) is None
        elif kind == "miss":
            assert new.probe(op[1]) is None and ref.probe(op[1]) is None
            assert new.lookup(op[1]) is None and ref.lookup(op[1]) is None
        else:
            new.flush()
            ref.flush()
        assert new.stats.snapshot() == ref.stats.snapshot()
        assert new.occupancy == ref.occupancy <= capacity
        assert _tlb_resident(new) == _ref_tlb_resident(ref)
        # Every resident page still answers through the index.
        for vbase, *_rest in _tlb_resident(new):
            assert _entry(new.probe(vbase)) == _entry(ref.probe(vbase))


def _cache_resident(cache):
    return dict(cache._stamps)


def _ref_cache_resident(ref):
    return {
        tag * ref.num_sets + set_idx: stamp
        for set_idx, lines in enumerate(ref._sets)
        for tag, stamp in lines
    }


_cache_op = st.one_of(
    st.tuples(st.just("access"), st.integers(0, 4095)),
    st.tuples(st.just("probe"), st.integers(0, 4095)),
    st.tuples(st.just("touch_n"), st.integers(0, 4095), st.integers(1, 9)),
    st.tuples(st.just("invalidate"), st.integers(0, 4095), st.integers(0, 300)),
    st.tuples(st.just("flush")),
)


@settings(max_examples=300, deadline=None)
@given(
    ways=st.sampled_from([1, 2, 4]),
    sets=st.sampled_from([1, 2, 4, 8]),
    line_bytes=st.sampled_from([16, 64]),
    ops=st.lists(_cache_op, max_size=120),
)
def test_cache_matches_list_scan_reference(ways, sets, line_bytes, ops):
    new = Cache("c", ways * sets, line_bytes, ways=ways, stats=StatRegistry())
    ref = ReferenceCache("c", ways * sets, line_bytes, ways=ways, stats=StatRegistry())
    for op in ops:
        kind = op[0]
        if kind == "access":
            assert new.access(op[1]) == ref.access(op[1])
        elif kind == "probe":
            assert new.probe(op[1]) == ref.probe(op[1])
        elif kind == "touch_n":
            # n hits on one resident line committed at once (the JIT's
            # I-cache fetch run) against n hitting accesses.
            addr, n = op[1], op[2]
            if new.probe(addr):
                assert new.touch(addr, n) is None
                assert all(ref.access(addr) for _ in range(n))
            else:
                assert not ref.probe(addr)
        elif kind == "invalidate":
            new.invalidate_range(op[1], op[2])
            ref.invalidate_range(op[1], op[2])
        else:
            new.flush()
            ref.flush()
        assert new.stats.snapshot() == ref.stats.snapshot()
        assert new.occupancy == ref.occupancy
        assert _cache_resident(new) == _ref_cache_resident(ref)
        # Each per-set resident list holds exactly that set's lines.
        for set_idx, lines in enumerate(new._sets):
            assert sorted(lines) == sorted(
                line for line in new._stamps if line % new.num_sets == set_idx
            )
