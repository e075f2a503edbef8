"""Tests for the sector cache hierarchy and warp access model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.memory import (
    MemoryHierarchy,
    SectorCache,
    issue_warp_patterns,
    warp_access,
)


def hierarchy(l1=1024, l2=8192, sector=32):
    return MemoryHierarchy(l1, l2, sector)


class TestSectorCache:
    def test_load_miss_then_hit(self):
        c = SectorCache(1024, 32)
        hit, _ = c.load(5)
        assert not hit
        hit, _ = c.load(5)
        assert hit

    def test_lru_eviction(self):
        c = SectorCache(2 * 32, 32)  # capacity: 2 sectors
        c.load(1)
        c.load(2)
        c.load(3)  # evicts 1
        hit, _ = c.load(1)
        assert not hit

    def test_dirty_eviction_reported(self):
        c = SectorCache(2 * 32, 32)
        assert c.store(1) is None
        assert c.store(2) is None
        evicted = c.store(3)  # evicts dirty sector 1
        assert evicted == 1

    def test_clean_eviction_not_reported(self):
        c = SectorCache(2 * 32, 32)
        c.load(1)
        c.load(2)
        _, evicted = c.load(3)
        assert evicted is None

    def test_flush_returns_dirty(self):
        c = SectorCache(1024, 32)
        c.store(7)
        c.load(8)
        assert c.flush() == [7]
        assert c.flush() == []  # now clean

    def test_store_marks_existing_dirty(self):
        c = SectorCache(1024, 32)
        c.load(3)
        c.store(3)
        assert c.flush() == [3]

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            SectorCache(0, 32)


class TestMemoryHierarchy:
    def test_load_counts_dram_once(self):
        m = hierarchy()
        m.load_sector(1)
        m.load_sector(1)
        assert m.dram_reads == 1

    def test_l2_backs_l1(self):
        m = hierarchy(l1=2 * 32)  # tiny L1: 2 sectors
        m.load_sector(1)
        m.load_sector(2)
        m.load_sector(3)  # 1 evicted from L1, still in L2
        m.load_sector(1)
        assert m.dram_reads == 3  # the re-load of 1 hits L2

    def test_store_combining(self):
        """Repeated stores to one sector cost one write-back (accumulators)."""
        m = hierarchy()
        for _ in range(100):
            m.store_sector(9)
        m.end_kernel()
        assert m.dram_writes == 1

    def test_scattered_stores_all_written(self):
        m = hierarchy()
        for s in range(50):
            m.store_sector(s)
        m.end_kernel()
        assert m.dram_writes == 50

    def test_store_then_load_forwards(self):
        """A load after a store to the same sector must not touch DRAM."""
        m = hierarchy()
        m.store_sector(4)
        m.load_sector(4)
        assert m.dram_reads == 0

    def test_end_block_spills_to_l2_not_dram(self):
        m = hierarchy()
        m.store_sector(4)
        m.end_block()
        assert m.dram_writes == 0
        m.end_kernel()
        assert m.dram_writes == 1

    def test_capacity_pressure_writes_back(self):
        m = hierarchy(l1=32, l2=2 * 32)
        m.store_sector(1)
        m.end_block()
        m.store_sector(2)
        m.end_block()
        m.store_sector(3)  # L2 overflows: dirty eviction
        m.end_block()
        m.end_kernel()
        assert m.dram_writes == 3  # every dirty sector eventually lands


class TestWarpAccess:
    def test_coalesced_load(self):
        m = hierarchy()
        # 32 lanes x 4B consecutive = 128 bytes = 4 sectors.
        ranges = [(lane * 4, 4) for lane in range(32)]
        result = warp_access(m, ranges, is_write=False)
        assert result.sectors_touched == 4
        assert m.dram_reads == 4
        assert result.bytes_requested == 128

    def test_strided_load(self):
        m = hierarchy(l2=100 * 32)
        ranges = [(lane * 256, 4) for lane in range(32)]
        result = warp_access(m, ranges, is_write=False)
        assert result.sectors_touched == 32

    def test_vector_access_counts_lane_width(self):
        m = hierarchy()
        # 8 lanes x 16B consecutive = 4 sectors.
        ranges = [(lane * 16, 16) for lane in range(8)]
        result = warp_access(m, ranges, is_write=False)
        assert result.sectors_touched == 4
        assert result.bytes_requested == 128

    def test_broadcast_single_sector(self):
        m = hierarchy()
        ranges = [(64, 4)] * 32
        result = warp_access(m, ranges, is_write=False)
        assert result.sectors_touched == 1

    def test_write_transactions_deferred(self):
        m = hierarchy()
        ranges = [(lane * 4, 4) for lane in range(32)]
        warp_access(m, ranges, is_write=True)
        assert m.dram_writes == 0
        m.end_kernel()
        assert m.dram_writes == 4

    def test_zero_byte_rejected(self):
        with pytest.raises(ValueError):
            warp_access(hierarchy(), [(0, 0)], False)


@given(st.lists(st.integers(0, 500), min_size=1, max_size=200),
       st.integers(2, 16))
@settings(max_examples=50, deadline=None)
def test_writeback_bounds(sectors, capacity):
    """Property: write-backs are bounded below by the distinct dirty
    sectors and above by the total number of stores (a sector evicted
    dirty and re-dirtied later writes back again)."""
    m = MemoryHierarchy(capacity * 32, capacity * 64, 32)
    for s in sectors:
        m.store_sector(s)
    m.end_kernel()
    assert len(set(sectors)) <= m.dram_writes <= len(sectors)


@given(st.lists(st.integers(0, 500), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_writeback_exact_without_pressure(sectors):
    """Without capacity pressure every distinct sector writes back once."""
    m = MemoryHierarchy(1024 * 32, 1024 * 32, 32)
    for s in sectors:
        m.store_sector(s)
    m.end_kernel()
    assert m.dram_writes == len(set(sectors))


class _Pattern:
    """A warp sector pattern as the fast simulator memoizes it."""

    def __init__(self, write_seq, sorted_rels):
        self.write_seq = write_seq
        self.sorted_rels = sorted_rels
        self.n_sectors = len(sorted_rels)


def _warp_op(lane_ranges, is_write, canonical, sector=32):
    """``(base sector, pattern, is_write)`` of one warp instruction, the
    pattern relative to the first lane's sector and canonical by content."""
    base_sector = lane_ranges[0][0] // sector
    write_seq = []
    for address, n_bytes in lane_ranges:
        write_seq.extend(range(address // sector - base_sector,
                               (address + n_bytes - 1) // sector
                               - base_sector + 1))
    write_seq = tuple(write_seq)
    sorted_rels = tuple(sorted(set(write_seq)))
    pattern = canonical.setdefault((write_seq, sorted_rels),
                                   _Pattern(write_seq, sorted_rels))
    return (base_sector, pattern, is_write)


def _issue(m, ops):
    loads = sum(p.n_sectors for _, p, is_write in ops if not is_write)
    return issue_warp_patterns(m, ops, sum(p.n_sectors for _, p, _ in ops),
                               loads)


def _state(m):
    return (m.l1.hits, m.l1.misses, m.l2.hits, m.l2.misses, m.dram_reads,
            m.dram_writes, list(m.l1._sectors.items()),
            list(m.l2._sectors.items()))


_INSTRUCTION = st.tuples(
    st.lists(st.tuples(st.integers(0, 640), st.sampled_from([4, 8, 16])),
             min_size=1, max_size=8),
    st.booleans())


@given(issues=st.lists(st.lists(_INSTRUCTION, min_size=1, max_size=3),
                       min_size=1, max_size=4),
       steps=st.lists(st.one_of(
           st.tuples(st.integers(0, 3), st.integers(1, 4)),
           st.just(None)), min_size=1, max_size=12),
       l1=st.integers(2, 16), l2=st.integers(4, 24))
@settings(max_examples=200, deadline=None)
def test_issue_collapse_matches_warp_access(issues, steps, l1, l2):
    """Property: collapsing exact repeats leaves the hierarchy exactly as
    replaying every instruction through ``warp_access`` does — counters
    and the ordered ``(sector, dirty)`` contents of both caches.  Steps
    issue one statement several times in a row (``None`` ends a block);
    issues larger than L1 always replay."""
    reference = MemoryHierarchy(l1 * 32, l2 * 32, 32)
    collapsing = MemoryHierarchy(l1 * 32, l2 * 32, 32)
    canonical = {}
    previous = None
    for step in steps:
        if step is None:
            reference.end_block()
            collapsing.end_block()
            previous = None
            continue
        index, repeats = step
        issue = issues[index % len(issues)]
        ops = tuple(_warp_op(ranges, is_write, canonical)
                    for ranges, is_write in issue)
        for _ in range(repeats):
            for ranges, is_write in issue:
                warp_access(reference, ranges, is_write)
            collapsed = _issue(collapsing, ops)
            if collapsed:
                assert ops == previous
                assert sum(p.n_sectors for _, p, _ in ops) <= l1
            previous = ops
            assert _state(collapsing) == _state(reference)
    reference.end_kernel()
    collapsing.end_kernel()
    assert _state(collapsing) == _state(reference)


def test_issue_collapse_fires_and_end_block_clears_it():
    m = hierarchy(l1=4 * 32)
    canonical = {}
    ops = (_warp_op([(0, 4), (40, 4)], False, canonical),
           _warp_op([(64, 8)], True, canonical))
    assert not _issue(m, ops)
    hits = m.l1.hits
    assert _issue(m, ops)
    assert m.l1.hits == hits + 2  # the two load sectors
    m.end_block()
    assert not _issue(m, ops)
    # Any other memory operation in between also forbids the collapse.
    warp_access(m, [(512, 4)], False)
    assert not _issue(m, ops)


def test_issue_larger_than_l1_always_replays():
    m = hierarchy(l1=2 * 32)
    ops = (_warp_op([(0, 4), (32, 4), (64, 4)], False, {}),)
    assert not _issue(m, ops)
    assert not _issue(m, ops)
    assert m.l1.hits == 0 and m.l1.misses == 6
