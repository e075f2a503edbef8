"""Tests for the sector cache hierarchy and warp access model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.memory import (
    MemoryHierarchy,
    SectorCache,
    replay_issues,
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


def _slot(ops, advances=None):
    """A ``replay_issues`` slot: ``(ops, advances, sectors, load sectors)``."""
    if advances is None:
        advances = (0,) * len(ops)
    loads = sum(p.n_sectors for _, p, is_write in ops if not is_write)
    return (ops, tuple(advances), sum(p.n_sectors for _, p, _ in ops),
            loads)


def _issue(m, ops):
    """Issue one statement once; ``True`` when the issue collapsed."""
    return replay_issues(m, [([_slot(ops)], 1)]) == 1


def _state(m):
    return (m.l1.hits, m.l1.misses, m.l2.hits, m.l2.misses, m.dram_reads,
            m.dram_writes, list(m.l1._sectors.items()),
            list(m.l2._sectors.items()))


SECTOR = 32
# Lane ranges start here, so that any generated base advance keeps every
# address non-negative.
ORIGIN = 64 * SECTOR

_INSTRUCTION = st.tuples(
    st.one_of(
        # Any lane ranges: mostly multi-sector patterns.
        st.lists(st.tuples(st.integers(0, 640),
                           st.sampled_from([4, 8, 16])),
                 min_size=1, max_size=8),
        # Lanes inside one sector: single-sector patterns.
        st.integers(0, 20).flatmap(lambda s: st.lists(
            st.tuples(st.just(s * SECTOR + 8), st.sampled_from([4, 8])),
            min_size=1, max_size=4))),
    st.booleans())

# A slot: "fresh" draws its own instructions; "same" copies the slot
# before with its advances (equal at every cycle); "once" copies it with
# the advances changed, so the two are equal at exactly one cycle.
# Slot 0 may be "wrap": the last slot of the cycle before, equal at
# exactly one cycle.  That cycle may come before the loop's first
# cycle, when the two are equal at no cycle the loop issues.
_SLOT = st.tuples(
    st.sampled_from(["fresh", "fresh", "same", "once"]),
    st.lists(_INSTRUCTION, min_size=1, max_size=3),
    st.lists(st.integers(-2, 2), min_size=3, max_size=3),
    st.integers(-2, 3))

# A statement loop: its slots, whether slot 0 wraps, whether an issue of
# its slot 0 comes just before it (0: no; 1: in a call of its own, so
# that ``last_issue`` starts equal to slot 0; 2: as the loop before it in
# the same call), and its number of issues.
_LOOP = st.tuples(st.lists(_SLOT, min_size=1, max_size=4), st.booleans(),
                  st.sampled_from([0, 1, 2]), st.integers(1, 14))

# A call drives 1–3 statement loops; ``None`` ends the block.
_CALL = st.one_of(st.lists(_LOOP, min_size=1, max_size=3), st.just(None))


def _shifted(ranges, sectors):
    return [(address + sectors * SECTOR, n_bytes)
            for address, n_bytes in ranges]


def _slot_table(slots, wrap):
    """``[(instructions, advances)]`` of a drawn call, each instruction
    ``(lane ranges, is_write)`` at cycle 0 and advances in sectors per
    cycle."""
    table = []
    for kind, instructions, advances, cycle in slots:
        if kind == "fresh" or not table:
            table.append(([(_shifted(ranges, 0), is_write)
                           for ranges, is_write in instructions],
                          advances[:len(instructions)]))
            continue
        previous, prev_advances = table[-1]
        if kind == "same":
            table.append((previous, prev_advances))
            continue
        # base + c*(prev + delta) == prev base + c*prev  at c == cycle.
        deltas = [1 if advance <= 0 else -1 for advance in prev_advances]
        table.append(([(_shifted(ranges, -cycle * delta), is_write)
                       for (ranges, is_write), delta
                       in zip(previous, deltas)],
                      [advance + delta for advance, delta
                       in zip(prev_advances, deltas)]))
    if wrap and len(table) > 1:
        # Slot 0 at cycle c equals the last slot at cycle c - 1 only at
        # c == cycle.
        cycle = slots[0][3] + 1
        last, last_advances = table[-1]
        deltas = [1 if advance <= 0 else -1 for advance in last_advances]
        table[0] = ([(_shifted(ranges, -advance - cycle * delta), is_write)
                     for (ranges, is_write), advance, delta
                     in zip(last, last_advances, deltas)],
                    [advance + delta for advance, delta
                     in zip(last_advances, deltas)])
    return [([(_shifted(ranges, ORIGIN // SECTOR), is_write)
              for ranges, is_write in instructions], advances)
            for instructions, advances in table]


@given(calls=st.lists(_CALL, min_size=1, max_size=5),
       l1=st.integers(2, 16), l2=st.integers(4, 24))
@settings(max_examples=300, deadline=None)
def test_issue_collapse_matches_warp_access(calls, l1, l2):
    """Property: ``replay_issues`` leaves the hierarchy exactly as
    replaying every instruction through ``warp_access`` does — counters
    and the ordered ``(sector, dirty)`` contents of both caches — and
    ``last_issue`` equal to the final issue, after every call and after
    ``end_kernel``.  It collapses exactly the issues that equal the issue
    before and fit in L1.  Loops cycle 1–4 slots with advances of either
    sign, slots equal to their predecessor at every cycle or at exactly
    one, and issues larger than L1; a loop may follow an issue of its own
    slot 0, in the same call or before it."""
    reference = MemoryHierarchy(l1 * SECTOR, l2 * SECTOR, SECTOR)
    batched = MemoryHierarchy(l1 * SECTOR, l2 * SECTOR, SECTOR)
    canonical = {}
    previous = None  # the last issue's operations
    expected = 0     # collapses by the per-issue rule, this call

    def issue_all(table, rows, n_issues):
        """Replay a loop through ``warp_access``; count its collapses."""
        nonlocal previous, expected
        for issue in range(n_issues):
            cycle, index = divmod(issue, len(rows))
            instructions, advances = table[index]
            ops, _, n_sectors, _ = rows[index]
            for (ranges, is_write), advance in zip(instructions, advances):
                warp_access(reference, _shifted(ranges, cycle * advance),
                            is_write)
            ops = tuple((base + cycle * advance, pattern, is_write)
                        for (base, pattern, is_write), advance
                        in zip(ops, advances))
            # The per-issue rule: equal to the issue before, fits in L1.
            expected += ops == previous and n_sectors <= l1
            previous = ops
        return (rows, n_issues)

    def check(loops):
        nonlocal expected
        assert replay_issues(batched, loops) == expected
        assert _state(batched) == _state(reference)
        assert batched.last_issue == previous
        expected = 0

    for call in calls:
        if call is None:
            reference.end_block()
            batched.end_block()
            previous = None
            continue
        loops = []
        for slots, wrap, prime, n_issues in call:
            table = _slot_table(slots, wrap)
            rows = [_slot(tuple(_warp_op(ranges, is_write, canonical)
                                for ranges, is_write in instructions),
                          advances)
                    for instructions, advances in table]
            if prime == 1 and not loops:
                check([issue_all(table[:1], rows[:1], 1)])
            elif prime:
                loops.append(issue_all(table[:1], rows[:1], 1))
            loops.append(issue_all(table, rows, n_issues))
        check(loops)
    reference.end_kernel()
    batched.end_kernel()
    assert _state(batched) == _state(reference)
    assert batched.last_issue is None


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
