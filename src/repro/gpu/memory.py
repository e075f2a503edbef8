"""Warp-level memory transaction model: L1 + L2 write-back sector caches.

Transactions are counted per warp instruction at 32-byte sector granularity
(the V100's L2 sector size), with a two-level write-back hierarchy:

* **L1** (per thread block in this model): read-allocate on loads,
  write-allocate-without-fetch on stores; dirty sectors spill to L2 on
  eviction and when the block finishes.
* **L2** (shared, persists across blocks of one launch): same policy;
  dirty evictions and the final flush are DRAM write transactions, read
  misses are DRAM read transactions.

This reproduces the behaviours the paper's optimization targets:

* coalesced warp accesses touch few sectors (cheap),
* per-thread-sequential accesses get L1 reuse,
* neighbouring blocks combine scattered stores in L2 *only while the
  working set between revisits fits* — large tensors with bad layouts pay
  real read/write amplification, exactly the cases influenced scheduling
  fixes,
* repeated accumulator stores (fused reductions) combine in L1.

The issue-cost side (transaction replays for uncoalesced instructions) is
captured by ``sectors_touched`` independently of cache hits.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Optional


class SectorCache:
    """An LRU write-back cache of memory sectors."""

    def __init__(self, capacity_bytes: int, sector_bytes: int):
        if capacity_bytes <= 0 or sector_bytes <= 0:
            raise ValueError("capacity and sector size must be positive")
        self.capacity_sectors = max(1, capacity_bytes // sector_bytes)
        self.sector_bytes = sector_bytes
        self._sectors: OrderedDict[int, bool] = OrderedDict()  # sector -> dirty
        self.hits = 0
        self.misses = 0

    def load(self, sector: int) -> tuple[bool, Optional[int]]:
        """Read one sector.

        Returns ``(hit, evicted_dirty_sector)``; on a miss the sector is
        allocated and the eviction (if any, and dirty) is reported so the
        caller can spill it to the next level.
        """
        if sector in self._sectors:
            self._sectors.move_to_end(sector)
            self.hits += 1
            return True, None
        self.misses += 1
        return False, self._insert(sector, dirty=False)

    def store(self, sector: int) -> Optional[int]:
        """Write one sector (write-allocate without fetch); returns an
        evicted dirty sector to spill, if any."""
        if sector in self._sectors:
            self._sectors[sector] = True
            self._sectors.move_to_end(sector)
            return None
        return self._insert(sector, dirty=True)

    def _insert(self, sector: int, dirty: bool) -> Optional[int]:
        self._sectors[sector] = dirty
        if len(self._sectors) > self.capacity_sectors:
            victim, was_dirty = self._sectors.popitem(last=False)
            if was_dirty:
                return victim
        return None

    def flush(self) -> list[int]:
        """Return (and clean) every dirty sector, in LRU order."""
        sectors = self._sectors
        dirty = list(compress(sectors, sectors.values()))
        # Assigning an existing key keeps its LRU position.
        for sector in dirty:
            sectors[sector] = False
        return dirty

    def drain(self) -> list[int]:
        """Return every dirty sector, in LRU order, and empty the cache
        (a flush without the cleaning the emptying makes moot)."""
        sectors = self._sectors
        dirty = list(compress(sectors, sectors.values()))
        sectors.clear()
        return dirty

    def clear_stats(self) -> None:
        self.hits = 0
        self.misses = 0


class MemoryHierarchy:
    """L1 (per block) + L2 (per launch) with DRAM transaction counting."""

    def __init__(self, l1_bytes: int, l2_bytes: int, sector_bytes: int):
        self.l1 = SectorCache(l1_bytes, sector_bytes)
        self.l2 = SectorCache(l2_bytes, sector_bytes)
        self.sector_bytes = sector_bytes
        self.dram_reads = 0
        self.dram_writes = 0
        # The sector operations of the last statement issue
        # :func:`replay_issues` drove; ``None`` once any other memory
        # operation (or the end of a block) intervenes.
        self.last_issue: Optional[tuple] = None

    # -- sector operations ---------------------------------------------------

    def load_sector(self, sector: int) -> None:
        hit, spilled = self.l1.load(sector)
        if spilled is not None:
            self._l2_store(spilled)
        if hit:
            return
        l2_hit, l2_evicted = self.l2.load(sector)
        if l2_evicted is not None:
            self.dram_writes += 1
        if not l2_hit:
            self.dram_reads += 1

    def store_sector(self, sector: int) -> None:
        spilled = self.l1.store(sector)
        if spilled is not None:
            self._l2_store(spilled)

    def _l2_store(self, sector: int) -> None:
        evicted = self.l2.store(sector)
        if evicted is not None:
            self.dram_writes += 1

    # -- lifecycle -------------------------------------------------------------

    def end_block(self) -> None:
        """A thread block finished: spill its L1 to L2 and recycle L1."""
        for sector in self.l1.drain():
            self._l2_store(sector)
        self.last_issue = None

    def end_kernel(self) -> None:
        """The launch finished: write back everything still dirty in L2."""
        self.end_block()
        self.dram_writes += len(self.l2.flush())

    @property
    def dram_transactions(self) -> int:
        return self.dram_reads + self.dram_writes


@dataclass
class WarpAccessResult:
    """Outcome of one warp memory instruction."""

    sectors_touched: int      # unique sectors across the warp
    bytes_requested: int      # useful bytes moved by the instruction


def warp_access(memory: MemoryHierarchy,
                lane_ranges: Iterable[tuple[int, int]],
                is_write: bool) -> WarpAccessResult:
    """Simulate one warp memory instruction.

    ``lane_ranges`` lists ``(byte_address, n_bytes)`` per active lane (a
    vector access is one lane range of 8/16 bytes).
    """
    memory.last_issue = None
    sector_size = memory.sector_bytes
    sectors: set[int] = set()
    requested = 0
    for address, n_bytes in lane_ranges:
        if n_bytes <= 0:
            raise ValueError("lane access must move at least one byte")
        requested += n_bytes
        first = address // sector_size
        last = (address + n_bytes - 1) // sector_size
        sectors.update(range(first, last + 1))
    if not sectors:
        return WarpAccessResult(0, 0)

    if is_write:
        for sector in sectors:
            memory.store_sector(sector)
    else:
        for sector in sorted(sectors):
            memory.load_sector(sector)
    return WarpAccessResult(len(sectors), requested)


_NEVER = sys.maxsize  # a cycle no statement loop reaches


def _repeat_cycles(ops, advances, prev_ops, prev_advances,
                   shift: int) -> tuple[int, int]:
    """``(first, only)``: a slot's issue at cycle ``c`` equals the issue
    before it exactly when ``c >= first`` or ``c == only``.

    The slot issues ``ops`` with each base sector advanced by ``c *
    advance``, and the issue before is ``prev_ops`` at cycle ``c -
    shift``.  They are equal when they have the same length, the same
    patterns (by identity) and ``is_write``, and every operation has
    ``base + c*advance == prev_base + (c - shift)*prev_advance``.  That
    equation is linear in ``c``: true for every cycle, for none, or for
    exactly one.  So the conjunction holds for every cycle from ``shift``
    on, for none, or for one."""
    never = (_NEVER, -1)
    if not shift and advances == prev_advances:
        # Every slope is zero: equal at every cycle or at none.
        return (0, -1) if ops == prev_ops else never
    if len(ops) != len(prev_ops):
        return never
    only = -1
    for (base, pattern, is_write), advance, \
            (prev_base, prev_pattern, prev_write), prev_advance \
            in zip(ops, advances, prev_ops, prev_advances):
        if pattern is not prev_pattern or is_write != prev_write:
            return never
        gap = base - prev_base + shift * prev_advance
        slope = advance - prev_advance
        if slope:
            cycle, remainder = divmod(-gap, slope)
            if remainder or cycle < shift or only not in (-1, cycle):
                return never
            only = cycle
        elif gap:
            return never
    return (shift, -1) if only < 0 else (_NEVER, only)


def replay_issues(memory: MemoryHierarchy, loops) -> int:
    """Drive the hierarchy with the statement issues of ``loops``, in
    order, exactly as :func:`warp_access` would per warp instruction, and
    return how many issues collapsed.

    A statement loop is ``(slots, n_issues)``, ``n_issues >= 1``; ``slots``
    lists ``(ops, advances, n_sectors, load_sectors)`` per slot.  The
    loop's issues cycle through the slots in turn: issue ``cycle *
    len(slots) + index`` issues slot ``index``'s operations ``ops`` —
    ``(base sector, pattern, is_write)`` per warp instruction, in issue
    order — with each base sector advanced by ``cycle * advance``.  A
    pattern carries the ``write_seq``, ``sorted_rels`` and ``n_sectors``
    of a memoized warp sector pattern, relative to the base sector.
    Patterns compare by identity, so only patterns canonical by content
    (equal sector sequences, one object) let every repeat be recognized.
    ``n_sectors`` sums a slot's pattern sectors and ``load_sectors`` those
    of its loads.

    The sector operations are :func:`warp_access`'s, in its order,
    because the LRU caches are order-sensitive.  Reads iterate
    ``sorted(sectors)``, which depends on the values only, so they stream
    ``sorted_rels``.  Writes iterate a raw ``set``, whose order depends on
    the inserted values and the insertion sequence: a multi-sector write
    rebuilds an equal set by inserting the same value sequence
    (``write_seq``: lane order, ascending within a lane, duplicates
    kept), and a one-sector write has only one order.  The L1 and L2
    operations are the ``load_sector``/``store_sector`` method chains,
    inlined, with the counters kept in locals until the end.

    Collapse.  Take an issue equal to the issue before it (for a loop's
    issue 0, the previous loop's last issue or ``memory.last_issue``: no
    memory operation in between) whose patterns sum to at most
    ``l1.capacity_sectors``.  After the previous issue every sector of it
    is among the most recently used L1 sectors, in last-touch order:
    evicting one would take more distinct sectors than the capacity.  So
    replaying it, every operation hits; hits only reorder those sectors,
    back into their last-touch order; every stored sector is already
    dirty; and L2 and DRAM are never reached.  The collapse only adds the
    load sectors to ``l1.hits``.  Whether a slot's issue repeats the one
    before is decided once per slot, for every cycle
    (:func:`_repeat_cycles`).  ``memory.last_issue`` ends equal to the
    final issue's operations.
    """
    l1 = memory.l1
    l2 = memory.l2
    l1_sectors = l1._sectors
    l2_sectors = l2._sectors
    l1_cap = l1.capacity_sectors
    l2_cap = l2.capacity_sectors
    l1_touch = l1_sectors.move_to_end
    l2_touch = l2_sectors.move_to_end
    l1_evict = l1_sectors.popitem
    l2_evict = l2_sectors.popitem
    # Every load sector probes L1, and every L1 miss probes L2 and, when
    # it misses there too, reads DRAM: only misses need counting.  The
    # cache sizes are tracked here rather than asked for.
    loaded = l1_misses = l2_misses = writes = collapsed = 0
    l1_size = len(l1_sectors)
    l2_size = len(l2_sectors)
    last = memory.last_issue
    for slots, n_issues in loops:
        ops, advances, n_sectors, loads = slots[0]
        skip = ops == last and n_sectors <= l1_cap
        if skip:
            # Issue 0 repeats the issue before the loop.
            loaded += loads
            collapsed += 1
            if n_issues == 1:
                continue
        n_slots = len(slots)
        # Per slot: (ops, advances, load sectors, first, only).
        if n_issues == 1:
            table = ((ops, advances, loads, _NEVER, -1),)
        else:
            table = []
            prev_ops, prev_advances, _, _ = slots[-1]
            # Slot 0 follows the last slot of the cycle before, from cycle
            # 1 on; within one cycle only equality at cycle 0 matters.
            shift = 1
            wraps = n_issues > n_slots
            for ops, advances, n_sectors, loads in slots:
                if n_sectors > l1_cap or (shift and not wraps):
                    table.append((ops, advances, loads, _NEVER, -1))
                elif wraps:
                    table.append((ops, advances, loads) + _repeat_cycles(
                        ops, advances, prev_ops, prev_advances, shift))
                else:
                    table.append((ops, advances, loads,
                                  0 if ops == prev_ops else _NEVER, -1))
                prev_ops, prev_advances = ops, advances
                shift = 0
        full, rest = divmod(n_issues, n_slots)
        for cycle in range(full + (rest > 0)):
            rows = table if cycle < full else table[:rest]
            if skip and not cycle:
                rows = rows[1:]
            for ops, advances, loads, first, only in rows:
                loaded += loads
                if cycle >= first or cycle == only:
                    collapsed += 1
                    continue
                for (base, pattern, is_write), advance in zip(ops, advances):
                    if cycle:
                        base += cycle * advance
                    if not is_write:
                        for rel in pattern.sorted_rels:
                            sector = base + rel
                            if sector in l1_sectors:
                                l1_touch(sector)
                                continue
                            l1_misses += 1
                            l1_sectors[sector] = False
                            if l1_size < l1_cap:
                                l1_size += 1
                            else:
                                victim, dirty = l1_evict(last=False)
                                if dirty:
                                    if victim in l2_sectors:
                                        l2_touch(victim)
                                        l2_sectors[victim] = True
                                    else:
                                        l2_sectors[victim] = True
                                        if l2_size < l2_cap:
                                            l2_size += 1
                                        elif l2_evict(last=False)[1]:
                                            writes += 1
                            if sector in l2_sectors:
                                l2_touch(sector)
                                continue
                            l2_misses += 1
                            l2_sectors[sector] = False
                            if l2_size < l2_cap:
                                l2_size += 1
                            elif l2_evict(last=False)[1]:
                                writes += 1
                        continue
                    if pattern.n_sectors > 1:
                        sectors = set([base + rel for rel in pattern.write_seq])
                    else:
                        sectors = (base + pattern.sorted_rels[0],)
                    for sector in sectors:
                        if sector in l1_sectors:
                            l1_touch(sector)
                            l1_sectors[sector] = True
                            continue
                        l1_sectors[sector] = True
                        if l1_size < l1_cap:
                            l1_size += 1
                            continue
                        victim, dirty = l1_evict(last=False)
                        if dirty:
                            if victim in l2_sectors:
                                l2_touch(victim)
                                l2_sectors[victim] = True
                            else:
                                l2_sectors[victim] = True
                                if l2_size < l2_cap:
                                    l2_size += 1
                                elif l2_evict(last=False)[1]:
                                    writes += 1
        cycle, index = divmod(n_issues - 1, n_slots)
        ops, advances, _, _ = slots[index]
        last = ops if not cycle else tuple(
            (base + cycle * advance, pattern, is_write)
            for (base, pattern, is_write), advance in zip(ops, advances))
    l1.hits += loaded - l1_misses
    l1.misses += l1_misses
    l2.hits += l1_misses - l2_misses
    l2.misses += l2_misses
    memory.dram_reads += l2_misses
    memory.dram_writes += writes
    memory.last_issue = last
    return collapsed
