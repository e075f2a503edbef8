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
        # The sector operations of the last statement issue, as
        # :func:`issue_warp_patterns` replayed them; ``None`` once any
        # other memory operation (or the end of a block) intervenes.
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


def replay_warp_pattern(memory: MemoryHierarchy, base_sector: int,
                        write_sequence: Iterable[int],
                        sorted_sectors: Iterable[int],
                        is_write: bool) -> None:
    """Drive the hierarchy with a memoized warp sector pattern, exactly as
    :func:`warp_access` would for the equivalent lane ranges.

    The fast interpreter (:mod:`repro.gpu.fastpath`) memoizes per-warp
    sector patterns *relative to the base sector* and replays them here.
    The replay must reproduce :func:`warp_access`'s sector-operation
    sequence byte for byte, because the LRU caches are order-sensitive:

    * **writes** iterate the raw Python ``set`` above, whose iteration
      order depends on the inserted values *and* the insertion sequence —
      so the replay rebuilds an equivalent set by inserting the identical
      value sequence (``write_sequence`` holds the relative sectors in the
      order the per-lane ``update(range(first, last + 1))`` calls insert
      them: lane order, ascending within a lane, duplicates preserved —
      duplicate inserts are no-ops in both constructions);
    * **reads** iterate ``sorted(sectors)``, which is value-deterministic,
      so the replay streams the memoized ``sorted_sectors`` (relative,
      deduplicated, ascending) directly without building a set at all.
    """
    l1 = memory.l1
    l2 = memory.l2
    l1_sectors = l1._sectors
    l2_sectors = l2._sectors
    l1_cap = l1.capacity_sectors
    l2_cap = l2.capacity_sectors
    if is_write:
        sectors = set([base_sector + rel for rel in write_sequence])
        # Inlined store_sector -> l1.store -> _l2_store chain: the same
        # OrderedDict mutations and counter updates in the same order,
        # without per-sector call frames (`store` keeps no hit counters).
        for sector in sectors:
            if sector in l1_sectors:
                l1_sectors[sector] = True
                l1_sectors.move_to_end(sector)
                continue
            l1_sectors[sector] = True
            if len(l1_sectors) > l1_cap:
                victim, was_dirty = l1_sectors.popitem(last=False)
                if was_dirty:
                    if victim in l2_sectors:
                        l2_sectors[victim] = True
                        l2_sectors.move_to_end(victim)
                    else:
                        l2_sectors[victim] = True
                        if len(l2_sectors) > l2_cap:
                            l2_victim, l2_dirty = l2_sectors.popitem(last=False)
                            if l2_dirty:
                                memory.dram_writes += 1
    else:
        # Inlined load_sector: L1 probe/insert/evict, dirty spill to L2,
        # then the L2 probe — the exact sequence of the method chain.
        for rel in sorted_sectors:
            sector = base_sector + rel
            if sector in l1_sectors:
                l1_sectors.move_to_end(sector)
                l1.hits += 1
                continue
            l1.misses += 1
            l1_sectors[sector] = False
            if len(l1_sectors) > l1_cap:
                victim, was_dirty = l1_sectors.popitem(last=False)
                if was_dirty:
                    if victim in l2_sectors:
                        l2_sectors[victim] = True
                        l2_sectors.move_to_end(victim)
                    else:
                        l2_sectors[victim] = True
                        if len(l2_sectors) > l2_cap:
                            l2_victim, l2_dirty = l2_sectors.popitem(last=False)
                            if l2_dirty:
                                memory.dram_writes += 1
            if sector in l2_sectors:
                l2_sectors.move_to_end(sector)
                l2.hits += 1
            else:
                l2.misses += 1
                l2_sectors[sector] = False
                if len(l2_sectors) > l2_cap:
                    l2_victim, l2_dirty = l2_sectors.popitem(last=False)
                    if l2_dirty:
                        memory.dram_writes += 1
                memory.dram_reads += 1


def issue_warp_patterns(memory: MemoryHierarchy, ops: tuple,
                        n_sectors: int, load_sectors: int) -> bool:
    """Drive the hierarchy with one statement issue's warp instructions,
    or skip the replay when it provably changes nothing but one counter.

    ``ops`` lists ``(base_sector, pattern, is_write)`` per instruction, in
    issue order; each ``pattern`` carries the ``write_seq``,
    ``sorted_rels`` and ``n_sectors`` of :func:`replay_warp_pattern`.
    Patterns compare by identity, so only patterns canonical by content
    (equal sector sequences, one object) let every repeat be recognized.
    ``n_sectors`` sums the patterns' sectors and ``load_sectors`` those of
    the loads.

    When ``ops`` equals the previous issue (``memory.last_issue``: no
    memory operation in between) and ``n_sectors`` is at most
    ``l1.capacity_sectors``, the replay would only hit.  After the
    previous issue every sector of ``ops`` is among the most recently
    used L1 sectors, in last-touch order: evicting one would take more
    distinct sectors than the capacity.  So every operation hits; hits
    only reorder those sectors, back into their last-touch order; every
    stored sector is already dirty; and L2 and DRAM are never reached.
    The collapse adds the load hits and returns ``True``.  Otherwise
    every instruction is replayed and ``False`` is returned.
    """
    if ops == memory.last_issue and n_sectors <= memory.l1.capacity_sectors:
        memory.l1.hits += load_sectors
        return True
    for base_sector, pattern, is_write in ops:
        replay_warp_pattern(memory, base_sector, pattern.write_seq,
                            pattern.sorted_rels, is_write)
    memory.last_issue = ops
    return False
