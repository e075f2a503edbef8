"""Closed-form warp execution: the interpreter behind ``simulate_kernel``.

The reference interpreter (:class:`repro.gpu.simulator._Simulator`) carries
one environment dict *per lane* and evaluates every affine address, guard
and loop bound 32 times per warp.  But lanes of a warp only ever differ in
the thread-index variables, and those differences are fixed per warp slot:
lane ``l`` of the warp starting at thread ``warp_start`` sees thread
variable ``v`` at ``shift(v) + digit(v, warp_start + l)``, where the
mixed-radix digit is a constant of the block shape and ``shift`` is the
(lane-invariant) mapped-loop lower bound accumulated during traversal.

Every affine expression therefore splits into a *shared* part — evaluated
once per warp against a single environment — plus a per-lane *offset
vector* ``Σ coeff(v) · digit(v, lane)`` that depends only on the
expression's thread coefficients and the warp slot, and is memoized across
blocks and loop iterations.  Three consequences drive the speedup:

* guards and loop bounds with zero thread coefficients (the common case)
  are evaluated once instead of 32 times;
* a warp memory instruction's *sector pattern relative to its base
  sector* is a pure function of ``(offset vector, base % sector_bytes,
  access width, active mask)`` — the warp signature — because
  ``(base + off) // S  ==  base // S + (base % S + off) // S`` exactly.
  Signatures are counted once and memoized (``sim.fastpath.memo_hits``);
  for full warps with a constant positive stride the pattern is derived
  in closed form from the stride arithmetic, with no set building or
  sorting (``sim.fastpath.analytic``), and lane enumeration remains only
  for masked/partial warps and irregular offset patterns;
* replaying memoized patterns against the (stateful, order-sensitive)
  cache hierarchy goes through :func:`repro.gpu.memory.replay_issues`,
  which reproduces the reference's sector-operation sequence byte for
  byte — counters stay bitwise-identical by construction.

Statement loops.  A sequential loop segment whose live children are all
statement calls, with lane-invariant bounds, is issued by one routine
(:meth:`_FastSimulator._issue_calls`; a lone scalar issue, and a mapped
loop body made of statement calls, are its one-value cases).  Per value
of the loop variable it issues every live call in turn.  Each access's
address steps by its stride on the loop variable, so its residue modulo
the sector — and with it the warp signature and pattern — repeats with a
period dividing the sector size, while its base sector advances by a
fixed amount per period; the calls' joint period is the least common
multiple of theirs, again a divisor of the sector size.  The first joint
period does the pattern lookups of single issues; later iterations reuse
its patterns, counting the same memo hits and costs.  So the loop's
sector operations are a *slot table* — the first period's issues, each
with its operations ``(base sector, pattern, is_write)`` and the advance
of every base sector per period — plus an issue count: issue ``c *
n_slots + k`` is slot ``k`` with its bases advanced ``c`` times.  Pattern
lookups touch no cache state and nothing reads it before the block ends,
so each loop is queued as ``(slots, n_issues)`` (a vector issue is a
one-slot, one-issue loop); ``replay_issues`` replays the queued loops in
order, up to ``_LOOP_BATCH`` of them per call, and
:meth:`_FastSimulator.run_block` replays the rest when the block ends.

Repeated issues.  Let O be the ordered sector operations of one statement
issue.  Patterns are canonical by content per kernel (equal sector
sequences are one object), so two issues produce the same O exactly when
their operations compare equal, patterns by identity.  Suppose the next
issue produces the identical O, no memory operation happened in between,
and O touches at most ``l1.capacity_sectors`` sectors (the sum of its
patterns' ``n_sectors``).  Then replaying O again leaves both caches
unchanged:

* every sector of O is among the most recently used L1 sectors — for LRU
  to evict one, more distinct sectors than the capacity would have to be
  touched after it — so every operation hits;
* hits only reorder those sectors, and their order after the replay is
  again their last-touch order in O;
* every sector O stores is already dirty;
* L2 and DRAM are never touched.

The only effect is ``l1.hits += (load sectors of O)``, so the replay adds
those hits instead (``sim.fastpath.collapsed_issues``).  Whether an issue
repeats the one before is decided once per slot, not per issue: slot
``k`` at cycle ``c`` equals slot ``k - 1`` at cycle ``c`` (slot 0: the
last slot at cycle ``c - 1``) when the lengths, patterns and
``is_write`` agree and every base satisfies ``base + c·advance ==
prev_base + (c - shift)·prev_advance`` — linear in ``c``, so true for
every cycle, no cycle, or exactly one.  A loop's issue 0 compares
against the issue before the loop, which the hierarchy keeps as
``last_issue``; ``end_block`` and ``warp_access`` clear it.  Row-per-lane
loops (softmax and reduction rows where each lane reads along its own
row) repeat their previous issue for most iterations: every lane stays
in one sector for ``sector / element`` iterations.

Loop segment plans.  Fused operators lower to *union* loops: polyhedral
code generation without loop separation emits one loop over the union of
the statements' ranges and a guard per statement, each live on one band
of it.  Walking such a loop tests every guard on every iteration, so
each sequential loop runs a static plan instead, built once per loop
node: one entry per body child (a ``forvec`` child contributes one per
``(child, lane value)`` pair, in :meth:`_FastSimulator._frun_vector`'s
order, with the lane value substituted as a constant).  Each entry
carries its *lifted* conditions: one conjunction per statement path
beneath the child, collected through guards and nested sequential loops,
keeping the conditions that are *exact* — integral, lane-invariant and
over the loop variable plus names fixed for the whole loop (no nested
loop or ``forvec`` assigns them).  Lifting stops at a mapped loop, which
shifts its variable on every run and so must run wherever the reference
reaches it.  On each entry to the loop, every conjunction's solution
interval on the loop variable is solved with integer floor/ceil
arithmetic, the range is cut at the interval endpoints, and each segment
runs only the entries live on it (some conjunction holds), in order;
segments where none is live are skipped, and a nested loop whose
statements cannot run on a value is never entered there.  A child with
no statement beneath it is never live.  A guard chain (nested
single-child guards) whose conditions are all exact runs its innermost
body with no guard evaluation; one with conditions outside the exact
subset (rational, lane-variant) is pruned where its exact part is false
and evaluates its guards normally elsewhere.  Guards are pure and
skipped subtrees issue nothing, so the sequence of memory operations —
and every counter — is unchanged.  A loop with no conditional child is
the one-segment case.  ``sim.fastpath.pruned_iterations`` counts the
(value, entry) pairs of planned loops left unwalked, lifted skips
included; the pairs of a nested loop that is never entered are not
counted again.

Constructs outside this model (currently: a mapped loop whose lower bound
has nonzero thread coefficients, or an unknown AST node) raise
:class:`FallbackNeeded`; ``simulate_kernel`` then re-runs the *whole
launch* on the reference interpreter, because cache state touched by a
half-finished fast run cannot be resumed exactly.
"""

from __future__ import annotations

import math

from repro.codegen.ast import Guard, Loop, Seq, StatementCall, walk
from repro.gpu.memory import replay_issues
from repro.gpu.simulator import _Simulator


class FallbackNeeded(Exception):
    """The launch uses a construct the fast interpreter does not model."""


class _WarpPattern:
    """A memoized per-warp sector pattern, relative to the base sector.

    ``write_seq`` holds the relative sectors in the exact insertion order
    the reference's per-lane ``set.update(range(first, last + 1))`` calls
    produce (lane order, ascending within a lane, duplicates preserved) —
    inserting the same value sequence rebuilds a ``set`` with identical
    internal state, which is what reproduces raw-set iteration order on
    writes.  ``sorted_rels`` is the deduplicated ascending form reads
    stream directly.
    """

    __slots__ = ("write_seq", "sorted_rels", "n_sectors")

    def __init__(self, write_seq, sorted_rels, n_sectors):
        self.write_seq = write_seq
        self.sorted_rels = sorted_rels
        self.n_sectors = n_sectors


_UNSET = object()

# Statement loops replayed per call to `replay_issues`, at most.
_LOOP_BATCH = 64


# Normalized exact conditions (see `_normalized_condition`).
_UPPER, _LOWER, _EQUAL, _ZERO_LE, _ZERO_GE, _ZERO_EQ = range(6)


def _normalized_condition(sense: str, a: int, const: int,
                          terms: list) -> tuple:
    """``a*v + const + Σ coeff*name  sense  0`` as ``(kind, d, num,
    terms)``, where ``num = const + Σ coeff*name`` once the term values
    are added in.

    With ``a != 0`` the condition bounds ``v``: ``_UPPER`` is
    ``v <= floor(num / d)``, ``_LOWER`` is ``v >= ceil(num / d)`` and
    ``_EQUAL`` is ``v == num / d``, with ``d = |a|`` and the constant and
    terms negated when ``a > 0``.  With ``a == 0`` it tests ``num`` alone
    (``_ZERO_*``)."""
    if a == 0:
        kind = (_ZERO_LE if sense == "<=" else _ZERO_GE if sense == ">="
                else _ZERO_EQ)
        return (kind, 0, const, tuple(terms))
    if a > 0:
        const = -const
        terms = [(name, -coeff) for name, coeff in terms]
    if sense == "==":
        kind = _EQUAL
    else:
        kind = _UPPER if (sense == "<=") == (a > 0) else _LOWER
    return (kind, abs(a), const, tuple(terms))


def _live_span(conditions, env: dict, lo: int, hi: int):
    """``(lo', hi')``, the values of ``[lo, hi]`` satisfying every
    normalized condition under ``env``, or ``None`` when there are none.
    Integer floor/ceil arithmetic only: the result is exact."""
    for kind, d, num, terms in conditions:
        for name, coeff in terms:
            num += coeff * env[name]
        if kind == _UPPER:
            if num // d < hi:
                hi = num // d
        elif kind == _LOWER:
            if -(-num // d) > lo:
                lo = -(-num // d)
        elif kind == _EQUAL:
            if num % d:
                return None
            if num // d > lo:
                lo = num // d
            if num // d < hi:
                hi = num // d
        elif kind == _ZERO_LE:
            if num > 0:
                return None
        elif kind == _ZERO_GE:
            if num < 0:
                return None
        elif num:
            return None
        if lo > hi:
            return None
    return lo, hi


def _segments(entries, env: dict, lo: int, hi: int):
    """Cut ``[lo, hi]`` at the live spans of a loop plan's entries.

    An entry is ``(paths, run)``: ``paths`` is ``None`` for an always-live
    entry, else a tuple of normalized condition conjunctions, and the
    entry is live where any of them holds.  Returns ``(segments,
    pruned)``: ``segments`` lists ``(start, stop, live runs)`` for the
    half-open value ranges where at least one entry is live, in ascending
    order with the runs in entry order; ``pruned`` counts the (value,
    entry) pairs left unwalked."""
    spans = []  # (first, last, entry index, run), in entry order
    cuts = {lo, hi + 1}
    for index, (paths, run) in enumerate(entries):
        if paths is None:
            spans.append((lo, hi, index, run))
            continue
        for conditions in paths:
            span = _live_span(conditions, env, lo, hi)
            if span is not None:
                cuts.add(span[0])
                cuts.add(span[1] + 1)
                spans.append((span[0], span[1], index, run))
    total = (hi - lo + 1) * len(entries)
    cuts = sorted(cuts)
    segments = []
    for start, stop in zip(cuts, cuts[1:]):
        live = []
        previous = -1
        for first, last, index, run in spans:
            # An entry's spans are adjacent in `spans`: keep its first hit.
            if index != previous and first <= start <= last:
                live.append(run)
                previous = index
        if live:
            segments.append((start, stop, live))
            total -= (stop - start) * len(live)
    return segments, total


class _FastState:
    """Memoized pure derivations of one mapped kernel, reusable across
    launches.

    Everything here is a function of the (immutable-after-mapping) kernel
    content, the launch geometry and the architecture's warp/sector
    shape — never of the order-sensitive cache hierarchy — so the state
    is attached to the ``MappedKernel`` and shared by every
    :class:`_FastSimulator` instance simulating it: re-measurement
    (oracle verification, degradation rungs, repeated `measure` calls)
    skips all warm-up.
    """

    __slots__ = (
        "digit_tables", "offset_cache", "offset_ids", "patterns",
        "pattern_contents",
        "guard_plans", "guard_cache", "loop_plans", "loop_cache",
        "mapped_plans", "mapped_cache", "call_plans",
        "access_cache", "bound_cache", "cond_cache",
    )

    def __init__(self):
        # warp_start -> {thread var -> per-lane mixed-radix digits}
        self.digit_tables: dict = {}
        # (id(compiled obj), warp_start) -> (offset vector | None, intern id)
        self.offset_cache: dict = {}
        self.offset_ids: dict = {}
        # (offset id, base residue, n_bytes, active mask) -> _WarpPattern,
        # canonical by content: (write_seq, sorted_rels) -> _WarpPattern.
        self.patterns: dict = {}
        self.pattern_contents: dict = {}
        # Guard/loop results are pure functions of (node, warp slot, env
        # values of the node's non-parameter dependency variables) — deep
        # sequential loops re-testing the same thread-only guard or
        # re-deriving the same inner-loop bounds collapse to one dict
        # probe per iteration, with no expression evaluation at all.
        self.guard_plans: dict = {}   # id(guard) -> (conditions, deps)
        self.guard_cache: dict = {}   # (id, warp, dep values) -> pass mask
        self.loop_plans: dict = {}    # id(loop) -> (lowers, uppers, deps)
        self.loop_cache: dict = {}    # (id, warp, dep values) -> bounds
        self.mapped_plans: dict = {}  # id(loop) -> (lowers, deps, runs)
        self.mapped_cache: dict = {}  # (id, dep values) -> lower shift
        # (id(call), warp_start, stepped var) -> the per-access strides
        # and offset vectors a statement issue needs (`_call_plan`).
        self.call_plans: dict = {}
        # The reference's compile caches (`_CompiledAccess`/`_CompiledExpr`
        # are pure too, and tensor bases are deterministic per mapping).
        self.access_cache: dict = {}
        self.bound_cache: dict = {}
        self.cond_cache: dict = {}


def _fast_state(mapped, arch) -> _FastState:
    """The shared memo state of ``mapped`` for ``arch``'s warp/sector
    shape (different shapes key different states)."""
    states = getattr(mapped, "_fastpath_states", None)
    if states is None:
        states = mapped._fastpath_states = {}
    key = (arch.warp_size, arch.sector_bytes)
    state = states.get(key)
    if state is None:
        state = states[key] = _FastState()
    return state


class _FastSimulator(_Simulator):
    """Shared-environment warp interpreter with signature memoization.

    Reuses the reference's compilation caches, counters, memory hierarchy
    and compulsory-traffic floor; only the execution strategy differs.
    """

    def __init__(self, mapped, arch, sampled_blocks: int = 1):
        super().__init__(mapped, arch, sampled_blocks=sampled_blocks)
        self._thread_vars = frozenset(d.loop_var for d in mapped.block)
        self._sector = self.memory.sector_bytes
        self._sectors_per_cycle = arch.sectors_per_cycle
        self._mem_instr_cycles = arch.mem_instr_cycles
        self._arith_instr_cycles = arch.arith_instr_cycles
        state = _fast_state(mapped, arch)
        self._state = state
        self._digit_tables = state.digit_tables
        self._offset_cache = state.offset_cache
        self._offset_ids = state.offset_ids
        self._patterns = state.patterns
        self._pattern_contents = state.pattern_contents
        self._guard_plans = state.guard_plans
        self._guard_cache = state.guard_cache
        self._loop_plans = state.loop_plans
        self._loop_cache = state.loop_cache
        self._mapped_plans = state.mapped_plans
        self._mapped_cache = state.mapped_cache
        self._call_plans = state.call_plans
        # Share the compile caches too (pure, id-keyed off live AST nodes).
        self.access_cache = state.access_cache
        self.bound_cache = state.bound_cache
        self.cond_cache = state.cond_cache
        # Statement loops issued but not yet replayed, in issue order:
        # ``(slots, n_issues)`` each (see `_issue_calls`).
        self._loops: list = []
        # Per-warp state installed by run_block.
        self._env: dict = {}
        self._digits: dict = {}
        self._warp_start = 0
        self._n_lanes = 0
        # Fast-path statistics (harvested into obs metrics per launch).
        self.analytic_builds = 0
        self.memo_hits = 0
        self.pruned_iterations = 0
        self.collapsed_issues = 0

    # -- per-warp setup ------------------------------------------------------

    def _digits_for(self, warp_start: int, n_lanes: int) -> dict:
        table = self._digit_tables.get(warp_start)
        if table is None:
            per_var: list[list[int]] = [[] for _ in self.mapped.block]
            for lane in range(warp_start, warp_start + n_lanes):
                remaining = lane
                # First block dim is threadIdx.x (fastest varying).
                for index, dim in enumerate(self.mapped.block):
                    per_var[index].append(remaining % dim.extent)
                    remaining //= dim.extent
            table = {dim.loop_var: tuple(per_var[index])
                     for index, dim in enumerate(self.mapped.block)}
            self._digit_tables[warp_start] = table
        return table

    def _offsets_of(self, obj):
        """``(offset vector | None, intern id)`` of one compiled access or
        expression for the current warp slot.  ``None`` marks a
        lane-invariant object (no thread coefficients)."""
        key = (id(obj), self._warp_start)
        got = self._offset_cache.get(key, _UNSET)
        if got is not _UNSET:
            return got
        digits = self._digits
        thread_vars = self._thread_vars
        terms = [(digits[name], coeff) for name, coeff in obj.terms
                 if name in thread_vars]
        if not terms:
            got = (None, -1)
        else:
            if len(terms) == 1:
                lane_digits, coeff = terms[0]
                off = tuple(coeff * d for d in lane_digits)
            else:
                acc = [0] * self._n_lanes
                for lane_digits, coeff in terms:
                    for lane, digit in enumerate(lane_digits):
                        acc[lane] += coeff * digit
                off = tuple(acc)
            got = (off, self._offset_ids.setdefault(off, len(self._offset_ids)))
        self._offset_cache[key] = got
        return got

    # -- execution -----------------------------------------------------------

    def run_block(self, block_env: dict) -> None:
        threads = self.mapped.n_threads_per_block
        warp = self.arch.warp_size
        for warp_start in range(0, threads, warp):
            n_lanes = min(warp_start + warp, threads) - warp_start
            self._warp_start = warp_start
            self._n_lanes = n_lanes
            self._digits = self._digits_for(warp_start, n_lanes)
            env = dict(self.params)
            env.update(block_env)
            for dim in self.mapped.block:
                # Thread variables carry only their lane-invariant shift
                # (mapped-loop lower bounds); the raw digit lives in the
                # per-warp offset vectors.
                env[dim.loop_var] = 0
            self._env = env
            self._frun(self.mapped.ast, (1 << n_lanes) - 1)
        self._replay_loops()

    def _queue_loop(self, slots, n_issues: int) -> None:
        """Queue one statement loop for :meth:`_replay_loops`.  Nothing
        reads the cache state before the block ends, so loops are
        replayed in batches, in order: one call per batch instead of one
        per loop, with the queue kept short."""
        loops = self._loops
        loops.append((slots, n_issues))
        if len(loops) >= _LOOP_BATCH:
            self._replay_loops()

    def _replay_loops(self) -> None:
        self.collapsed_issues += replay_issues(self.memory, self._loops)
        self._loops.clear()

    def _frun(self, node, mask: int) -> None:
        if isinstance(node, Guard):
            mask = self._guard_mask(node, mask)
            if mask:
                self._frun(node.body, mask)
        elif isinstance(node, StatementCall):
            self._issue_calls(((None, 0, node, 0),), mask)
        elif isinstance(node, Loop):
            if node.mapping:
                self._frun_mapped(node, mask)
            elif node.vector:
                self._frun_vector(node, mask)
            else:
                self._frun_loop(node, mask)
        elif isinstance(node, Seq):
            for child in node.children:
                self._frun(child, mask)
        else:
            raise FallbackNeeded(f"unknown AST node {node!r}")

    def _expr_deps(self, exprs) -> tuple:
        """Names whose env values a set of expressions depends on, params
        excluded (they are launch constants).  Thread variables stay in:
        their env entries hold the lane-invariant mapped-loop shifts."""
        deps: list[str] = []
        params = self.params
        for expr in exprs:
            for name, _ in expr.terms:
                if name not in params and name not in deps:
                    deps.append(name)
        return tuple(deps)

    def _guard_mask(self, guard: Guard, mask: int) -> int:
        """Lanes of ``mask`` passing every condition of ``guard``.

        Conditions are pure, so the all-lanes pass mask is a function of
        the guard, the warp slot and the env values of the conditions'
        dependency variables only — memoized on exactly that key (a few
        dict lookups, no expression evaluation on a hit), then applied to
        the caller's mask with one AND.  This is equivalent to the
        reference's per-lane short-circuit evaluation because evaluation
        has no side effects.
        """
        env = self._env
        plan = self._guard_plans.get(id(guard))
        if plan is None:
            conditions = self._compiled_conditions(guard)
            plan = (conditions,
                    self._expr_deps([expr for _, expr in conditions]))
            self._guard_plans[id(guard)] = plan
        conditions, deps = plan
        key = (id(guard), self._warp_start,
               tuple(env[name] for name in deps))
        pass_mask = self._guard_cache.get(key)
        if pass_mask is None:
            pass_mask = (1 << self._n_lanes) - 1
            for sense, expr in conditions:
                value = expr.value(env)
                off, _ = self._offsets_of(expr)
                if off is None:
                    ok = (value <= 0 if sense == "<="
                          else value >= 0 if sense == ">=" else value == 0)
                    if not ok:
                        pass_mask = 0
                        break
                else:
                    new_mask = 0
                    if sense == "<=":
                        for lane in range(self._n_lanes):
                            if pass_mask >> lane & 1 and value + off[lane] <= 0:
                                new_mask |= 1 << lane
                    elif sense == ">=":
                        for lane in range(self._n_lanes):
                            if pass_mask >> lane & 1 and value + off[lane] >= 0:
                                new_mask |= 1 << lane
                    else:
                        for lane in range(self._n_lanes):
                            if pass_mask >> lane & 1 and value + off[lane] == 0:
                                new_mask |= 1 << lane
                    pass_mask = new_mask
                    if not pass_mask:
                        break
            self._guard_cache[key] = pass_mask
        return mask & pass_mask

    def _frun_mapped(self, loop: Loop, mask: int) -> None:
        env = self._env
        plan = self._mapped_plans.get(id(loop))
        if plan is None:
            lower_exprs, _ = self._compiled_bounds(loop)
            for expr in lower_exprs:
                # Lane-invariance is a property of the expression's thread
                # coefficients, not of the particular warp slot.
                if self._offsets_of(expr)[0] is not None:
                    raise FallbackNeeded(
                        f"lane-variant lower bound on mapped loop "
                        f"{loop.var!r}")
            children = loop.body.children
            # A body of statement calls only issues them in one pass.
            runs = (tuple((None, 0, child, 0) for child in children)
                    if children and all(isinstance(child, StatementCall)
                                        for child in children)
                    else None)
            plan = (lower_exprs, self._expr_deps(lower_exprs), runs)
            self._mapped_plans[id(loop)] = plan
        lower_exprs, deps, runs = plan
        # The shift is lane-invariant, hence identical across warp slots.
        key = (id(loop), tuple(env[name] for name in deps))
        lo = self._mapped_cache.get(key, _UNSET)
        if lo is _UNSET:
            if len(lower_exprs) == 1:
                lo = lower_exprs[0].value(env)
            else:
                pick = min if loop.lower_is_min else max
                lo = pick(e.value(env) for e in lower_exprs)
            if type(lo) is not int:
                lo = math.ceil(lo)
            self._mapped_cache[key] = lo
        if lo:
            env[loop.var] += lo
        if runs is None:
            self._frun(loop.body, mask)
        else:
            self._issue_calls(runs, mask)

    def _frun_loop(self, loop: Loop, mask: int) -> None:
        env = self._env
        plan = self._loop_plans.get(id(loop))
        if plan is None:
            plan = self._loop_plans[id(loop)] = self._plan_loop(loop)
        lower_exprs, upper_exprs, deps, entries, runs, lane_vars = plan
        key = (id(loop), self._warp_start,
               tuple(env[name] for name in deps))
        bounds = self._loop_cache.get(key)
        if bounds is None:
            bounds = self._loop_bounds(loop, lower_exprs, upper_exprs)
            self._loop_cache[key] = bounds
        lo, hi, lane_masks = bounds
        if lo > hi:
            # Empty range: the reference returns before touching the loop
            # variable, so leave the env untouched too.
            return
        if entries is None:
            # No conditional child: the one-segment case.
            segments = ((lo, hi + 1, runs),)
        else:
            segments, pruned = _segments(entries, env, lo, hi)
            self.pruned_iterations += pruned
        var = loop.var
        frun = self._frun
        for start, stop, live in segments:
            if lane_masks is None:
                # Lane-invariant bounds: every value runs with the
                # caller's mask unchanged.
                if all(type(run[2]) is StatementCall and not run[3]
                       for run in live):
                    # Only statement calls: issue the whole segment at once.
                    env[var] = start
                    self._issue_calls(live, mask, var, stop - start)
                    continue
                if len(live) == 1 and live[0][0] is None and not live[0][3]:
                    target = live[0][2]
                    for value in range(start, stop):
                        env[var] = value
                        frun(target, mask)
                    continue
            for value in range(start, stop):
                if lane_masks is None:
                    sub_mask = mask
                else:
                    # Lane-variant bounds: ``lane_masks[value - lo]`` holds
                    # the all-lanes in-range mask for ``value``; iterating
                    # the all-lanes range instead of the reference's
                    # masked-lanes range executes exactly the same
                    # non-empty iterations (extra values AND to zero).
                    sub_mask = mask & lane_masks[value - lo]
                    if not sub_mask:
                        continue
                env[var] = value
                for lane_var, lane_value, target, width in live:
                    if lane_var is not None:
                        env[lane_var] = lane_value
                    if width:
                        self._fissue_vector(target, sub_mask, lane_var, width)
                    else:
                        frun(target, sub_mask)
        env.pop(var, None)
        # Flattened forvec lane variables outlive their forvec until here;
        # code generation scopes them, so no sibling reads them.
        for lane_var in lane_vars:
            env.pop(lane_var, None)

    def _plan_loop(self, loop: Loop) -> tuple:
        """The static segment plan of a sequential loop (see the module
        docstring): its compiled bounds and their dependencies, then one
        entry per body child — a ``forvec`` child contributes one entry
        per ``(child, lane value)`` in :meth:`_frun_vector`'s order.

        Each entry is ``(paths, run)`` (see :meth:`_plan_entry`); ``run``
        is ``(lane var, lane value, target, vector width)``.  ``entries``
        is ``None`` when every entry is always live."""
        lower_exprs, upper_exprs = self._compiled_bounds(loop)
        deps = self._expr_deps(lower_exprs + upper_exprs)
        # Names whose env values stay fixed for the whole loop: bound at
        # entry, and assigned by no loop nested inside it.
        bound = set(self._env) - {node.var for node in walk(loop.body)
                                  if isinstance(node, Loop)}
        bound -= self._thread_vars
        entries = []
        lane_vars = []
        for child in loop.body.children:
            if isinstance(child, Loop) and child.vector and not child.mapping:
                width = child.vector_width
                lane_vars.append(child.var)
                for grand in child.body.children:
                    if isinstance(grand, StatementCall) \
                            and grand.vector_width == width:
                        entries.append((None, (child.var, 0, grand, width)))
                    else:
                        for lane_value in range(width):
                            entries.append(self._plan_entry(
                                grand, loop.var, bound, child.var,
                                lane_value))
            else:
                entries.append(self._plan_entry(child, loop.var, bound,
                                                None, 0))
        runs = [run for _, run in entries]
        if all(paths is None for paths, _ in entries):
            entries = None
        return (lower_exprs, upper_exprs, deps, entries, runs,
                tuple(lane_vars))

    def _plan_entry(self, child, var: str, bound: set, lane_var, lane_value):
        """``(paths, run)`` of one body child (see :meth:`_plan_loop`).

        ``paths`` holds one conjunction per statement path beneath the
        child: the conditions on that path, through guards and nested
        sequential loops, that are integral, lane-invariant and over
        ``var`` plus ``bound`` names only (:meth:`_exact_conditions`).
        Wherever every conjunction is false no statement beneath the child
        can run, so the child is skipped.  ``paths`` is ``()`` for a child
        with no statement and ``None`` for one with an unconditional path.

        Lifting stops at a mapped loop, which is a path end: it shifts its
        variable's env value on every run, so it must run wherever the
        reference reaches it.  Conditions over a name that a nested loop
        or ``forvec`` assigns are not exact for the whole loop, so they
        are left out, which only widens a path's span.

        The run's target is the child, or the innermost body of its guard
        chain (nested single-child guards) when every condition of the
        chain is exact: wherever a path holds, so does the whole chain,
        and no guard needs evaluating."""
        chain = ()
        exact = True
        node = child
        while isinstance(node, Guard):
            conditions, all_exact = self._exact_conditions(
                node, var, bound, lane_var, lane_value)
            chain += conditions
            exact = exact and all_exact
            children = node.body.children
            node = children[0] if len(children) == 1 else node.body
        paths = []
        stack = [(node, chain)]
        while stack:
            below, conditions = stack.pop()
            if isinstance(below, Guard):
                stack.append((below.body, conditions + self._exact_conditions(
                    below, var, bound, lane_var, lane_value)[0]))
            elif isinstance(below, Seq):
                stack.extend((grand, conditions)
                             for grand in reversed(below.children))
            elif isinstance(below, Loop) and not below.mapping:
                stack.append((below.body, conditions))
            elif not conditions:
                # A statement call, mapped loop or unknown node that runs
                # wherever the child does.
                return (None, (lane_var, lane_value, child, 0))
            elif conditions not in paths:
                paths.append(conditions)
        return (tuple(paths),
                (lane_var, lane_value, node if exact else child, 0))

    def _exact_conditions(self, guard: Guard, var: str, bound: set,
                          lane_var, lane_value) -> tuple:
        """``(conditions, all exact)``: the conditions of ``guard`` that
        are exact, in :func:`_live_span`'s normalized form, and whether
        every one is.  A condition ``expr sense 0`` is not exact when it
        is rational, lane-variant, or over a name not fixed for the whole
        loop."""
        exact = []
        params = self.params
        for sense, expr in self._compiled_conditions(guard):
            if not expr.is_integral:
                continue
            a = 0
            const = expr.const
            terms = []
            for name, coeff in expr.terms:
                if name == var:
                    a = coeff
                elif name == lane_var:
                    const += coeff * lane_value
                elif name in params:
                    const += coeff * params[name]
                elif name in bound:
                    terms.append((name, coeff))
                else:
                    break
            else:
                exact.append(_normalized_condition(sense, a, const, terms))
        return tuple(exact), len(exact) == len(guard.conditions)

    def _loop_bounds(self, loop: Loop, lower_exprs, upper_exprs):
        """``(lo, hi, lane_masks)`` for the current warp slot and env:
        the overall trip range plus, for lane-variant bounds, the
        per-value all-lanes in-range masks (``None`` when invariant)."""
        env = self._env
        lo_pick = min if loop.lower_is_min else max
        hi_pick = max if loop.upper_is_max else min
        lo_shared = [e.value(env) for e in lower_exprs]
        hi_shared = [e.value(env) for e in upper_exprs]
        lo_offs = [self._offsets_of(e)[0] for e in lower_exprs]
        hi_offs = [self._offsets_of(e)[0] for e in upper_exprs]
        if all(o is None for o in lo_offs) and all(o is None for o in hi_offs):
            lo = lo_shared[0] if len(lo_shared) == 1 else lo_pick(lo_shared)
            hi = hi_shared[0] if len(hi_shared) == 1 else hi_pick(hi_shared)
            if type(lo) is not int:
                lo = math.ceil(lo)
            if type(hi) is not int:
                hi = math.floor(hi)
            return (lo, hi, None)
        n_lanes = self._n_lanes
        los, his = [], []
        for lane in range(n_lanes):
            lo = lo_pick(s if o is None else s + o[lane]
                         for s, o in zip(lo_shared, lo_offs))
            hi = hi_pick(s if o is None else s + o[lane]
                         for s, o in zip(hi_shared, hi_offs))
            los.append(lo if type(lo) is int else math.ceil(lo))
            his.append(hi if type(hi) is int else math.floor(hi))
        overall_lo = min(los)
        overall_hi = max(his)
        if overall_lo > overall_hi:
            return (overall_lo, overall_hi, None)
        lane_masks = []
        for value in range(overall_lo, overall_hi + 1):
            bits = 0
            for lane in range(n_lanes):
                if los[lane] <= value <= his[lane]:
                    bits |= 1 << lane
            lane_masks.append(bits)
        return (overall_lo, overall_hi, lane_masks)

    def _frun_vector(self, loop: Loop, mask: int) -> None:
        width = loop.vector_width
        var = loop.var
        env = self._env
        for child in loop.body.children:
            if isinstance(child, StatementCall) and child.vector_width == width:
                env[var] = 0
                self._fissue_vector(child, mask, var, width)
            else:
                for lane_value in range(width):
                    env[var] = lane_value
                    self._frun(child, mask)
        env.pop(var, None)

    # -- issue ---------------------------------------------------------------

    def _call_plan(self, call: StatementCall, var):
        """``(entries, requested bytes per lane, period, strides)`` of one
        statement issue in the current warp slot: an entry ``(access,
        stride on var, offsets, offset id, elem bytes, is_write)`` per
        access, the number of steps of ``var`` after which every access's
        base residue modulo the sector repeats, and the accesses' strides
        on ``var``."""
        key = (id(call), self._warp_start, var)
        plan = self._call_plans.get(key)
        if plan is None:
            entries = []
            requested = 0
            divisor = sector = self._sector
            for access in self._compiled_accesses(call):
                n_bytes = access.elem_bytes
                if n_bytes <= 0:
                    raise FallbackNeeded("non-positive access width")
                requested += n_bytes
                stride = access.strides.get(var, 0)
                divisor = math.gcd(divisor, stride)
                off, off_id = self._offsets_of(access)
                entries.append((access, stride, off, off_id, n_bytes,
                                access.is_write))
            plan = (tuple(entries), requested, sector // divisor,
                    tuple(entry[1] for entry in entries))
            self._call_plans[key] = plan
        return plan

    def _issue_calls(self, runs, mask: int, var=None, count: int = 1) -> None:
        """Issue the statement calls of ``runs`` in turn, ``count`` times
        under ``mask``, stepping ``var`` by one from its env value after
        each round.

        A run is ``(lane var, lane value, call, 0)``; the lane var, when
        set, takes its value for the call's issues.  A lone scalar issue
        is the one-call, one-value case and a mapped loop body made of
        calls the one-value case; :meth:`_frun_loop` passes every live
        call of a statement loop segment (see the module docstring).
        The first ``period`` steps — the least common multiple of the
        calls' residue periods, a divisor of the sector size — do the
        pattern lookups and costs of single issues; every later step
        repeats the lookups, costs and patterns of its phase.  Those
        steps' issues are the slot table of one statement loop, which
        joins the block's queue for :meth:`run_block` to replay."""
        if not mask:
            return
        env = self._env
        sector = self._sector
        patterns = self._patterns
        per_cycle = self._sectors_per_cycle
        mem_cycles = self._mem_instr_cycles
        plans = []
        period = 1
        for run in runs:
            plan = self._call_plan(run[2], var)
            plans.append(plan)
            if plan[2] != period:
                period = math.lcm(period, plan[2])
        n_phases = period if period < count else count
        full, rest = divmod(count, n_phases)
        # The first period's issues, in issue order, are the slots every
        # later period repeats with advanced base sectors: (operations,
        # advances, sectors, load sectors) each.  A call without memory
        # operations leaves the hierarchy alone.
        if n_phases < count:
            advances = [tuple([stride * period // sector
                               for stride in plan[3]]) for plan in plans]
        else:
            # One pass issues every slot once, at cycle 0, where no
            # advance applies: the strides stand in.
            advances = [plan[3] for plan in plans]
        slots = []
        memo_hits = cycles = sectors = 0
        for step in range(n_phases):
            # This phase's steps: `full` periods plus the remainder.
            times = full + (step < rest)
            for (lane_var, lane_value, _, _), (entries, _, _, _), advance \
                    in zip(runs, plans, advances):
                if lane_var is not None:
                    env[lane_var] = lane_value
                ops = []
                step_cycles = step_sectors = loads = 0
                for access, stride, off, off_id, n_bytes, is_write in entries:
                    base_sector, res = divmod(
                        access.address(env) + stride * step, sector)
                    key = (off_id, res, n_bytes, mask)
                    pattern = patterns.get(key)
                    if pattern is None:
                        pattern = self._new_pattern(key, off)
                    else:
                        memo_hits += 1
                    ops.append((base_sector, pattern, is_write))
                    n_sectors = pattern.n_sectors
                    replay = -(-n_sectors // per_cycle)
                    step_cycles += replay if replay > mem_cycles else mem_cycles
                    step_sectors += n_sectors
                    if not is_write:
                        loads += n_sectors
                cycles += step_cycles * times
                sectors += step_sectors * times
                if ops:
                    slots.append((tuple(ops), advance, step_sectors, loads))
        if slots:
            self._queue_loop(slots, len(slots) * count // n_phases)
        n_active = mask.bit_count()
        for (_, _, call, _), (entries, requested, _, _) in zip(runs, plans):
            memo_hits += (count - n_phases) * len(entries)
            flops = call.statement.flops
            self.mem_instrs += len(entries) * count
            self.bytes_req += requested * n_active * count
            self.arith_instrs += flops * count
            cycles += flops * count * self._arith_instr_cycles
            self.flops += flops * count * n_active
        self.memo_hits += memo_hits
        self.scalar_issues += count * len(runs)
        self.sectors += sectors
        self.issue_cycles += cycles

    def _fissue_vector(self, call: StatementCall, mask: int,
                       var: str, width: int) -> None:
        if not mask:
            return
        n_active = mask.bit_count()
        self.vector_issues += 1
        env = self._env
        ops = []
        for access, stride, off, off_id, elem, _ in \
                self._call_plan(call, var)[0]:
            base = access.address(env)
            if stride == elem:
                # Contiguous along the vector dim: one vector access/lane.
                ops.append(self._fast_count(access, off, off_id, base,
                                            elem * width, mask, n_active))
            elif stride == 0:
                # Invariant: a single scalar access serves all lanes' groups.
                ops.append(self._fast_count(access, off, off_id, base, elem,
                                            mask, n_active))
            else:
                # Gather/scatter: one instruction per lane position.
                for offset in range(width):
                    ops.append(self._fast_count(access, off, off_id,
                                                base + stride * offset, elem,
                                                mask, n_active))
        if ops:
            sectors = loads = 0
            for _, pattern, is_write in ops:
                sectors += pattern.n_sectors
                if not is_write:
                    loads += pattern.n_sectors
            self._queue_loop(((tuple(ops), (0,) * len(ops), sectors, loads),),
                             1)
        # Computation stays scalar: `width` iterations of flops.
        flops = call.statement.flops
        self.arith_instrs += flops * width
        self.issue_cycles += flops * width * self._arith_instr_cycles
        self.flops += flops * width * n_active

    def _fast_count(self, access, off, off_id: int, base: int, n_bytes: int,
                    mask: int, n_active: int) -> tuple:
        """Count one warp memory instruction of a vector issue and return
        its ``(base sector, pattern, is_write)`` operation."""
        base_sector, res = divmod(base, self._sector)
        key = (off_id, res, n_bytes, mask)
        pattern = self._patterns.get(key)
        if pattern is None:
            pattern = self._new_pattern(key, off)
        else:
            self.memo_hits += 1
        self.mem_instrs += 1
        replay = -(-pattern.n_sectors // self._sectors_per_cycle)
        cycles = self._mem_instr_cycles
        self.issue_cycles += replay if replay > cycles else cycles
        self.sectors += pattern.n_sectors
        self.bytes_req += n_bytes * n_active
        return (base_sector, pattern, access.is_write)

    def _new_pattern(self, key: tuple, off) -> _WarpPattern:
        """Build and memoize the pattern of signature ``key``, canonical
        by content: signatures with equal sector sequences share one
        object, so :func:`~repro.gpu.memory.replay_issues` compares them
        by identity."""
        _, res, n_bytes, mask = key
        pattern = self._build_pattern(off, res, n_bytes, mask)
        pattern = self._pattern_contents.setdefault(
            (pattern.write_seq, pattern.sorted_rels), pattern)
        self._patterns[key] = pattern
        return pattern

    def _build_pattern(self, off, res: int, n_bytes: int,
                       mask: int) -> _WarpPattern:
        sector = self._sector
        if off is None:
            # Lane-invariant address: every active lane touches the same
            # range; re-inserting identical sectors leaves the reference's
            # set untouched, so one ascending pass reproduces its state
            # exactly.
            last = (res + n_bytes - 1) // sector
            rels = tuple(range(last + 1))
            return _WarpPattern(rels, rels, last + 1)
        n_lanes = self._n_lanes
        if mask == (1 << n_lanes) - 1 and n_lanes > 1:
            step = off[1] - off[0]
            if step > 0 and all(off[lane + 1] - off[lane] == step
                                for lane in range(1, n_lanes - 1)):
                # Closed form: a full warp with a constant positive stride
                # touches monotonically non-decreasing sector ranges, so
                # the merged ascending pattern falls out of the stride
                # arithmetic in one pass — no set, no sort.
                self.analytic_builds += 1
                write_seq = []
                sorted_rels = []
                prev_last = None
                position = res + off[0]
                for _ in range(n_lanes):
                    first = position // sector
                    last = (position + n_bytes - 1) // sector
                    write_seq.extend(range(first, last + 1))
                    start = (first if prev_last is None
                             else max(first, prev_last + 1))
                    if start <= last:
                        sorted_rels.extend(range(start, last + 1))
                        prev_last = last
                    position += step
                return _WarpPattern(tuple(write_seq), tuple(sorted_rels),
                                    len(sorted_rels))
        # Lane enumeration: masked/partial warps and irregular offsets.
        write_seq = []
        rels: set[int] = set()
        for lane in range(n_lanes):
            if mask >> lane & 1:
                position = res + off[lane]
                first = position // sector
                last = (position + n_bytes - 1) // sector
                write_seq.extend(range(first, last + 1))
                rels.update(range(first, last + 1))
        return _WarpPattern(tuple(write_seq), tuple(sorted(rels)),
                            len(rels))
