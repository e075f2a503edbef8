"""Algorithm 2: building influenced dimension scenarios (Section V).

The non-linear optimizer inspects each statement's accesses with concrete
tensor shapes and picks the shortest ordered list of innermost dimensions
that minimizes memory transactions — an *influenced dimension scenario*.
The cost function is the paper's:

    cost(W, D, A, L, d) = w1|V_w| + w2|V_r| + w3/M + w4|C| + w5*F*L/N

* ``V_w`` / ``V_r``: vectorizable store / load accesses (innermost position
  only) — stores need stride exactly 1 along ``d``; loads may be stride 0
  (broadcast scalars mix with vector types) or 1;
* ``M``: minimum nonzero stride over all accesses along ``d``;
* ``C``: accesses achieving that minimum stride;
* ``N``: trip count of ``d``; ``F`` = 1 iff ``N < L`` (thread limit).

The paper's best weights are ``w1=5, w2=3, w3=w4=w5=1`` (store vectorization
over load vectorization over short jumps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.ir.access import Access
from repro.ir.kernel import Kernel
from repro.ir.statement import Statement
from repro.linalg.rational import frac
from repro.obs.provenance import get_journal
from repro.solver.problem import var


@dataclass(frozen=True)
class CostWeights:
    """The weight vector W of Algorithm 2."""

    w1: float = 5.0  # vectorizable stores
    w2: float = 3.0  # vectorizable loads
    w3: float = 1.0  # inverse minimum stride
    w4: float = 1.0  # accesses at the minimum stride
    w5: float = 1.0  # thread-count contribution

    PAPER_DEFAULT = None  # set below


CostWeights.PAPER_DEFAULT = CostWeights()


@dataclass
class DimensionScenario:
    """One influenced dimension scenario for one statement.

    ``dims`` lists iterator names outermost-to-innermost; they are intended
    to become the *last* ``len(dims)`` schedule dimensions of the statement.
    """

    statement: str
    dims: list[str]
    score: float
    vector_width: int = 0  # 0 = innermost not vector-eligible

    @property
    def innermost(self) -> Optional[str]:
        return self.dims[-1] if self.dims else None

    @property
    def vectorizable(self) -> bool:
        return self.vector_width > 1


def iterator_extent(statement: Statement, iterator: str,
                    params: dict[str, int]) -> int:
    """Trip count of one iterator (max over outer values for non-rectangular
    domains), computed from the domain bounds under concrete parameters."""
    shadow = statement.domain.eliminate_all(
        [it for it in statement.iterators if it != iterator])
    lowers, uppers = shadow.bounds_of(iterator)
    env = {p: frac(v) for p, v in params.items()}
    # Remaining bound expressions may only mention parameters now.
    los = [e.evaluate(env) for e in lowers]
    his = [e.evaluate(env) for e in uppers]
    if not los or not his:
        raise ValueError(f"unbounded iterator {iterator} in {statement.name}")
    return int(min(his) - max(los)) + 1


def _vector_width_for(accesses: Sequence[Access], extent: int) -> int:
    """Largest usable vector width (4 or 2) for the given stride-1 accesses,
    or 0 when none is usable (paper condition (b): sizes 2 and 4 only)."""
    for width in (4, 2):
        if extent % width != 0:
            continue
        if all(width in a.tensor.dtype.vector_widths() for a in accesses):
            return width
    return 0


def stride_table(accesses: Sequence[Access],
                 iterators: Sequence[str]) -> dict[str, list]:
    """Per-iterator ``(access, stride)`` pairs, computed once per statement.

    Algorithm 2 re-ranks the same candidate set at every dimension position
    of every alternative, and each ranking re-derived every stride from the
    access's affine expression.  The strides only depend on the statement,
    so one table serves all of them."""
    return {it: [(a, a.stride_along(it)) for a in accesses]
            for it in iterators}


def dimension_cost(weights: CostWeights, accesses: Sequence[Access],
                   thread_limit: float, trip_count: int,
                   iterator: str, innermost: bool,
                   strides_by_iterator: Optional[dict[str, list]] = None
                   ) -> float:
    """The paper's cost() for scheduling ``iterator`` at one position."""
    if strides_by_iterator is not None:
        strides = strides_by_iterator[iterator]
    else:
        strides = [(a, a.stride_along(iterator)) for a in accesses]
    score = 0.0
    if innermost:
        v_w = [a for a, s in strides if a.is_write and s == 1]
        v_r = [a for a, s in strides if not a.is_write and s in (0, 1)]
        score += weights.w1 * len(v_w) + weights.w2 * len(v_r)
    nonzero = [(a, s) for a, s in strides if s > 0]
    if nonzero:
        minimum = min(s for _, s in nonzero)
        score += weights.w3 / minimum
        # C: accesses at the minimum stride — counted only when that stride
        # is a genuinely *short* jump (stays within one 32-byte transaction),
        # per the stated intent "favors as many references as possible with
        # short memory jumps"; counting references tied at a huge stride
        # would reward uniformly bad dimensions.
        short = [a for a, s in nonzero
                 if s == minimum and s * a.tensor.dtype.size_bytes <= 32]
        score += weights.w4 * len(short)
    # Thread-contribution term.  The paper prints w5*F*L/N, but that reading
    # explodes for tiny dimensions (a trip count of 8 under L=1024 would
    # score 128 and override every other criterion), contradicting both the
    # stated intent ("favors high contribution to the number of threads not
    # exceeding L") and the claim that w5=1 merely *orders* dimensions by
    # thread use.  We read it as w5*F*N/L: large-but-mappable dimensions
    # score close to w5, oversized ones score 0 (see DESIGN.md).
    if trip_count < thread_limit:
        score += weights.w5 * trip_count / thread_limit
    return score


def _best(weights: CostWeights, candidates: Sequence[str],
          accesses: Sequence[Access], thread_limit: float,
          extents: dict[str, int], innermost: bool,
          textual_order: Sequence[str],
          strides_by_iterator: Optional[dict[str, list]] = None
          ) -> list[tuple[str, float]]:
    """Candidates ranked by cost (descending), textual order breaking ties
    toward the original innermost loop."""
    ranked = []
    for it in candidates:
        score = dimension_cost(weights, accesses, thread_limit,
                               extents[it], it, innermost,
                               strides_by_iterator=strides_by_iterator)
        ranked.append((it, score))
    position = {it: k for k, it in enumerate(textual_order)}
    ranked.sort(key=lambda pair: (-pair[1], -position[pair[0]]))
    return ranked


def build_statement_scenarios(statement: Statement, params: dict[str, int],
                              weights: CostWeights = CostWeights(),
                              thread_limit: int = 1024,
                              max_alternatives: int = 3,
                              max_scenario_dims: int = 3) -> list[DimensionScenario]:
    """Algorithm 2 for one statement, with alternatives.

    The primary scenario follows the paper exactly (greedy best() from the
    innermost position outwards); alternatives restart from the next-best
    innermost choices, giving the constraint tree its lower-priority
    branches.
    """
    accesses = statement.accesses
    extents = {it: iterator_extent(statement, it, params)
               for it in statement.iterators}
    candidates = list(statement.iterators)
    if not candidates:
        return []

    journal = get_journal()
    strides = stride_table(accesses, candidates)
    inner_ranked = _best(weights, candidates, accesses, thread_limit,
                         extents, True, statement.iterators,
                         strides_by_iterator=strides)
    if journal.enabled:
        # Alternatives cut by the max_alternatives cap never grow a full
        # dimension chain; record them (innermost choice + its static
        # Algorithm 2 cost, `dimension_cost`) so `repro explain` can show
        # what pruning discarded.
        for rank, (inner, score) in enumerate(inner_ranked):
            if rank >= max_alternatives:
                journal.scenario(statement.name, [inner], score,
                                 vector_width=0, rank=rank, kept=False)
    scenarios: list[DimensionScenario] = []
    for inner_choice, inner_score in inner_ranked[:max_alternatives]:
        dims = [inner_choice]
        total = inner_score
        limit = thread_limit / max(extents[inner_choice], 1)
        while len(dims) < max_scenario_dims and len(dims) < len(candidates):
            remaining = [it for it in candidates if it not in dims]
            ranked = _best(weights, remaining, accesses, limit, extents,
                           False, statement.iterators,
                           strides_by_iterator=strides)
            choice, score = ranked[0]
            dims.insert(0, choice)
            total += score
            limit = limit / max(extents[choice], 1)
        stride1_writes = [a for a, s in strides[inner_choice]
                          if a.is_write and s == 1]
        stride1_reads = [a for a, s in strides[inner_choice]
                         if not a.is_write and s == 1]
        vectorizable = stride1_writes or stride1_reads
        width = _vector_width_for(stride1_writes + stride1_reads,
                                  extents[inner_choice]) if vectorizable else 0
        scenarios.append(DimensionScenario(
            statement=statement.name, dims=dims, score=total,
            vector_width=width))
        journal.scenario(statement.name, dims, total, vector_width=width,
                         rank=len(scenarios) - 1, kept=True)
    return scenarios


def build_scenarios(kernel: Kernel,
                    weights: CostWeights = CostWeights(),
                    thread_limit: int = 1024,
                    max_alternatives: int = 3) -> dict[str, list[DimensionScenario]]:
    """Algorithm 2 over all statements of a kernel."""
    out: dict[str, list[DimensionScenario]] = {}
    for statement in kernel.statements:
        out[statement.name] = build_statement_scenarios(
            statement, kernel.params, weights=weights,
            thread_limit=thread_limit, max_alternatives=max_alternatives)
    return out
