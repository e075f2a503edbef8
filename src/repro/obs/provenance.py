"""Scheduler decision provenance: the "why this schedule?" journal.

The paper's constraint-injection mechanism makes scheduling a sequence of
*decisions*: Algorithm 2 enumerates influenced-dimension scenarios and
scores each with the cost model, the tree builder keeps some as prioritized
branches and prunes the rest, and Algorithm 1 walks the tree injecting one
constraint set per dimension, backtracking when an ILP turns infeasible.
The :class:`ProvenanceJournal` records exactly these events as structured,
JSON-safe entries, so ``repro explain`` can render the decision path —
which constraint was injected per dimension, which scenarios were
considered with their static Algorithm 2 costs, which were pruned, and
where the fallback ladder fired.

The journal mirrors :mod:`repro.obs.runtime`: an ambient handle installed
with :func:`use_journal` and fetched with :func:`get_journal`.  The default
handle is disabled — instrumented sites pay one module-global read plus an
``enabled`` check, keeping the scheduling hot path inside the <5% recording
overhead budget of ``bench_scheduler_perf``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

# Event kinds, in the order they typically appear for one kernel.
EVENT_KINDS = ("scenario", "tree-branch", "schedule-start", "dimension",
               "backtrack", "schedule-done")


class ProvenanceJournal:
    """An append-only list of structured decision events."""

    __slots__ = ("enabled", "events")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.events: list[dict] = []

    def note(self, kind: str, **fields) -> None:
        if not self.enabled:
            return
        self.events.append({"kind": kind, **fields})

    # Typed shims (keep instrumented call sites one-liners).

    def scenario(self, statement: str, dims: list, score: float,
                 vector_width: int, rank: int, kept: bool) -> None:
        """One Algorithm 2 scenario, scored; ``kept=False`` marks pruning
        by the ``max_alternatives`` cap."""
        self.note("scenario", statement=statement, dims=list(dims),
                  score=score, vector_width=vector_width, rank=rank,
                  kept=kept)

    def tree_branch(self, label: str, rank: int, kept: bool) -> None:
        """One tree branch (scenario x fused/solo variant); ``kept=False``
        marks pruning by the ``max_branches`` cap."""
        self.note("tree-branch", label=label, rank=rank, kept=kept)

    def dimension(self, dim: int, **fields) -> None:
        """One per-dimension ILP attempt: injected constraints, node label,
        feasibility, coincidence, reuse hits."""
        self.note("dimension", dim=dim, **fields)

    def backtrack(self, kind: str, dim: int, **fields) -> None:
        """One fallback-ladder activation."""
        self.note("backtrack", fallback=kind, dim=dim, **fields)

    def as_dict(self) -> dict:
        return {"events": [dict(e) for e in self.events]}

    def __len__(self) -> int:
        return len(self.events)


NULL_JOURNAL = ProvenanceJournal(enabled=False)
_current: ProvenanceJournal = NULL_JOURNAL


def get_journal() -> ProvenanceJournal:
    """The ambient journal (disabled outside any ``use_journal`` scope)."""
    return _current


@contextmanager
def use_journal(journal: Optional[ProvenanceJournal] = None
                ) -> Iterator[ProvenanceJournal]:
    """Install ``journal`` (default: a fresh enabled one) as the ambient
    handle for the ``with`` body."""
    global _current
    previous = _current
    _current = journal if journal is not None else ProvenanceJournal()
    try:
        yield _current
    finally:
        _current = previous


# -- rendering ---------------------------------------------------------------


def format_decision_path(events: list[dict], indent: str = "") -> str:
    """Render journal events as the influence-tree decision path.

    Scenario enumeration first (kept vs pruned, with their static
    Algorithm 2 costs), then
    the per-dimension walk: injected constraints, feasibility, reuse hits,
    interleaved with the fallback-ladder activations that happened between
    dimensions.
    """
    lines: list[str] = []

    scenarios = [e for e in events if e["kind"] == "scenario"]
    if scenarios:
        lines.append(f"{indent}scenarios considered (Algorithm 2; "
                     f"cost = static Algorithm 2 dimension cost):")
        for e in scenarios:
            status = "kept " if e.get("kept") else "PRUNED"
            vec = (f" vector_width={e['vector_width']}"
                   if e.get("vector_width") else "")
            lines.append(f"{indent}  [{status}] {e['statement']}: "
                         f"dims={e['dims']} cost={e['score']:.2f}{vec}")
    branches = [e for e in events if e["kind"] == "tree-branch"]
    if branches:
        kept = sum(1 for e in branches if e.get("kept"))
        lines.append(f"{indent}influence-tree branches: {kept} kept, "
                     f"{len(branches) - kept} pruned "
                     f"({', '.join(e['label'] for e in branches if e.get('kept'))})")

    for e in events:
        kind = e["kind"]
        if kind == "schedule-start":
            lines.append(f"{indent}schedule construction "
                         f"({'influenced' if e.get('influenced') else 'plain'}"
                         f", kernel {e.get('kernel', '?')}):")
        elif kind == "dimension":
            verdict = "built" if e.get("feasible") else "infeasible"
            flags = []
            if e.get("coincidence"):
                flags.append("coincident")
            if e.get("supplementary"):
                flags.append("supplementary")
            if not e.get("progression", True):
                flags.append("no-progression")
            suffix = f" [{', '.join(flags)}]" if flags else ""
            node = f" node={e['node']}" if e.get("node") else ""
            lines.append(f"{indent}  dim {e['dim']}: {verdict}{suffix}{node}")
            for text in e.get("injected", ()):
                lines.append(f"{indent}    inject {text}")
        elif kind == "backtrack":
            lines.append(f"{indent}  dim {e['dim']}: FALLBACK "
                         f"{e['fallback']}")
        elif kind == "schedule-done":
            lines.append(f"{indent}  -> {e.get('dimensions', '?')} "
                         f"dimension(s), {e.get('ilp_solves', '?')} ILP "
                         f"solve(s)")
    return "\n".join(lines)
