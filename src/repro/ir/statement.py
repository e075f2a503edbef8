"""Statements: iteration domain + accesses + original position.

The original (textual) execution order is encoded 2d+1 style: a statement
with iterators ``(i, k)`` and betas ``(b0, b1, b2)`` executes at the
interleaved logical date ``(b0, i, b1, k, b2)``.  Dependence analysis
compares these interleaved dates lexicographically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.ir.access import Access
from repro.linalg.rational import Rat, frac
from repro.sets.polyhedron import Polyhedron
from repro.solver.problem import LinExpr, var


@dataclass
class Statement:
    """One statement of a fused-operator kernel."""

    name: str
    iterators: list[str]
    domain: Polyhedron
    writes: list[Access]
    reads: list[Access]
    betas: list[int]
    flops: int = 1

    def __post_init__(self):
        if len(self.betas) != len(self.iterators) + 1:
            raise ValueError(
                f"{self.name}: need {len(self.iterators) + 1} betas, "
                f"got {len(self.betas)}")
        if len(set(self.iterators)) != len(self.iterators):
            raise ValueError(f"{self.name}: duplicate iterators")
        missing = [it for it in self.iterators if it not in self.domain.dims]
        if missing:
            raise ValueError(f"{self.name}: domain lacks iterators {missing}")
        if not self.writes:
            raise ValueError(f"{self.name}: statements must write something")

    @property
    def depth(self) -> int:
        """Number of enclosing loops."""
        return len(self.iterators)

    @property
    def accesses(self) -> list[Access]:
        """All accesses, writes first (matches the paper's store priority)."""
        return list(self.writes) + list(self.reads)

    @property
    def parameters(self) -> list[str]:
        """Parameter dims of the domain (non-iterator dims)."""
        return [d for d in self.domain.dims if d not in self.iterators]

    def interleaved_entries(self) -> list[tuple[str, object]]:
        """The 2d+1 original-order entries: ('beta', b) / ('iter', name)."""
        entries: list[tuple[str, object]] = []
        for level, it in enumerate(self.iterators):
            entries.append(("beta", self.betas[level]))
            entries.append(("iter", it))
        entries.append(("beta", self.betas[len(self.iterators)]))
        return entries

    def original_date(self, point: dict[str, Rat]) -> tuple:
        """Concrete interleaved logical date of one execution."""
        date = []
        for kind, value in self.interleaved_entries():
            if kind == "beta":
                date.append(frac(value))
            else:
                date.append(frac(point[value]))
        return tuple(date)

    def iteration_points(self, params: dict[str, int],
                         limit: int = 100_000) -> list[dict[str, Rat]]:
        """Enumerate the integer points of the domain under concrete params.

        Used by the GPU simulator and by semantics-preservation tests; raises
        if the domain has more than ``limit`` points.
        """
        bound_domain = self.domain.with_constraints(
            [var(p).eq(v) for p, v in params.items() if p in self.domain.dims])
        points: list[dict[str, Rat]] = []

        def recurse(assigned: dict[str, Rat], remaining: list[str]):
            if not remaining:
                points.append(dict(assigned))
                if len(points) > limit:
                    raise ValueError(f"domain of {self.name} exceeds {limit} points")
                return
            it = remaining[0]
            # Bounds of `it` given already-assigned outer iterators: project
            # out the inner iterators, then read the affine bounds.
            shadow = bound_domain.eliminate_all(remaining[1:])
            lowers, uppers = shadow.bounds_of(it)
            env = dict(assigned)
            env.update({p: frac(v) for p, v in params.items()})
            los = [e.evaluate(env) for e in lowers]
            his = [e.evaluate(env) for e in uppers]
            if not los or not his:
                raise ValueError(f"unbounded iterator {it} in {self.name}")
            lo = max(los)
            hi = min(his)
            start = math.ceil(lo)
            stop = math.floor(hi)
            for value in range(start, stop + 1):
                assigned[it] = value
                recurse(assigned, remaining[1:])
            assigned.pop(it, None)

        recurse({}, list(self.iterators))
        return points

    def __str__(self):
        its = ", ".join(self.iterators)
        return f"{self.name}({its})"
