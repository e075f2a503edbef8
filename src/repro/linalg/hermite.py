"""Orthogonal-complement computations.

The progression constraint builder (Section IV-A-3 of the paper) needs a basis
of the subspace orthogonal to already-computed schedule rows (Pluto's
``H^perp = I - H^T (H H^T)^{-1} H``): :func:`orthogonal_complement` returns an
integer basis of the rational nullspace of those rows.
"""

from __future__ import annotations

from typing import Sequence

from repro.linalg.matrix import Matrix
from repro.linalg.rational import primitive


def rank(rows: Sequence[Sequence]) -> int:
    """Rank of the row set (0 for the empty set)."""
    rows = [list(r) for r in rows if any(x != 0 for x in r)]
    if not rows:
        return 0
    return Matrix(rows).rank()


def integer_nullspace(mat: Matrix) -> list[list[int]]:
    """A basis of integer vectors spanning the rational nullspace of ``mat``."""
    return [primitive(v) for v in mat.nullspace()]


def orthogonal_complement(rows: Sequence[Sequence]) -> list[list[int]]:
    """Integer basis of the orthogonal complement of the span of ``rows``.

    This is the ``H^perp`` of the Pluto progression constraints: every
    returned vector is orthogonal to all input rows, and together with the
    input rows they span the full space.  For an empty input the identity
    basis is returned.
    """
    rows = [list(r) for r in rows if any(x != 0 for x in r)]
    if not rows:
        raise ValueError("cannot infer dimension from an empty row set; "
                         "pass at least one (possibly zero-padded) row or use identity")
    mat = Matrix(rows)
    return integer_nullspace(mat)


def orthogonal_complement_or_identity(rows: Sequence[Sequence], dim: int) -> list[list[int]]:
    """Like :func:`orthogonal_complement` but returns the identity basis when
    ``rows`` spans nothing, and [] when ``rows`` spans everything."""
    nonzero = [list(r) for r in rows if any(x != 0 for x in r)]
    if not nonzero:
        eye = []
        for i in range(dim):
            v = [0] * dim
            v[i] = 1
            eye.append(v)
        return eye
    for r in nonzero:
        if len(r) != dim:
            raise ValueError(f"row length {len(r)} != dim {dim}")
    return orthogonal_complement(nonzero)
