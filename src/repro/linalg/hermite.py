"""Hermite normal form and orthogonal-complement computations.

The progression constraint builder (Section IV-A-3 of the paper) needs a basis
of the subspace orthogonal to already-computed schedule rows.  Pluto computes
``H^perp = I - H^T (H H^T)^{-1} H``; isl relies on a Hermite-normal-form
decomposition.  We provide both: :func:`orthogonal_complement` implements the
rational projector approach, :func:`hermite_normal_form` the integer form.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from repro.linalg.matrix import Matrix
from repro.linalg.rational import primitive


def rank(rows: Sequence[Sequence]) -> int:
    """Rank of the row set (0 for the empty set)."""
    rows = [list(r) for r in rows if any(x != 0 for x in r)]
    if not rows:
        return 0
    return Matrix(rows).rank()


def hermite_normal_form(mat: Matrix) -> tuple[Matrix, Matrix]:
    """Row-style Hermite normal form.

    Returns ``(H, U)`` with ``H = U @ mat``, ``U`` unimodular over the
    integers, and ``H`` in (lower-triangular-per-pivot) row HNF: pivot of each
    nonzero row is positive, entries below a pivot are zero, entries above a
    pivot are reduced modulo the pivot into ``[0, pivot)``.

    The input must have integer entries.
    """
    work = [[int(x) for x in row] for row in mat.rows]
    for row, orig in zip(work, mat.rows):
        for cell, frac_cell in zip(row, orig):
            if cell != frac_cell:
                raise ValueError("hermite_normal_form requires integer entries")
    n_rows, n_cols = mat.n_rows, mat.n_cols
    unimod = [[1 if i == j else 0 for j in range(n_rows)] for i in range(n_rows)]

    pivot_row = 0
    for col in range(n_cols):
        if pivot_row >= n_rows:
            break
        # Euclidean elimination below the pivot.
        while True:
            nonzero = [i for i in range(pivot_row, n_rows) if work[i][col] != 0]
            if not nonzero:
                break
            best = min(nonzero, key=lambda i: abs(work[i][col]))
            if best != pivot_row:
                work[pivot_row], work[best] = work[best], work[pivot_row]
                unimod[pivot_row], unimod[best] = unimod[best], unimod[pivot_row]
            done = True
            for i in range(pivot_row + 1, n_rows):
                if work[i][col] != 0:
                    q = work[i][col] // work[pivot_row][col]
                    work[i] = [a - q * b for a, b in zip(work[i], work[pivot_row])]
                    unimod[i] = [a - q * b for a, b in zip(unimod[i], unimod[pivot_row])]
                    if work[i][col] != 0:
                        done = False
            if done:
                break
        if work[pivot_row][col] == 0:
            continue
        if work[pivot_row][col] < 0:
            work[pivot_row] = [-x for x in work[pivot_row]]
            unimod[pivot_row] = [-x for x in unimod[pivot_row]]
        # Reduce the entries above the pivot.
        p = work[pivot_row][col]
        for i in range(pivot_row):
            q = work[i][col] // p
            if q:
                work[i] = [a - q * b for a, b in zip(work[i], work[pivot_row])]
                unimod[i] = [a - q * b for a, b in zip(unimod[i], unimod[pivot_row])]
        pivot_row += 1
    return Matrix(work), Matrix(unimod)


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
        dim = 0
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


def lattice_gcd(values: Sequence[int]) -> int:
    """gcd of a sequence of integers (0 for the empty sequence)."""
    g = 0
    for v in values:
        g = gcd(g, abs(int(v)))
    return g
