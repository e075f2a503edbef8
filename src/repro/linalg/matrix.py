"""A small dense matrix over exact rationals (canonical scalars: ``int``
when whole, :class:`fractions.Fraction` otherwise).

The polyhedral stack only ever manipulates matrices with a few dozen rows and
columns, so this favours clarity over asymptotic cleverness.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.linalg.rational import Rat, div, frac

Vector = list  # alias used in signatures for readability


class Matrix:
    """A dense matrix of canonical exact scalars."""

    __slots__ = ("rows", "n_rows", "n_cols")

    def __init__(self, rows: Iterable[Sequence]):
        self.rows: list[list[Rat]] = [[frac(x) for x in row] for row in rows]
        self.n_rows = len(self.rows)
        self.n_cols = len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != self.n_cols:
                raise ValueError("ragged rows in matrix")

    # -- constructors -----------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        """The ``n x n`` identity."""
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 1
        return cls(rows)

    # -- basic protocol ----------------------------------------------------

    def __getitem__(self, idx):
        if isinstance(idx, tuple):
            i, j = idx
            return self.rows[i][j]
        return self.rows[idx]

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix[{self.n_rows}x{self.n_cols}]({body})"

    # -- algebra -----------------------------------------------------------

    def hstack(self, other: "Matrix") -> "Matrix":
        """Horizontal concatenation ``[self | other]``."""
        if self.n_rows != other.n_rows:
            raise ValueError("row count mismatch in hstack")
        return Matrix([ra + rb for ra, rb in zip(self.rows, other.rows)])

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        mat = [list(row) for row in self.rows]
        pivots: list[int] = []
        r = 0
        for c in range(self.n_cols):
            if r >= self.n_rows:
                break
            pivot_row = next((i for i in range(r, self.n_rows) if mat[i][c] != 0), None)
            if pivot_row is None:
                continue
            mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
            pivot = mat[r][c]
            mat[r] = [div(x, pivot) for x in mat[r]]
            for i in range(self.n_rows):
                if i != r and mat[i][c] != 0:
                    factor = mat[i][c]
                    mat[i] = [frac(x - factor * y)
                              for x, y in zip(mat[i], mat[r])]
            pivots.append(c)
            r += 1
        return Matrix(mat), pivots

    def rank(self) -> int:
        """The rank of the matrix."""
        _, pivots = self.rref()
        return len(pivots)

    def nullspace(self) -> list[list[Rat]]:
        """A basis of the (right) nullspace as a list of vectors."""
        red, pivots = self.rref()
        free = [c for c in range(self.n_cols) if c not in pivots]
        basis = []
        for f in free:
            v = [0] * self.n_cols
            v[f] = 1
            for r, p in enumerate(pivots):
                v[p] = -red[r][f]
            basis.append(v)
        return basis

    def inverse(self) -> "Matrix":
        """The inverse; raises ValueError if singular or non-square."""
        if self.n_rows != self.n_cols:
            raise ValueError("only square matrices are invertible")
        aug = self.hstack(Matrix.identity(self.n_rows))
        red, pivots = aug.rref()
        if pivots != list(range(self.n_rows)):
            raise ValueError("matrix is singular")
        return Matrix([row[self.n_rows:] for row in red.rows])
