"""A small dense matrix over exact rationals (canonical scalars: ``int``
when whole, :class:`fractions.Fraction` otherwise).

The polyhedral stack only ever manipulates matrices with a few dozen rows and
columns, so this favours clarity over asymptotic cleverness.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.linalg.rational import Rat, div, frac, vec_dot

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
    def zeros(cls, n_rows: int, n_cols: int) -> "Matrix":
        """An ``n_rows x n_cols`` zero matrix."""
        return cls([[0] * n_cols for _ in range(n_rows)])

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

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    # -- algebra -----------------------------------------------------------

    def transpose(self) -> "Matrix":
        """The transpose."""
        return Matrix([[self.rows[i][j] for i in range(self.n_rows)]
                       for j in range(self.n_cols)])

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return Matrix([[frac(a + b) for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return Matrix([[frac(a - b) for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)])

    def __mul__(self, k) -> "Matrix":
        k = frac(k)
        return Matrix([[frac(k * x) for x in row] for row in self.rows])

    __rmul__ = __mul__

    def __matmul__(self, other):
        """Matrix @ Matrix or Matrix @ vector."""
        if isinstance(other, Matrix):
            if self.n_cols != other.n_rows:
                raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
            cols = other.transpose().rows
            return Matrix([[vec_dot(row, col) for col in cols] for row in self.rows])
        vec = [frac(x) for x in other]
        if self.n_cols != len(vec):
            raise ValueError(f"shape mismatch {self.shape} @ vec[{len(vec)}]")
        return [vec_dot(row, vec) for row in self.rows]

    def hstack(self, other: "Matrix") -> "Matrix":
        """Horizontal concatenation ``[self | other]``."""
        if self.n_rows != other.n_rows:
            raise ValueError("row count mismatch in hstack")
        return Matrix([ra + rb for ra, rb in zip(self.rows, other.rows)])

    def vstack(self, other: "Matrix") -> "Matrix":
        """Vertical concatenation."""
        if self.n_rows and other.n_rows and self.n_cols != other.n_cols:
            raise ValueError("column count mismatch in vstack")
        return Matrix([list(r) for r in self.rows] + [list(r) for r in other.rows])

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

    def solve(self, b: Sequence) -> list[Rat] | None:
        """One solution of ``self @ x = b`` or None if inconsistent."""
        rhs = [frac(x) for x in b]
        if len(rhs) != self.n_rows:
            raise ValueError("rhs length mismatch")
        aug = Matrix([row + [rhs[i]] for i, row in enumerate(self.rows)])
        red, pivots = aug.rref()
        if self.n_cols in pivots:  # pivot in the rhs column => inconsistent
            return None
        x = [0] * self.n_cols
        for r, p in enumerate(pivots):
            x[p] = red[r][self.n_cols]
        return x

    def inverse(self) -> "Matrix":
        """The inverse; raises ValueError if singular or non-square."""
        if self.n_rows != self.n_cols:
            raise ValueError("only square matrices are invertible")
        aug = self.hstack(Matrix.identity(self.n_rows))
        red, pivots = aug.rref()
        if pivots != list(range(self.n_rows)):
            raise ValueError("matrix is singular")
        return Matrix([row[self.n_rows:] for row in red.rows])

    def determinant(self) -> Rat:
        """The determinant (fraction-free not required at these sizes)."""
        if self.n_rows != self.n_cols:
            raise ValueError("determinant of a non-square matrix")
        mat = [list(row) for row in self.rows]
        n = self.n_rows
        det = 1
        for c in range(n):
            pivot_row = next((i for i in range(c, n) if mat[i][c] != 0), None)
            if pivot_row is None:
                return 0
            if pivot_row != c:
                mat[c], mat[pivot_row] = mat[pivot_row], mat[c]
                det = -det
            det = frac(det * mat[c][c])
            for i in range(c + 1, n):
                if mat[i][c] != 0:
                    factor = div(mat[i][c], mat[c][c])
                    mat[i] = [frac(x - factor * y)
                              for x, y in zip(mat[i], mat[c])]
        return det
