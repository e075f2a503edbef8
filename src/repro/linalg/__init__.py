"""Exact rational linear algebra used throughout the polyhedral stack.

Everything in this package works over exact rationals so that scheduling
decisions are never corrupted by floating-point rounding.  Values are the
canonical scalar of :mod:`repro.linalg.rational`: ``int`` when whole,
:class:`fractions.Fraction` otherwise.  The main entry points are:

* :class:`repro.linalg.matrix.Matrix` — a small dense matrix class.
* :func:`repro.linalg.hermite.integer_nullspace` — integer kernel basis.
* :func:`repro.linalg.hermite.orthogonal_complement` — basis of the subspace
  orthogonal to a set of row vectors (Pluto's ``H^\\perp``).
"""

from repro.linalg.matrix import Matrix, Vector
from repro.linalg.rational import (
    div,
    frac,
    clear_denominators,
    primitive,
)
from repro.linalg.hermite import (
    integer_nullspace,
    orthogonal_complement,
    rank,
)

__all__ = [
    "Matrix",
    "Vector",
    "div",
    "frac",
    "clear_denominators",
    "primitive",
    "integer_nullspace",
    "orthogonal_complement",
    "rank",
]
