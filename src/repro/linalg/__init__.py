"""Exact rational linear algebra used throughout the polyhedral stack.

Everything in this package works over exact rationals so that scheduling
decisions are never corrupted by floating-point rounding.  Values are the
canonical scalar of :mod:`repro.linalg.rational`: ``int`` when whole,
:class:`fractions.Fraction` otherwise.  The main entry points are:

* :class:`repro.linalg.matrix.Matrix` — a small dense matrix class.
* :func:`repro.linalg.hermite.hermite_normal_form` — row-style HNF, used by
  the progression constraint builder (as in isl scheduling).
* :func:`repro.linalg.hermite.integer_nullspace` — integer kernel basis.
* :func:`repro.linalg.hermite.orthogonal_complement` — basis of the subspace
  orthogonal to a set of row vectors (Pluto's ``H^\\perp``).
"""

from repro.linalg.matrix import Matrix, Vector
from repro.linalg.rational import (
    div,
    frac,
    vec_add,
    vec_dot,
    vec_scale,
    vec_sub,
    clear_denominators,
    primitive,
)
from repro.linalg.hermite import (
    hermite_normal_form,
    integer_nullspace,
    orthogonal_complement,
    rank,
)

__all__ = [
    "Matrix",
    "Vector",
    "div",
    "frac",
    "vec_add",
    "vec_dot",
    "vec_scale",
    "vec_sub",
    "clear_denominators",
    "primitive",
    "hermite_normal_form",
    "integer_nullspace",
    "orthogonal_complement",
    "rank",
]
