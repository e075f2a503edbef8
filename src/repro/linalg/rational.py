"""The canonical exact scalar and small helpers for exact rational vectors.

Every coefficient, constant and bound of the exact affine layer (linear
expressions, constraints, polyhedra, matrices, linear programs) is one
canonical scalar: a Python ``int`` when the value is whole, and a
:class:`fractions.Fraction` only when its denominator is greater than 1.
Nearly all values of the polyhedral stack are small whole numbers, and int
arithmetic is an order of magnitude cheaper than ``Fraction`` arithmetic;
the representation is unique, so equal values still compare, hash and
print alike (``Fraction(3) == 3`` and both print as ``3``).

:func:`frac` is the one coercion into the canonical form and :func:`div`
the exact division.  Sums and products of canonical scalars are exact but
need :func:`frac` again: ``Fraction(1, 2) + Fraction(1, 2)`` is a whole
``Fraction``.  True division with ``/`` is never used on scalars: on two
ints it would return a float.

Vectors are plain Python lists (or tuples) of canonical scalars.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction]


def frac(value) -> Rat:
    """Coerce ``value`` (int, Fraction or str) to the canonical scalar.

    Whole values become ``int``; others stay (or become) ``Fraction``.
    Floats and bools are rejected on purpose: silently converting binary
    floats would smuggle rounding error into the exact pipeline.
    """
    if type(value) is int:
        return value
    if type(value) is Fraction:
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, (Fraction, str)):
        return frac(Fraction(value))
    raise TypeError(f"cannot build an exact rational from {value!r}")


def div(a: Rat, b: Rat) -> Rat:
    """The exact quotient ``a / b`` of two canonical scalars, canonical."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return frac(Fraction(a, b))


def vec_add(a: Sequence[Rat], b: Sequence[Rat]) -> list[Rat]:
    """Return ``a + b`` element-wise."""
    if len(a) != len(b):
        raise ValueError(f"vector length mismatch: {len(a)} vs {len(b)}")
    return [frac(x + y) for x, y in zip(a, b)]


def vec_sub(a: Sequence[Rat], b: Sequence[Rat]) -> list[Rat]:
    """Return ``a - b`` element-wise."""
    if len(a) != len(b):
        raise ValueError(f"vector length mismatch: {len(a)} vs {len(b)}")
    return [frac(x - y) for x, y in zip(a, b)]


def vec_scale(a: Sequence[Rat], k) -> list[Rat]:
    """Return ``k * a``."""
    k = frac(k)
    return [frac(k * x) for x in a]


def vec_dot(a: Sequence[Rat], b: Sequence[Rat]) -> Rat:
    """Return the dot product of ``a`` and ``b``."""
    if len(a) != len(b):
        raise ValueError(f"vector length mismatch: {len(a)} vs {len(b)}")
    return frac(sum(x * y for x, y in zip(a, b)))


def is_zero_vector(a: Iterable[Rat]) -> bool:
    """True iff every component of ``a`` is zero."""
    return all(x == 0 for x in a)


def clear_denominators(a: Sequence[Rat]) -> list[int]:
    """Scale ``a`` by the lcm of its denominators and return integer entries."""
    lcm = 1
    for x in a:
        d = frac(x).denominator
        lcm = lcm * d // gcd(lcm, d)
    return [int(frac(x) * lcm) for x in a]


def primitive(a: Sequence[Rat]) -> list[int]:
    """Return the primitive integer vector proportional to ``a``.

    The result has integer entries with gcd 1 and the same direction as
    ``a`` (an all-zero vector is returned unchanged).
    """
    ints = clear_denominators(a)
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g <= 1:
        return ints
    return [x // g for x in ints]
