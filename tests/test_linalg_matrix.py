"""Unit tests for the exact matrix class."""

from fractions import Fraction

import pytest

from repro.linalg import Matrix
from repro.linalg.rational import clear_denominators, frac, primitive


class TestRationalHelpers:
    def test_frac_int(self):
        assert frac(3) == Fraction(3)

    def test_frac_str(self):
        assert frac("2/3") == Fraction(2, 3)

    def test_frac_rejects_float(self):
        with pytest.raises(TypeError):
            frac(0.5)

    def test_frac_rejects_bool(self):
        with pytest.raises(TypeError):
            frac(True)

    def test_clear_denominators(self):
        assert clear_denominators([Fraction(1, 2), Fraction(1, 3)]) == [3, 2]

    def test_primitive_reduces_gcd(self):
        assert primitive([4, 6, 8]) == [2, 3, 4]

    def test_primitive_zero(self):
        assert primitive([0, 0]) == [0, 0]

    def test_primitive_fractions(self):
        assert primitive([Fraction(1, 2), Fraction(3, 2)]) == [1, 3]


class TestMatrixBasics:
    def test_identity(self):
        eye = Matrix.identity(3)
        assert eye[1, 1] == 1 and eye[0, 1] == 0

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2], [3]])

    def test_hstack(self):
        a = Matrix([[1], [2]])
        b = Matrix([[3], [4]])
        assert a.hstack(b).rows == [[1, 3], [2, 4]]


class TestElimination:
    def test_rref_pivots(self):
        m = Matrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
        red, pivots = m.rref()
        assert pivots == [0, 1]
        assert m.rank() == 2

    def test_nullspace_orthogonal(self):
        m = Matrix([[1, 2, 3], [0, 1, 1]])
        for v in m.nullspace():
            assert [sum(a * b for a, b in zip(row, v))
                    for row in m.rows] == [0, 0]

    def test_nullspace_dimension(self):
        m = Matrix([[1, 0, 0]])
        assert len(m.nullspace()) == 2

    def test_inverse(self):
        m = Matrix([[2, 1], [1, 1]])
        assert m.inverse().rows == [[1, -1], [-1, 2]]

    def test_inverse_singular(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2], [2, 4]]).inverse()
