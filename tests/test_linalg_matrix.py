"""Unit tests for the exact matrix class."""

from fractions import Fraction

import pytest

from repro.linalg import Matrix
from repro.linalg.rational import (
    clear_denominators,
    frac,
    primitive,
    vec_dot,
)


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

    def test_vec_dot(self):
        assert vec_dot([frac(1), frac(2)], [frac(3), frac(4)]) == 11

    def test_vec_length_mismatch(self):
        with pytest.raises(ValueError):
            vec_dot([frac(1)], [frac(1), frac(2)])

    def test_clear_denominators(self):
        assert clear_denominators([Fraction(1, 2), Fraction(1, 3)]) == [3, 2]

    def test_primitive_reduces_gcd(self):
        assert primitive([4, 6, 8]) == [2, 3, 4]

    def test_primitive_zero(self):
        assert primitive([0, 0]) == [0, 0]

    def test_primitive_fractions(self):
        assert primitive([Fraction(1, 2), Fraction(3, 2)]) == [1, 3]


class TestMatrixBasics:
    def test_zeros(self):
        m = Matrix.zeros(2, 3)
        assert m.shape == (2, 3)
        assert all(x == 0 for row in m.rows for x in row)

    def test_identity(self):
        eye = Matrix.identity(3)
        assert eye[1, 1] == 1 and eye[0, 1] == 0

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2], [3]])

    def test_transpose(self):
        m = Matrix([[1, 2, 3], [4, 5, 6]])
        assert m.transpose().rows == Matrix([[1, 4], [2, 5], [3, 6]]).rows

    def test_add_sub(self):
        a = Matrix([[1, 2], [3, 4]])
        b = Matrix([[5, 6], [7, 8]])
        assert (a + b).rows == [[6, 8], [10, 12]]
        assert (b - a).rows == [[4, 4], [4, 4]]

    def test_scalar_mul(self):
        assert (2 * Matrix([[1, 2]])).rows == [[2, 4]]

    def test_matmul_matrix(self):
        a = Matrix([[1, 2], [3, 4]])
        b = Matrix([[0, 1], [1, 0]])
        assert (a @ b).rows == [[2, 1], [4, 3]]

    def test_matmul_vector(self):
        a = Matrix([[1, 2], [3, 4]])
        assert a @ [1, 1] == [3, 7]

    def test_hstack_vstack(self):
        a = Matrix([[1], [2]])
        b = Matrix([[3], [4]])
        assert a.hstack(b).rows == [[1, 3], [2, 4]]
        assert a.vstack(b).rows == [[1], [2], [3], [4]]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Matrix([[1]]) + Matrix([[1, 2]])


class TestElimination:
    def test_rref_pivots(self):
        m = Matrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
        red, pivots = m.rref()
        assert pivots == [0, 1]
        assert m.rank() == 2

    def test_nullspace_orthogonal(self):
        m = Matrix([[1, 2, 3], [0, 1, 1]])
        for v in m.nullspace():
            assert m @ v == [0, 0]

    def test_nullspace_dimension(self):
        m = Matrix([[1, 0, 0]])
        assert len(m.nullspace()) == 2

    def test_solve_consistent(self):
        m = Matrix([[2, 1], [1, 3]])
        x = m.solve([5, 10])
        assert m @ x == [5, 10]

    def test_solve_inconsistent(self):
        m = Matrix([[1, 1], [1, 1]])
        assert m.solve([1, 2]) is None

    def test_inverse(self):
        m = Matrix([[2, 1], [1, 1]])
        inv = m.inverse()
        assert (m @ inv).rows == Matrix.identity(2).rows

    def test_inverse_singular(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2], [2, 4]]).inverse()

    def test_determinant(self):
        assert Matrix([[2, 1], [1, 1]]).determinant() == 1
        assert Matrix([[1, 2], [2, 4]]).determinant() == 0

    def test_determinant_sign_on_swap(self):
        assert Matrix([[0, 1], [1, 0]]).determinant() == -1
