"""Tests for orthogonal complements and integer nullspaces."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import Matrix, integer_nullspace
from repro.linalg.hermite import (
    orthogonal_complement,
    orthogonal_complement_or_identity,
    rank,
)


class TestOrthogonalComplement:
    def test_complement_is_orthogonal(self):
        rows = [[1, 0, 0], [0, 1, 1]]
        comp = orthogonal_complement(rows)
        for v in comp:
            for r in rows:
                assert sum(a * b for a, b in zip(r, v)) == 0

    def test_complement_dimension(self):
        comp = orthogonal_complement([[1, 1, 1]])
        assert len(comp) == 2

    def test_full_rank_gives_empty(self):
        comp = orthogonal_complement([[1, 0], [0, 1]])
        assert comp == []

    def test_or_identity_empty_rows(self):
        comp = orthogonal_complement_or_identity([], 3)
        assert comp == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_or_identity_zero_rows(self):
        comp = orthogonal_complement_or_identity([[0, 0]], 2)
        assert comp == [[1, 0], [0, 1]]

    def test_or_identity_dim_check(self):
        with pytest.raises(ValueError):
            orthogonal_complement_or_identity([[1, 0, 0]], 2)

    def test_integer_nullspace_primitive(self):
        basis = integer_nullspace(Matrix([[2, 4]]))
        assert basis == [[-2, 1]]

    def test_rank_empty(self):
        assert rank([]) == 0
        assert rank([[0, 0]]) == 0

    def test_rank_simple(self):
        assert rank([[1, 0], [0, 1], [1, 1]]) == 2

    @given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
                    min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_complement_spans_rest(self, rows):
        nonzero = [r for r in rows if any(x != 0 for x in r)]
        if not nonzero:
            return
        comp = orthogonal_complement(nonzero)
        # Orthogonality of every basis vector to every input row.
        for v in comp:
            for r in nonzero:
                assert sum(a * b for a, b in zip(r, v)) == 0
        # Dimensions add up: rank(rows) + |complement| == 4.
        assert rank(nonzero) + len(comp) == 4
