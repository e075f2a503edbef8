"""Tests for named-dimension polyhedra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sets import Polyhedron, var


def box(dims, lo, hi):
    """Axis-aligned integer box [lo, hi]^n."""
    cs = []
    for d in dims:
        cs.append(var(d) >= lo)
        cs.append(var(d) <= hi)
    return Polyhedron(dims, cs)


class TestConstruction:
    def test_universe_not_empty(self):
        assert not Polyhedron(["i"]).is_empty()

    def test_duplicate_dims_rejected(self):
        with pytest.raises(ValueError):
            Polyhedron(["i", "i"])

    def test_unknown_dim_in_constraint(self):
        with pytest.raises(ValueError):
            Polyhedron(["i"], [var("j") >= 0])

    def test_with_constraints_copies(self):
        p = Polyhedron(["i"])
        q = p.with_constraints([var("i") >= 0])
        assert len(p.constraints) == 0 and len(q.constraints) == 1

    def test_rename(self):
        p = Polyhedron(["i"], [var("i") >= 3])
        q = p.rename({"i": "x"})
        assert q.dims == ["x"]
        assert q.contains({"x": Fraction(3)})


class TestEmptiness:
    def test_contradiction_empty(self):
        p = Polyhedron(["i"], [var("i") >= 1, var("i") <= 0])
        assert p.is_empty()

    def test_rational_only_gap_empty_integer(self):
        # 1/2 < i < 1 has a rational point but no integer point.
        p = Polyhedron(["i"], [2 * var("i") >= 1, 2 * var("i") <= 1])
        # 2i >= 1 and 2i <= 1 means i = 1/2: rational-feasible, integer-empty.
        assert not p.is_empty(integer=False)
        assert p.is_empty(integer=True)

    def test_box_not_empty(self):
        assert not box(["i", "j"], 0, 4).is_empty()

    def test_contains(self):
        p = box(["i"], 0, 3)
        assert p.contains({"i": Fraction(2)})
        assert not p.contains({"i": Fraction(4)})

    def test_contains_missing_dim(self):
        with pytest.raises(KeyError):
            box(["i"], 0, 1).contains({})


class TestElimination:
    def test_fm_triangle(self):
        # 0 <= i <= j <= 9: eliminating j leaves 0 <= i <= 9.
        p = Polyhedron(["i", "j"], [var("i") >= 0, var("j") - var("i") >= 0,
                                    var("j") <= 9])
        q = p.eliminate("j")
        assert q.dims == ["i"]
        assert q.contains({"i": Fraction(9)})
        assert not q.contains({"i": Fraction(10)})

    def test_eliminate_unknown_dim(self):
        with pytest.raises(ValueError):
            Polyhedron(["i"]).eliminate("z")

    def test_equality_substitution(self):
        # j == i + 1, 0 <= j <= 5  ->  -1 <= i <= 4.
        p = Polyhedron(["i", "j"], [(var("j") - var("i") - 1).eq(0),
                                    var("j") >= 0, var("j") <= 5])
        q = p.eliminate("j")
        assert q.contains({"i": Fraction(-1)})
        assert q.contains({"i": Fraction(4)})
        assert not q.contains({"i": Fraction(5)})

    def test_eliminate_all(self):
        p = box(["i", "j", "k"], 0, 3)
        q = p.eliminate_all(["k", "j"])
        assert q.dims == ["i"]
        assert not q.is_empty()

    def test_emptiness_preserved_by_projection(self):
        p = Polyhedron(["i", "j"], [var("i") + var("j") >= 10,
                                    var("i") <= 2, var("j") <= 2])
        assert p.is_empty()
        assert p.eliminate("j").is_empty()

    def test_bounds_of(self):
        p = Polyhedron(["i", "N"], [var("i") >= 0,
                                    var("N") - var("i") - 1 >= 0])
        lowers, uppers = p.bounds_of("i")
        assert len(lowers) == 1 and len(uppers) == 1
        assert lowers[0].const == 0 and lowers[0].coeffs == {}
        assert uppers[0].coeffs == {"N": Fraction(1)}
        assert uppers[0].const == -1


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
       st.integers(-3, 3), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_fm_projection_is_shadow(a, b, c, d, bound):
    """Property: a point is in the projection iff some integer witness for
    the eliminated dim exists in a small window (soundness direction)."""
    # Set: a*i + b*j >= c, d <= j <= d + bound, -5 <= i <= 5.
    p = Polyhedron(["i", "j"], [
        a * var("i") + b * var("j") >= c,
        var("j") >= d, var("j") <= d + bound,
        var("i") >= -5, var("i") <= 5,
    ])
    q = p.eliminate("j")
    for i in range(-5, 6):
        witness = any(
            p.contains({"i": Fraction(i), "j": Fraction(j)})
            for j in range(d, d + bound + 1))
        if witness:
            assert q.contains({"i": Fraction(i)})
