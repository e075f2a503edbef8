"""Tests for the program IR: types, tensors, accesses, statements, kernels."""

from fractions import Fraction

import pytest

from repro.ir import (
    Access,
    DType,
    FLOAT16,
    FLOAT32,
    FLOAT64,
    INT8,
    Kernel,
    Tensor,
    parse_affine,
)
from repro.ir.examples import elementwise_chain, matmul, running_example, transpose_add
from repro.solver.problem import LinExpr


class TestDType:
    def test_sizes(self):
        assert FLOAT32.size_bytes == 4
        assert FLOAT64.size_bytes == 8

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            DType("weird", 3)

    def test_vector_widths_float32(self):
        # float2 = 64 bits, float4 = 128 bits.
        assert FLOAT32.vector_widths() == [2, 4]

    def test_vector_widths_float64(self):
        # double2 = 128 bits; double4 would be 256.
        assert FLOAT64.vector_widths() == [2]

    def test_vector_widths_float16(self):
        # half4 = 64 bits; half2 is only 32 bits (below the 64-bit rule).
        assert FLOAT16.vector_widths() == [4]

    def test_vector_widths_int8(self):
        assert INT8.vector_widths() == []


class TestTensor:
    def test_strides_row_major(self):
        t = Tensor("D", (5, 7, 3))
        assert t.strides() == (21, 3, 1)

    def test_n_bytes(self):
        t = Tensor("A", (4, 4), FLOAT64)
        assert t.n_bytes == 128

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            Tensor("A", (0, 4))

    def test_bad_name(self):
        with pytest.raises(ValueError):
            Tensor("2bad", (4,))


class TestParseAffine:
    def test_single_var(self):
        assert parse_affine("i").coeffs == {"i": Fraction(1)}

    def test_sum(self):
        e = parse_affine("i + j - 2")
        assert e.coeffs == {"i": Fraction(1), "j": Fraction(1)}
        assert e.const == -2

    def test_scaled(self):
        assert parse_affine("2*i").coeffs == {"i": Fraction(2)}
        assert parse_affine("i*3").coeffs == {"i": Fraction(3)}

    def test_negative_leading(self):
        e = parse_affine("-i + 1")
        assert e.coeffs == {"i": Fraction(-1)} and e.const == 1

    def test_constant(self):
        e = parse_affine("42")
        assert e.is_constant() and e.const == 42

    def test_bad_token(self):
        with pytest.raises(ValueError):
            parse_affine("i @ j")

    def test_dangling_operator(self):
        with pytest.raises(ValueError):
            parse_affine("i +")

    def test_nonaffine_rejected(self):
        with pytest.raises(ValueError):
            parse_affine("i * j")


class TestAccess:
    def make(self):
        t = Tensor("D", (8, 8, 8))
        return Access.build(t, ["k", "i", "j"])

    def test_arity_check(self):
        t = Tensor("A", (4, 4))
        with pytest.raises(ValueError):
            Access.build(t, ["i"])

    def test_variables(self):
        assert self.make().variables() == {"k", "i", "j"}

    def test_stride_innermost(self):
        a = self.make()
        assert a.stride_along("j") == 1

    def test_stride_middle(self):
        assert self.make().stride_along("i") == 8

    def test_stride_outer_subscript(self):
        # k indexes the outermost dim of an 8x8x8 tensor: stride 64.
        assert self.make().stride_along("k") == 64

    def test_stride_invariant(self):
        assert self.make().stride_along("z") == 0

    def test_linearized(self):
        a = self.make()
        point = {"k": Fraction(1), "i": Fraction(2), "j": Fraction(3)}
        assert a.linearized(point) == 64 + 16 + 3

    def test_constant_subscript(self):
        t = Tensor("A", (4, 4))
        a = Access.build(t, [0, "i"])
        assert a.stride_along("i") == 1
        assert a.linearized({"i": Fraction(3)}) == 3


class TestKernel:
    def test_running_example_shape(self):
        k = running_example(8)
        assert [s.name for s in k.statements] == ["X", "Y"]
        assert k.statement("Y").depth == 3

    def test_betas_default_sequence(self):
        k = running_example(8)
        assert k.statement("X").betas == [0, 0, 0]
        assert k.statement("Y").betas == [1, 0, 0, 0]

    def test_duplicate_statement_rejected(self):
        k = Kernel("k", params={"N": 4})
        k.add_tensor("A", (4,))
        k.add_statement("S", [("i", 0, "N")], writes=[("A", ["i"])])
        with pytest.raises(ValueError):
            k.add_statement("S", [("i", 0, "N")], writes=[("A", ["i"])])

    def test_unknown_tensor_rejected(self):
        k = Kernel("k", params={"N": 4})
        with pytest.raises(KeyError):
            k.add_statement("S", [("i", 0, "N")], writes=[("Z", ["i"])])

    def test_unknown_name_in_subscript(self):
        k = Kernel("k", params={"N": 4})
        k.add_tensor("A", (4,))
        with pytest.raises(ValueError):
            k.add_statement("S", [("i", 0, "N")], writes=[("A", ["q"])])

    def test_statement_must_write(self):
        k = Kernel("k", params={"N": 4})
        k.add_tensor("A", (4,))
        with pytest.raises(ValueError):
            k.add_statement("S", [("i", 0, "N")], writes=[])

    def test_bad_param_value(self):
        with pytest.raises(ValueError):
            Kernel("k", params={"N": 0})

    def test_total_bytes_touched(self):
        k = transpose_add(4)
        # A, B, C are each 4x4 float32 = 64 bytes.
        assert k.total_bytes_touched() == 3 * 64

    def test_validate_ok(self):
        for k in (running_example(4), matmul(4), elementwise_chain(4),
                  transpose_add(4)):
            k.validate()

    def test_iteration_points_count(self):
        k = running_example(3)
        assert len(k.statement("X").iteration_points(k.params)) == 9
        assert len(k.statement("Y").iteration_points(k.params)) == 27

    def test_iteration_points_in_domain(self):
        k = running_example(3)
        s = k.statement("X")
        for point in s.iteration_points(k.params):
            full = dict(point)
            full["N"] = Fraction(3)
            assert s.domain.contains(full)

    def test_triangular_domain(self):
        k = Kernel("tri", params={"N": 4})
        k.add_tensor("A", (4, 4))
        s = k.add_statement("S", [("i", 0, "N"), ("j", 0, "i + 1")],
                            writes=[("A", ["i", "j"])])
        points = s.iteration_points(k.params)
        assert len(points) == 4 + 3 + 2 + 1

    def test_original_date_interleaving(self):
        k = running_example(4)
        x = k.statement("X")
        date = x.original_date({"i": Fraction(2), "k": Fraction(1)})
        assert date == (0, 2, 0, 1, 0)

    def test_statement_lookup_error(self):
        with pytest.raises(KeyError):
            running_example(4).statement("Z")
