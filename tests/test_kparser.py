"""Tests for the textual kernel format."""

import pytest

from repro.deps import compute_dependences
from repro.ir.examples import running_example
from repro.ir.kparser import KernelParseError, parse_kernel
from repro.ir.types import FLOAT16, FLOAT32
from repro.schedule import InfluencedScheduler
from repro.schedule.analysis import verify_schedule

RUNNING = """
# the paper's running example
kernel fused_mul_sub_mul_tensoradd (N=16)
tensor A[N][N]
tensor B[N][N]
tensor C[N][N]
tensor D[N][N][N]
X[i: 0..N, k: 0..N]: B[i][k] = f(A[i][k])
Y[i: 0..N, j: 0..N, k: 0..N] flops=3: C[i][j] = g(C[i][j], B[i][k], D[k][i][j])
"""


class TestParsing:
    def test_running_example_matches_builder(self):
        parsed = parse_kernel(RUNNING)
        built = running_example(16)
        assert [s.name for s in parsed.statements] == \
            [s.name for s in built.statements]
        for ps, bs in zip(parsed.statements, built.statements):
            assert ps.iterators == bs.iterators
            assert ps.flops == bs.flops
            assert [str(a) for a in ps.accesses] == \
                [str(a) for a in bs.accesses]

    def test_dtype_parsing(self):
        k = parse_kernel("""
kernel t (N=8)
tensor A[N] : float16
tensor B[N] : f32
S[i: 0..N]: B[i] = f(A[i])
""")
        assert k.tensors["A"].dtype == FLOAT16
        assert k.tensors["B"].dtype == FLOAT32

    def test_affine_subscripts_and_bounds(self):
        k = parse_kernel("""
kernel tri (N=8)
tensor A[N][N]
S[i: 0..N, j: 0..i + 1]: A[i][j] = f(A[i][j])
""")
        points = k.statements[0].iteration_points(k.params)
        assert len(points) == 8 * 9 // 2

    def test_integer_extents(self):
        k = parse_kernel("""
kernel fixed (N=4)
tensor A[4][8]
S[i: 0..N]: A[i][0] = f(A[i][1])
""")
        assert k.tensors["A"].shape == (4, 8)

    def test_multiple_writes(self):
        k = parse_kernel("""
kernel two (N=4)
tensor A[N]
tensor B[N]
S[i: 0..N]: A[i], B[i] = f(A[i])
""")
        assert len(k.statements[0].writes) == 2

    def test_scheduling_parsed_kernel(self):
        kernel = parse_kernel(RUNNING)
        scheduler = InfluencedScheduler(
            kernel, relations=compute_dependences(kernel))
        schedule = scheduler.schedule()
        assert verify_schedule(schedule, scheduler.relations) == []


class TestErrors:
    def err(self, text):
        with pytest.raises(KernelParseError) as info:
            parse_kernel(text)
        return str(info.value)

    def test_empty(self):
        assert "empty" in self.err("")

    def test_missing_header(self):
        assert "header" in self.err("tensor A[4]")

    def test_bad_param(self):
        assert "PARAM=INT" in self.err("kernel k (N)")

    def test_unknown_dtype(self):
        msg = self.err("kernel k (N=4)\ntensor A[N] : complex128")
        assert "dtype" in msg

    def test_unknown_extent(self):
        msg = self.err("kernel k (N=4)\ntensor A[M]")
        assert "extent" in msg

    def test_bad_statement(self):
        msg = self.err("kernel k (N=4)\ntensor A[N]\nS[i]: A[i] = f(A[i])")
        assert "lo..hi" in msg

    def test_missing_equals(self):
        msg = self.err("kernel k (N=4)\ntensor A[N]\nS[i: 0..N]: A[i]")
        assert "'='" in msg

    def test_unknown_tensor_in_statement(self):
        msg = self.err("kernel k (N=4)\nS[i: 0..N]: Z[i] = f(Z[i])")
        assert "Z" in msg

    def test_duplicate_header(self):
        msg = self.err("kernel a (N=4)\nkernel b (N=4)")
        assert "duplicate" in msg

    def test_line_numbers_reported(self):
        msg = self.err("kernel k (N=4)\ntensor A[N]\n\nbogus line here")
        assert "line 4" in msg


class TestErrorLineNumbers:
    """Every parse error carries the offending line, both as a structured
    ``line_no`` attribute and in the rendered message."""

    def err_at(self, text):
        with pytest.raises(KernelParseError) as info:
            parse_kernel(text)
        assert f"line {info.value.line_no}:" in str(info.value)
        return info.value

    def test_malformed_param_value(self):
        error = self.err_at("kernel k (N=x)")
        assert error.line_no == 1
        assert "integer value" in str(error)

    def test_unknown_extent_symbol(self):
        error = self.err_at("kernel k (N=4)\ntensor A[M]")
        assert error.line_no == 2
        assert "extent" in str(error)

    def test_nonpositive_extent(self):
        error = self.err_at("kernel k (N=4)\ntensor A[N]\ntensor B[0]")
        assert error.line_no == 3
        assert "extent" in str(error)

    def test_duplicate_statement_name(self):
        error = self.err_at("kernel k (N=4)\ntensor A[N]\n"
                            "S[i: 0..N]: A[i] = f()\n"
                            "S[i: 0..N]: A[i] = f()")
        assert error.line_no == 4
        assert "already exists" in str(error)

    def test_empty_subscript(self):
        error = self.err_at("kernel k (N=4)\ntensor A[N]\n"
                            "S[i: 0..N]: A[] = f()")
        assert error.line_no == 3
        assert "subscript" in str(error)

    def test_malformed_bounds(self):
        error = self.err_at("kernel k (N=4)\ntensor A[N]\n\n\n"
                            "S[i = 0..N]: A[i] = f()")
        assert error.line_no == 5
