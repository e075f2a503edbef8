"""The fast simulator: bitwise parity, fallback, and the process-wide
content-keyed profile memo.

Parity is the whole contract: ``simulate_kernel`` must produce a
:class:`KernelProfile` whose counters are *bitwise identical* to those of
:func:`simulate_reference` (the lane-by-lane interpreter) on every launch — including the order-sensitive
cache-hierarchy counters (``dram_writes`` depends on raw-``set``
iteration order inside :func:`repro.gpu.memory.warp_access`).
"""

import collections
import copy
import dataclasses
import os
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.codegen.ast import (Guard, Loop, Seq, StatementCall,
                              substitute_var, walk)
from repro.eval.runner import evaluate_operator
from repro.gpu import fastpath
from repro.gpu import simulator
from repro.gpu.arch import V100
from repro.gpu.fastpath import (
    _FastSimulator,
    _live_span,
    _normalized_condition,
    _segments,
)
from repro.gpu.profile_cache import PROFILE_MEMO
from repro.gpu.simulator import (
    _execute_kernel,
    simulate_kernel,
    simulate_reference,
)
from repro.ir.kparser import parse_kernel
from repro.memo import Memo
from repro.obs import MetricsRegistry, Obs, use_obs
from repro.pipeline.akg import VARIANTS, AkgPipeline
from repro.solver.problem import Constraint, LinExpr
from repro.workloads import operators
from repro.workloads.generator import generate_network_suite

from tests import control_arms
from tests.test_gpu_simulator import compile_mapped, copy_kernel

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


# What a test checks is simulated whatever ran before it.
pytestmark = pytest.mark.usefixtures("empty_profile_memo")


def _parity(mapped, sample_blocks=4, arch=None):
    """Assert fast == reference counters; return the fast profile.

    The profile memo is emptied first, so the fast interpreter runs even
    on a launch the test simulated before."""
    kwargs = {"sample_blocks": sample_blocks}
    if arch is not None:
        kwargs["arch"] = arch
    PROFILE_MEMO.clear()
    fast = simulate_kernel(mapped, **kwargs)
    reference = simulate_reference(mapped, **kwargs)
    assert fast.counters() == reference.counters()
    return fast


class _Spy:
    """Counts what the fast path's mechanisms did while simulating:
    ``entries`` maps each sequential or mapped loop node (by id) to the
    times it was entered, ``lifted_skips`` counts the (value, entry) pairs
    skipped for an entry whose target is a loop (conditions lifted from
    beneath it), and ``issues`` lists the ``(calls, count)`` of every
    statement issue."""

    def __enter__(self):
        self.entries = collections.Counter()
        self.lifted_skips = 0
        self.issues = []
        cls = _FastSimulator
        self._saved = (fastpath._segments, cls._frun_loop, cls._frun_mapped,
                       cls._issue_calls)
        segments, frun_loop, frun_mapped, issue_calls = self._saved

        def spy_segments(entries, env, lo, hi):
            result = segments(entries, env, lo, hi)
            for _, run in entries:
                if isinstance(run[2], Loop):
                    walked = sum(stop - start for start, stop, live
                                 in result[0]
                                 if any(other is run for other in live))
                    self.lifted_skips += hi - lo + 1 - walked
            return result

        def spy_loop(sim, loop, mask):
            self.entries[id(loop)] += 1
            return frun_loop(sim, loop, mask)

        def spy_mapped(sim, loop, mask):
            self.entries[id(loop)] += 1
            return frun_mapped(sim, loop, mask)

        def spy_issue(sim, runs, mask, var=None, count=1):
            self.issues.append((len(runs), count))
            return issue_calls(sim, runs, mask, var, count)

        fastpath._segments = spy_segments
        cls._frun_loop = spy_loop
        cls._frun_mapped = spy_mapped
        cls._issue_calls = spy_issue
        return self

    def __exit__(self, *exc):
        cls = _FastSimulator
        (fastpath._segments, cls._frun_loop, cls._frun_mapped,
         cls._issue_calls) = self._saved

    def multi_call(self, calls=2):
        """The issues of at least ``calls`` calls in one pass."""
        return [issue for issue in self.issues if issue[0] >= calls]

ZOO = {
    "copy": lambda: copy_kernel(64, 96),
    "transpose": lambda: operators.transpose2d_op("fp_tr", 96, 64),
    "reduce": lambda: operators.reduce_producer_op("fp_red", 128, 8),
    "softmax": lambda: operators.softmax_like_op("fp_sm", 64, 32),
    "broadcast": lambda: operators.broadcast_bias_op("fp_bb"),
    "strided_pool": lambda: operators.strided_pool_op("fp_sp"),
    "layout4d": lambda: operators.layout_conversion_op("fp_lc", 2, 16, 8, 8),
    # Fused union loops with guarded children (loop segment plans).
    "attention_block": lambda: operators.attention_block_op("fp_att", 16, 8),
    "depthwise_conv": lambda: operators.depthwise_conv_op("fp_dw", 4, 8, 8),
    "jacobi_2d": lambda: operators.stencil2d_op("fp_jac", 16, "jacobi"),
    "heat_2d": lambda: operators.stencil2d_op("fp_heat", 16, "heat"),
}


class TestParity:
    @pytest.mark.parametrize("influenced", [False, True])
    @pytest.mark.parametrize("family", list(ZOO))
    def test_operator_zoo(self, family, influenced):
        mapped = compile_mapped(ZOO[family](), influenced=influenced)
        _parity(mapped)

    def test_without_vectorization(self):
        mapped = compile_mapped(operators.transpose2d_op("fp_nv", 64, 64),
                                influenced=True, enable_vec=False)
        _parity(mapped)

    def test_partial_warps(self):
        # 48 threads/block: one full warp plus a 16-lane partial warp.
        for influenced in (False, True):
            mapped = compile_mapped(copy_kernel(64, 96),
                                    influenced=influenced, max_threads=48)
            assert mapped.n_threads_per_block % 32 != 0
            _parity(mapped)

    def test_odd_extents(self):
        # Odd trip counts exercise trailing guards and masked lanes.
        _parity(compile_mapped(copy_kernel(63, 37)))
        _parity(compile_mapped(operators.transpose2d_op("fp_odd", 61, 43),
                               influenced=True))

    def test_network_suite_all_variants(self):
        pipeline = AkgPipeline(sample_blocks=2, max_threads=64)
        for _, kernel in generate_network_suite("LSTM", seed=0, limit=2):
            for variant in VARIANTS:
                compiled = pipeline.compile(kernel, variant)
                for launch in compiled.launches:
                    _parity(launch, sample_blocks=2)

    @pytest.mark.parametrize("network,name", [
        # One suite operator (seed 0) of each class that the repeated-issue
        # collapse and the batched statement loops target.
        ("BERT", "bert_op085_softmax_like"),
        ("BERT", "bert_op069_reduce_producer"),
        ("ResNeXt50", "resnext50_op020_transpose2d"),
    ])
    def test_targeted_suite_operators_all_variants(self, network, name):
        kernel = next(kernel for _, kernel
                      in generate_network_suite(network, seed=0)
                      if kernel.name == name)
        pipeline = AkgPipeline(sample_blocks=2)
        obs = Obs(metrics=MetricsRegistry())
        with use_obs(obs):
            for variant in VARIANTS:
                for launch in pipeline.compile(kernel, variant).launches:
                    _parity(launch, sample_blocks=2)
        counters = obs.metrics.counters
        assert counters.get("sim.fastpath.collapsed_issues", 0) > 0

    def test_corpus_replay(self):
        """Every committed fuzz reproducer simulates identically on both
        interpreters."""
        names = sorted(n for n in os.listdir(CORPUS_DIR)
                       if n.endswith(".kernel"))
        assert names, "corpus must not be empty"
        pipeline = AkgPipeline(sample_blocks=2, max_threads=64)
        for name in names:
            with open(os.path.join(CORPUS_DIR, name)) as handle:
                kernel_text = handle.read()
            for variant in ("isl", "infl"):
                kernel = parse_kernel(kernel_text)
                compiled = pipeline.compile(kernel, variant)
                for launch in compiled.launches:
                    _parity(launch, sample_blocks=2)

    def test_parity_simulates_a_launch_seen_before(self, monkeypatch):
        mapped = compile_mapped(copy_kernel(64, 64))
        simulate_kernel(mapped, sample_blocks=4)
        runs = TestProfileCache._interpreter_runs(monkeypatch)
        _parity(mapped)
        assert runs == [fastpath._FastSimulator, simulator._Simulator]

    def test_repeated_simulation_stays_identical(self):
        """Warm per-kernel signature caches must not drift the counters
        (the profile memo is emptied before each repeat, so the
        interpreter runs every time)."""
        mapped = compile_mapped(operators.transpose2d_op("fp_rep", 64, 64))
        first = simulate_kernel(mapped, sample_blocks=4)
        for _ in range(3):
            PROFILE_MEMO.clear()
            again = simulate_kernel(mapped, sample_blocks=4)
            assert again.counters() == first.counters()

    @given(rows=st.integers(3, 80), cols=st.integers(3, 80),
           max_threads=st.sampled_from([32, 48, 64]),
           influenced=st.booleans(), enable_vec=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_property(self, rows, cols, max_threads, influenced, enable_vec):
        mapped = compile_mapped(copy_kernel(rows, cols),
                                influenced=influenced,
                                enable_vec=enable_vec,
                                max_threads=max_threads)
        _parity(mapped, sample_blocks=2)


def _holds(value, sense):
    return (value <= 0 if sense == "<=" else value >= 0 if sense == ">="
            else value == 0)


_SENSES = st.sampled_from(["<=", ">=", "=="])


class TestSegmentPlans:
    """The loop segment plans: the interval solver against enumeration,
    the segment cutter against per-value liveness, and crafted ASTs
    outside the exact subset against the reference interpreter."""

    @given(a=st.integers(-6, 6), const=st.integers(-40, 40),
           coeff=st.integers(-3, 3), x=st.integers(-5, 5), sense=_SENSES,
           lo=st.integers(-20, 20), width=st.integers(1, 30))
    @settings(max_examples=300, deadline=None)
    @example(a=0, const=3, coeff=0, x=0, sense="<=", lo=-5, width=10)
    @example(a=0, const=0, coeff=0, x=0, sense="==", lo=-5, width=10)
    @example(a=-3, const=7, coeff=0, x=0, sense="<=", lo=-10, width=20)
    @example(a=-2, const=-5, coeff=1, x=2, sense=">=", lo=-10, width=20)
    @example(a=2, const=3, coeff=0, x=0, sense="==", lo=-10, width=20)
    @example(a=-3, const=5, coeff=1, x=1, sense="==", lo=-10, width=20)
    def test_interval_matches_enumeration(self, a, const, coeff, x, sense,
                                          lo, width):
        hi = lo + width - 1
        condition = _normalized_condition(sense, a, const, [("x", coeff)])
        span = _live_span((condition,), {"x": x}, lo, hi)
        live = [v for v in range(lo, hi + 1)
                if _holds(a * v + const + coeff * x, sense)]
        assert span == ((live[0], live[-1]) if live else None)

    @given(chains=st.lists(st.one_of(
               st.none(),
               st.lists(st.lists(st.tuples(_SENSES, st.integers(-3, 3),
                                           st.integers(-12, 12)),
                                 min_size=1, max_size=3),
                        max_size=3)),
               min_size=1, max_size=5),
           lo=st.integers(-6, 6), width=st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_segments_match_per_value_liveness(self, chains, lo, width):
        """An entry is live where any of its paths holds: none for an
        entry without paths, every value for an unconditional one."""
        hi = lo + width - 1
        entries = [(None if paths is None else
                    tuple(tuple(_normalized_condition(sense, a, c, [])
                                for sense, a, c in path) for path in paths),
                    index)
                   for index, paths in enumerate(chains)]
        segments, pruned = _segments(entries, {}, lo, hi)
        walked = {}
        previous = lo - 1
        for start, stop, live in segments:
            assert previous < start < stop <= hi + 1
            previous = stop - 1
            for value in range(start, stop):
                walked[value] = list(live)
        expected_pruned = 0
        for value in range(lo, hi + 1):
            live = [index for index, paths in enumerate(chains)
                    if paths is None
                    or any(all(_holds(a * value + c, sense)
                               for sense, a, c in path) for path in paths)]
            assert walked.get(value, []) == live
            expected_pruned += len(chains) - len(live)
        assert pruned == expected_pruned

    @staticmethod
    def _replace_body(mapped, build):
        """A copy of ``mapped`` whose innermost mapped loop body is
        ``build(call, thread var)`` (``call`` is the original statement
        call)."""
        mutant = copy.deepcopy(mapped)
        thread_var = mutant.block[0].loop_var
        for node in walk(mutant.ast):
            if isinstance(node, Loop) and node.var == thread_var:
                call = next(n for n in walk(node.body)
                            if isinstance(n, StatementCall))
                node.body = Seq([build(call, thread_var)])
                return mutant
        raise AssertionError("no thread-mapped loop found")

    @staticmethod
    def _call(call, i, j, width=1):
        return StatementCall(call.statement, {"i": i, "j": j},
                             vector_width=width)

    @staticmethod
    def _guard(conditions, body):
        """``if (conditions) body`` from ``(coeffs, const, sense)``s."""
        return Guard([Constraint(LinExpr(coeffs, const), sense)
                      for coeffs, const, sense in conditions], Seq([body]))

    def _guarded_loop(self, chains):
        """A builder for :meth:`_replace_body`: ``for u in [0, 11]`` over
        one statement call per guard chain (outermost guard first)."""
        def build(call, thread_var):
            children = []
            for chain in chains:
                node = self._call(call, LinExpr({"u": 1}),
                                  LinExpr({thread_var: 1}))
                for conditions in reversed(chain):
                    node = self._guard(conditions, node)
                children.append(node)
            return Loop("u", [LinExpr(const=0)], [LinExpr(const=11)],
                        Seq(children))
        return build

    # Caches a few warps deep: any change in the order of memory
    # operations changes hits and misses.
    TINY_CACHES = dataclasses.replace(V100, l1_bytes=512, l2_bytes=2048)

    def _assert_parity(self, mutant, arch=TINY_CACHES):
        obs = Obs(metrics=MetricsRegistry())
        with use_obs(obs):
            fast = simulate_kernel(mutant, sample_blocks=3, arch=arch)
        reference = simulate_reference(copy.deepcopy(mutant),
                                       sample_blocks=3, arch=arch)
        assert fast.counters() == reference.counters()
        assert fast.warp_mem_instructions > 0
        assert "sim.fastpath.fallback" not in obs.metrics.counters
        return obs.metrics.counters

    def test_rational_guard_coefficient(self):
        mapped = compile_mapped(copy_kernel(64, 64), max_threads=64)
        mutant = self._replace_body(mapped, self._guarded_loop([
            # Rational only: evaluated as a guard on every value.
            [[({"u": Fraction(1, 2)}, -2, "<=")]],
            # Rational and exact in one chain: pruned to u in [3, 8].
            [[({"u": 1}, -3, ">=")],
             [({"u": Fraction(1, 3)}, Fraction(-5, 3), "<="),
              ({"u": -1}, 8, ">=")]],
        ]))
        counters = self._assert_parity(mutant)
        assert counters["sim.fastpath.pruned_iterations"] > 0

    def test_thread_dependent_guard(self):
        mapped = compile_mapped(copy_kernel(64, 64), max_threads=64)
        t = mapped.block[0].loop_var
        mutant = self._replace_body(mapped, self._guarded_loop([
            # Lane-variant only: masks lanes per value.
            [[({"u": 4, t: -1}, 0, ">=")]],
            # Exact outer guard (u == 5 and a block-variable test),
            # lane-variant inner guard.
            [[({"u": 1}, -5, "=="), ({"t0": 1}, -1, ">=")],
             [({t: 1, "u": -2}, 0, "<=")]],
            # `==` with a coefficient that does not divide: never.
            [[({"u": 2}, -3, "==")]],
        ]))
        counters = self._assert_parity(mutant)
        assert counters["sim.fastpath.pruned_iterations"] > 0

    def test_forvec_mixes_vector_statement_and_guards(self):
        mapped = compile_mapped(copy_kernel(64, 64), influenced=True,
                                max_threads=64)
        guard = self._guard

        def build(call, thread_var):
            j = LinExpr({thread_var: 4, "v": 1})

            def row(k):
                # Each (child, lane value) entry reads its own rows.
                return LinExpr({"u": 1, "v": 2}, 10 * k)
            forvec = Loop("v", [LinExpr(const=0)], [LinExpr(const=3)],
                          Seq([
                              self._call(call, LinExpr({"u": 1}), j,
                                         width=4),
                              guard([({"u": 1, "v": 1}, -5, "==")],
                                    self._call(call, row(1), j)),
                              guard([({"u": 2, "v": -1}, -3, ">=")],
                                    guard([({"t0": 1}, -1, ">=")],
                                          self._call(call, row(2), j))),
                              guard([({"v": 1, thread_var: 1}, -9, "<=")],
                                    self._call(call, row(3), j)),
                          ]),
                          vector=True, vector_width=4)
            tail = guard([({"u": -1}, 4, ">=")],
                         self._call(call, LinExpr({"u": 1}),
                                    LinExpr({thread_var: 4})))
            return Loop("u", [LinExpr(const=0)], [LinExpr(const=9)],
                        Seq([forvec, tail]))

        counters = self._assert_parity(self._replace_body(mapped, build))
        assert counters["sim.fastpath.pruned_iterations"] > 0

    # Repeated-issue collapse and batched statement loops.  A row-per-lane
    # loop (lane t reads A[t][u] and writes B[t][u]) keeps each lane in
    # one sector for 8 iterations: one issue touches 32 + 32 sectors per
    # full warp, which an L1 of 128 sectors holds and TINY_CACHES' 16 do
    # not.
    ROOMY_L1 = dataclasses.replace(TINY_CACHES, l1_bytes=4096)

    def _row_loop(self, chains=((),), strides=(1,), last=11):
        """A builder for :meth:`_replace_body`: ``for u in [0, last]``
        over one row-per-lane call per guard chain, column ``stride * u``
        (a negative stride reads the row backwards from column 11)."""
        def build(call, thread_var):
            children = []
            for chain, stride in zip(chains, strides):
                column = (LinExpr({"u": stride}) if stride > 0
                          else LinExpr({"u": stride}, 11))
                node = self._call(call, LinExpr({thread_var: 1}), column)
                for conditions in reversed(chain):
                    node = self._guard(conditions, node)
                children.append(node)
            return Loop("u", [LinExpr(const=0)], [LinExpr(const=last)],
                        Seq(children))
        return build

    def _row_mutant(self, build):
        mapped = compile_mapped(copy_kernel(64, 64), max_threads=64)
        return self._replace_body(mapped, build)

    def test_row_per_lane_repeats_collapse(self):
        counters = self._assert_parity(self._row_mutant(self._row_loop()),
                                       arch=self.ROOMY_L1)
        assert counters["sim.fastpath.collapsed_issues"] > 0

    def test_issue_larger_than_l1_replays(self):
        counters = self._assert_parity(self._row_mutant(self._row_loop()))
        assert "sim.fastpath.collapsed_issues" not in counters

    # One call is live on u <= 5 and reads backwards; the other is live
    # on u >= 6 and steps 12 bytes per iteration, a residue period of 8
    # iterations.  Its batched segment [6, 22) starts at the cut, off the
    # sector boundary, and spans two periods.
    CUT_CHAINS = ([[({"u": 1}, -6, ">=")]], [[({"u": -1}, 5, ">=")]])

    def test_batched_run_after_segment_cut(self):
        counters = self._assert_parity(self._row_mutant(self._row_loop(
            chains=self.CUT_CHAINS, strides=(3, -1), last=21)),
            arch=self.ROOMY_L1)
        assert counters["sim.fastpath.pruned_iterations"] > 0
        assert counters["sim.fastpath.collapsed_issues"] > 0

    def test_masked_partial_warp_collapses(self):
        # Four active lanes issue 4 + 4 sectors, within TINY_CACHES' L1.
        def build(call, thread_var):
            loop = self._row_loop()(call, thread_var)
            return self._guard([({thread_var: -1}, 3, ">=")], loop)
        counters = self._assert_parity(self._row_mutant(build))
        assert counters["sim.fastpath.collapsed_issues"] > 0

    def test_batched_lookups_count_as_memo_hits(self):
        """Each warp memory instruction is one signature lookup, a memo
        hit or a pattern build, also where a statement loop reuses the
        patterns of its first period."""
        mutant = self._row_mutant(self._row_loop(
            chains=self.CUT_CHAINS, strides=(3, -1), last=21))
        # Every block sampled, so no warmup block resets the counters.
        _, sim = _execute_kernel(mutant, self.ROOMY_L1, mutant.n_blocks,
                                 _FastSimulator)
        assert sim.collapsed_issues > 0
        assert sim.memo_hits + len(sim._patterns) == sim.mem_instrs

    # Lifted liveness: a child loop is skipped wherever no statement
    # beneath it can run.
    @staticmethod
    def _loop(var, upper, body):
        upper = (LinExpr(const=upper) if isinstance(upper, int)
                 else upper)
        return Loop(var, [LinExpr(const=0)], [upper], Seq([body]))

    def test_statement_two_loops_below_outer_guard(self):
        """``for u: for w: for x: if (u == 5) S``: the outer loop walks
        its child loop at u = 5 only."""
        def build(call, thread_var):
            inner = self._guard([({"u": 1}, -5, "==")],
                                self._call(call, LinExpr({thread_var: 1}),
                                           LinExpr({"w": 4, "x": 1})))
            return self._loop("u", 11,
                              self._loop("w", 3, self._loop("x", 2, inner)))
        mutant = self._row_mutant(build)
        loops = {node.var: node for node in walk(mutant.ast)
                 if isinstance(node, Loop)}
        with _Spy() as spy:
            counters = self._assert_parity(mutant, arch=self.ROOMY_L1)
        entered = spy.entries[id(loops["u"])]
        assert entered > 0
        assert spy.entries[id(loops["w"])] == entered
        assert spy.entries[id(loops["x"])] == 4 * entered
        assert spy.lifted_skips == 11 * entered
        assert counters["sim.fastpath.pruned_iterations"] == 11 * entered

    def test_subtree_without_statement_is_skipped(self):
        def build(call, thread_var):
            empty = self._loop("w", 3, self._guard([({"u": 1}, -2, "==")],
                                                   Seq([])))
            row = self._call(call, LinExpr({thread_var: 1}),
                             LinExpr({"u": 1}))
            return Loop("u", [LinExpr(const=0)], [LinExpr(const=11)],
                        Seq([empty, row]))
        mutant = self._row_mutant(build)
        empty = next(node for node in walk(mutant.ast)
                     if isinstance(node, Loop) and node.var == "w")
        with _Spy() as spy:
            counters = self._assert_parity(mutant)
        assert spy.entries[id(empty)] == 0
        assert spy.lifted_skips > 0
        assert counters["sim.fastpath.pruned_iterations"] > 0

    def test_sequential_loop_around_mapped_loop_is_not_lifted(self):
        """A mapped loop shifts its variable on every run, so it runs on
        every value of the loop around it, even where the guard beneath it
        is false: here the call at u = 3 sees the shift of four runs."""
        def build(call, thread_var):
            mapped = Loop(thread_var, [LinExpr(const=1)],
                          [LinExpr(const=63)],
                          Seq([self._guard([({"u": 1}, -3, "==")],
                                           self._call(
                                               call,
                                               LinExpr({thread_var: 1}),
                                               LinExpr({"u": 1})))]),
                          mapping="threadIdx.x")
            return Loop("u", [LinExpr(const=0)], [LinExpr(const=5)],
                        Seq([mapped]))
        mutant = self._row_mutant(build)
        outer, mapped = [node for node in walk(mutant.ast)
                         if isinstance(node, Loop)
                         and node.var in ("u", mutant.block[0].loop_var)
                         and (node.var == "u" or node.lowers[0].const == 1)]
        with _Spy() as spy:
            counters = self._assert_parity(mutant)
        assert spy.entries[id(mapped)] == 6 * spy.entries[id(outer)] > 0
        assert spy.lifted_skips == 0
        assert "sim.fastpath.pruned_iterations" not in counters

    def test_two_calls_with_different_periods_collapse(self):
        """Row-per-lane calls at columns 2u (8 bytes a step, period 4) and
        u (4 bytes, period 8) issue in one pass over two and a half joint
        periods of 8; while both sit in one sector the second call
        repeats the first's operations and collapses."""
        mutant = self._row_mutant(self._row_loop(chains=((), ()),
                                                 strides=(2, 1), last=19))
        with _Spy() as spy:
            counters = self._assert_parity(mutant, arch=self.ROOMY_L1)
        assert (2, 20) in spy.multi_call()
        assert counters["sim.fastpath.collapsed_issues"] > 0

    _GUARD = st.lists(st.tuples(_SENSES, st.integers(-2, 2),
                                st.integers(-1, 1), st.integers(-1, 1),
                                st.integers(-8, 8)),
                      min_size=1, max_size=2)
    # Outermost first: a nested loop (upper bound 0..2, or u - 6) or a
    # guard.
    _LAYER = st.one_of(st.tuples(st.just("loop"), st.integers(-1, 2)),
                       st.tuples(st.just("guard"), _GUARD))

    @given(children=st.lists(st.lists(_LAYER, max_size=3),
                             min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    @example(children=[[("loop", 2), ("loop", 1),
                        ("guard", [("==", 1, 0, 0, -5)])]])
    @example(children=[[("guard", [(">=", 1, 0, 0, -4)]), ("loop", -1),
                        ("guard", [("<=", -1, 1, 0, 2)])],
                       [("loop", 1), ("guard", [("<=", 1, 0, 1, -9)])]])
    def test_guards_under_nested_loops(self, children):
        """Random nests under ``for u in [0, 11]``: guards over u, the
        innermost enclosing nested loop's variable, the block variable and
        the thread variable, above and below nested loops."""
        def build(call, thread_var):
            nodes = []
            for index, layers in enumerate(children):
                names = [f"w{index}{depth}" for depth in range(len(layers))]
                column = LinExpr({"u": 1})
                for name, (kind, _) in zip(names, layers):
                    if kind == "loop":
                        column = column + LinExpr({name: 3})
                node = self._call(call, LinExpr({thread_var: 1}), column)
                for depth in reversed(range(len(layers))):
                    kind, arg = layers[depth]
                    enclosing = [name for name, (k, _) in
                                 zip(names[:depth], layers[:depth])
                                 if k == "loop"]
                    if kind == "loop":
                        upper = (LinExpr({"u": 1}, -6) if arg < 0
                                 else LinExpr(const=arg))
                        node = Loop(names[depth], [LinExpr(const=0)],
                                    [upper], Seq([node]))
                    else:
                        var = enclosing[-1] if enclosing else "t0"
                        node = self._guard(
                            [({"u": a, var: b, thread_var: t}, c, sense)
                             for sense, a, b, t, c in arg], node)
                nodes.append(node)
            return Loop("u", [LinExpr(const=0)], [LinExpr(const=11)],
                        Seq(nodes))
        mutant = self._row_mutant(build)
        obs = Obs(metrics=MetricsRegistry())
        with use_obs(obs):
            fast = simulate_kernel(mutant, sample_blocks=3,
                                   arch=self.TINY_CACHES)
        reference = simulate_reference(copy.deepcopy(mutant),
                                       sample_blocks=3,
                                       arch=self.TINY_CACHES)
        assert fast.counters() == reference.counters()
        assert "sim.fastpath.fallback" not in obs.metrics.counters


def _infl_launch(kernel):
    """The one launch of ``kernel``'s influenced (``infl``) variant."""
    launches = AkgPipeline(sample_blocks=2).compile(kernel, "infl").launches
    assert len(launches) == 1
    return launches[0]


class TestFusedSingleThread:
    """Forced-fusion launches with one thread per block, whose union loops
    the lifted plans and the multi-call segments target: fast ==
    reference counter for counter, and each mechanism fired."""

    def test_depthwise_conv_lifts_liveness(self):
        launch = _infl_launch(operators.depthwise_conv_op("fp_dwl", 8, 2,
                                                          2, 2))
        assert launch.n_threads_per_block == 1
        with _Spy() as spy:
            _parity(launch, sample_blocks=2)
        assert spy.lifted_skips > 0

    def test_heat_2d_issues_calls_together(self):
        launch = _infl_launch(operators.stencil2d_op("fp_heat1", 16, "heat"))
        assert launch.n_threads_per_block == 1
        with _Spy() as spy:
            _parity(launch, sample_blocks=2)
        assert spy.multi_call(3)

    def test_transpose_flattened_forvec_issues_lanes_together(self):
        """The ``forvec`` of the fused transpose holds guards, so it is
        flattened into one entry per (guard, lane); a segment issues the
        four lanes of one statement in one pass."""
        launch = _infl_launch(operators.transpose2d_op("fp_trf", 24, 16))
        assert launch.n_threads_per_block == 1
        assert any(isinstance(node, Loop) and node.vector
                   for node in walk(launch.ast))
        with _Spy() as spy:
            _parity(launch, sample_blocks=2)
        assert spy.multi_call(4)


def _lane_variant_mutant():
    """A mapped kernel whose block-mapped loop lower bound carries a
    thread-variable coefficient — lane-variant, outside the fast model."""
    mapped = compile_mapped(copy_kernel(64, 64), max_threads=64)
    mutant = copy.deepcopy(mapped)
    thread_var = mutant.block[0].loop_var
    from repro.codegen.ast import Loop, walk
    for node in walk(mutant.ast):
        if isinstance(node, Loop) and node.mapping \
                and node.mapping.startswith("blockIdx"):
            node.lowers = [LinExpr({thread_var: 1})]
            return mutant
    raise AssertionError("no block-mapped loop found")


class TestFallback:
    def test_lane_variant_mapped_lower_falls_back(self):
        mutant = _lane_variant_mutant()
        obs = Obs(metrics=MetricsRegistry())
        with use_obs(obs):
            fast = simulate_kernel(mutant, sample_blocks=4)
        reference = simulate_reference(copy.deepcopy(mutant),
                                       sample_blocks=4)
        assert fast.counters() == reference.counters()
        assert obs.metrics.counters["sim.fastpath.fallback"] == 1
        # A fallen-back launch reports no fast-path work.
        assert "sim.fastpath.memo_hits" not in obs.metrics.counters

    def test_supported_launch_reports_fastpath_counters(self):
        mapped = compile_mapped(operators.transpose2d_op("fp_ctr", 96, 96))
        obs = Obs(metrics=MetricsRegistry())
        with use_obs(obs):
            simulate_kernel(mapped, sample_blocks=4)
        counters = obs.metrics.counters
        assert counters.get("sim.fastpath.memo_hits", 0) > 0
        assert counters.get("sim.fastpath.analytic", 0) > 0
        assert "sim.fastpath.fallback" not in counters

    def test_reference_backend_reports_none(self):
        """The oracle records no metrics, fast-path ones least of all."""
        mapped = compile_mapped(copy_kernel(32, 32))
        obs = Obs(metrics=MetricsRegistry())
        with use_obs(obs):
            simulate_reference(mapped, sample_blocks=2)
        assert not any(name.startswith("sim.fastpath.")
                       for name in obs.metrics.counters)


class TestProfileCache:
    """The process-wide, content-keyed profile memo."""

    @staticmethod
    def _interpreter_runs(monkeypatch) -> list:
        """The interpreter class of every launch actually simulated from
        now on (a memo hit runs none)."""
        runs = []
        execute = simulator._execute_kernel

        def spy(mapped, arch, sample_blocks, sim_cls):
            runs.append(sim_cls)
            return execute(mapped, arch, sample_blocks, sim_cls)

        monkeypatch.setattr(simulator, "_execute_kernel", spy)
        return runs

    def test_renamed_identical_kernel_hits(self):
        first = compile_mapped(copy_kernel(64, 64))
        second = compile_mapped(copy_kernel(64, 64))
        second.kernel.name = "copy_renamed"
        a = simulate_kernel(first, sample_blocks=2)
        b = simulate_kernel(second, sample_blocks=2)
        assert PROFILE_MEMO.stats() == {"entries": 1, "hits": 1,
                                        "misses": 1, "evictions": 0}
        # The replayed profile carries the requester's name, same counters.
        assert b.name == "copy_renamed"
        assert a.name == first.kernel.name
        assert a.counters() == b.counters()

    def test_alpha_renamed_launches_share_an_entry(self):
        """Launches that differ only in loop-variable names share one
        entry, and that entry is what simulating the renamed launch
        gives."""
        first = compile_mapped(operators.transpose2d_op("fp_alpha", 96, 64))
        renamed = copy.deepcopy(first)
        loops = [node for node in walk(renamed.ast)
                 if isinstance(node, Loop)]
        names = {loop.var: f"{loop.var}_r" for loop in loops}
        assert len(names) >= 2
        for old, new in names.items():
            substitute_var(renamed.ast, old, LinExpr({new: 1}))
        for loop in loops:
            loop.var = names[loop.var]
        for dim in renamed.grid + renamed.block:
            dim.loop_var = names[dim.loop_var]
        assert renamed.emit_cuda() != first.emit_cuda()
        a = simulate_kernel(first, sample_blocks=2)
        b = simulate_kernel(renamed, sample_blocks=2)
        assert PROFILE_MEMO.stats() == {"entries": 1, "hits": 1,
                                        "misses": 1, "evictions": 0}
        fresh, fresh_fastpath = simulator._simulate(renamed, V100, 2)
        (entry,) = PROFILE_MEMO._entries.values()
        assert entry[0].counters() == fresh.counters() == b.counters()
        assert entry[0].time == fresh.time == a.time
        assert entry[1] == fresh_fastpath

    def test_different_content_misses(self):
        simulate_kernel(compile_mapped(copy_kernel(64, 64)), sample_blocks=2)
        simulate_kernel(compile_mapped(copy_kernel(64, 96)), sample_blocks=2)
        # Same content, different sampling width: a distinct key.
        simulate_kernel(compile_mapped(copy_kernel(64, 64)), sample_blocks=4)
        assert PROFILE_MEMO.hits == 0 and PROFILE_MEMO.misses == 3

    def test_metrics_stream(self):
        obs = Obs(metrics=MetricsRegistry())
        mapped = compile_mapped(copy_kernel(64, 64))
        with use_obs(obs):
            simulate_kernel(mapped, sample_blocks=2)
            simulate_kernel(mapped, sample_blocks=2)
        assert obs.metrics.counters["sim.profile_cache.misses"] == 1
        assert obs.metrics.counters["sim.profile_cache.hits"] == 1

    def test_hits_across_operators(self, monkeypatch):
        """A launch simulated for one operator is not simulated again for
        a later, content-identical operator: the replay carries the later
        operator's launch names and the same counters."""
        pipeline = AkgPipeline(sample_blocks=2, max_threads=64)
        first = pipeline.compile_and_measure(
            operators.transpose2d_op("fp_first", 63, 33), "infl")
        runs = self._interpreter_runs(monkeypatch)
        second = pipeline.compile_and_measure(
            operators.transpose2d_op("fp_second", 63, 33), "infl")
        assert runs == []
        assert [p.name for p in second.profiles] \
            == [launch.kernel.name for launch in second.compiled.launches]
        assert all("fp_second" in p.name for p in second.profiles)
        assert [p.counters() for p in first.profiles] \
            == [p.counters() for p in second.profiles]

    def test_hits_across_variants(self):
        """With odd extents vectorization cannot fire, the `novec` and
        `infl` variants lower to the same mapped kernel, and the second
        one replays."""
        pipeline = AkgPipeline(sample_blocks=2, max_threads=64)
        kernel = operators.transpose2d_op("fp_scope", 63, 33)
        a = pipeline.compile_and_measure(kernel, "novec")
        b = pipeline.compile_and_measure(kernel, "infl")
        assert PROFILE_MEMO.stats() == {"entries": 1, "hits": 1,
                                        "misses": 1, "evictions": 0}
        assert [p.counters() for p in a.profiles] \
            == [p.counters() for p in b.profiles]

    @pytest.mark.parametrize("launch", ["supported", "fallback"])
    def test_hit_counts_the_skipped_fastpath_work(self, launch):
        """A hit counts the ``sim.fastpath.*`` counters of the simulation
        it skipped, ``fallback`` included."""
        if launch == "supported":
            mapped = compile_mapped(operators.transpose2d_op("fp_re", 96, 96))
        else:
            mapped = _lane_variant_mutant()

        def fastpath_counters():
            obs = Obs(metrics=MetricsRegistry())
            with use_obs(obs):
                simulate_kernel(mapped, sample_blocks=4)
            return obs.metrics.counters

        missed, hit = fastpath_counters(), fastpath_counters()
        assert "sim.profile_cache.hits" not in missed
        assert hit["sim.profile_cache.hits"] == 1

        def fastpath(counters):
            return {name: value for name, value in counters.items()
                    if name.startswith("sim.fastpath.")}

        assert fastpath(hit) == fastpath(missed)
        key = ("sim.fastpath.memo_hits" if launch == "supported"
               else "sim.fastpath.fallback")
        assert fastpath(hit)[key] > 0

    def test_lru_bound(self, monkeypatch):
        assert simulator.PROFILE_MEMO is PROFILE_MEMO
        assert PROFILE_MEMO.max_entries == 4096
        memo = Memo(PROFILE_MEMO.name, 2)
        monkeypatch.setattr(simulator, "PROFILE_MEMO", memo)
        launches = [compile_mapped(copy_kernel(32, cols))
                    for cols in (32, 48, 64)]
        obs = Obs(metrics=MetricsRegistry())
        with use_obs(obs):
            for mapped in launches:
                simulate_kernel(mapped, sample_blocks=2)
            runs = self._interpreter_runs(monkeypatch)
            simulate_kernel(launches[0], sample_blocks=2)   # evicted
        assert len(memo) == 2
        assert runs == [fastpath._FastSimulator]
        assert memo.evictions == 2
        assert obs.metrics.counters["sim.profile_cache.evictions"] == 2

    def test_fastpath_counters_do_not_depend_on_history(self):
        """An operator's ``sim.fastpath.*`` counters are the same cold as
        after an operator that shares its launches."""
        def fastpath_counters(name):
            pipeline = AkgPipeline(sample_blocks=2, max_threads=64)
            evaluate_operator(pipeline, name, "transpose2d",
                              operators.transpose2d_op(name, 63, 33))
            counters = pipeline.context.counters
            return ({k: v for k, v in counters.items()
                     if k.startswith("sim.fastpath.")},
                    counters.get("sim.profile_cache.hits", 0))

        cold, _ = fastpath_counters("fp_cold")
        PROFILE_MEMO.clear()
        fastpath_counters("fp_earlier")
        warm, warm_hits = fastpath_counters("fp_later")
        assert cold and warm == cold
        assert warm_hits > 0

    def test_reference_arm_simulates_every_launch(self, monkeypatch):
        """Under the control arm, a launch production already simulated
        runs on the reference interpreter, and the arm's profiles do not
        outlive it."""
        mapped = compile_mapped(copy_kernel(64, 64))
        production = simulate_kernel(mapped, sample_blocks=2)
        runs = self._interpreter_runs(monkeypatch)
        with pytest.MonkeyPatch.context() as arm:
            control_arms.reference_simulator(arm)
            other = compile_mapped(copy_kernel(64, 96))
            under_arm = simulate_kernel(mapped, sample_blocks=2)
            simulate_kernel(other, sample_blocks=2)
        assert runs == [simulator._Simulator, simulator._Simulator]
        assert under_arm.counters() == production.counters()
        assert PROFILE_MEMO.stats() == {"entries": 1, "hits": 0,
                                        "misses": 1, "evictions": 0}
        simulate_kernel(other, sample_blocks=2)
        assert runs[2:] == [fastpath._FastSimulator]
