"""The fast simulator: bitwise parity, fallback, and the content-keyed
profile cache.

Parity is the whole contract: ``simulate_kernel`` must produce a
:class:`KernelProfile` whose counters are *bitwise identical* to those of
:func:`simulate_reference` (the lane-by-lane interpreter) on every launch — including the order-sensitive
cache-hierarchy counters (``dram_writes`` depends on raw-``set``
iteration order inside :func:`repro.gpu.memory.warp_access`).
"""

import copy
import dataclasses
import os
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.codegen.ast import Guard, Loop, Seq, StatementCall, walk
from repro.gpu.profile_cache import (
    ProfileCache,
    get_profile_cache,
    use_profile_cache,
)
from repro.gpu.arch import V100
from repro.gpu.fastpath import (
    _FastSimulator,
    _live_span,
    _normalized_condition,
    _segments,
)
from repro.gpu.simulator import (
    _execute_kernel,
    simulate_kernel,
    simulate_reference,
)
from repro.ir.kparser import parse_kernel
from repro.obs import MetricsRegistry, Obs, use_obs
from repro.pipeline.akg import VARIANTS, AkgPipeline
from repro.solver.problem import Constraint, LinExpr
from repro.workloads import operators
from repro.workloads.generator import generate_network_suite

from tests.test_gpu_simulator import compile_mapped, copy_kernel

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


def _parity(mapped, sample_blocks=4, arch=None):
    """Assert fast == reference counters; return the fast profile."""
    kwargs = {"sample_blocks": sample_blocks}
    if arch is not None:
        kwargs["arch"] = arch
    fast = simulate_kernel(mapped, **kwargs)
    reference = simulate_reference(mapped, **kwargs)
    assert fast.counters() == reference.counters()
    return fast


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

    def test_repeated_simulation_stays_identical(self):
        """Warm per-kernel signature caches must not drift the counters."""
        mapped = compile_mapped(operators.transpose2d_op("fp_rep", 64, 64))
        first = simulate_kernel(mapped, sample_blocks=4)
        for _ in range(3):
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
               st.lists(st.tuples(_SENSES, st.integers(-3, 3),
                                  st.integers(-12, 12)),
                        min_size=1, max_size=3)),
               min_size=1, max_size=5),
           lo=st.integers(-6, 6), width=st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_segments_match_per_value_liveness(self, chains, lo, width):
        hi = lo + width - 1
        entries = [(None if chain is None else
                    tuple(_normalized_condition(sense, a, c, [])
                          for sense, a, c in chain), index)
                   for index, chain in enumerate(chains)]
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
            live = [index for index, chain in enumerate(chains)
                    if chain is None or all(_holds(a * value + c, sense)
                                            for sense, a, c in chain)]
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
    def test_renamed_identical_kernel_hits(self):
        first = compile_mapped(copy_kernel(64, 64))
        second = compile_mapped(copy_kernel(64, 64))
        second.kernel.name = "copy_renamed"
        cache = ProfileCache()
        with use_profile_cache(cache):
            a = simulate_kernel(first, sample_blocks=2)
            b = simulate_kernel(second, sample_blocks=2)
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}
        # The replayed profile carries the requester's name, same counters.
        assert b.name == "copy_renamed"
        assert a.name == first.kernel.name
        assert {k: v for k, v in a.counters().items()} == b.counters()

    def test_different_content_misses(self):
        cache = ProfileCache()
        with use_profile_cache(cache):
            simulate_kernel(compile_mapped(copy_kernel(64, 64)),
                            sample_blocks=2)
            simulate_kernel(compile_mapped(copy_kernel(64, 96)),
                            sample_blocks=2)
            # Same content, different sampling width: a distinct key.
            simulate_kernel(compile_mapped(copy_kernel(64, 64)),
                            sample_blocks=4)
        assert cache.hits == 0 and cache.misses == 3

    def test_scope_is_explicit(self):
        assert get_profile_cache() is None
        with use_profile_cache(ProfileCache()) as cache:
            assert get_profile_cache() is cache
        assert get_profile_cache() is None

    def test_metrics_stream(self):
        obs = Obs(metrics=MetricsRegistry())
        mapped = compile_mapped(copy_kernel(64, 64))
        with use_obs(obs), use_profile_cache(ProfileCache()):
            simulate_kernel(mapped, sample_blocks=2)
            simulate_kernel(mapped, sample_blocks=2)
        assert obs.metrics.counters["sim.profile_cache.misses"] == 1
        assert obs.metrics.counters["sim.profile_cache.hits"] == 1

    def test_no_metrics_without_cache(self):
        obs = Obs(metrics=MetricsRegistry())
        with use_obs(obs):
            simulate_kernel(compile_mapped(copy_kernel(32, 32)),
                            sample_blocks=2)
        assert not any(name.startswith("sim.profile_cache.")
                       for name in obs.metrics.counters)

    def test_compile_and_measure_installs_per_call_scope(self):
        """Without an ambient cache the pipeline installs one per call —
        and it must not outlive the call (cross-call hits would make
        serial and parallel evaluation metrics diverge)."""
        pipeline = AkgPipeline(sample_blocks=2, max_threads=64)
        kernel = operators.transpose2d_op("fp_cm", 63, 33)
        pipeline.compile_and_measure(kernel, "isl")
        counters = pipeline.context.counters
        assert counters.get("sim.profile_cache.misses", 0) > 0
        pipeline.compile_and_measure(kernel, "isl")
        assert pipeline.context.counters.get("sim.profile_cache.hits", 0) == 0

    def test_operator_scope_hits_across_variants(self):
        """The evaluation runner's per-operator scope: with odd extents
        vectorization cannot fire, the `novec` and `infl` variants lower
        to the same mapped kernel, and the second one replays."""
        pipeline = AkgPipeline(sample_blocks=2, max_threads=64)
        kernel = operators.transpose2d_op("fp_scope", 63, 33)
        with use_profile_cache(ProfileCache()) as cache:
            a = pipeline.compile_and_measure(kernel, "novec")
            b = pipeline.compile_and_measure(kernel, "infl")
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}
        assert [p.counters() for p in a.profiles] \
            == [p.counters() for p in b.profiles]

    def test_lru_bound(self):
        cache = ProfileCache(max_entries=2)
        for index in range(3):
            cache.store(("key", index), index)
        assert len(cache) == 2
        assert cache.lookup(("key", 0)) is not None  # evicted -> miss
        assert cache.misses == 1
