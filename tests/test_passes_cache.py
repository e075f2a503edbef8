"""Tests for the compilation session's stage chain and the content cache.

The regression class guards the session against the plain inline stage
chain: it must produce exactly the compiled signatures (and modelled
times) of ``legacy_compile`` for all four variants on a fixed-seed suite.
"""

import math

import pytest

from repro.codegen.cuda import map_to_gpu
from repro.codegen.generate import generate_ast
from repro.codegen.vectorize import vectorize
from repro.deps.analysis import compute_dependences
from repro.influence.builder import build_influence_tree
from repro.influence.scenarios import CostWeights
from repro.ir.kernel import Kernel
from repro.pipeline import (
    AkgPipeline,
    CompilationSession,
    ScheduleCache,
    VARIANTS,
    kernel_signature,
)
from repro.pipeline.akg import CompiledOperator, _adjacent_clusters, _sub_kernel
from repro.pipeline.passes import (
    PassContext,
    format_pass_summary,
    merge_metric_dicts,
)
from repro.eval.runner import OperatorResult
from repro.schedule.scheduler import InfluencedScheduler, SchedulerOptions
from repro.workloads import generate_network_suite, operators


def legacy_compile(kernel, variant, weights=CostWeights(), max_threads=256):
    """The pre-refactor inline compilation chain (no caching, no passes)."""
    options = SchedulerOptions()

    def stages(sub, influence, enable_vec):
        relations = compute_dependences(sub)
        scheduler = InfluencedScheduler(sub, relations=relations,
                                        options=options)
        tree = build_influence_tree(sub, weights=weights) if influence else None
        schedule = scheduler.schedule(tree)
        ast = generate_ast(sub, schedule)
        ast = vectorize(ast, sub, schedule, relations, enable=enable_vec)
        return map_to_gpu(sub, ast, schedule, max_threads=max_threads)

    if variant == "isl":
        clusters, influence, enable_vec = _adjacent_clusters(kernel), False, False
    elif variant == "tvm":
        clusters = [[s] for s in kernel.statements]
        influence, enable_vec = True, False
    else:
        launch = stages(kernel, True, variant == "infl")
        return CompiledOperator(kernel=kernel, variant=variant,
                                launches=[launch])
    launches = [stages(_sub_kernel(kernel, cluster, f"_k{i}"), influence,
                       enable_vec)
                for i, cluster in enumerate(clusters)]
    return CompiledOperator(kernel=kernel, variant=variant, launches=launches)


class TestRegression:
    """Pass-manager output == legacy inline output (fixed seed)."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_signatures_match_legacy(self, variant):
        pipeline = AkgPipeline(sample_blocks=2)
        suite = generate_network_suite("LSTM", seed=0, limit=2)
        suite.append(("reduce_producer",
                      operators.reduce_producer_op("fixed_case", rows=64,
                                                   red=8)))
        for _, kernel in suite:
            ours = pipeline.compile(kernel, variant)
            legacy = legacy_compile(kernel, variant)
            assert ours.signature() == legacy.signature()
            assert ours.n_launches == legacy.n_launches
            assert pipeline.measure(ours).time == \
                pipeline.measure(legacy).time

    def test_cached_recompile_matches_legacy(self):
        """Cache-served schedules still produce the legacy signatures."""
        pipeline = AkgPipeline(sample_blocks=2)
        k1 = operators.layout_conversion_op("conv_one", 2, 16, 8, 8)
        k2 = operators.layout_conversion_op("conv_two", 2, 16, 8, 8)
        pipeline.compile(k1, "infl")
        hits_before = pipeline.cache.hits
        ours = pipeline.compile(k2, "infl")
        assert pipeline.cache.hits > hits_before
        assert ours.signature() == legacy_compile(k2, "infl").signature()


class TestPassManager:
    def test_context_records_all_passes(self):
        pipeline = AkgPipeline(sample_blocks=2)
        pipeline.compile(operators.reduce_producer_op("ctx_k", rows=64,
                                                      red=8), "infl")
        ctx = pipeline.context
        passes = ctx.as_dict()["passes"]
        for name in ("deps", "influence-tree", "schedule", "codegen",
                     "vectorize", "gpu-map"):
            histogram = ctx.obs.metrics.histograms[f"pass.{name}.seconds"]
            assert passes[name]["calls"] == histogram.count >= 1
            assert passes[name]["seconds"] == histogram.total >= 0.0
        assert ctx.counters["scheduler.ilp_solves"] > 0

    def test_session_runs_standalone(self):
        session = CompilationSession(cache=ScheduleCache())
        kernel = operators.elementwise_chain_op("standalone", rows=16,
                                                cols=8, length=1)
        result = session.run(kernel, influence=True, enable_vec=True,
                             variant="infl")
        assert result.mapped is not None
        assert result.schedule.is_complete()
        assert result.scheduler_stats.dimensions_built > 0

    def test_trace_events(self):
        pipeline = AkgPipeline(sample_blocks=2, trace=True)
        kernel = operators.elementwise_chain_op("traced", rows=16, cols=8,
                                                length=1)
        pipeline.compile(kernel, "novec")
        pipeline.compile(kernel, "infl")  # reuses the novec schedule
        events = pipeline.context.chrome_trace()["traceEvents"]
        schedule = [e for e in events if e["name"] == "pass.schedule"]
        assert schedule
        assert all(e["ph"] == "X" and e["args"]["kernel"] == "traced"
                   for e in schedule)
        hits = [e for e in events if e["name"] == "cache-hit"]
        assert [e["ph"] for e in hits] == ["i"]
        assert hits[0]["args"] == {"kernel": "traced", "variant": "infl"}
        assert pipeline.context.counters["cache.hits"] == 1

    def test_metrics_merge_roundtrip(self):
        a = PassContext()
        with a.timed("schedule"):
            pass
        a.count("cache.hits", 2)
        b = PassContext()
        with b.timed("schedule"):
            pass
        b.count("cache.misses", 3)
        merged = merge_metric_dicts([a.as_dict(), b.as_dict()])
        assert merged["passes"]["schedule"]["calls"] == 2
        histogram = merged["histograms"]["pass.schedule.seconds"]
        assert merged["passes"] == {"schedule": {
            "calls": histogram["count"], "seconds": histogram["total"]}}
        assert merged["counters"] == {"cache.hits": 2, "cache.misses": 3}
        summary = format_pass_summary(merged)
        assert "schedule" in summary
        assert "2 hits / 3 misses" in summary

    def test_summary_reports_the_farkas_memo(self):
        context = PassContext()
        context.count("cache.farkas.hits", 5)
        context.count("cache.farkas.misses", 2)
        context.count("cache.farkas.evictions", 1)
        context.count("cache.deps.hits", 3)
        context.count("cache.deps.misses", 1)
        summary = format_pass_summary(merge_metric_dicts([context.as_dict()]))
        assert ("farkas memo: 5 hits / 2 misses / 1 evictions "
                "(71.4% hit rate)") in summary
        # The other memo lines keep their format.
        assert "dependence memo: 3 hits / 1 misses (75.0% hit rate)" in summary

    def test_summary_reports_the_ilp_memo(self):
        context = PassContext()
        context.count("cache.ilp.hits", 3)
        context.count("cache.ilp.misses", 1)
        summary = format_pass_summary(merge_metric_dicts([context.as_dict()]))
        assert ("ilp memo: 3 hits / 1 misses / 0 evictions "
                "(75.0% hit rate)") in summary

    def test_summary_reports_profile_memo_evictions(self):
        context = PassContext()
        context.count("sim.profile_cache.hits", 3)
        context.count("sim.profile_cache.misses", 1)
        summary = format_pass_summary(merge_metric_dicts([context.as_dict()]))
        # The memo is process-wide and bounded: evictions show, zero too.
        assert ("profile cache: 3 hits / 1 misses / 0 evictions "
                "(75.0% hit rate)") in summary


class TestStageChain:
    """The traced ``pass.*`` spans of one compile name its stages in the
    order they ran."""

    @staticmethod
    def stages(context):
        return [event["name"][len("pass."):]
                for event in context.chrome_trace()["traceEvents"]
                if event["name"].startswith("pass.")]

    @staticmethod
    def kernel(name):
        return operators.elementwise_chain_op(name, rows=256, cols=32,
                                              length=1)

    def test_isl_compile(self):
        pipeline = AkgPipeline(sample_blocks=2, trace=True)
        pipeline.compile(self.kernel("chain_isl"), "isl")
        assert self.stages(pipeline.context) == [
            "deps", "schedule", "codegen", "vectorize", "gpu-map"]

    def test_influenced_compile(self):
        pipeline = AkgPipeline(sample_blocks=2, trace=True)
        pipeline.compile(self.kernel("chain_infl"), "infl")
        assert self.stages(pipeline.context) == [
            "deps", "influence-tree", "schedule", "codegen", "vectorize",
            "gpu-map"]

    def test_tiled_compile(self):
        from repro.pipeline.autotune import compile_tiled
        session = CompilationSession(cache=ScheduleCache(), trace=True)
        compile_tiled(self.kernel("chain_tiled"), (16, 16), session=session)
        assert self.stages(session.context) == [
            "deps", "schedule", "codegen", "vectorize", "tile", "gpu-map"]

    def test_launch_cache_hit_runs_no_stage(self):
        pipeline = AkgPipeline(sample_blocks=2, trace=True)
        pipeline.compile(self.kernel("chain_first"), "infl")
        pipeline.session.context = PassContext(trace=True)
        pipeline.compile(self.kernel("chain_again"), "infl")
        events = pipeline.context.chrome_trace()["traceEvents"]
        assert [e["name"] for e in events] == ["compile", "cache-hit"]
        assert self.stages(pipeline.context) == []


class TestScheduleCache:
    def test_equal_kernels_hit(self):
        """Two structurally equal but distinct Kernel objects share one
        cache entry; the schedule is reused, not recomputed."""
        pipeline = AkgPipeline(sample_blocks=2)
        k1 = operators.reduce_producer_op("cache_one", rows=64, red=8)
        k2 = operators.reduce_producer_op("cache_two", rows=64, red=8)
        c1 = pipeline.compile(k1, "infl")
        hits_before = pipeline.cache.hits
        c2 = pipeline.compile(k2, "infl")
        assert pipeline.cache.hits > hits_before
        assert c1.signature() == c2.signature()
        # The very same Schedule object serves both compilations.
        assert c2.launches[0].schedule is c1.launches[0].schedule

    def test_novec_and_infl_share_schedule(self):
        pipeline = AkgPipeline(sample_blocks=2)
        kernel = operators.reduce_producer_op("share_k", rows=64, red=8)
        novec = pipeline.compile(kernel, "novec")
        hits_before = pipeline.cache.hits
        infl = pipeline.compile(kernel, "infl")
        assert pipeline.cache.hits == hits_before + 1
        assert infl.launches[0].schedule is novec.launches[0].schedule

    def test_changed_params_miss(self):
        pipeline = AkgPipeline(sample_blocks=2)
        pipeline.compile(operators.reduce_producer_op("p_one", rows=64,
                                                      red=8), "infl")
        hits_before = pipeline.cache.hits
        pipeline.compile(operators.reduce_producer_op("p_two", rows=128,
                                                      red=8), "infl")
        assert pipeline.cache.hits == hits_before

    def test_changed_weights_miss(self):
        cache = ScheduleCache()
        kernel = operators.reduce_producer_op("w_k", rows=64, red=8)
        options = SchedulerOptions()
        key_default = cache.key_for(kernel, influence=True, options=options,
                                    weights=CostWeights())
        key_other = cache.key_for(kernel, influence=True, options=options,
                                  weights=CostWeights(w1=9.0))
        assert key_default != key_other

    def test_changed_options_miss(self):
        cache = ScheduleCache()
        kernel = operators.reduce_producer_op("o_k", rows=64, red=8)
        weights = CostWeights()
        key_a = cache.key_for(kernel, influence=True,
                              options=SchedulerOptions(), weights=weights)
        key_b = cache.key_for(kernel, influence=True,
                              options=SchedulerOptions(coeff_bound=5),
                              weights=weights)
        assert key_a != key_b

    def test_influence_flag_splits_entries(self):
        cache = ScheduleCache()
        kernel = operators.reduce_producer_op("i_k", rows=64, red=8)
        options, weights = SchedulerOptions(), CostWeights()
        assert cache.key_for(kernel, influence=True, options=options,
                             weights=weights) != \
            cache.key_for(kernel, influence=False, options=options,
                          weights=weights)

    def test_kernel_name_excluded_from_signature(self):
        k1 = operators.softmax_like_op("sig_one", rows=32, cols=8)
        k2 = operators.softmax_like_op("sig_two", rows=32, cols=8)
        assert kernel_signature(k1) == kernel_signature(k2)

    def test_unused_tensor_declarations_ignored(self):
        """Sub-kernels inherit all parent tensors; only referenced tensors
        may enter the content key."""
        def build(with_extra):
            k = Kernel("sub", params={"M": 8, "N": 4})
            k.add_tensor("A", (8, 4))
            k.add_tensor("B", (8, 4))
            if with_extra:
                k.add_tensor("Unused", (64, 64))
            k.add_statement("S", [("i", 0, "M"), ("j", 0, "N")],
                            writes=[("B", ["i", "j"])],
                            reads=[("A", ["i", "j"])])
            return k
        assert kernel_signature(build(False)) == kernel_signature(build(True))

    def test_eviction_bounds_entries(self):
        cache = ScheduleCache(max_entries=2)
        for index in range(4):
            cache.store((index,), relations=[], schedule=None)
        assert len(cache) == 2
        assert cache.get((0,)) is None  # evicted, counted as a miss
        assert cache.get((3,)) is not None

    def test_disabled_cache(self):
        pipeline = AkgPipeline(sample_blocks=2, enable_cache=False)
        assert pipeline.cache is None
        kernel = operators.elementwise_chain_op("nocache", rows=16, cols=8,
                                                length=1)
        compiled = pipeline.compile(kernel, "infl")
        assert compiled.n_launches == 1
        assert "cache.hits" not in pipeline.context.counters
        assert "cache.misses" not in pipeline.context.counters


class TestLaunchCache:
    """Schedule-cache entries also keep the finished launch of each
    back-end setting, so content-equal kernels skip codegen, vectorize
    and gpu-map."""

    def test_content_equal_kernel_skips_the_back_end(self):
        pipeline = AkgPipeline(sample_blocks=2)
        first = pipeline.compile(
            operators.reduce_producer_op("launch_one", rows=64, red=8), "infl")
        pipeline.session.context = PassContext()
        second = pipeline.compile(
            operators.reduce_producer_op("launch_two", rows=64, red=8), "infl")
        assert pipeline.context.as_dict()["passes"] == {}
        assert pipeline.context.counters["cache.launch_hits"] == 1
        a, b = first.launches[0], second.launches[0]
        assert b.kernel.name == "launch_two"
        assert b.ast is a.ast and b.schedule is a.schedule
        assert b.emit_cuda() == a.emit_cuda().replace("launch_one",
                                                      "launch_two")
        assert second.signature() == first.signature()
        assert "1 hits served the finished launch" in \
            format_pass_summary(pipeline.context.as_dict())

    def test_back_end_settings_split_launches(self):
        session = CompilationSession(cache=ScheduleCache())
        kernel = operators.elementwise_chain_op("split_k", rows=256, cols=32,
                                                length=1)
        novec = session.run(kernel, influence=True, enable_vec=False)
        infl = session.run(kernel, influence=True, enable_vec=True)
        again = session.run(kernel, influence=True, enable_vec=True)
        assert infl.schedule is novec.schedule
        assert infl.mapped.ast is not novec.mapped.ast
        assert again.mapped.ast is infl.mapped.ast
        assert session.context.counters["cache.launch_hits"] == 1
        narrow = CompilationSession(cache=session.cache, max_threads=64).run(
            kernel, influence=True, enable_vec=True)
        assert narrow.schedule is infl.schedule
        assert narrow.mapped.ast is not infl.mapped.ast

    def test_served_launch_is_isolated_from_its_source(self,
                                                       empty_profile_memo):
        from repro.gpu.simulator import _simulate, simulate_kernel
        from repro.verify.oracle import differential_oracle
        pipeline = AkgPipeline(sample_blocks=2, max_threads=64)
        source = operators.transpose2d_op("iso_source", 64, 32)
        copied_from = pipeline.compile(source, "novec")
        served = pipeline.compile(
            operators.transpose2d_op("iso_served", 64, 32), "novec")
        launch = served.launches[0]
        text = launch.emit_cuda()
        # Simulate, vectorize (the infl variant of the same schedule) and
        # oracle-check the source; the served launch must not notice.
        pipeline.measure(copied_from)
        pipeline.compile(source, "infl")
        assert differential_oracle(source, pipeline=pipeline) == []
        assert launch.kernel.name == "iso_served"
        assert launch.emit_cuda() == text
        assert not hasattr(launch, "_fastpath_states")
        key = pipeline.cache.key_for(source, influence=True,
                                     options=pipeline.scheduler_options,
                                     weights=pipeline.weights)
        stored = [template for template, _ in
                  pipeline.cache.get(key).launches.values()]
        assert len(stored) == 2
        assert not any(hasattr(t, "_fastpath_states") for t in stored)
        profile = simulate_kernel(launch, sample_blocks=2)
        fresh, _ = _simulate(launch, pipeline.arch, 2)
        assert profile.counters() == fresh.counters()
        assert profile.name == "iso_served"


class TestRepeatedEvaluation:
    def test_second_pass_is_served_from_every_cache(self):
        """Evaluating the same operators again in one process misses no
        cache and reproduces the records and emitted code byte for byte."""
        import json
        from repro.eval.runner import evaluate_operator
        classes = ("elementwise_neutral", "elementwise_vec", "broadcast",
                   "layout_conversion", "layout_conversion_f16")
        suite = [(op_class, kernel)
                 for network in ("BERT", "LSTM")
                 for op_class, kernel in generate_network_suite(
                     network, seed=0, limit=6)
                 if op_class in classes]
        assert len(suite) >= 4
        pipeline = AkgPipeline(sample_blocks=2)

        def evaluate():
            pipeline.session.context = PassContext()
            records, hashes, code = [], [], []
            for op_class, kernel in suite:
                result = evaluate_operator(pipeline, kernel.name, op_class,
                                           kernel, templates=True)
                records.append(json.dumps(result.as_record(),
                                          sort_keys=True))
                hashes.append(result.schedule_hashes)
                code.append([launch.emit_cuda()
                             for variant in VARIANTS
                             for launch in pipeline.compile(
                                 kernel, variant).launches])
            return (records, hashes, code), pipeline.context.counters

        first, _ = evaluate()
        second, counters = evaluate()
        assert second == first
        for memo in ("cache", "cache.ilp", "cache.deps", "cache.farkas",
                     "cache.emptiness", "sim.profile_cache"):
            assert counters.get(f"{memo}.misses", 0) == 0, memo
        assert counters["cache.launch_hits"] == counters["cache.hits"] > 0
        assert pipeline.context.as_dict()["passes"] == {}


class TestAutotuneSharesSchedules:
    def test_candidates_hit_cache(self):
        """Tiling candidates re-run only codegen/tile/map: the schedule
        comes from the shared session's content cache after candidate 1."""
        from repro.pipeline.autotune import compile_tiled
        session = CompilationSession(cache=ScheduleCache())
        kernel = operators.elementwise_chain_op("tune_k", rows=256, cols=32,
                                                length=1)
        mapped_a, _ = compile_tiled(kernel, (), session=session)
        mapped_b, tiled = compile_tiled(kernel, (8, 8), session=session)
        assert session.cache.hits == 1
        assert mapped_b.schedule is mapped_a.schedule

    def test_autotune_end_to_end(self):
        from repro.pipeline.autotune import autotune_tile_sizes
        kernel = operators.elementwise_chain_op("tune_e2e", rows=256,
                                                cols=32, length=1)
        result = autotune_tile_sizes(kernel,
                                     candidates=((), (8, 8), (16, 16)),
                                     sample_blocks=2)
        assert result.best.time > 0
        assert len(result.candidates) == 3


class TestSpeedupGuard:
    def test_zero_variant_time_is_nan(self):
        result = OperatorResult(
            name="z", op_class="x",
            times={"isl": 1.0, "tvm": 0.0, "novec": 0.5, "infl": 0.0},
            influenced=True, vectorized=False,
            launches={"isl": 1, "tvm": 1, "novec": 1, "infl": 1})
        assert math.isnan(result.speedup("tvm"))
        assert math.isnan(result.speedup("infl"))
        assert result.speedup("novec") == 2.0
