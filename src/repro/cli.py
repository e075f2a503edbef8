"""Command line interface.

::

    python -m repro compile op.kdl --variant infl --measure
    python -m repro scenarios op.kdl
    python -m repro table1
    python -m repro table2 --limit 6 --networks ResNet50,VGG16
    python -m repro profile BERT --limit 4
    python -m repro verify --networks LSTM
    python -m repro verify --update-goldens
    python -m repro fuzz --budget 30 --seed 7

The kernel file format is documented in :mod:`repro.ir.kparser`.

Observability flags: ``--trace FILE`` writes the structured trace
(``--trace-format chrome`` produces Chrome trace-event JSON openable in
Perfetto), ``--metrics FILE`` writes the merged metrics registry as JSON.
Both files are written atomically (temp file + ``os.replace``) and are
flushed even when evaluation raises, so partial runs stay debuggable.
Progress goes through the ``repro`` logger: ``-v`` for debug output,
``-q`` to silence progress.
"""

from __future__ import annotations

import argparse
import datetime as _datetime
import json
import os
import sys
import time
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.eval import (
    EvaluationConfig,
    evaluate_all,
    evaluate_network,
    format_table1,
    format_table2,
)
from repro.eval.checkpoint import CheckpointError, EvalCheckpoint
from repro.gpu.backend import available_simulators, resolve_simulator
from repro.eval.tables import format_degradation_summary, geomean_speedup
from repro.influence import build_influence_tree, build_scenarios
from repro.ir.kparser import KernelParseError, parse_kernel_file
from repro.obs import (
    atomic_write_json,
    configure_logging,
    format_metrics_report,
    logger,
    use_journal,
)
from repro.obs.analyze import DEFAULT_SIGNIFICANCE, Delta, build_trend, diff_runs
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.provenance import format_decision_path
from repro.obs.runtime import Obs, use_obs
from repro.obs.store import (
    RUN_SCHEMA_VERSION,
    RunStore,
    RunStoreError,
    finalize_record,
    new_record,
)
from repro.pipeline import (
    AkgPipeline,
    VARIANTS,
    format_pass_summary,
    merge_contexts,
    merge_metric_dicts,
)
from repro.pipeline.passes import PassContext
from repro.schedule import SchedulerOptions
from repro.solver.backend import available_backends, resolve_backend
from repro.solver.budget import SolveBudget
from repro.verify import VerifyConfig, run_fuzz, run_verify
from repro.workloads import NETWORKS
from repro.workloads.generator import generate_network_suite

TRACE_FORMATS = ("flat", "chrome")


# -- observability export -----------------------------------------------------

# Backwards-compatible alias: the temp-file + ``os.replace`` writer moved to
# :mod:`repro.obs.export` so the trace exporter and the run store share it.
_write_json_atomic = atomic_write_json


def _metrics_payload(merged: dict) -> dict:
    """The ``--metrics`` JSON document: the merged snapshot minus the bulky
    trace keys, plus precomputed histogram percentile summaries."""
    payload = {key: value for key, value in merged.items()
               if key not in ("events", "spans")}
    payload["histogram_summaries"] = {
        name: Histogram.from_dict(entry).summary()
        for name, entry in merged.get("histograms", {}).items()}
    return payload


def _export_observability(args, metric_payloads: list) -> None:
    """Flush ``--trace``/``--metrics`` files from whatever metric snapshots
    exist so far (called from ``finally``: partial runs still export)."""
    trace_path = getattr(args, "trace", "")
    metrics_path = getattr(args, "metrics", "")
    if not trace_path and not metrics_path:
        return
    context = merge_contexts(metric_payloads)
    merged = context.as_dict()
    if trace_path:
        if getattr(args, "trace_format", "flat") == "chrome":
            _write_json_atomic(trace_path, context.chrome_trace())
        else:
            _write_json_atomic(trace_path, merged.get("events", []))
        logger.info("trace written to %s", trace_path)
    if metrics_path:
        _write_json_atomic(metrics_path, _metrics_payload(merged))
        logger.info("metrics written to %s", metrics_path)


# -- the run store ------------------------------------------------------------


def _store_for(args) -> RunStore:
    """The run store an invocation records into (``--runs-dir`` >
    ``$REPRO_RUNS_DIR`` > ``.repro/runs``)."""
    return RunStore(getattr(args, "runs_dir", "") or None)


def _append_run(args, record: dict) -> str:
    """Append one record to the ambient store (best-effort: recording must
    never turn a successful run into a failed one)."""
    if getattr(args, "no_record", False):
        return ""
    try:
        store = _store_for(args)
        run_id = store.append(record)
    except OSError as exc:  # pragma: no cover - disk-full etc.
        logger.warning("could not record run: %s", exc)
        return ""
    logger.info("run %s recorded in %s", run_id, store.root)
    return run_id


def _profile_to_record(profile) -> dict:
    """A lossless rendering of a ``KernelProfile`` for checkpoints (the
    derived quantities — time, DRAM bytes, coalescing — are properties
    recomputed from these fields on restore)."""
    from dataclasses import asdict
    return asdict(profile)


def _profile_from_record(record: dict):
    """Rebuild a ``KernelProfile`` from :func:`_profile_to_record`."""
    from repro.gpu.arch import GpuArch
    from repro.gpu.simulator import KernelProfile
    fields = dict(record)
    arch = GpuArch(**fields.pop("arch"))
    return KernelProfile(arch=arch, **fields)


def _kernel_record(profile) -> dict:
    """The run-store representation of one simulated kernel launch."""
    return {
        "name": profile.name,
        "n_blocks": profile.n_blocks,
        "n_threads_per_block": profile.n_threads_per_block,
        "dram_transactions": profile.dram_transactions,
        "dram_bytes": profile.dram_bytes,
        "coalescing_efficiency": profile.coalescing_efficiency,
        "scalar_issues": profile.scalar_issues,
        "vector_issues": profile.vector_issues,
        "time": profile.time,
    }


# -- subcommands --------------------------------------------------------------


def _cmd_compile(args) -> int:
    kernel = parse_kernel_file(args.file)
    options = SchedulerOptions(solver=args.solver) if args.solver else None
    pipeline = AkgPipeline(sample_blocks=args.sample_blocks,
                           max_threads=args.max_threads,
                           scheduler_options=options,
                           sim=args.sim)
    variants = VARIANTS if args.all_variants else (args.variant,)
    started = time.monotonic()
    record = new_record("compile", config={
        "file": args.file, "variants": ",".join(variants),
        "solver": args.solver, "sim": args.sim,
        "max_threads": args.max_threads,
        "sample_blocks": args.sample_blocks})
    operator = {"name": kernel.name, "op_class": "", "times": {},
                "launches": {}, "schedule_hashes": {}, "status": "ok",
                "influenced": False, "vectorized": False}
    baseline = None
    try:
        for variant in variants:
            compiled = pipeline.compile(kernel, variant)
            operator["launches"][variant] = compiled.n_launches
            operator["schedule_hashes"][variant] = compiled.schedule_hash
            if compiled.degradation != "none":
                operator.setdefault("degradation", {})[variant] = \
                    compiled.degradation
                operator["status"] = "degraded"
            if variant == "infl":
                operator["vectorized"] = compiled.vectorized
            print(f"=== variant {variant}: {compiled.n_launches} launch(es), "
                  f"vectorized={compiled.vectorized} ===")
            print(compiled.signature())
            if args.measure:
                timing = pipeline.measure(compiled)
                operator["times"][variant] = timing.time
                if variant == "isl" or baseline is None:
                    baseline = timing.time
                print(f"--- modelled time {timing.time * 1e6:.1f} us, "
                      f"DRAM {timing.dram_bytes / 1e6:.2f} MB, "
                      f"speedup vs first variant "
                      f"{baseline / timing.time:.2f}x ---")
            print()
    except BaseException:
        operator["status"] = "failed"
        raise
    finally:
        record["status"] = operator["status"]
        record["operators"] = [operator]
        finalize_record(record, metrics=pipeline.context.as_dict(),
                        wall_seconds=time.monotonic() - started)
        _append_run(args, record)
    return 0


def _cmd_scenarios(args) -> int:
    kernel = parse_kernel_file(args.file)
    print(f"kernel {kernel.name}, params {kernel.params}")
    print()
    print("Influenced dimension scenarios (Algorithm 2):")
    for name, scenarios in build_scenarios(kernel).items():
        for scenario in scenarios:
            print(f"  {name}: dims={scenario.dims} "
                  f"score={scenario.score:.2f} "
                  f"vector_width={scenario.vector_width}")
    print()
    print("Influence constraint tree:")
    print(build_influence_tree(kernel).pretty())
    return 0


def _cmd_table1(args) -> int:
    print(format_table1())
    if args.metrics:
        # Table I is static metadata; export it as gauges for dashboards.
        gauges = {f"table1.{spec.name}.total_operators": spec.total_operators
                  for spec in NETWORKS.values()}
        gauges["table1.networks"] = len(NETWORKS)
        _write_json_atomic(args.metrics, {"counters": {}, "gauges": gauges,
                                          "histograms": {}})
        logger.info("metrics written to %s", args.metrics)
    return 0


def _cmd_table2(args) -> int:
    networks = args.networks.split(",") if args.networks else list(NETWORKS)
    unknown = [n for n in networks if n not in NETWORKS]
    if unknown:
        logger.error("unknown networks: %s; pick from %s",
                     unknown, list(NETWORKS))
        return 2
    config = EvaluationConfig(
        seed=args.seed,
        limit_per_network=args.limit if args.limit > 0 else None,
        sample_blocks=args.sample_blocks,
        jobs=max(args.jobs, 1),
        trace=bool(args.trace),
        deadline_ms=args.deadline_ms if args.deadline_ms > 0 else None,
        verify=args.verify,
        solver=args.solver,
        sim=args.sim,
        task_timeout_s=args.task_timeout if args.task_timeout > 0 else None,
        retries=max(args.retries, 0),
        retry_backoff_s=max(args.retry_backoff, 0.0))
    checkpoint = None
    if not args.no_checkpoint:
        checkpoint = EvalCheckpoint.for_eval("table2", networks, config,
                                             root=_store_for(args).root)
        if args.resume is not None:
            checkpoint.use_ref(args.resume)
    started = time.monotonic()
    record = new_record("table2", config={
        "networks": ",".join(networks), "seed": args.seed,
        "limit": args.limit, "jobs": args.jobs, "solver": args.solver,
        "sim": args.sim, "deadline_ms": args.deadline_ms,
        "sample_blocks": args.sample_blocks,
        "task_timeout": args.task_timeout, "retries": args.retries})
    results = []
    completed = False
    try:
        logger.info("evaluating %s...", ", ".join(networks))
        by_network = evaluate_all(config, networks, checkpoint=checkpoint,
                                  resume=args.resume is not None)
        results = [by_network[network] for network in networks]
        completed = True
        print(format_table2(results))
        print(f"\ngeomean speedup (infl over isl): "
              f"{geomean_speedup(results):.2f}x")
        print()
        print(format_degradation_summary(results))
        merged = merge_metric_dicts([r.metrics for r in results if r.metrics])
        if merged.get("passes"):
            print()
            print(format_pass_summary(merged))
    finally:
        # Recorded (and exported) even when evaluation raises: partial runs
        # stay diagnosable, marked by status.  Supervisor interventions
        # (hung-task kills) mark the run degraded even when every retried
        # operator eventually succeeded: the run needed help to finish.
        kills = sum(
            r.metrics.get("counters", {}).get("resilience.supervisor.kills", 0)
            for r in results if r.metrics)
        if sum(r.count_failed for r in results) or not completed:
            record["status"] = "failed" if completed else "error"
        elif sum(r.count_degraded for r in results) or kills:
            record["status"] = "degraded"
        record["operators"] = [dict(op.as_record(), network=r.network)
                               for r in results for op in r.operators
                               if op is not None]
        finalize_record(
            record,
            metrics=merge_metric_dicts(
                [r.metrics for r in results if r.metrics]),
            wall_seconds=time.monotonic() - started)
        _append_run(args, record)
        _export_observability(args, [r.metrics for r in results if r.metrics])
    degraded = sum(r.count_degraded for r in results)
    failed = sum(r.count_failed for r in results)
    drifted = [op for r in results for op in r.operators if op.verify_problems]
    for op in drifted:
        for problem in op.verify_problems:
            logger.error("verify %s: %s", op.name, problem)
    if failed:
        logger.error("%d operator(s) failed to compile; the report above "
                     "is partial", failed)
        return 1
    if degraded and not args.allow_degraded:
        logger.error("%d operator(s) compiled at reduced quality; pass "
                     "--allow-degraded to accept the fallback results",
                     degraded)
        return 1
    if kills and not args.allow_degraded:
        logger.error("the supervisor killed %d hung worker(s) to finish "
                     "this run; pass --allow-degraded to accept it",
                     int(kills))
        return 1
    return 0


def _resolve_network(name: str) -> Optional[str]:
    """Case-insensitive lookup into the Table I network zoo."""
    by_lower = {n.lower(): n for n in NETWORKS}
    return by_lower.get(name.lower())


def _format_kernel_table(profiles: list) -> str:
    """Per-kernel memory-counter table (the nvprof-style view behind
    Tables I-II: DRAM transactions, coalescing efficiency, issue mix)."""
    width = max([len(p.name) for p in profiles] + [6]) + 2
    lines = [
        "per-kernel memory counters:",
        f"  {'kernel':<{width}}{'blocks':>8}{'thr':>6}{'DRAM tx':>12}"
        f"{'DRAM MB':>10}{'coalesce':>10}{'vec issue':>11}{'time us':>10}",
    ]
    for p in profiles:
        issues = p.scalar_issues + p.vector_issues
        vec_share = p.vector_issues / issues if issues else 0.0
        lines.append(
            f"  {p.name:<{width}}{p.n_blocks:>8}{p.n_threads_per_block:>6}"
            f"{p.dram_transactions:>12.0f}{p.dram_bytes / 1e6:>10.2f}"
            f"{p.coalescing_efficiency * 100:>9.1f}%"
            f"{vec_share * 100:>10.1f}%{p.time * 1e6:>10.1f}")
    return "\n".join(lines)


def _cmd_profile(args) -> int:
    network = _resolve_network(args.network)
    if network is None:
        logger.error("unknown network %r; pick from %s",
                     args.network, list(NETWORKS))
        return 2
    options = None
    if args.deadline_ms > 0 or args.solver:
        budget = (SolveBudget(deadline_s=args.deadline_ms / 1000.0)
                  if args.deadline_ms > 0 else None)
        options = SchedulerOptions(budget=budget, solver=args.solver)
    pipeline = AkgPipeline(sample_blocks=args.sample_blocks,
                           max_threads=args.max_threads,
                           scheduler_options=options,
                           trace=bool(args.trace),
                           sim=args.sim)
    baseline_record = None
    if args.baseline:
        try:
            baseline_record = _store_for(args).resolve(args.baseline)
        except RunStoreError as exc:
            logger.error("error: %s", exc)
            return 2
    suite = generate_network_suite(network, seed=args.seed,
                                   limit=args.limit if args.limit > 0 else None)
    checkpoint = None
    stored: dict = {}
    if not args.no_checkpoint:
        checkpoint = EvalCheckpoint("profile", [network], {
            "variant": args.variant, "seed": args.seed, "limit": args.limit,
            "sample_blocks": args.sample_blocks,
            "max_threads": args.max_threads,
            "deadline_ms": args.deadline_ms,
            "solver": resolve_backend(args.solver).name,
            "sim": resolve_simulator(args.sim).name,
        }, root=_store_for(args).root)
        if args.resume is not None:
            checkpoint.use_ref(args.resume)
            stored = checkpoint.stored_records()
    started = time.monotonic()
    record = new_record("profile", config={
        "networks": network, "variant": args.variant, "seed": args.seed,
        "limit": args.limit, "solver": args.solver, "sim": args.sim,
        "deadline_ms": args.deadline_ms, "sample_blocks": args.sample_blocks,
        "max_threads": args.max_threads})
    profiles = []
    operators: list[dict] = []
    metric_dicts: list[dict] = []
    degraded: list[tuple[str, str]] = []
    failed: list[tuple[str, str]] = []
    completed = False
    try:
        for index, (op_class, kernel) in enumerate(suite):
            restored = stored.get(checkpoint.operator_key(kernel)) \
                if stored else None
            if restored is not None and "operator" in restored:
                entry = restored["operator"]
                operators.append(entry)
                profiles.extend(_profile_from_record(k)
                                for k in restored.get("profiles", ()))
                metric_dicts.append(restored.get("metrics") or {})
                if entry.get("status") == "failed":
                    failed.append((kernel.name, entry.get("error", "")))
                elif entry.get("status") == "degraded":
                    level = entry.get("degradation", {}) \
                        .get(args.variant, "?")
                    degraded.append((kernel.name, level))
                logger.info("restored %s (%s) from checkpoint",
                            kernel.name, op_class)
                continue
            logger.info("profiling %s (%s)...", kernel.name, op_class)
            # One metric snapshot per operator — the granularity both the
            # checkpoint and the merged report need.
            pipeline.session.context = PassContext(trace=bool(args.trace))
            entry = {"name": kernel.name, "op_class": op_class,
                     "times": {}, "launches": {}, "schedule_hashes": {},
                     "status": "ok"}
            operators.append(entry)
            op_profiles: list = []
            try:
                compiled = pipeline.compile(kernel, args.variant)
            except ReproError as exc:
                failed.append((kernel.name, f"{type(exc).__name__}: {exc}"))
                entry["status"] = "failed"
                entry["error"] = f"{type(exc).__name__}: {exc}"
                logger.warning("skipping %s: %s", kernel.name, exc)
            else:
                if compiled.degradation != "none":
                    degraded.append((kernel.name, compiled.degradation))
                    entry["status"] = "degraded"
                    entry["degradation"] = {args.variant:
                                            compiled.degradation}
                timing = pipeline.measure(compiled)
                entry["times"][args.variant] = timing.time
                entry["launches"][args.variant] = compiled.n_launches
                entry["schedule_hashes"][args.variant] = \
                    compiled.schedule_hash
                op_profiles = list(timing.profiles)
                profiles.extend(op_profiles)
            metrics = pipeline.context.as_dict()
            metric_dicts.append(metrics)
            if checkpoint is not None:
                checkpoint.record(network, index, kernel, {
                    "operator": entry,
                    "profiles": [_profile_to_record(p) for p in op_profiles],
                    "metrics": metrics})
        completed = True
        merged_context = merge_contexts(metric_dicts)
        backend = resolve_backend(args.solver)
        print(f"profile report — {network}, variant {args.variant}, "
              f"solver {backend.name}, "
              f"simulator {resolve_simulator(args.sim).name}, "
              f"{len(suite)} operator(s), {len(profiles)} kernel launch(es)")
        print()
        print(merged_context.format_summary())
        print()
        print(format_metrics_report(merged_context.obs.metrics))
        print()
        print(_format_kernel_table(profiles))
        print()
        counters = merged_context.counters
        ok = len(suite) - len(degraded) - len(failed)
        print(f"degradation summary: {ok} ok, {len(degraded)} degraded, "
              f"{len(failed)} failed; "
              f"fallbacks={int(counters.get('resilience.fallback', 0))}")
        for name, level in degraded:
            print(f"  {name}: degraded ({level})")
        for name, error in failed:
            print(f"  {name}: FAILED ({error})")
        if baseline_record is not None:
            print()
            print(_render_profile_baseline(baseline_record, profiles))
    finally:
        if failed or not completed:
            record["status"] = "failed" if completed else "error"
        elif degraded:
            record["status"] = "degraded"
        record["operators"] = operators
        record["kernels"] = [_kernel_record(p) for p in profiles]
        if checkpoint is not None and checkpoint.counters:
            metric_dicts.append({"counters": dict(checkpoint.counters)})
        finalize_record(record, metrics=merge_metric_dicts(metric_dicts),
                        wall_seconds=time.monotonic() - started)
        _append_run(args, record)
        _export_observability(args, metric_dicts)
    return 1 if failed else 0


def _render_profile_baseline(baseline: dict, profiles: list) -> str:
    """Per-kernel deltas of the current profile against a stored run
    (``repro profile --baseline RUN``)."""
    before = {k.get("name", ""): k for k in baseline.get("kernels", ())}
    after = {p.name: p for p in profiles}
    lines = [f"deltas vs run {baseline.get('run_id', '?')} "
             f"({baseline.get('command', '?')})"]
    if not before:
        lines.append("  (baseline run recorded no kernels)")
        return "\n".join(lines)
    for name in sorted(set(before) | set(after)):
        old = before.get(name)
        new = after.get(name)
        delta = Delta(name, old.get("time") if old else None,
                      new.time if new else None)
        dram = ""
        if old is not None and new is not None:
            old_tx = old.get("dram_transactions") or 0.0
            if old_tx:
                dram = (f", DRAM tx {old_tx:.0f} -> "
                        f"{new.dram_transactions:.0f} "
                        f"({new.dram_transactions / old_tx:.2f}x)")
        lines.append(f"  {delta.render()}{dram}")
    return "\n".join(lines)


def _cmd_explain(args) -> int:
    """Render the scheduler's decision path for a network's operators."""
    network = _resolve_network(args.network)
    if network is None:
        logger.error("unknown network %r; pick from %s",
                     args.network, list(NETWORKS))
        return 2
    seed, limit, solver = args.seed, args.limit, args.solver
    variant, sim = args.variant, args.sim
    if args.run:
        try:
            stored = _store_for(args).resolve(args.run)
        except RunStoreError as exc:
            logger.error("error: %s", exc)
            return 2
        config = stored.get("config", {})
        seed = int(config.get("seed", seed))
        limit = int(config.get("limit", limit))
        solver = config.get("solver", solver)
        variant = config.get("variant", variant)
        sim = config.get("sim", sim)
        logger.info("explaining with the configuration of run %s",
                    stored.get("run_id"))
    options = SchedulerOptions(solver=solver) if solver else None
    # The schedule cache is disabled: a cache hit would skip scheduling
    # entirely and the journal would have nothing to explain.
    pipeline = AkgPipeline(sample_blocks=args.sample_blocks,
                           max_threads=args.max_threads,
                           scheduler_options=options,
                           enable_cache=False,
                           sim=sim)
    suite = generate_network_suite(network, seed=seed,
                                   limit=limit if limit > 0 else None)
    names = [kernel.name for _, kernel in suite]
    if args.operator:
        suite = [(op_class, kernel) for op_class, kernel in suite
                 if kernel.name == args.operator]
        if not suite:
            logger.error("operator %r not in the %s suite; "
                         "available: %s", args.operator, network, names)
            return 2
    status = 0
    for op_class, kernel in suite:
        print(f"=== {kernel.name} ({op_class}), variant {variant} ===")
        with use_journal() as journal:
            try:
                compiled = pipeline.compile(kernel, variant)
            except ReproError as exc:
                print(f"  compilation FAILED: {type(exc).__name__}: {exc}")
                if len(journal.events):
                    print(format_decision_path(journal.events, indent="  "))
                status = 1
                print()
                continue
        rung = compiled.degradation
        print(f"  degradation: {rung}; "
              f"schedule hash {compiled.schedule_hash}")
        print(format_decision_path(journal.events, indent="  "))
        print()
    return status


# -- cross-run analytics (`repro obs ...`) ------------------------------------


def _format_started(started_at: float) -> str:
    stamp = _datetime.datetime.fromtimestamp(started_at,
                                             tz=_datetime.timezone.utc)
    return stamp.strftime("%Y-%m-%d %H:%M:%S")


def _no_runs(store: RunStore) -> bool:
    """True (after printing a friendly notice) when the store is missing
    or empty — `repro obs ...` against a fresh checkout is not an error."""
    if store.records():
        return False
    print(f"no runs recorded in {store.root}")
    return True


def _cmd_obs_list(args) -> int:
    store = _store_for(args)
    if _no_runs(store):
        return 0
    records = store.records()
    for record in records:
        config = record.get("config", {})
        scope = config.get("networks") or config.get("file") \
            or config.get("source") or ""
        print(f"{record.get('run_id', '?'):<18}"
              f"{record.get('command', '?'):<10}"
              f"{_format_started(record.get('started_at', 0.0)):<21}"
              f"{record.get('status', '?'):<10}{scope}")
    return 0


def _cmd_obs_show(args) -> int:
    store = _store_for(args)
    if _no_runs(store):
        return 0
    record = store.resolve(args.run)
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def _cmd_obs_diff(args) -> int:
    store = _store_for(args)
    diff = diff_runs(store.resolve(args.run_a), store.resolve(args.run_b),
                     threshold=args.threshold)
    print(diff.render())
    if args.fail_on_regression:
        regressions = diff.regressions()
        if regressions:
            logger.error("%d metric(s) regressed beyond %.0f%%",
                         len(regressions), args.threshold * 100)
            return 1
    return 0


def _cmd_obs_trend(args) -> int:
    store = _store_for(args)
    if _no_runs(store):
        return 0
    report = build_trend(store.records(), match=args.match,
                         threshold=args.threshold)
    print(report.render())
    if args.fail_on_regression and report.regressions():
        logger.error("%d series regressed beyond %.0f%%",
                     len(report.regressions()), args.threshold * 100)
        return 1
    return 0


def _cmd_obs_bench_append(args) -> int:
    """Ingest a pytest-benchmark JSON file as one run record.

    ``started_at`` comes from the file's own timestamp (not the ingestion
    time), so re-ingesting the same file is idempotent: the record is
    byte-identical and content addressing dedups it.  Prints the run id.
    """
    with open(args.file) as handle:
        payload = json.load(handle)
    stamp = _datetime.datetime.fromisoformat(payload["datetime"])
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=_datetime.timezone.utc)
    record = {
        "schema": RUN_SCHEMA_VERSION,
        "command": "bench",
        "started_at": stamp.timestamp(),
        "pid": 0,
        "status": "ok",
        "config": {"source": args.source or os.path.basename(args.file)},
        "benchmarks": {
            bench["fullname"]: bench["stats"]["mean"]
            for bench in payload.get("benchmarks", ())},
    }
    store = _store_for(args)
    run_id = store.append(record)
    logger.info("benchmark run recorded in %s", store.root)
    print(run_id)
    return 0


def _cmd_verify(args) -> int:
    networks = tuple(args.networks.split(",")) if args.networks else ()
    unknown = [n for n in networks if n not in NETWORKS]
    if unknown:
        logger.error("unknown networks: %s; pick from %s",
                     unknown, list(NETWORKS))
        return 2
    config = VerifyConfig(
        networks=networks,
        seed=args.seed,
        limit=args.limit,
        sample_blocks=args.sample_blocks,
        max_threads=args.max_threads,
        sim=args.sim,
        update_goldens=args.update_goldens,
        goldens_dir=args.goldens_dir or None,
        corpus_dir=args.corpus_dir or None,
        check_goldens=not args.no_goldens,
        check_families=not args.no_families,
        check_oracle=not args.no_oracle,
        check_metamorphic=not args.no_metamorphic,
        check_corpus=not args.no_corpus)
    obs = Obs(metrics=MetricsRegistry())
    with use_obs(obs):
        report = run_verify(config)
    print(report.render())
    if args.metrics:
        _write_json_atomic(args.metrics, obs.metrics.as_dict())
        logger.info("metrics written to %s", args.metrics)
    return 0 if report.ok else 1


def _cmd_fuzz(args) -> int:
    obs = Obs(metrics=MetricsRegistry())
    with use_obs(obs):
        report = run_fuzz(
            seed=args.seed,
            budget_s=args.budget,
            cases=args.cases if args.cases > 0 else None,
            corpus_dir=args.corpus_dir or None,
            write_corpus=not args.no_corpus)
    print(report.render())
    if args.metrics:
        _write_json_atomic(args.metrics, obs.metrics.as_dict())
        logger.info("metrics written to %s", args.metrics)
    if report.failures:
        logger.error("%d failing case(s); reproducers %s", len(report.failures),
                     "written to the corpus" if not args.no_corpus
                     else "not written (--no-corpus)")
        return 1
    return 0


# -- the parser ---------------------------------------------------------------


def _add_solver_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--solver", default="", metavar="NAME",
                        help="solver backend (registered: "
                             f"{', '.join(available_backends())}; "
                             "default: $REPRO_SOLVER or 'simplex')")


def _add_sim_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sim", default="", metavar="NAME",
                        help="simulator backend (registered: "
                             f"{', '.join(available_simulators())}; "
                             "default: $REPRO_SIM or 'fast')")


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default="", metavar="FILE",
                        help="write the structured trace log as JSON")
    parser.add_argument("--trace-format", choices=TRACE_FORMATS,
                        default="flat",
                        help="flat event list, or Chrome trace-event JSON "
                             "for chrome://tracing / Perfetto")
    parser.add_argument("--metrics", default="", metavar="FILE",
                        help="write merged metrics (counters, gauges, "
                             "histograms) as JSON")


def _add_store_arguments(parser: argparse.ArgumentParser,
                         recording: bool = True) -> None:
    parser.add_argument("--runs-dir", default="", metavar="DIR",
                        help="run-store directory (default: $REPRO_RUNS_DIR "
                             "or .repro/runs)")
    if recording:
        parser.add_argument("--no-record", action="store_true",
                            help="do not append a run record to the store")


def build_arg_parser() -> argparse.ArgumentParser:
    """The argparse parser for the `repro` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Polyhedral scheduling constraint injection (CGO 2022) "
                    "reproduction")
    parser.add_argument("--verbose", "-v", action="count", default=0,
                        help="debug-level progress output")
    parser.add_argument("--quiet", "-q", action="count", default=0,
                        help="suppress progress output (warnings only)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a kernel file")
    p.add_argument("file")
    p.add_argument("--variant", choices=VARIANTS, default="infl")
    p.add_argument("--all-variants", action="store_true")
    p.add_argument("--measure", action="store_true",
                   help="run the GPU model and print times")
    p.add_argument("--sample-blocks", type=int, default=8)
    p.add_argument("--max-threads", type=int, default=256)
    _add_solver_argument(p)
    _add_sim_argument(p)
    _add_store_arguments(p)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("scenarios",
                       help="print Algorithm 2 scenarios and the tree")
    p.add_argument("file")
    p.set_defaults(func=_cmd_scenarios)

    p = sub.add_parser("table1", help="print Table I")
    p.add_argument("--metrics", default="", metavar="FILE",
                   help="write network metadata gauges as JSON")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("table2", help="regenerate Table II")
    p.add_argument("--limit", type=int, default=6,
                   help="operators per network (0 = the paper's full counts)")
    p.add_argument("--networks", default="",
                   help="comma-separated subset (default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample-blocks", type=int, default=8)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for suite evaluation (1 = serial)")
    p.add_argument("--deadline-ms", type=float, default=0.0,
                   help="wall-clock solve budget per scheduling attempt "
                        "(0 = unlimited)")
    p.add_argument("--verify", action="store_true",
                   help="run the differential oracle on every operator; "
                        "semantic drift marks it failed")
    p.add_argument("--allow-degraded", action="store_true",
                   help="exit 0 even when operators compiled at reduced "
                        "quality via the degradation ladder (or needed "
                        "supervisor intervention)")
    p.add_argument("--task-timeout", type=float, default=0.0,
                   metavar="SECONDS",
                   help="kill a worker whose task heartbeat is older than "
                        "this (0 = derive from --deadline-ms with headroom, "
                        "or disable when no deadline is set)")
    p.add_argument("--retries", type=int, default=2,
                   help="retries per task lost to a hung or dead worker "
                        "(deterministic exponential backoff)")
    p.add_argument("--retry-backoff", type=float, default=0.1,
                   metavar="SECONDS",
                   help="base backoff before retry N: backoff * 2**(N-1)")
    p.add_argument("--resume", nargs="?", const="auto", default=None,
                   metavar="CKPT",
                   help="reload completed operators from the checkpoint "
                        "(bare: the one this configuration derives; or a "
                        "checkpoint-id prefix) and evaluate the remainder")
    p.add_argument("--no-checkpoint", action="store_true",
                   help="do not append per-operator checkpoint records")
    _add_solver_argument(p)
    _add_sim_argument(p)
    _add_obs_arguments(p)
    _add_store_arguments(p)
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("profile",
                       help="compile one network and print a metrics report "
                            "(pass table, solver histograms, per-kernel "
                            "memory counters)")
    p.add_argument("network", help="a Table I network (case-insensitive)")
    p.add_argument("--variant", choices=VARIANTS, default="infl")
    p.add_argument("--limit", type=int, default=4,
                   help="operators to profile (0 = the full suite)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample-blocks", type=int, default=8)
    p.add_argument("--max-threads", type=int, default=256)
    p.add_argument("--deadline-ms", type=float, default=0.0,
                   help="wall-clock solve budget per scheduling attempt "
                        "(0 = unlimited)")
    p.add_argument("--baseline", default="", metavar="RUN",
                   help="print per-kernel deltas against a stored run "
                        "(id, unique prefix, or latest[~N])")
    p.add_argument("--resume", nargs="?", const="auto", default=None,
                   metavar="CKPT",
                   help="reload completed operators from the checkpoint "
                        "(bare: the one this configuration derives; or a "
                        "checkpoint-id prefix) and profile the remainder")
    p.add_argument("--no-checkpoint", action="store_true",
                   help="do not append per-operator checkpoint records")
    _add_solver_argument(p)
    _add_sim_argument(p)
    _add_obs_arguments(p)
    _add_store_arguments(p)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("explain",
                       help="render the scheduler decision path: scenarios "
                            "considered with static costs, the injected "
                            "constraint per dimension, fallback activations")
    p.add_argument("network", help="a Table I network (case-insensitive)")
    p.add_argument("--operator", default="", metavar="NAME",
                   help="explain only this operator (default: whole suite)")
    p.add_argument("--variant", choices=VARIANTS, default="infl")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=int, default=4,
                   help="operators to explain (0 = the full suite)")
    p.add_argument("--sample-blocks", type=int, default=8)
    p.add_argument("--max-threads", type=int, default=256)
    p.add_argument("--run", default="", metavar="RUN",
                   help="take seed/limit/solver/variant from a stored run")
    _add_solver_argument(p)
    _add_sim_argument(p)
    _add_store_arguments(p, recording=False)
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("obs",
                       help="cross-run analytics over the run store")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    q = obs_sub.add_parser("list", help="list stored runs")
    _add_store_arguments(q, recording=False)
    q.set_defaults(func=_cmd_obs_list)

    q = obs_sub.add_parser("show", help="print one stored run as JSON")
    q.add_argument("run", help="run id, unique prefix, or latest[~N]")
    _add_store_arguments(q, recording=False)
    q.set_defaults(func=_cmd_obs_show)

    q = obs_sub.add_parser("diff",
                           help="metric/timing deltas and schedule-hash "
                                "changes between two stored runs")
    q.add_argument("run_a", help="run id, unique prefix, or latest[~N]")
    q.add_argument("run_b", help="run id, unique prefix, or latest[~N]")
    q.add_argument("--threshold", type=float, default=DEFAULT_SIGNIFICANCE,
                   help="relative change below which a timing delta is "
                        "noise (default: %(default)s)")
    q.add_argument("--fail-on-regression", action="store_true",
                   help="exit 1 when run_b is slower than run_a beyond "
                        "the threshold")
    _add_store_arguments(q, recording=False)
    q.set_defaults(func=_cmd_obs_diff)

    q = obs_sub.add_parser("trend",
                           help="per-kernel time series across stored runs, "
                                "flagging regressions")
    q.add_argument("--match", default="",
                   help="only series whose name contains this substring")
    q.add_argument("--threshold", type=float, default=DEFAULT_SIGNIFICANCE,
                   help="regression threshold vs the best previous value")
    q.add_argument("--fail-on-regression", action="store_true",
                   help="exit 1 when any series regressed")
    _add_store_arguments(q, recording=False)
    q.set_defaults(func=_cmd_obs_trend)

    q = obs_sub.add_parser("bench-append",
                           help="ingest a pytest-benchmark JSON file as a "
                                "run record (idempotent; prints the run id)")
    q.add_argument("file", help="pytest-benchmark --benchmark-json output")
    q.add_argument("--source", default="",
                   help="label recorded as the run's config.source")
    _add_store_arguments(q, recording=False)
    q.set_defaults(func=_cmd_obs_bench_append)

    p = sub.add_parser("verify",
                       help="check golden schedules, the cross-variant "
                            "oracle, metamorphic relations and the fuzz "
                            "corpus")
    p.add_argument("--networks", default="",
                   help="comma-separated subset (default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=int, default=2,
                   help="production-scale operators per network")
    p.add_argument("--sample-blocks", type=int, default=2)
    p.add_argument("--max-threads", type=int, default=256)
    p.add_argument("--update-goldens", action="store_true",
                   help="re-bless the golden files instead of checking them")
    p.add_argument("--goldens-dir", default="",
                   help="override the goldens directory (tests/goldens)")
    p.add_argument("--corpus-dir", default="",
                   help="override the corpus directory (tests/corpus)")
    p.add_argument("--no-goldens", action="store_true")
    p.add_argument("--no-families", action="store_true",
                   help="skip the per-operator-family goldens")
    p.add_argument("--no-oracle", action="store_true")
    p.add_argument("--no-metamorphic", action="store_true")
    p.add_argument("--no-corpus", action="store_true")
    p.add_argument("--metrics", default="", metavar="FILE",
                   help="write verify.* counters as JSON")
    _add_sim_argument(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fuzz",
                       help="deterministic differential fuzzing; failing "
                            "cases are minimized into tests/corpus")
    p.add_argument("--budget", type=float, default=30.0,
                   help="nominal seconds (converted to a deterministic "
                        "case count)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=0,
                   help="exact case count (overrides --budget)")
    p.add_argument("--corpus-dir", default="",
                   help="override the corpus directory (tests/corpus)")
    p.add_argument("--no-corpus", action="store_true",
                   help="do not write reproducer files")
    p.add_argument("--metrics", default="", metavar="FILE",
                   help="write verify.fuzz.* counters as JSON")
    p.set_defaults(func=_cmd_fuzz)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    configure_logging(args.verbose - args.quiet)
    try:
        resolve_backend(getattr(args, "solver", ""))  # fail fast, clean message
        resolve_simulator(getattr(args, "sim", ""))
    except ValueError as exc:
        logger.error("error: %s", exc)
        return 2
    try:
        code = args.func(args)
        # Flush inside the try: a closed pipe often only surfaces at
        # flush time, and it must land in the BrokenPipeError arm below
        # (silent 141) rather than in the interpreter's shutdown hook
        # (traceback + exit 120).  Covers every subcommand, `obs` and
        # `explain` included.
        sys.stdout.flush()
        return code
    except KernelParseError as exc:
        logger.error("parse error: %s", exc)
        return 2
    except FileNotFoundError as exc:
        logger.error("error: %s", exc)
        return 2
    except RunStoreError as exc:
        logger.error("error: %s", exc)
        return 2
    except CheckpointError as exc:
        logger.error("error: %s", exc)
        return 2
    except ReproError as exc:
        logger.error("%s: %s", type(exc).__name__, exc)
        return 1
    except BrokenPipeError:
        # Reader closed early (e.g. `repro obs trend | head`); the POSIX
        # convention is a silent 141, not a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
