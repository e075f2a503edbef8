"""Formatting of Table I and Table II in the paper's layout, and the
reports of stored runs.

:func:`render` is the one printer of a ``table2`` or ``profile`` run: the
commands print ``render(record)`` of the record they append, and
``repro report RUN`` prints it again from the store.
"""

from __future__ import annotations

from typing import Iterable

from repro.eval.checkpoint import operator_from_record
from repro.eval.runner import NetworkResult
from repro.obs.metrics import format_metrics_report
from repro.obs.store import RunStoreError
from repro.pipeline.passes import format_pass_summary
from repro.workloads.networks import table1_rows


def format_table1() -> str:
    """TABLE I: target end-to-end workloads."""
    rows = table1_rows()
    width_name = max(len(r[0]) for r in rows) + 2
    width_type = 6
    lines = [
        "TABLE I — TARGET END-TO-END WORKLOADS",
        f"{'Network':<{width_name}}{'Type':<{width_type}}Dataset",
        "-" * (width_name + width_type + 24),
    ]
    for name, kind, dataset in rows:
        lines.append(f"{name:<{width_name}}{kind:<{width_type}}{dataset}")
    return "\n".join(lines)


def table2_row(result: NetworkResult) -> dict:
    """One Table II row as a dict (times in milliseconds)."""
    def ms(variant, influenced_only=False):
        return result.total_time(variant, influenced_only) * 1e3

    return {
        "network": result.network,
        "total": result.count_total,
        "vec": result.count_vec,
        "infl_count": result.count_influenced,
        "all": {
            "isl_ms": ms("isl"),
            "tvm_ms": ms("tvm"),
            "novec_ms": ms("novec"),
            "infl_ms": ms("infl"),
            "template_ms": ms("template"),
            "speedup_tvm": result.speedup("tvm"),
            "speedup_novec": result.speedup("novec"),
            "speedup_infl": result.speedup("infl"),
            "speedup_template": result.speedup("template"),
        },
        "influenced": {
            "isl_ms": ms("isl", True),
            "tvm_ms": ms("tvm", True),
            "novec_ms": ms("novec", True),
            "infl_ms": ms("infl", True),
            "template_ms": ms("template", True),
            "speedup_tvm": result.speedup("tvm", True),
            "speedup_novec": result.speedup("novec", True),
            "speedup_infl": result.speedup("infl", True),
            "speedup_template": result.speedup("template", True),
        },
    }


def format_table2(results: Iterable[NetworkResult]) -> str:
    """TABLE II: fused operators execution times, in the paper's layout."""
    header1 = (f"{'':12s}|{'Operator Count':^17s}|"
               f"{'Execution Time (ms) — All':^41s}|{'Speedup':^26s}|"
               f"{'Exec Time (ms) — Influenced':^41s}|{'Speedup':^26s}")
    header2 = (f"{'Network':<12s}|{'total':>5s}{'vec':>5s}{'infl':>6s} |"
               f"{'isl':>8s}{'tvm':>8s}{'novec':>8s}{'infl':>8s}"
               f"{'tmpl':>8s} |"
               f"{'tvm':>6s}{'novec':>7s}{'infl':>6s}{'tmpl':>6s} |"
               f"{'isl':>8s}{'tvm':>8s}{'novec':>8s}{'infl':>8s}"
               f"{'tmpl':>8s} |"
               f"{'tvm':>6s}{'novec':>7s}{'infl':>6s}{'tmpl':>6s}")
    lines = ["TABLE II — FUSED OPERATORS EXECUTION TIMES",
             header1, header2, "-" * len(header2)]
    for result in results:
        row = table2_row(result)
        a, i = row["all"], row["influenced"]
        lines.append(
            f"{row['network']:<12s}|{row['total']:>5d}{row['vec']:>5d}"
            f"{row['infl_count']:>6d} |"
            f"{a['isl_ms']:>8.2f}{a['tvm_ms']:>8.2f}"
            f"{a['novec_ms']:>8.2f}{a['infl_ms']:>8.2f}"
            f"{a['template_ms']:>8.2f} |"
            f"{a['speedup_tvm']:>6.2f}{a['speedup_novec']:>7.2f}"
            f"{a['speedup_infl']:>6.2f}{a['speedup_template']:>6.2f} |"
            f"{i['isl_ms']:>8.2f}{i['tvm_ms']:>8.2f}"
            f"{i['novec_ms']:>8.2f}{i['infl_ms']:>8.2f}"
            f"{i['template_ms']:>8.2f} |"
            f"{i['speedup_tvm']:>6.2f}{i['speedup_novec']:>7.2f}"
            f"{i['speedup_infl']:>6.2f}{i['speedup_template']:>6.2f}")
    return "\n".join(lines)


def degradation_row(result: NetworkResult) -> dict:
    """Per-network resilience counts (ok/degraded/failed + activations)."""
    return {
        "network": result.network,
        "ok": result.count_ok,
        "degraded": result.count_degraded,
        "failed": result.count_failed,
        "fallbacks": sum(op.fallbacks for op in result.operators),
    }


def format_degradation_summary(results: Iterable[NetworkResult]) -> str:
    """Per-network degradation summary: how many operators compiled at
    full quality, how many rode the fallback ladder, how many failed —
    so quality loss is visible next to the Table II numbers."""
    results = list(results)
    lines = ["degradation summary (per network):",
             f"  {'network':<14}{'ok':>5}{'degraded':>10}{'failed':>8}"
             f"{'fallbacks':>11}"]
    for result in results:
        row = degradation_row(result)
        lines.append(f"  {row['network']:<14}{row['ok']:>5}"
                     f"{row['degraded']:>10}{row['failed']:>8}"
                     f"{row['fallbacks']:>11}")
    for result in results:
        for op in result.operators:
            if op.status == "degraded":
                rungs = ", ".join(f"{v}={level}" for v, level
                                  in sorted(op.degradation.items()))
                lines.append(f"    {result.network}/{op.name}: "
                             f"degraded ({rungs})")
            elif op.status == "failed":
                lines.append(f"    {result.network}/{op.name}: "
                             f"FAILED ({op.error})")
    return "\n".join(lines)


def geomean_speedup(results: Iterable[NetworkResult],
                    variant: str = "infl") -> float:
    """Geometric-mean speedup over networks (the paper's 1.7x headline)."""
    import math
    speedups = [r.speedup(variant) for r in results]
    speedups = [s for s in speedups if s == s and s > 0]  # drop NaN
    if not speedups:
        return float("nan")
    return math.exp(sum(math.log(s) for s in speedups) / len(speedups))


# -- reports of run records ---------------------------------------------------


def _format_kernel_table(kernels: list[dict]) -> str:
    """Per-kernel memory-counter table (the nvprof-style view behind
    Tables I-II: DRAM transactions, coalescing efficiency, issue mix) of
    a ``profile`` record's ``kernels``."""
    width = max([len(k["name"]) for k in kernels] + [6]) + 2
    lines = [
        "per-kernel memory counters:",
        f"  {'kernel':<{width}}{'blocks':>8}{'thr':>6}{'DRAM tx':>12}"
        f"{'DRAM MB':>10}{'coalesce':>10}{'vec issue':>11}{'time us':>10}",
    ]
    for k in kernels:
        issues = k["scalar_issues"] + k["vector_issues"]
        vec_share = k["vector_issues"] / issues if issues else 0.0
        lines.append(
            f"  {k['name']:<{width}}{k['n_blocks']:>8}"
            f"{k['n_threads_per_block']:>6}"
            f"{k['dram_transactions']:>12.0f}{k['dram_bytes'] / 1e6:>10.2f}"
            f"{k['coalescing_efficiency'] * 100:>9.1f}%"
            f"{vec_share * 100:>10.1f}%{k['time'] * 1e6:>10.1f}")
    return "\n".join(lines)


def _network_results(record: dict) -> list[NetworkResult]:
    """The record's operators as one ``NetworkResult`` per network, in
    the order of its ``networks`` configuration."""
    networks = record["config"]["networks"].split(",")
    operators: dict[str, list] = {network: [] for network in networks}
    for entry in record.get("operators", ()):
        operators[entry["network"]].append(operator_from_record(entry))
    return [NetworkResult(network, ops) for network, ops in operators.items()]


def _pass_summary(record: dict) -> str:
    return format_pass_summary(dict(record.get("metrics", {}),
                                    passes=record.get("passes", {})))


def _render_table2(record: dict) -> list[str]:
    results = _network_results(record)
    sections = [format_table2(results), "",
                f"geomean speedup (infl over isl): "
                f"{geomean_speedup(results):.2f}x", "",
                format_degradation_summary(results)]
    if record.get("passes"):
        sections += ["", _pass_summary(record)]
    return sections


def _render_profile(record: dict) -> list[str]:
    config, kernels = record["config"], record.get("kernels", [])
    return [f"profile report — {config['networks']}, variant "
            f"{config['variant']}, {len(record.get('operators', ()))} "
            f"operator(s), {len(kernels)} kernel launch(es)", "",
            _pass_summary(record), "",
            format_metrics_report(record.get("metrics", {})), "",
            _format_kernel_table(kernels), "",
            format_degradation_summary(_network_results(record))]


_RENDERERS = {"table2": _render_table2, "profile": _render_profile}


def render(record: dict) -> str:
    """The printed report of a ``table2`` or ``profile`` run record."""
    renderer = _RENDERERS.get(record.get("command", ""))
    if renderer is None:
        raise RunStoreError(
            f"run {record.get('run_id', '?')} is a "
            f"{record.get('command', '?')!r} run; only table2 and profile "
            f"runs have a report")
    return "\n".join(renderer(record))
