"""Backtracking statistics (Section IV-B's design validation).

The paper argues constraint injection is the right mechanism because, on
AI/DL fused operators, the backtracking ladder rarely activates ("we could
observe only few activation of the backtracking").  This bench schedules a
sampled workload under influence and reports how often each ladder step
fired per operator.
"""

from conftest import seed, write_artifact

from repro.deps.analysis import compute_dependences
from repro.influence import build_influence_tree
from repro.schedule import InfluencedScheduler
from repro.workloads import NETWORKS, generate_network_suite


def _aggregate():
    totals = {
        "operators": 0,
        "ilp_solves": 0,
        "dimensions": 0,
        "coincidence_retries": 0,
        "sibling_fallbacks": 0,
        "permutability_drops": 0,
        "ancestor_backtracks": 0,
        "scc_separations": 0,
        "influence_abandoned": 0,
    }
    for network in NETWORKS:
        for _, kernel in generate_network_suite(network, seed=seed(), limit=4):
            scheduler = InfluencedScheduler(kernel)
            scheduler.schedule(build_influence_tree(kernel))
            InfluencedScheduler(kernel).schedule()
            stats = scheduler.stats
            totals["operators"] += 1
            totals["ilp_solves"] += stats.ilp_solves
            totals["dimensions"] += stats.dimensions_built
            totals["coincidence_retries"] += stats.coincidence_retries
            totals["sibling_fallbacks"] += stats.sibling_fallbacks
            totals["permutability_drops"] += stats.permutability_drops
            totals["ancestor_backtracks"] += stats.ancestor_backtracks
            totals["scc_separations"] += stats.scc_separations
            totals["influence_abandoned"] += int(stats.influence_abandoned)
    return totals


def test_backtracking_artifact(benchmark, out_dir):
    totals = benchmark.pedantic(_aggregate, rounds=1, iterations=1)
    n = totals["operators"]
    lines = [
        "BACKTRACKING ACTIVATIONS under influenced scheduling "
        "(sampled suites, 4 ops/network)",
        f"{'counter':<24s}{'total':>8s}{'per operator':>14s}",
    ]
    for key in ("ilp_solves", "dimensions", "coincidence_retries",
                "sibling_fallbacks", "permutability_drops",
                "ancestor_backtracks", "scc_separations",
                "influence_abandoned"):
        lines.append(f"{key:<24s}{totals[key]:>8d}{totals[key] / n:>14.2f}")
    write_artifact("backtracking.txt", "\n".join(lines))

    # The paper's claim: fallbacks are rare on AI/DL operators.
    assert totals["ancestor_backtracks"] <= n
    assert totals["influence_abandoned"] <= n * 0.2


def test_bench_influenced_scheduling(benchmark):
    _, kernel = generate_network_suite("BERT", seed=seed(), limit=3)[1]
    relations = compute_dependences(kernel)

    def run():
        scheduler = InfluencedScheduler(kernel, relations=relations)
        return scheduler.schedule(build_influence_tree(kernel))

    schedule = benchmark.pedantic(run, rounds=2, iterations=1)
    assert schedule.is_complete()
