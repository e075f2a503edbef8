"""Tests for the scheduler decision journal and `repro explain`."""

import pytest

from repro.cli import main
from repro.influence.builder import build_influence_tree
from repro.influence.scenarios import build_statement_scenarios
from repro.ir.kparser import parse_kernel
from repro.obs.provenance import (
    NULL_JOURNAL,
    ProvenanceJournal,
    format_decision_path,
    get_journal,
    use_journal,
)
from repro.obs.store import RunStore, new_record
from repro.pipeline.akg import AkgPipeline
from repro.schedule.scheduler import InfluencedScheduler

KERNEL_TEXT = """
kernel prov_demo (M=64, N=16)
tensor A[M][N]
tensor B[M][N]
S[i: 0..M, j: 0..N]: B[i][j] = f(A[i][j])
"""

FUSED_TEXT = """
kernel prov_fused (M=32, N=8)
tensor A[M][N]
tensor T[M][N]
tensor B[M][N]
S0[i: 0..M, j: 0..N]: T[i][j] = f(A[i][j])
S1[i: 0..M, j: 0..N]: B[i][j] = g(T[i][j])
"""


@pytest.fixture
def kernel():
    return parse_kernel(KERNEL_TEXT)


class TestJournalHandle:
    def test_default_journal_is_disabled(self):
        assert get_journal() is NULL_JOURNAL
        assert not get_journal().enabled

    def test_disabled_journal_records_nothing(self):
        journal = ProvenanceJournal(enabled=False)
        journal.note("scenario", statement="S")
        assert len(journal) == 0

    def test_use_journal_installs_and_restores(self):
        with use_journal() as journal:
            assert get_journal() is journal
            assert journal.enabled
        assert get_journal() is NULL_JOURNAL

    def test_as_dict_copies_events(self):
        journal = ProvenanceJournal()
        journal.scenario("S", ["i"], 1.5, vector_width=4, rank=0, kept=True)
        payload = journal.as_dict()
        assert payload["events"][0]["kind"] == "scenario"
        payload["events"][0]["kind"] = "mutated"
        assert journal.events[0]["kind"] == "scenario"


class TestScenarioJournal:
    def test_kept_and_pruned_scenarios_recorded(self, kernel):
        statement = kernel.statements[0]
        with use_journal() as journal:
            kept = build_statement_scenarios(statement, kernel.params,
                                             max_alternatives=1)
        events = [e for e in journal.events if e["kind"] == "scenario"]
        assert len(kept) == 1
        kept_events = [e for e in events if e["kept"]]
        pruned_events = [e for e in events if not e["kept"]]
        assert len(kept_events) == 1
        assert len(pruned_events) == 1  # the other innermost candidate
        assert kept_events[0]["dims"] == kept[0].dims
        assert kept_events[0]["score"] == pytest.approx(kept[0].score)

    def test_tree_branch_pruning_recorded(self):
        kernel = parse_kernel(FUSED_TEXT)
        with use_journal() as journal:
            build_influence_tree(kernel, max_branches=1)
        branches = [e for e in journal.events if e["kind"] == "tree-branch"]
        assert sum(1 for e in branches if e["kept"]) == 1
        assert sum(1 for e in branches if not e["kept"]) >= 1


class TestSchedulerJournal:
    def test_dimension_events_carry_injected_constraints(self, kernel):
        scheduler = InfluencedScheduler(kernel)
        tree = build_influence_tree(kernel)
        with use_journal() as journal:
            scheduler.schedule(tree)
        dims = [e for e in journal.events if e["kind"] == "dimension"]
        built = [e for e in dims if e["feasible"]]
        assert built, "no feasible dimension events recorded"
        assert any(e["injected"] for e in built)
        assert all("node" in e for e in built)
        done = [e for e in journal.events if e["kind"] == "schedule-done"]
        assert done and done[-1]["dimensions"] == 2

    def test_plain_schedule_has_no_injections(self, kernel):
        scheduler = InfluencedScheduler(kernel)
        with use_journal() as journal:
            scheduler.schedule(None)
        dims = [e for e in journal.events if e["kind"] == "dimension"]
        assert dims
        assert all(e["injected"] == [] for e in dims)

    def test_disabled_journal_costs_no_events(self, kernel):
        scheduler = InfluencedScheduler(kernel)
        scheduler.schedule(build_influence_tree(kernel))
        assert len(get_journal()) == 0


class TestFormatDecisionPath:
    def test_render_names_constraints_and_costs(self, kernel):
        pipeline = AkgPipeline(enable_cache=False)
        with use_journal() as journal:
            pipeline.compile(kernel, "infl")
        text = format_decision_path(journal.events)
        assert "scenarios considered" in text
        assert "cost=" in text
        assert "inject " in text
        assert "dim 0" in text and "dim 1" in text

    def test_render_backtrack_event(self):
        journal = ProvenanceJournal()
        journal.backtrack("sibling", dim=1)
        assert "FALLBACK sibling" in format_decision_path(journal.events)

    def test_render_pruned_scenarios(self):
        journal = ProvenanceJournal()
        journal.scenario("S", ["i"], 2.0, vector_width=0, rank=3, kept=False)
        assert "PRUNED" in format_decision_path(journal.events)


class TestExplainCli:
    def test_explain_names_constraints_and_scenarios(self, capsys):
        assert main(["explain", "LSTM", "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "scenarios considered" in out
        assert "cost=" in out
        assert "inject " in out          # the injected constraint...
        assert "dim 0" in out            # ...named per dimension
        assert "schedule hash" in out

    def test_explain_single_operator(self, capsys):
        assert main(["explain", "lstm", "--limit", "2",
                     "--operator", "lstm_op000_elementwise_vec"]) == 0
        out = capsys.readouterr().out
        assert out.count("=== lstm_op") == 1

    def test_explain_unknown_operator(self, capsys):
        assert main(["explain", "LSTM", "--limit", "1",
                     "--operator", "nope"]) == 2

    def test_explain_unknown_network(self, capsys):
        assert main(["explain", "NopeNet"]) == 2

    def test_explain_from_stored_run(self, capsys):
        assert main(["table2", "--limit", "1", "--networks", "LSTM"]) == 0
        capsys.readouterr()
        assert main(["explain", "LSTM", "--run", "latest"]) == 0
        assert "inject " in capsys.readouterr().out

    def test_explain_ignores_retired_backend_keys(self, capsys):
        # Runs recorded while backends were selectable name them in their
        # config; explain takes seed/limit/variant and ignores the rest.
        RunStore().append(new_record("table2", config={
            "networks": "LSTM", "seed": 0, "limit": 1, "jobs": 1,
            "solver": "simplex", "sim": "reference"}))
        assert main(["explain", "LSTM", "--run", "latest"]) == 0
        out = capsys.readouterr().out
        assert out.count("=== lstm_op") == 1   # the record's limit, not 4
        assert "inject " in out
