"""The one memo primitive and the caches built on it."""

from repro.deps.analysis import DEPENDENCES_MEMO, compute_dependences
from repro.ir.examples import matmul
from repro.memo import Memo
from repro.obs import MetricsRegistry, Obs, get_obs, use_obs
from repro.schedule.farkas import (FARKAS_MEMO, SymbolicAffineForm,
                                   add_farkas_nonneg)
from repro.sets.polyhedron import EMPTINESS_MEMO, Polyhedron
from repro.solver.problem import Problem, var


def _counted(memo_name: str, body) -> dict:
    """Run ``body`` under a fresh registry; return its ``memo_name`` counters."""
    obs = Obs(metrics=MetricsRegistry())
    with use_obs(obs):
        body()
    prefix = memo_name + "."
    return {name[len(prefix):]: value
            for name, value in obs.metrics.counters.items()
            if name.startswith(prefix)}


class TestMemo:
    def test_get_returns_none_on_miss(self):
        memo = Memo("t", 4)
        assert memo.get("a") is None
        memo.put("a", 1)
        assert memo.get("a") == 1
        assert memo.stats() == {"entries": 1, "hits": 1, "misses": 1,
                                "evictions": 0}

    def test_falsy_values_are_hits(self):
        memo = Memo("t", 4)
        memo.put("empty", False)
        memo.put("zero", 0)
        assert memo.get("empty") is False
        assert memo.get("zero") == 0
        assert memo.hits == 2 and memo.misses == 0

    def test_eviction_at_the_bound_drops_least_recently_used(self):
        memo = Memo("t", 2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1      # "b" is now the least recently used
        memo.put("c", 3)
        assert len(memo) == 2
        assert memo.evictions == 1
        assert memo.get("b") is None
        assert memo.get("a") == 1 and memo.get("c") == 3

    def test_put_refreshes_an_existing_key(self):
        memo = Memo("t", 2)
        memo.put("a", 1)
        memo.put("b", 2)
        memo.put("a", 10)              # refresh: "b" becomes the oldest
        memo.put("c", 3)
        assert memo.get("a") == 10
        assert memo.get("b") is None

    def test_counters_reach_the_ambient_metrics(self):
        memo = Memo("t.memo", 1)

        def body():
            memo.get("a")
            memo.put("a", 1)
            memo.get("a")
            memo.put("b", 2)

        assert _counted("t.memo", body) == {"misses": 1, "hits": 1,
                                            "evictions": 1}

    def test_no_counting_outside_a_metrics_scope(self):
        memo = Memo("t", 2)
        memo.get("a")
        assert get_obs().metrics.counters == {}
        assert memo.misses == 1        # the memo still keeps its totals

    def test_clear_resets_entries_and_totals(self):
        memo = Memo("t", 2)
        memo.put("a", 1)
        memo.get("a")
        memo.clear()
        assert memo.stats() == {"entries": 0, "hits": 0, "misses": 0,
                                "evictions": 0}


class TestProcessMemos:
    def test_dependence_memo_reports(self):
        kernel = matmul(8)
        compute_dependences(kernel)    # warm: the next call must hit
        counts = _counted("cache.deps", lambda: compute_dependences(kernel))
        assert counts == {"hits": 1}
        assert DEPENDENCES_MEMO.name == "cache.deps"

    def test_emptiness_memo_reports(self):
        poly = Polyhedron(["x"], [var("x") >= 3, var("x") <= 1])

        def body():
            Polyhedron(["x"], [var("x") >= 3, var("x") <= 1]).is_empty()

        poly.is_empty()
        assert _counted("cache.emptiness", body) == {"hits": 1}
        assert EMPTINESS_MEMO.name == "cache.emptiness"
        assert EMPTINESS_MEMO.max_entries == 50_000

    def test_farkas_memo_reports(self):
        def body():
            # Equal polyhedron and form, rebuilt: only content can hit.
            poly = Polyhedron(["x"], [var("x") >= 0, var("x") <= 4])
            form = SymbolicAffineForm({"x": var("a")}, var("c"))
            problem = Problem()
            for name in ("a", "c"):
                problem.add_variable(name, lower=-2, upper=2)
            add_farkas_nonneg(problem, "f", poly, form, set())

        body()
        assert _counted("cache.farkas", body) == {"hits": 1}
        assert FARKAS_MEMO.name == "cache.farkas"
