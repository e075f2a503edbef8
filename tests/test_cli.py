"""Tests for the command line interface."""

import pytest

from repro.cli import build_arg_parser, main
from repro.obs.store import RunStore

KERNEL_TEXT = """
kernel cli_demo (M=64, N=16)
tensor A[M][N]
tensor B[M][N]
S[i: 0..M, j: 0..N]: B[i][j] = f(A[i][j])
"""


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "op.kdl"
    path.write_text(KERNEL_TEXT)
    return str(path)


class TestCompile:
    def test_compile_default(self, kernel_file, capsys):
        assert main(["compile", kernel_file]) == 0
        out = capsys.readouterr().out
        assert "variant infl" in out
        assert "forall" in out

    def test_compile_all_variants_measured(self, kernel_file, capsys):
        assert main(["compile", kernel_file, "--all-variants",
                     "--measure", "--sample-blocks", "2"]) == 0
        out = capsys.readouterr().out
        for variant in ("isl", "tvm", "novec", "infl"):
            assert f"variant {variant}" in out
        assert "modelled time" in out

    def test_missing_file(self, capsys):
        assert main(["compile", "/nonexistent/op.kdl"]) == 2

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.kdl"
        bad.write_text("kernel k (N=4)\nbroken")
        assert main(["compile", str(bad)]) == 2
        assert "parse error" in capsys.readouterr().err


class TestScenarios:
    def test_scenarios_output(self, kernel_file, capsys):
        assert main(["scenarios", kernel_file]) == 0
        out = capsys.readouterr().out
        assert "Influenced dimension scenarios" in out
        assert "Influence constraint tree" in out


class TestTables:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "BERT" in capsys.readouterr().out

    def test_table2_subset(self, capsys):
        assert main(["table2", "--networks", "LSTM", "--limit", "2",
                     "--sample-blocks", "2"]) == 0
        out = capsys.readouterr().out
        assert "TABLE II" in out
        assert "geomean" in out

    def test_table2_unknown_network(self, capsys):
        assert main(["table2", "--networks", "AlexNet"]) == 2


def _namespace(command, func, **fields):
    return dict(verbose=0, quiet=0, command=command, func=func, **fields)


_TABLE2 = dict(
    limit=6, networks="", seed=0, sample_blocks=8, jobs=1, deadline_ms=0.0,
    verify=False, allow_degraded=False, task_timeout=0.0, retries=2,
    retry_backoff=0.1, resume=None, no_checkpoint=False, trace="",
    trace_format="flat", metrics="", runs_dir="", no_record=False)
_PROFILE = dict(
    network="bert", variant="infl", limit=4, seed=0, sample_blocks=8,
    max_threads=256, deadline_ms=0.0, baseline="", resume=None,
    no_checkpoint=False, trace="", trace_format="flat", metrics="",
    runs_dir="", no_record=False)
_VERIFY = dict(
    networks="", seed=0, limit=2, sample_blocks=2, max_threads=256,
    update_goldens=False, goldens_dir="", corpus_dir="", no_goldens=False,
    no_families=False, no_oracle=False, no_metamorphic=False,
    no_corpus=False, metrics="")

# argv -> vars() of the parsed namespace, with the handler by name.  The
# shared flag blocks are argparse parents; per-subcommand defaults (--limit,
# verify's --sample-blocks) must survive them.
PARSER_TABLE = [
    (["compile", "op.kdl"],
     _namespace("compile", "_cmd_compile", file="op.kdl", variant="infl",
                all_variants=False, measure=False, sample_blocks=8,
                max_threads=256, runs_dir="", no_record=False)),
    (["scenarios", "op.kdl"],
     _namespace("scenarios", "_cmd_scenarios", file="op.kdl")),
    (["table1"], _namespace("table1", "_cmd_table1", metrics="")),
    (["table2"], _namespace("table2", "_cmd_table2", **_TABLE2)),
    # The exact argv the perfbench `table2-jobs2` workload passes.
    (["-q", "table2", "--jobs", "2", "--limit", "6", "--networks",
      "BERT,LSTM", "--seed", "0", "--runs-dir", "runs", "--metrics", "m.json"],
     dict(_namespace("table2", "_cmd_table2", **_TABLE2), quiet=1, jobs=2,
          networks="BERT,LSTM", runs_dir="runs", metrics="m.json")),
    (["table2", "--resume", "--deadline-ms", "50", "--sample-blocks", "2"],
     dict(_namespace("table2", "_cmd_table2", **_TABLE2), resume="auto",
          deadline_ms=50.0, sample_blocks=2)),
    (["profile", "bert"], _namespace("profile", "_cmd_profile", **_PROFILE)),
    (["profile", "bert", "--resume", "ab12", "--no-checkpoint", "--seed",
      "3", "--max-threads", "64"],
     dict(_namespace("profile", "_cmd_profile", **_PROFILE), resume="ab12",
          no_checkpoint=True, seed=3, max_threads=64)),
    (["explain", "lstm", "--run", "latest"],
     _namespace("explain", "_cmd_explain", network="lstm", operator="",
                variant="infl", seed=0, limit=4, sample_blocks=8,
                max_threads=256, run="latest", runs_dir="")),
    (["obs", "list"],
     _namespace("obs", "_cmd_obs_list", obs_command="list", runs_dir="")),
    (["obs", "show", "latest"],
     _namespace("obs", "_cmd_obs_show", obs_command="show", run="latest",
                runs_dir="")),
    (["obs", "diff", "a", "b", "--fail-on-regression"],
     _namespace("obs", "_cmd_obs_diff", obs_command="diff", run_a="a",
                run_b="b", threshold=0.05, fail_on_regression=True,
                runs_dir="")),
    (["obs", "trend"],
     _namespace("obs", "_cmd_obs_trend", obs_command="trend", match="",
                threshold=0.05, fail_on_regression=False, runs_dir="")),
    (["obs", "bench-append", "f.json"],
     _namespace("obs", "_cmd_obs_bench_append", obs_command="bench-append",
                file="f.json", source="", runs_dir="")),
    (["verify"], _namespace("verify", "_cmd_verify", **_VERIFY)),
    (["verify", "--sample-blocks", "4", "--seed", "1"],
     dict(_namespace("verify", "_cmd_verify", **_VERIFY), sample_blocks=4,
          seed=1)),
    (["fuzz", "--seed", "7"],
     _namespace("fuzz", "_cmd_fuzz", budget=30.0, seed=7, cases=0,
                corpus_dir="", no_corpus=False, metrics="")),
]


class TestParser:
    @pytest.mark.parametrize("argv,expected", PARSER_TABLE,
                             ids=[" ".join(argv) for argv, _ in PARSER_TABLE])
    def test_namespace(self, argv, expected):
        namespace = vars(build_arg_parser().parse_args(argv))
        namespace["func"] = namespace["func"].__name__
        assert namespace == expected


class TestControlArmParity:
    """Stored Table II operator records are bitwise-identical whichever
    interpreter simulates the launches."""

    ARGV = ["-q", "table2", "--networks", "LSTM,BERT,ResNeXt50,MobileNetv2",
            "--limit", "2", "--sample-blocks", "2", "--no-checkpoint"]

    def _operators(self, runs_dir) -> list:
        assert main(self.ARGV + ["--runs-dir", str(runs_dir)]) == 0
        return RunStore(str(runs_dir)).records()[-1]["operators"]

    @pytest.mark.parametrize("arm", ["reference_simulator"])
    def test_table2_records_identical(self, arm, request, tmp_path):
        default = self._operators(tmp_path / "default")
        request.getfixturevalue(arm)
        assert self._operators(tmp_path / arm) == default

