"""Evaluation harness: run the four variants over the network suites and
format Table I / Table II exactly as the paper reports them."""

from repro.eval.checkpoint import CheckpointError, EvalCheckpoint
from repro.eval.runner import (
    EvaluationConfig,
    NetworkResult,
    OperatorResult,
    evaluate_network,
    evaluate_all,
)
from repro.eval.tables import format_table1, format_table2, table2_row

__all__ = [
    "CheckpointError",
    "EvalCheckpoint",
    "EvaluationConfig",
    "NetworkResult",
    "OperatorResult",
    "evaluate_network",
    "evaluate_all",
    "format_table1",
    "format_table2",
    "table2_row",
]
