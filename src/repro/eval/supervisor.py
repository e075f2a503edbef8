"""Parallel evaluation: a fork pool whose workers exit with their parent.

Workers are forked, so they start with the parent's warm process-wide
memos (dependences, emptiness, Farkas blocks, simulated profiles).  Each
evaluates ``(network, index)`` tasks through
:func:`repro.eval.runner._evaluate_index` and returns the operator
result with its metric snapshot.  A worker moves everything it inherited
into the collector's permanent generation (``gc.freeze``), so no
full collection walks the parent's heap in the middle of an operator:
where such a pause landed shifted with every change to the number of
objects the program allocates, and it set the slowest operators' times.

Two failure modes stay loud and bounded:

* A worker that dies (crash, OOM-kill) breaks the pool: the run raises
  :class:`~concurrent.futures.process.BrokenProcessPool` instead of
  waiting, and ``--resume`` finishes it from the checkpoint.
* A parent that dies (SIGKILL) takes its workers along: each worker
  watches the parent's sentinel from a daemon thread and exits when it
  closes, instead of blocking forever on the task queue.

A solve that runs too long is bounded inside the worker by the
``--deadline-ms`` :class:`~repro.solver.budget.SolveBudget`.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor, as_completed
from multiprocessing.connection import wait
from typing import Callable


def _init_worker() -> None:
    """Pool initializer: freeze the inherited heap, and end this worker as
    soon as its parent dies."""
    gc.freeze()
    sentinel = multiprocessing.parent_process().sentinel

    def watch() -> None:
        wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def run_supervised(tasks: list[tuple[str, int]], config, jobs: int,
                   on_complete: Callable) -> None:
    """Evaluate ``(network, index)`` tasks on ``jobs`` forked workers.

    ``on_complete(network, index, result, metrics)`` fires once per task
    in completion order (results are deterministic regardless of that
    order).  A worker's exception, or its death, propagates.
    """
    from repro.eval import runner

    pool = ProcessPoolExecutor(max_workers=min(jobs, len(tasks)),
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_init_worker)
    try:
        futures = {pool.submit(runner._evaluate_index, network, config,
                               index): network
                   for network, index in tasks}
        for future in as_completed(futures):
            index, result, metrics = future.result()
            on_complete(futures[future], index, result, metrics)
    finally:
        pool.shutdown(cancel_futures=True)
