"""The one fork map of the package: independent tasks over forked workers.

`simulate` maps blocks of replicas and `diagnose` single replicas over it,
each command with one call and nothing else running beside the pool.
A task is ``fn(i)`` for an index i; the workers are forked after ``fn`` is
set, so they inherit it and whatever it reads, and only indices and results
cross processes.  There are at most as many workers as CPUs in the affinity
mask, and none (the tasks run in this process, in index order) with one
worker or without a "fork" start method.  Each task gives the same result
wherever it runs, and an error is chosen only once every task is done, so
neither the results nor the error depend on the worker count or on which
task finished first.  `multiprocessing` is imported only where a pool is
made.
"""

from __future__ import annotations

import os

from .errors import InvalidInputError, NumericFailureError

# the function the running map applies; forked workers inherit it
_task = None


def workers(tasks: int) -> int:
    """The processes `fork_map` runs ``tasks`` tasks on: min(tasks, CPUs in
    the affinity mask) forked workers, or 1, this process, where that is
    one or there is no "fork" start method."""
    n = min(tasks, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1)
    if n > 1:
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            return 1
    return n


def _ranked(i: int):
    """(None, ``_task(i)``), or (rank, error) when the task fails: by the
    error's path step, None (an input check before any step) first, then
    by i, which is how one ensemble run meets the failures of its rows."""
    try:
        return None, _task(i)
    except (InvalidInputError, NumericFailureError) as exc:
        step = getattr(exc, "step", None)
        return (-1 if step is None else step, i), exc


def fork_map(fn, tasks: int) -> list:
    """``[fn(i) for i in range(tasks)]`` over `workers(tasks)` forked
    workers, or in-process where that is 1.

    Errors are raised once every task is done: the lowest-ranked task's
    (`_ranked`).  The pool is shut down on every way out."""
    global _task
    _task = fn
    pool = None
    n = workers(tasks)
    try:
        if n > 1:
            import multiprocessing
            pool = multiprocessing.get_context("fork").Pool(n)
            results = pool.map(_ranked, range(tasks))
        else:
            results = list(map(_ranked, range(tasks)))
    finally:
        _task = None
        if pool is not None:
            pool.terminate()
            pool.join()
    failed = [result for result in results if result[0] is not None]
    if failed:
        raise min(failed, key=lambda result: result[0])[1]
    return [value for _, value in results]
