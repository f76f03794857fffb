"""Parallel execution engine: a persistent process pool for design-point sweeps.

TensorDIMM's premise is rank-level parallelism — K DIMMs (and, on the
baseline, N channels) each owning an independent timing domain.  Inside
one design point the timing memo already collapses those domains: the
rank-interleaved layout gives every DIMM (and every CPU channel of a
Fig. 11/12 point) the same local stream, so a point drains once, in
process (:func:`repro.dram.memo.drain`).  What is left to spread over
processes is the grid of independent design points, and that is this
module's one client, :func:`parallel_map`: an ordered ``map`` over a
process pool for design-point grids (CLI figures, ablations, analytic
grids).  Workloads seed their RNGs from the item itself
(``np.random.default_rng(seed)`` inside the worker), so results are
independent of which worker runs which point.

Worker counts resolve through :func:`resolve_jobs`: an explicit ``jobs=``
argument wins, then the ``REPRO_JOBS`` environment variable, then 1
(sequential).  ``jobs=0`` (or any value < 1) means "use every CPU".  A
one-item map stays in-process.

Pools are created lazily, keyed by multiprocessing start method, and kept
alive for the life of the process (each worker keeps its controllers and
its memo between points).  ``fork`` is the default where available; tests
also exercise ``spawn`` to prove payloads carry everything they need.
The pool machinery (``multiprocessing``, ``concurrent.futures``) is
imported only when a pool is asked for, so a sequential run pays nothing
for it.
"""

import atexit
import os
from typing import TYPE_CHECKING

from .env import read_env

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: Environment variable consulted when no explicit ``jobs=`` is given.
JOBS_ENV_VAR = "REPRO_JOBS"

#: Set in worker processes so nested fan-out degrades to sequential.
_WORKER_ENV_VAR = "REPRO_PARALLEL_WORKER"


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve a worker count: explicit arg > $REPRO_JOBS > 1 (sequential).

    Any resolved value < 1 (e.g. ``jobs=0``) means "all CPUs".  Inside a
    pool worker this always returns 1 — a sweep point that itself calls a
    ``jobs=``-aware API must not recursively spawn pools.
    """
    if os.environ.get(_WORKER_ENV_VAR):
        return 1
    if jobs is None:
        jobs = read_env(JOBS_ENV_VAR, 1)
    if jobs < 1:
        jobs = os.cpu_count() or 1
    return jobs


def default_start_method() -> str:
    """``fork`` where the platform offers it (cheap workers), else spawn."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


# -- persistent pools ---------------------------------------------------------

#: Live executors keyed by start method; values are (executor, max_workers).
_EXECUTORS: dict[str, tuple["ProcessPoolExecutor", int]] = {}


def get_executor(jobs: int, start_method: str | None = None) -> "ProcessPoolExecutor":
    """A persistent executor with at least ``jobs`` workers.

    Reusing one pool across calls is what lets workers amortize controller
    construction: :func:`repro.dram.memo.drain` keeps one controller per
    configuration for the worker's lifetime.  Asking for more workers than
    an existing pool has replaces it; asking for fewer reuses the bigger
    pool.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    method = start_method or default_start_method()
    cached = _EXECUTORS.get(method)
    if cached is not None and cached[1] >= jobs:
        return cached[0]
    if cached is not None:
        cached[0].shutdown(wait=False, cancel_futures=True)
    executor = ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=multiprocessing.get_context(method),
        initializer=_worker_init,
    )
    _EXECUTORS[method] = (executor, jobs)
    return executor


def _worker_init() -> None:
    """Mark the process as a pool worker (disables nested fan-out)."""
    os.environ[_WORKER_ENV_VAR] = "1"


def shutdown() -> None:
    """Tear down every pool (registered atexit; tests may call directly)."""
    for executor, _ in _EXECUTORS.values():
        executor.shutdown(wait=False, cancel_futures=True)
    _EXECUTORS.clear()


atexit.register(shutdown)


# -- generic sweep fan-out ----------------------------------------------------

def parallel_map(
    fn,
    items,
    jobs: int | None = None,
    start_method: str | None = None,
    chunksize: int | None = None,
) -> list:
    """Ordered ``list(map(fn, items))`` over the process pool.

    ``fn`` must be a module-level (picklable) callable and every item must
    be picklable.  Falls back to the plain in-process map when ``jobs``
    resolves to 1 or there are fewer than two items.  Results come back in
    item order regardless of completion order.
    """
    items = list(items)
    jobs = resolve_jobs(jobs)
    if jobs < 2 or len(items) < 2:
        return [fn(item) for item in items]
    executor = get_executor(jobs, start_method)
    if chunksize is None:
        chunksize = max(1, len(items) // (jobs * 4))
    return list(executor.map(fn, items, chunksize=chunksize))
