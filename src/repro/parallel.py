"""Parallel execution engine: a persistent process pool for the cycle-level sweeps.

TensorDIMM's premise is rank-level parallelism — K DIMMs (and, on the
baseline, N channels) each owning an independent timing domain.  Inside
one design point the timing memo already collapses those domains: the
rank-interleaved layout gives every DIMM (and every CPU channel of a
Fig. 11/12 point) the same local stream, so a point drains once, in
process (:func:`repro.dram.memo.drain`).  What is left to spread over
processes is the grid of independent Fig. 11/12 design points, and that
is this module's one client: :func:`repro.bench.figure11.sweep_grid`
calls :func:`parallel_map`, an ordered ``map`` over a process pool.  The
analytic grids and the ablations run in-process; their points are too
cheap for a pool to pay.  Workloads seed their RNGs from the item itself
(``np.random.default_rng(seed)`` inside the worker), so results are
independent of which worker runs which point.

Worker counts resolve through :func:`resolve_jobs`: ``None`` means 1
(sequential), ``0`` means every CPU, and anything but a non-negative
``int`` raises :class:`ValueError`.  A one-item map stays in-process.

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

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve a worker count: ``None`` is 1 (sequential), ``0`` every CPU.

    A negative, ``bool`` or non-``int`` value raises :class:`ValueError`
    naming ``jobs``.
    """
    if jobs is None:
        return 1
    if type(jobs) is not int or jobs < 0:
        raise ValueError(f"jobs must be an int >= 0 (0 = all CPUs), got {jobs!r}")
    return jobs or os.cpu_count() or 1


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
        max_workers=jobs, mp_context=multiprocessing.get_context(method)
    )
    _EXECUTORS[method] = (executor, jobs)
    return executor


def shutdown() -> None:
    """Tear down every pool (registered atexit; tests may call directly)."""
    for executor, _ in _EXECUTORS.values():
        executor.shutdown(wait=False, cancel_futures=True)
    _EXECUTORS.clear()


atexit.register(shutdown)


# -- generic sweep fan-out ----------------------------------------------------

def parallel_map(fn, items, jobs: int | None = None, start_method: str | None = None) -> list:
    """Ordered ``list(map(fn, items))`` over the process pool.

    ``fn`` must be a module-level (picklable) callable and every item must
    be picklable.  Falls back to the plain in-process map when ``jobs``
    resolves to 1 or there are fewer than two items.  Results come back in
    item order regardless of completion order; items go to workers one at
    a time, since each is a coarse cycle-level design point.
    """
    items = list(items)
    jobs = resolve_jobs(jobs)
    if jobs < 2 or len(items) < 2:
        return [fn(item) for item in items]
    return list(get_executor(jobs, start_method).map(fn, items))
