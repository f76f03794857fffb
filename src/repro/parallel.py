"""Parallel execution engine: process-pool fan-out for independent domains.

TensorDIMM's premise is rank-level parallelism — K DIMMs (and, on the
baseline, N channels) each owning an independent timing domain — yet a
single Python process can only drain those domains one after another.
This module fans them out across a persistent pool of worker processes:

* **Drain fan-out** (:class:`DrainBatch`): the one way a caller drains
  (``DramSystem.run``, ``TensorNode.broadcast_timed*``).  One rule per
  task: at ``jobs == 1`` or below ``MIN_TASK_RECORDS`` records it drains
  in-process through :func:`repro.dram.memo.drain`; otherwise the parent
  answers it from its memo, shares an identical task already in flight,
  or ships a :func:`~repro.dram.memo.drain` call to a worker.  A channel's
  backlog travels as its columnar trace; an NMP instruction travels as its
  symbolic :class:`~repro.dram.trace.OpTraffic` (with its index rows) and
  the worker builds the trace locally, so the payload is O(count) instead
  of O(trace records).  Because FR-FCFS age tie-breaks are relative, a
  worker-side drain is bit-identical to draining in-process, and results
  come back in submission order, so the merge is deterministic at every
  worker count.
* **Sweep fan-out** (:func:`parallel_map`): an ordered ``map`` over a
  process pool for design-point grids (CLI figures, ablations, service
  sims).  Workloads seed their RNGs from the item itself
  (``np.random.default_rng(seed)`` inside the worker), so results are
  independent of which worker runs which point.

Worker counts resolve through :func:`resolve_jobs`: an explicit ``jobs=``
argument wins, then the ``REPRO_JOBS`` environment variable, then 1
(sequential).  ``jobs=0`` (or any value < 1) means "use every CPU".  Work
too small for IPC to pay off stays in-process (tiny drains, lone drains,
one-item maps), so sprinkling ``jobs=`` through call sites never
pessimizes tiny runs.

Pools are created lazily, keyed by multiprocessing start method, and kept
alive for the life of the process (each worker keeps its controllers and
memos between tasks).  ``fork`` is the default where available; tests also
exercise ``spawn`` to prove payloads carry everything they need.
"""

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from .dram import memo
from .dram.controller import ControllerConfig, ControllerStats
from .env import read_env

#: Environment variable consulted when no explicit ``jobs=`` is given.
JOBS_ENV_VAR = "REPRO_JOBS"

#: Below this many trace records, IPC and pickling cost more than the
#: cycle-level drain they would overlap, so :class:`DrainBatch` keeps the
#: task in-process.
MIN_TASK_RECORDS = 4096


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
_EXECUTORS: dict[str, tuple[ProcessPoolExecutor, int]] = {}


def get_executor(jobs: int, start_method: str | None = None) -> ProcessPoolExecutor:
    """A persistent executor with at least ``jobs`` workers.

    Reusing one pool across calls is what lets workers amortize controller
    construction: :func:`repro.dram.memo.drain` keeps one controller per
    configuration for the worker's lifetime.  Asking for more workers than an existing pool has replaces
    it; asking for fewer reuses the bigger pool.
    """
    import multiprocessing

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


# -- drain fan-out -------------------------------------------------------------

class DrainBatch:
    """The one way a caller drains a batch of independent timing domains.

    :meth:`submit` follows one rule per task.  At ``jobs == 1``, or below
    :data:`MIN_TASK_RECORDS` records, the task drains in-process through
    :func:`repro.dram.memo.drain` (memo first, then a real drain).
    Otherwise this process's memo answers it if it can, an identical task
    already in flight (same config and trace digest, or same config and
    description) shares its worker call, and the rest ship to the pool at
    once.  The caller is free to work between :meth:`submit` and
    :meth:`results` (``TensorNode`` executes the instructions functionally
    meanwhile).  A caller with a single task passes ``jobs=1``: a lone
    drain has nothing to overlap with.
    """

    def __init__(self, jobs: int | None = None, start_method: str | None = None):
        self._jobs = resolve_jobs(jobs)
        self._start_method = start_method
        self._tasks: list = []  # per task: (its stats or in-flight key, controller)
        self._inflight: dict[tuple, tuple] = {}

    def submit(
        self, config: ControllerConfig, *, trace=None, descriptor=None, controller=None
    ) -> None:
        """Queue one drain (arguments as for :func:`repro.dram.memo.drain`;
        a ``controller`` adopts the task's stats, hit, miss or shipped)."""
        records = len(trace) if descriptor is None else descriptor.records
        if self._jobs == 1 or records < MIN_TASK_RECORDS:
            stats = memo.drain(
                config, trace=trace, descriptor=descriptor, controller=controller
            )
            self._tasks.append((stats, None))
            return
        if descriptor is not None:
            key = (config, descriptor.key)
            stats = memo.INSTR_MEMO.lookup(config, descriptor)
        else:
            key = (config, trace.digest())
            stats = memo.TIMING_MEMO.lookup(config, trace)
        if stats is None:
            if key not in self._inflight:
                # The pool starts on the first task the memo cannot answer.
                future = get_executor(self._jobs, self._start_method).submit(
                    memo.drain, config, trace=trace, descriptor=descriptor
                )
                self._inflight[key] = (future, trace, descriptor)
            stats = key
        self._tasks.append((stats, controller))

    def results(self) -> list[ControllerStats]:
        """Every task's stats, in submission order.

        Each shipped result is stored into this process's memo once, at
        the level it was looked up at; tasks that shared a worker call get
        their own copies.
        """
        stored = set()
        results = []
        for stats, controller in self._tasks:
            if not isinstance(stats, ControllerStats):
                key = stats
                future, trace, descriptor = self._inflight[key]
                stats = future.result()
                if key not in stored:
                    stored.add(key)
                    if descriptor is not None:
                        memo.INSTR_MEMO.store(key[0], descriptor, stats)
                    else:
                        memo.TIMING_MEMO.store(key[0], trace, stats)
                stats = replace(stats)
            if controller is not None:
                controller.adopt_run(stats)
            results.append(stats)
        return results


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
