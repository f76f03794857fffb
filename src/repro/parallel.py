"""Parallel execution engine: process-pool fan-out for independent domains.

TensorDIMM's premise is rank-level parallelism — K DIMMs (and, on the
baseline, N channels) each owning an independent timing domain — yet a
single Python process can only drain those domains one after another.
This module fans them out across a persistent pool of worker processes:

* **Trace replay** (:func:`replay_traces`): the cycle-level FR-FCFS drain
  of one channel/DIMM is shipped to a worker as a *compact columnar
  payload* — the trace's ``addr`` / ``is_write`` / ``cycle`` numpy arrays
  plus a :class:`~repro.dram.controller.ControllerConfig` snapshot.  Each
  worker rebuilds the controller **once per distinct config** and keeps it
  cached (reset between traces), so steady-state calls ship only arrays.
* **Descriptor replay** (:func:`replay_descriptor`): instruction-shaped
  drains ship a symbolic :class:`~repro.dram.command.TraceDescriptor`
  (plus the raw index array only when the opcode's trace depends on index
  contents) and the worker expands the trace locally
  (:func:`repro.core.nmp_core.expand`) — the IPC payload collapses from
  O(trace records) to O(count) or O(1).  This is the miss path of the
  instruction-level timing memo; see :mod:`repro.dram.memo`.
  Because FR-FCFS age tie-breaks are relative, a worker-side replay is
  bit-identical to draining the original controller in-process; callers
  (`DramSystem.run`, `TensorNode.broadcast_timed*`) merge the returned
  :class:`~repro.dram.controller.ControllerStats` in submission order, so
  the merged result is deterministic at every worker count.
* **Sweep fan-out** (:func:`parallel_map`): an ordered ``map`` over a
  process pool for design-point grids (CLI figures, ablations, service
  sims).  Workloads seed their RNGs from the item itself
  (``np.random.default_rng(seed)`` inside the worker), so results are
  independent of which worker runs which point.

Worker counts resolve through :func:`resolve_jobs`: an explicit ``jobs=``
argument wins, then the ``REPRO_JOBS`` environment variable, then 1
(sequential).  ``jobs=0`` (or any value < 1) means "use every CPU".  Both
fan-out helpers fall back to plain in-process execution when the work is
too small for IPC to pay off (see ``MIN_TASK_RECORDS``), so sprinkling
``jobs=`` through call sites never pessimizes tiny runs.

Pools are created lazily, keyed by multiprocessing start method, and kept
alive for the life of the process (the per-worker controller cache is the
point of persistence).  ``fork`` is the default where available; tests
also exercise ``spawn`` to prove payloads carry everything they need.
"""

import atexit
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .dram.command import TraceBuffer, TraceDescriptor
from .dram.controller import ControllerConfig, ControllerStats, MemoryController
from .dram.memo import INSTR_MEMO, TIMING_MEMO
from .env import read_env

#: Environment variable consulted when no explicit ``jobs=`` is given.
JOBS_ENV_VAR = "REPRO_JOBS"

#: Below this many trace records per task, IPC + pickling dominates the
#: cycle-level replay and the engine silently stays in-process.  Override
#: with the REPRO_PARALLEL_MIN_RECORDS environment variable (0 disables
#: the fallback, useful for tests).
MIN_TASK_RECORDS = 4096

_MIN_RECORDS_ENV_VAR = "REPRO_PARALLEL_MIN_RECORDS"


def min_task_records() -> int:
    """The effective tiny-trace fallback threshold (env-overridable)."""
    return read_env(_MIN_RECORDS_ENV_VAR, MIN_TASK_RECORDS)


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
    construction: the cache in :func:`replay_trace` lives for the worker's
    lifetime.  Asking for more workers than an existing pool has replaces
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


# -- worker-side trace replay -------------------------------------------------

#: Per-worker controller cache: one construction per distinct config.
_WORKER_CONTROLLERS: dict[ControllerConfig, MemoryController] = {}


def _cached_controller(config: ControllerConfig) -> MemoryController:
    controller = _WORKER_CONTROLLERS.get(config)
    if controller is None:
        controller = config.build()
        _WORKER_CONTROLLERS[config] = controller
    else:
        controller.reset()
    return controller


def replay_trace(
    config: ControllerConfig,
    addr: np.ndarray,
    is_write: np.ndarray,
    cycle: np.ndarray,
) -> ControllerStats:
    """Drain one columnar trace on a (cached) controller; runs in a worker.

    Also callable in-process — the sequential fallback and the parallel
    path execute literally the same function, which is what makes the
    bit-identity guarantee easy to audit.  The drain is memoized through
    the process-local timing cache (each worker owns one), so repeated
    traces within a fan-out cost a hash lookup.
    """
    trace = TraceBuffer(addr, is_write, cycle)
    stats = TIMING_MEMO.lookup(config, trace)
    if stats is not None:
        return stats
    controller = _cached_controller(config)
    controller.enqueue_batch(trace)
    stats = controller.run_to_completion()
    TIMING_MEMO.store(config, trace, stats)
    return stats


def replay_descriptor(
    config: ControllerConfig,
    descriptor: TraceDescriptor,
    indices: np.ndarray | None = None,
) -> ControllerStats:
    """Expand a symbolic descriptor and drain it; runs in a worker.

    The worker-side twin of the instruction-level memo's miss path: the
    parent ships ``(config, descriptor[, indices])`` — O(count) bytes at
    most — and the trace is materialized here, in the process that will
    drain it.  Both worker-local memo levels participate: a repeated
    descriptor within a fan-out costs one dict lookup, and the expanded
    trace is stored under its content digest too, so descriptor- and
    trace-shipped replays of the same traffic share one drain per worker.
    Also callable in-process, which keeps the sequential fallback and the
    parallel path literally the same function (the bit-identity argument).
    """
    from .core.nmp_core import expand

    stats = INSTR_MEMO.lookup(config, descriptor)
    if stats is not None:
        return stats
    trace = expand(descriptor, indices)
    stats = TIMING_MEMO.lookup(config, trace)
    if stats is None:
        controller = _cached_controller(config)
        controller.enqueue_batch(trace)
        stats = controller.run_to_completion()
        TIMING_MEMO.store(config, trace, stats)
    INSTR_MEMO.store(config, descriptor, stats)
    return stats


def replay_traces(
    tasks,
    jobs: int | None = None,
    start_method: str | None = None,
) -> list[ControllerStats]:
    """Replay ``(config, trace)`` tasks, fanned out over the process pool.

    ``tasks`` is a sequence of ``(ControllerConfig, TraceBuffer)`` pairs;
    the result is one :class:`ControllerStats` per task **in task order**
    (merging is therefore deterministic at every worker count).  Runs
    in-process when ``jobs`` resolves to 1, there is at most one task, or
    every trace is below the tiny-trace threshold.

    The parent consults the timing memo *before* submitting: a task whose
    ``(config, trace digest)`` was drained before is answered from the
    cache and never shipped over IPC at all.  Worker results are stored
    back into the parent's memo on collection.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    threshold = min_task_records()
    big_enough = any(len(trace) >= threshold for _, trace in tasks)
    if jobs < 2 or len(tasks) < 2 or not big_enough:
        return [
            replay_trace(config, trace.addr, trace.is_write, trace.cycle)
            for config, trace in tasks
        ]
    cached = [TIMING_MEMO.lookup(config, trace) for config, trace in tasks]
    if all(s is not None for s in cached):
        return cached
    executor = get_executor(jobs, start_method)
    futures = [
        None
        if hit is not None
        else executor.submit(
            replay_trace, config, trace.addr, trace.is_write, trace.cycle
        )
        for hit, (config, trace) in zip(cached, tasks)
    ]
    results = []
    for hit, future, (config, trace) in zip(cached, futures, tasks):
        if hit is not None:
            results.append(hit)
            continue
        stats = future.result()
        TIMING_MEMO.store(config, trace, stats)
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
