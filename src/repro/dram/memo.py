"""Cross-layer timing memoization and the one drain entry point.

A FR-FCFS drain is a pure function of the controller's configuration and
of the trace's read stream and write stream: sequence numbers only break
ties *relative* to each other, and only within one direction, so two
equally configured controllers draining traces that merge the same read
stream with the same write stream, in any interleaving, produce
bit-identical :class:`~repro.dram.controller.ControllerStats` (the argument
is in :meth:`~repro.dram.command.TraceBuffer.digest`).  One bounded LRU
store caches that function, viewed as two levels.  Only :func:`drain` and
:class:`repro.parallel.DrainBatch` (which calls :func:`drain` for every
drain it keeps in-process) consult it; every memo-backed drain in the
package goes through them (the ablation studies in
:mod:`repro.bench.ablation` drain their controllers directly, outside the
memo):

* :data:`INSTR_MEMO` — the instruction level, keyed by
  ``(ControllerConfig, OpTraffic.key)``.  An
  :class:`~repro.dram.trace.OpTraffic` describes an NMP instruction's
  traffic symbolically (see :meth:`~repro.core.nmp_core.NmpCore.describe`);
  a hit builds no trace and hashes no bulk array.
* :data:`TIMING_MEMO` — the trace level, keyed by
  ``(ControllerConfig, TraceBuffer.digest())``, a content hash of the read
  stream and the write stream, so the cache needs no invalidation.  The
  8 channels of a Fig. 11/12 CPU point share one key even where their
  reads and writes interleave differently (AVERAGE).

The two key types (a tuple, a digest) never collide, so the levels share
one entry cap and one recency order; each level keeps its own hit, miss
and eviction counters, length, :meth:`~_MemoView.clear` and
:meth:`~_MemoView.stats`.  Lookup order: the instruction level, then the
description's one-channel share (:meth:`~repro.dram.trace.OpTraffic.share`),
then the trace level, then a real drain; a miss is stored at every level
it passed.  Hits hand back a fresh copy of the stored stats.

Two soundness rules:

* **pristine controllers only** — a warm controller's next drain continues
  from its clock/bank/stats state and is not a pure function of its
  pending trace, so callers hand :func:`drain` only pristine controllers.
* **adopt semantics** — a result for a caller's controller is adopted
  with ``adopt_run``, hit or miss: stats and clock match a real drain, and
  every bank is left closed.

``REPRO_REFERENCE=1`` (:func:`repro.env.reference_mode`) turns both levels
off, together with the controller's streak fast path.
"""

from collections import OrderedDict
from dataclasses import replace

from ..env import reference_mode
from .controller import ControllerConfig, ControllerStats, MemoryController


class _LruStatsCache:
    """The bounded LRU ``key -> ControllerStats`` store behind both levels.

    Each entry remembers the view (memo level) that stored it.  A lookup
    moves the entry to the MRU end; a store evicts from the LRU end while
    the store is full, and charges each eviction to the entry's view.
    """

    def __init__(self, max_entries: int = 12288):
        self.max_entries = max_entries
        self.entries: OrderedDict[tuple, tuple[ControllerStats, "_MemoView"]] = OrderedDict()

    def get(self, key) -> ControllerStats | None:
        entry = self.entries.get(key)
        if entry is None:
            return None
        self.entries.move_to_end(key)  # LRU: a hit refreshes recency
        return replace(entry[0])

    def put(self, key, stats: ControllerStats, view: "_MemoView") -> None:
        entries = self.entries
        entries.pop(key, None)
        while entries and len(entries) >= self.max_entries:
            _, (_, owner) = entries.popitem(last=False)
            owner.evictions += 1
        entries[key] = (replace(stats), view)


class _MemoView:
    """One memo level: its own keys in a shared store, its own counters.

    Subclasses define how ``lookup``/``store`` key their argument.
    """

    def __init__(self, store: _LruStatsCache):
        self._cache = store
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def enabled(self) -> bool:
        """False in reference mode (``REPRO_REFERENCE=1``)."""
        return not reference_mode()

    def lookup(self, config: ControllerConfig, item) -> ControllerStats | None:
        """Cached stats for draining ``item`` through ``config``, or None.

        A hit returns a fresh copy and counts toward :attr:`hits`, a miss
        counts toward :attr:`misses`.  Always misses, uncounted, in
        reference mode.
        """
        if not self.enabled:
            return None
        stats = self._cache.get(self._key(config, item))
        if stats is None:
            self.misses += 1
        else:
            self.hits += 1
        return stats

    def store(self, config: ControllerConfig, item, stats: ControllerStats) -> None:
        """Record the drain result (a private copy is stored)."""
        if self.enabled:
            self._cache.put(self._key(config, item), stats, self)

    def _keys(self) -> list:
        return [k for k, (_, view) in self._cache.entries.items() if view is self]

    def __len__(self) -> int:
        return len(self._keys())

    def clear(self) -> None:
        """Drop this level's entries and zero its counters (tests, benchmarks)."""
        for key in self._keys():
            del self._cache.entries[key]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> dict:
        """Counters in the shape the benchmark sweep entries record."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hits / total, 4) if total else 0.0,
            "entries": len(self),
            "evictions": self.evictions,
        }


class TimingMemo(_MemoView):
    """The trace level: ``(config, TraceBuffer.digest()) -> stats``."""

    @staticmethod
    def _key(config: ControllerConfig, trace) -> tuple:
        return (config, trace.digest())


class InstructionMemo(_MemoView):
    """The instruction level: ``(config, OpTraffic.key) -> stats``.

    The description is symbolic — a hit never touches, builds, or hashes
    the trace arrays (the zero-materialization test pins this with the
    :class:`~repro.dram.command.TraceBuffer` counters).  Soundness rests
    on the same purity argument as the trace memo, one step removed:
    equal descriptions have byte-identical one-channel shares
    (:meth:`repro.dram.trace.OpTraffic.share`), and those drain
    bit-identically through equal configs.  The key leaves out the rows
    array (it holds their digest), so an entry keeps no rows alive.
    """

    @staticmethod
    def _key(config: ControllerConfig, descriptor) -> tuple:
        return (config, descriptor.key)


#: The process-wide memo: one store, viewed as two levels (workers get
#: their own copies of the module, hence their own memo, in their own
#: process).
_STORE = _LruStatsCache()
TIMING_MEMO = TimingMemo(_STORE)
INSTR_MEMO = InstructionMemo(_STORE)


#: One reusable controller per distinct configuration, process-wide (each
#: worker process has its own), reset between drains.
_CONTROLLERS: dict[ControllerConfig, MemoryController] = {}


def _controller_for(config: ControllerConfig) -> MemoryController:
    """The cached controller for ``config``, reset to its pristine state
    (the drain then builds its rank and bank state afresh)."""
    controller = _CONTROLLERS.get(config)
    if controller is None:
        controller = _CONTROLLERS[config] = config.build()
    else:
        controller.reset()
    return controller


def drain(
    config: ControllerConfig,
    *,
    trace=None,
    descriptor=None,
    controller: MemoryController | None = None,
) -> ControllerStats:
    """The stats of draining one trace through a ``config`` controller.

    The trace is given as a :class:`~repro.dram.command.TraceBuffer`
    ``trace``, or symbolically as an :class:`~repro.dram.trace.OpTraffic`
    ``descriptor`` whose one-channel share is the trace, or both.  The
    instruction memo is consulted first, then the share is built and the
    trace memo consulted, and only if both miss is the trace drained; the
    result is stored at every level that missed.

    Without ``controller`` a miss drains on this process's cached
    controller for ``config``.  With one — pristine and already holding
    ``trace`` (``DramSystem.run``) — a miss drains that controller in place,
    and either way the result is adopted into it with ``adopt_run``, so
    its state afterwards does not depend on whether the memo hit.
    :class:`repro.parallel.DrainBatch` calls it for every drain it keeps
    in-process and ships calls to it to worker processes.
    """
    stats = None if descriptor is None else INSTR_MEMO.lookup(config, descriptor)
    if stats is None:
        if trace is None:
            trace = descriptor.share(0, 1)
        stats = TIMING_MEMO.lookup(config, trace)
        if stats is None:
            target = controller
            if target is None:
                target = _controller_for(config)
                target.enqueue_batch(trace)
            stats = target.run_to_completion()
            TIMING_MEMO.store(config, trace, stats)
        if descriptor is not None:
            INSTR_MEMO.store(config, descriptor, stats)
    if controller is not None:
        # Hit or miss, the caller's controller ends in the same state.
        controller.adopt_run(stats)
    return stats
