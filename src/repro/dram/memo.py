"""Cross-layer timing memoization and the one drain entry point.

A FR-FCFS drain is a pure function of the controller's configuration and
of the trace's read stream and write stream: sequence numbers only break
ties *relative* to each other, and only within one direction, so two
equally configured controllers draining traces that merge the same read
stream with the same write stream, in any interleaving, produce
bit-identical :class:`~repro.dram.controller.ControllerStats` (the argument
is in :meth:`~repro.dram.command.TraceBuffer.digest`).  :func:`drain` is
the only consumer of the two memo levels that cache that function, and
every memo-backed drain in the package goes through it (the ablation
studies in :mod:`repro.bench.ablation` drain their controllers directly,
outside the memos):

* :data:`INSTR_MEMO` — the instruction-level memo, keyed by
  ``(ControllerConfig, OpTraffic.key)``.  An
  :class:`~repro.dram.trace.OpTraffic` describes an NMP instruction's
  traffic symbolically (see :meth:`~repro.core.nmp_core.NmpCore.describe`);
  a hit builds no trace and hashes no bulk array.
* :data:`TIMING_MEMO` — the trace-level memo, keyed by
  ``(ControllerConfig, TraceBuffer.digest())``, a content hash of the read
  stream and the write stream, so the cache needs no invalidation.  The
  8 channels of a Fig. 11/12 CPU point share one key even where their
  reads and writes interleave differently (AVERAGE).

Lookup order: the instruction memo, then the description's one-channel
share (:meth:`~repro.dram.trace.OpTraffic.share`), then the trace memo,
then a real drain; a miss is stored at every level it passed.  Both levels
are LRU and bounded by entry count and by an approximate resident-byte
cap; hits hand back a fresh copy of the stored stats.

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

import sys
from collections import OrderedDict
from dataclasses import replace

from ..env import reference_mode
from .controller import ControllerConfig, ControllerStats, MemoryController


def _entry_nbytes(key, stats: ControllerStats) -> int:
    """Approximate resident size of one cache entry.

    Good enough for a byte-aware cap: the stored value's boxed fields plus
    a flat allowance for the key tuple (configs are shared across entries,
    so only the per-entry digest/descriptor and dict slot are charged).
    """
    size = sys.getsizeof(stats) + 96  # key tuple + OrderedDict slot allowance
    d = getattr(stats, "__dict__", None)
    if d is not None:
        size += sum(sys.getsizeof(v) for v in d.values())
    return size


class _LruStatsCache:
    """A bounded LRU ``key -> ControllerStats`` map with byte accounting.

    Shared engine of both memo levels: lookups move the entry to the MRU
    end, stores evict from the LRU end while either the entry count or the
    approximate resident-byte total is over its cap.  Subclasses define
    the public key-building ``lookup``/``store`` wrappers.
    """

    def __init__(self, max_entries: int = 4096, max_bytes: int = 32 << 20):
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: OrderedDict[tuple, tuple[ControllerStats, int]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.resident_bytes = 0

    @property
    def enabled(self) -> bool:
        """False in reference mode (``REPRO_REFERENCE=1``)."""
        return not reference_mode()

    def __len__(self) -> int:
        return len(self._entries)

    def _lookup(self, key) -> ControllerStats | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)  # LRU: a hit refreshes recency
        self.hits += 1
        return replace(entry[0])

    def _store(self, key, stats: ControllerStats) -> None:
        old = self._entries.pop(key, None)
        if old is not None:
            self.resident_bytes -= old[1]
        nbytes = _entry_nbytes(key, stats)
        while self._entries and (
            len(self._entries) >= self.max_entries
            or self.resident_bytes + nbytes > self.max_bytes
        ):
            _, (_, evicted_bytes) = self._entries.popitem(last=False)
            self.resident_bytes -= evicted_bytes
            self.evictions += 1
        self._entries[key] = (replace(stats), nbytes)
        self.resident_bytes += nbytes

    def clear(self) -> None:
        """Drop every entry and zero the counters (tests, benchmarks)."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.resident_bytes = 0

    def stats(self) -> dict:
        """Counters in the shape the benchmark sweep entries record."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hits / total, 4) if total else 0.0,
            "entries": len(self._entries),
            "evictions": self.evictions,
            "resident_bytes": self.resident_bytes,
        }


class TimingMemo(_LruStatsCache):
    """The trace-level memo: ``(config, trace digest) -> stats``."""

    def lookup(self, config: ControllerConfig, trace) -> ControllerStats | None:
        """Cached stats for draining ``trace`` through ``config``, or None.

        ``trace`` is a :class:`~repro.dram.command.TraceBuffer`; a hit
        returns a fresh copy and counts toward :attr:`hits`, a miss counts
        toward :attr:`misses`.  Always misses, uncounted, in reference mode.
        """
        if not self.enabled:
            return None
        return self._lookup((config, trace.digest()))

    def store(self, config: ControllerConfig, trace, stats: ControllerStats) -> None:
        """Record the drain result (a private copy is stored)."""
        if not self.enabled:
            return
        self._store((config, trace.digest()), stats)


class InstructionMemo(_LruStatsCache):
    """The instruction-level memo: ``(config, OpTraffic.key) -> stats``.

    The description is symbolic — a hit never touches, builds, or hashes
    the trace arrays (the zero-materialization test pins this with the
    :class:`~repro.dram.command.TraceBuffer` counters).  Soundness rests
    on the same purity argument as the trace memo, one step removed:
    equal descriptions have byte-identical one-channel shares
    (:meth:`repro.dram.trace.OpTraffic.share`), and those drain
    bit-identically through equal configs.  The key leaves out the rows
    array (it holds their digest), so an entry keeps no rows alive.
    """

    def __init__(self, max_entries: int = 8192, max_bytes: int = 32 << 20):
        super().__init__(max_entries=max_entries, max_bytes=max_bytes)

    def lookup(self, config: ControllerConfig, descriptor) -> ControllerStats | None:
        """Cached stats for the traffic ``descriptor`` describes."""
        if not self.enabled:
            return None
        return self._lookup((config, descriptor.key))

    def store(self, config: ControllerConfig, descriptor, stats: ControllerStats) -> None:
        """Record the drain result under the symbolic key."""
        if not self.enabled:
            return
        self._store((config, descriptor.key), stats)


#: The process-wide memos (workers get their own copies of the module,
#: hence their own memos, in their own process).
TIMING_MEMO = TimingMemo()
INSTR_MEMO = InstructionMemo()


def timing_memo_stats() -> dict:
    """Hit/miss counters of the process-wide trace memo (bench reporting)."""
    return TIMING_MEMO.stats()


def instr_memo_stats() -> dict:
    """Hit/miss counters of the process-wide instruction memo."""
    return INSTR_MEMO.stats()


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
    its state afterwards does not depend on whether the memo hit.  Runs in
    worker processes too: :class:`repro.parallel.DrainBatch` ships calls
    to it.
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
