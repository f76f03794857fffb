"""Cross-layer timing memoization for the cycle-level DRAM core.

A FR-FCFS drain is a pure function of ``(ControllerConfig, trace)``:
sequence numbers only break ties *relative* to each other, so two equally
configured controllers draining byte-identical traces produce bit-identical
:class:`~repro.dram.controller.ControllerStats` (the invariant the parity
and parallel-determinism suites already pin).  This module caches that
function at **two levels**:

* :data:`TIMING_MEMO` — the trace-level memo, keyed by
  ``(ControllerConfig, TraceBuffer.digest())``.  The digest is a content
  hash over the trace's address/direction/arrival columns, so the cache is
  *content-addressed* and needs no invalidation: a changed trace simply
  hashes to a different key.  This layer serves any consumer that already
  holds a materialized trace (``DramSystem.run`` backlogs, worker-side
  replays).
* :data:`INSTR_MEMO` — the instruction-level memo, keyed by
  ``(ControllerConfig, TraceDescriptor)``.  A
  :class:`~repro.dram.command.TraceDescriptor` is a symbolic stand-in for
  the trace (opcode, count, local bases, index-content digest — see
  :meth:`~repro.core.nmp_core.NmpCore.describe`), computable in O(index
  bytes) or O(1) without building the trace at all.  A hit here —
  ``TensorDimm.execute_timed(_batch)``, ``TensorNode.broadcast_timed*``,
  the runtime's combine chains — performs **zero** trace materialization
  and **zero** bulk-array hashing; a miss falls through to the trace
  level (and, in the parallel engine, ships the descriptor instead of the
  columnar trace, collapsing IPC payloads from O(records) to O(count)).

Both levels are LRU (a hit refreshes recency) and bounded twice over: by
entry count and by an approximate resident-byte cap; evictions and
resident bytes are surfaced through :func:`timing_memo_stats` /
:func:`instr_memo_stats` for the benchmark sweeps.

Hits hand back a fresh ``dataclasses.replace`` copy, never the stored
object, so callers may mutate their stats freely.

Two soundness boundaries, enforced at the consumer sites:

* **pristine controllers only** — a warm controller's next drain
  continues from its accumulated clock/bank/stats state and is *not* a
  pure function of the pending trace, so ``DramSystem.run`` gates memo
  participation (lookup *and* store) on ``MemoryController.pristine``;
  the TensorDimm and worker-replay paths always reset first.
* **adopt semantics** — a hit is adopted via ``adopt_run``: observable
  stats and clock match a real drain exactly, but bank-state warmth
  (open rows) is not carried over — the same contract the parallel
  engine's worker replays have always had.

``REPRO_TIMING_CACHE=0`` disables the trace-level cache and
``REPRO_INSTR_MEMO=0`` the instruction-level one, each process-wide (the
flags are read dynamically, so tests and benchmarks can flip them around
individual runs).  With the instruction memo off, every timed path is
bit-identical to the trace-built pipeline — it is the kill switch the
descriptor parity tests run both sides of.
"""

import sys
from collections import OrderedDict
from dataclasses import replace

from ..env import read_env
from .controller import ControllerConfig, ControllerStats

#: Kill switch: set to ``0`` / ``off`` / ``false`` to disable the
#: trace-level memo.
TIMING_CACHE_ENV_VAR = "REPRO_TIMING_CACHE"

#: Kill switch for the instruction-level (descriptor-keyed) memo.
INSTR_MEMO_ENV_VAR = "REPRO_INSTR_MEMO"


def timing_cache_default() -> bool:
    """The environment-resolved cache default (see ``REPRO_TIMING_CACHE``)."""
    return read_env(TIMING_CACHE_ENV_VAR, True)


def instr_memo_default() -> bool:
    """The environment-resolved default of the instruction-level memo."""
    return read_env(INSTR_MEMO_ENV_VAR, True)


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
    the kill-switch environment variable and the public key-building
    ``lookup``/``store`` wrappers.
    """

    env_var: str = TIMING_CACHE_ENV_VAR

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
        return read_env(self.env_var, True)

    def __len__(self) -> int:
        return len(self._entries)

    def _lookup(self, key) -> ControllerStats | None:
        if not self.enabled:
            return None
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)  # LRU: a hit refreshes recency
        self.hits += 1
        return replace(entry[0])

    def _store(self, key, stats: ControllerStats) -> None:
        if not self.enabled:
            return
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

    env_var = TIMING_CACHE_ENV_VAR

    def lookup(self, config: ControllerConfig, trace) -> ControllerStats | None:
        """Cached stats for draining ``trace`` through ``config``, or None.

        ``trace`` is a :class:`~repro.dram.command.TraceBuffer`; a hit
        returns a fresh copy and counts toward :attr:`hits`, a miss counts
        toward :attr:`misses`.  Always misses when the cache is disabled.
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
    """The instruction-level memo: ``(config, TraceDescriptor) -> stats``.

    The descriptor is symbolic — a hit never touches, builds, or hashes
    the trace arrays (the zero-materialization test pins this with the
    :class:`~repro.dram.command.TraceBuffer` counters).  Soundness rests
    on the same purity argument as the trace memo, one step removed:
    equal descriptors expand to byte-identical traces
    (:func:`repro.core.nmp_core.expand`), and byte-identical traces drain
    bit-identically through equal configs.
    """

    env_var = INSTR_MEMO_ENV_VAR

    def __init__(self, max_entries: int = 8192, max_bytes: int = 32 << 20):
        super().__init__(max_entries=max_entries, max_bytes=max_bytes)

    def lookup(self, config: ControllerConfig, descriptor) -> ControllerStats | None:
        """Cached stats for the instruction ``descriptor`` describes."""
        if not self.enabled:
            return None
        return self._lookup((config, descriptor))

    def store(self, config: ControllerConfig, descriptor, stats: ControllerStats) -> None:
        """Record the drain result under the symbolic key."""
        if not self.enabled:
            return
        self._store((config, descriptor), stats)


#: The process-wide memos every consumer shares (workers get their own
#: copies of the module, hence their own memos, in their own process).
TIMING_MEMO = TimingMemo()
INSTR_MEMO = InstructionMemo()


def timing_memo_stats() -> dict:
    """Hit/miss counters of the process-wide trace memo (bench reporting)."""
    return TIMING_MEMO.stats()


def instr_memo_stats() -> dict:
    """Hit/miss counters of the process-wide instruction memo."""
    return INSTR_MEMO.stats()
