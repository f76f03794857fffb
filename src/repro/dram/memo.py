"""Cross-layer timing memoization and the one drain entry point.

Every memo-backed drain in the package drains one channel's share of an
:class:`~repro.dram.trace.OpTraffic` description: a DramSystem channel's
share of a CPU baseline point, or an NMP instruction's one-channel share
(the ``(0, 1)`` case).  Only :func:`drain` and
:class:`repro.parallel.DrainBatch` (which calls :func:`drain` for every
drain it keeps in-process, and ships calls to it to worker processes)
consult the memo; the ablation studies in :mod:`repro.bench.ablation`
drain their controllers directly, outside it.

:data:`TIMING_MEMO` is one bounded LRU store keyed by
``(ControllerConfig, traffic.share_key(channel, channels))``.  Equal share
keys mean byte-identical shares (:meth:`~repro.dram.trace.OpTraffic.share_key`;
``tests/test_system_traffic.py`` pins this across descriptions), and a
pristine controller's drain is a pure function of its configuration and
its trace, so equal keys drain to bit-identical
:class:`~repro.dram.controller.ControllerStats`.  A key is a few integers
(rows by digest), so a lookup builds no trace and hashes no bulk array;
the share is built only on a miss.  Hits hand back a fresh copy of the
stored stats.

Two soundness rules:

* **pristine controllers only** — a warm controller's next drain continues
  from its clock/bank/stats state and is not a pure function of its
  share, so callers hand :func:`drain` only pristine, empty controllers.
* **adopt semantics** — a result for a caller's controller is adopted
  with ``adopt_run``, hit or miss: stats and clock match a real drain, and
  every bank is left closed.

``REPRO_REFERENCE=1`` (:func:`repro.env.reference_mode`) turns the memo
off, together with the controller's streak fast path.
"""

from collections import OrderedDict
from dataclasses import replace

from ..env import reference_mode
from .controller import ControllerConfig, ControllerStats, MemoryController


class TimingMemo:
    """A bounded LRU ``(config, share key) -> ControllerStats`` store.

    A lookup moves its entry to the MRU end; a store evicts from the LRU
    end while the store is full.
    """

    def __init__(self, max_entries: int = 12288):
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, ControllerStats] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def enabled(self) -> bool:
        """False in reference mode (``REPRO_REFERENCE=1``)."""
        return not reference_mode()

    def lookup(self, config: ControllerConfig, key) -> ControllerStats | None:
        """Cached stats for draining the share keyed ``key`` through
        ``config``, or None.

        A hit returns a fresh copy and counts toward :attr:`hits`, a miss
        counts toward :attr:`misses`.  Always misses, uncounted, in
        reference mode.
        """
        if not self.enabled:
            return None
        stats = self._entries.get((config, key))
        if stats is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end((config, key))  # LRU: a hit refreshes recency
        return replace(stats)

    def store(self, config: ControllerConfig, key, stats: ControllerStats) -> None:
        """Record the drain result (a private copy is stored)."""
        if not self.enabled:
            return
        entries = self._entries
        entries.pop((config, key), None)
        while entries and len(entries) >= self.max_entries:
            entries.popitem(last=False)
            self.evictions += 1
        entries[(config, key)] = replace(stats)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and zero the counters (tests, benchmarks)."""
        self._entries.clear()
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


#: The process-wide memo (workers get their own copies of the module,
#: hence their own memo, in their own process).
TIMING_MEMO = TimingMemo()
#: A second name for :data:`TIMING_MEMO`, kept for callers written when
#: NMP instructions had a memo level of their own.
INSTR_MEMO = TIMING_MEMO


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
    traffic,
    channel: int = 0,
    channels: int = 1,
    controller: MemoryController | None = None,
) -> ControllerStats:
    """The stats of draining ``channel``'s share of ``traffic`` (an
    :class:`~repro.dram.trace.OpTraffic`) through a ``config`` controller.

    The memo is consulted by the share's key, and only on a miss is the
    share built and drained; the result is then stored.  Without
    ``controller`` a miss drains on this process's cached controller for
    ``config``.  With one — pristine and holding nothing (``DramSystem.run``)
    — a miss queues the share on it and drains it in place, and either way
    the result is adopted into it with ``adopt_run``, so its state
    afterwards does not depend on whether the memo hit.
    :class:`repro.parallel.DrainBatch` calls it for every drain it keeps
    in-process and ships calls to it to worker processes.
    """
    key = traffic.share_key(channel, channels)
    stats = TIMING_MEMO.lookup(config, key)
    if stats is None:
        target = controller if controller is not None else _controller_for(config)
        target.enqueue_batch(traffic.share(channel, channels))
        stats = target.run_to_completion()
        TIMING_MEMO.store(config, key, stats)
    if controller is not None:
        # Hit or miss, the caller's controller ends in the same state.
        controller.adopt_run(stats)
    return stats
