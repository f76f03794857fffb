"""Cross-layer timing memoization and the one drain entry point.

Every memo-backed drain in the package drains one channel's share of an
:class:`~repro.dram.trace.OpTraffic` description, through :func:`drain`:
a DramSystem channel's share of a CPU baseline point, or an NMP
instruction's one-channel share (the ``(0, 1)`` case).  The ablation
studies in :mod:`repro.bench.ablation` drain their controllers directly,
outside the memo.

:data:`TIMING_MEMO` is one bounded LRU store keyed by
``(ControllerConfig, traffic.share_key(channel, channels))``.  Equal share
keys mean byte-identical shares (:meth:`~repro.dram.trace.OpTraffic.share_key`;
``tests/test_system_traffic.py`` pins this across descriptions), and a
drain on a freshly reset controller is a pure function of its
configuration and its trace, so equal keys drain to bit-identical
:class:`~repro.dram.controller.ControllerStats`.  A key is a few integers
(rows by digest), so a lookup builds no trace and hashes no bulk array;
the share is built only on a miss, and drained on this process's cached
controller for the configuration.  Hits hand back a fresh copy of the
stored stats.

Drains always run in-process.  The only process-level fan-out is
:func:`repro.parallel.parallel_map` over Fig. 11/12 design points
(:func:`repro.bench.figure11.sweep_grid`); a worker drains its points
through its own copy of this module.

``REPRO_REFERENCE=1`` (:func:`repro.env.reference_mode`) turns the memo
off, together with the controller's hit phase.
"""

from collections import OrderedDict
from dataclasses import replace

from ..env import reference_mode
from .controller import ControllerConfig, ControllerStats, MemoryController
from .trace import _is_int


class TimingMemo:
    """A bounded LRU ``(config, share key) -> ControllerStats`` store.

    A lookup moves its entry to the MRU end; a store evicts from the LRU
    end while the store is full.
    """

    def __init__(self, max_entries: int = 12288):
        if not _is_int(max_entries) or max_entries < 1:
            raise ValueError(f"max_entries must be a positive integer (got {max_entries!r})")
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


#: The process-wide memo (a sweep worker has its own, in its own process).
TIMING_MEMO = TimingMemo()
#: A second name for :data:`TIMING_MEMO`, kept for callers written when
#: NMP instructions had a memo level of their own.
INSTR_MEMO = TIMING_MEMO


#: One reusable controller per distinct configuration, process-wide,
#: reset between drains.
_CONTROLLERS: dict[ControllerConfig, MemoryController] = {}


def _controller_for(config: ControllerConfig) -> MemoryController:
    """The cached controller for ``config``, reset to its post-construction
    state (the drain then builds its rank and bank state afresh)."""
    controller = _CONTROLLERS.get(config)
    if controller is None:
        controller = _CONTROLLERS[config] = config.build()
    else:
        controller.reset()
    return controller


def drain(
    config: ControllerConfig, traffic, channel: int = 0, channels: int = 1
) -> ControllerStats:
    """The stats of draining ``channel``'s share of ``traffic`` (an
    :class:`~repro.dram.trace.OpTraffic`) through a ``config`` controller.

    The memo is consulted by the share's key, and only on a miss is the
    share built and drained, on this process's cached controller for
    ``config``; the result is then stored.
    """
    key = traffic.share_key(channel, channels)
    stats = TIMING_MEMO.lookup(config, key)
    if stats is None:
        controller = _controller_for(config)
        controller.enqueue_batch(traffic.share(channel, channels))
        stats = controller.run_to_completion()
        TIMING_MEMO.store(config, key, stats)
    return stats
