"""Cycle-level DDR4 memory-system substrate (Ramulator-style).

Public surface:

* :class:`~repro.dram.timing.DramTiming` and the ``DDR4_*`` speed grades
* :class:`~repro.dram.mapping.DramOrganization` /
  :class:`~repro.dram.mapping.AddressMapping`
* :class:`~repro.dram.controller.MemoryController` — one channel, FR-FCFS
* :class:`~repro.dram.system.DramSystem` — multi-channel system
* :class:`~repro.dram.storage.WordStorage` — functional 64 B-word store
* :mod:`~repro.dram.trace` — :class:`~repro.dram.trace.OpTraffic`, the one
  description of an op's traffic (CPU baseline and NMP instructions alike),
  whose channel shares are columnar traces
* :class:`~repro.dram.cache.Cache` / ``CacheHierarchy`` — CPU-gather ablation
* :mod:`~repro.dram.memo` — the in-process drain
  (:func:`~repro.dram.memo.drain`) and the cross-layer timing memo
  (:data:`~repro.dram.memo.TIMING_MEMO`), keyed by a config and a share
  key
"""

from .cache import Cache, CacheHierarchy, CacheStats
from .command import TraceBuffer
from .controller import ControllerConfig, ControllerStats, MemoryController
from .memo import TIMING_MEMO, TimingMemo
from .mapping import (
    BANK_INTERLEAVED_ORDER,
    RANK_INTERLEAVED_ORDER,
    ROW_INTERLEAVED_ORDER,
    AddressMapping,
    DramOrganization,
)
from .storage import WordStorage
from .system import DramSystem, SystemStats
from .timing import DDR4_2400, DDR4_2666, DDR4_3200, SPEED_GRADES, DramTiming

__all__ = [
    "AddressMapping",
    "BANK_INTERLEAVED_ORDER",
    "Cache",
    "CacheHierarchy",
    "CacheStats",
    "ControllerConfig",
    "ControllerStats",
    "DDR4_2400",
    "DDR4_2666",
    "DDR4_3200",
    "DramOrganization",
    "DramSystem",
    "DramTiming",
    "MemoryController",
    "RANK_INTERLEAVED_ORDER",
    "ROW_INTERLEAVED_ORDER",
    "SPEED_GRADES",
    "SystemStats",
    "TIMING_MEMO",
    "TimingMemo",
    "TraceBuffer",
    "WordStorage",
]
