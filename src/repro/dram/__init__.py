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
* :class:`~repro.dram.cache.Cache` / ``CacheHierarchy`` — exact LRU cache
  model for the CPU-gather ablation, deciding a whole batch at once by
  stack distance
* :mod:`~repro.dram.memo` — the in-process drain
  (:func:`~repro.dram.memo.drain`) and the cross-layer timing memo
  (:data:`~repro.dram.memo.TIMING_MEMO`), keyed by a config and a share
  key
"""

from ..lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "cache": ("Cache", "CacheHierarchy", "CacheStats"),
    "command": ("TraceBuffer",),
    "controller": ("ControllerConfig", "ControllerStats", "MemoryController"),
    "memo": ("TIMING_MEMO", "TimingMemo"),
    "mapping": (
        "BANK_INTERLEAVED_ORDER",
        "RANK_INTERLEAVED_ORDER",
        "ROW_INTERLEAVED_ORDER",
        "AddressMapping",
        "DramOrganization",
    ),
    "storage": ("WordStorage",),
    "system": ("DramSystem", "SystemStats"),
    "timing": ("DDR4_2400", "DDR4_2666", "DDR4_3200", "SPEED_GRADES", "DramTiming"),
})

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
