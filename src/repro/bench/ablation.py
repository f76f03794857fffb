"""Ablation studies for the TensorDIMM design choices.

These are not paper figures; they probe *why* the design works:

* ``address_mapping`` — rank-interleaved striping (Fig. 7) vs. placing each
  embedding whole on one DIMM.  Striping engages every NMP core on every
  op; whole-row placement leaves aggregate bandwidth on the table whenever
  fewer tensors than DIMMs are in flight.
* ``scheduler`` — FR-FCFS with a reordering window vs. strict FCFS
  (window 1) on the gather access pattern.
* ``cpu_cache`` — the Gupta et al. observation: sparse gathers through a
  CPU cache hierarchy realise a tiny fraction of peak DRAM bandwidth, and
  popularity skew (Zipfian indices) buys some of it back.
* ``queue_sizing`` — Section 4.2's bandwidth-delay-product rule for the
  NMP SRAM queues.
"""

from dataclasses import dataclass

import numpy as np

from ..config import CPU_PEAK_BANDWIDTH, DIMM_PEAK_BANDWIDTH, NMP_QUEUE_DELAY_S
from ..core.nmp_core import required_queue_bytes
from ..dram.cache import CacheHierarchy
from ..dram.controller import MemoryController
from ..dram.timing import DDR4_3200
from ..dram.trace import gather_traffic, streaming_buffer
from ..workloads.distributions import UniformSampler, ZipfianSampler


@dataclass
class MappingAblation:
    """Aggregate gather bandwidth under the two placements (bytes/s)."""

    interleaved: float
    whole_row: float

    @property
    def advantage(self) -> float:
        return self.interleaved / self.whole_row


def address_mapping(
    node_dimms: int = 16, batch: int = 16, row_words: int = 32, table_rows: int = 4096
) -> MappingAblation:
    """Compare rank-interleaved striping against whole-row placement.

    Interleaved: every DIMM serves ``batch`` single-word random reads plus
    packed writes (each DIMM owns 1/N of every row).  Whole-row: each
    embedding lives on ``hash(row) % N``; DIMMs receive unbalanced work and
    each gather streams from a single DIMM at single-DIMM bandwidth.
    """
    rng = np.random.default_rng(7)
    rows = rng.integers(0, table_rows, batch)

    def dimm_seconds(traffic) -> float:
        controller = MemoryController(DDR4_3200)
        controller.enqueue_batch(traffic.share(0, 1))
        controller.run_to_completion()
        return controller.elapsed_seconds()

    total_bytes = batch * row_words * 64 * 2  # read + packed write

    # Interleaved: per-DIMM slice of every row (row_words/N words each).
    slice_words = max(1, row_words // node_dimms)
    per_dimm = gather_traffic(0, slice_words, rows, table_rows * slice_words * 64)
    interleaved_seconds = dimm_seconds(per_dimm)

    # Whole-row: rows hash to DIMMs; the busiest DIMM sets the pace.
    buckets = {}
    for row in rows:
        buckets.setdefault(int(row) % node_dimms, []).append(int(row))
    worst = 0.0
    for dimm_rows in buckets.values():
        traffic = gather_traffic(0, row_words, dimm_rows, table_rows * row_words * 64)
        worst = max(worst, dimm_seconds(traffic))
    return MappingAblation(
        interleaved=total_bytes / interleaved_seconds,
        whole_row=total_bytes / worst,
    )


@dataclass
class SchedulerAblation:
    """Gather bandwidth with and without request reordering (bytes/s)."""

    fr_fcfs: float
    fcfs: float

    @property
    def advantage(self) -> float:
        return self.fr_fcfs / self.fcfs


def scheduler(batch: int = 256, table_rows: int = 8192) -> SchedulerAblation:
    """FR-FCFS (window 32) vs. FCFS (window 1) on a gather stream."""
    rng = np.random.default_rng(11)
    rows = rng.integers(0, table_rows, batch)

    def bandwidth(window: int) -> float:
        controller = MemoryController(DDR4_3200, window=window)
        controller.enqueue_batch(gather_traffic(0, 4, rows, table_rows * 4 * 64).share(0, 1))
        stats = controller.run_to_completion()
        return stats.bandwidth(DDR4_3200)

    return SchedulerAblation(fr_fcfs=bandwidth(32), fcfs=bandwidth(1))


@dataclass
class CacheAblation:
    """CPU gather efficiency (fraction of peak) by index distribution."""

    uniform: float
    zipfian: float
    streaming: float

    @property
    def uniform_below_5_percent(self) -> bool:
        """The Gupta et al. claim the paper cites in Section 7."""
        return self.uniform < 0.05


def cpu_cache(
    table_rows: int = 2_000_000, row_bytes: int = 2048, accesses: int = 20_000
) -> CacheAblation:
    """Measure gather efficiency through a Xeon-like cache hierarchy."""
    if accesses < 1:
        raise ValueError(f"accesses must be at least 1, got {accesses}")
    if row_bytes < 64 or row_bytes % 64:
        raise ValueError(f"row_bytes must be a positive multiple of 64, got {row_bytes}")
    # Each gather reads one 64 B line of its row, cycling through the row.
    line_offsets = np.arange(accesses, dtype=np.int64) % (row_bytes // 64) * 64

    def efficiency(rows) -> float:
        addrs = rows.astype(np.int64) * row_bytes + line_offsets
        return CacheHierarchy.xeon_like().gather_efficiency(addrs, CPU_PEAK_BANDWIDTH)

    # "Streaming": sequential lines with the prefetcher's effect modelled
    # as a warmed cache (hardware prefetch hides sequential miss latency).
    streaming_addrs = np.arange(accesses, dtype=np.int64) % 4096 * 64
    hierarchy = CacheHierarchy.xeon_like()
    hierarchy.gather_efficiency(streaming_addrs, CPU_PEAK_BANDWIDTH)  # warm
    streaming_eff = hierarchy.gather_efficiency(streaming_addrs, CPU_PEAK_BANDWIDTH)
    # Each sampler's table is dropped once its indices are drawn.
    return CacheAblation(
        uniform=efficiency(UniformSampler(table_rows, seed=3).sample(accesses)),
        zipfian=efficiency(ZipfianSampler(table_rows, alpha=1.05, seed=3).sample(accesses)),
        streaming=streaming_eff,
    )


@dataclass
class PagePolicyAblation:
    """Streaming bandwidth (bytes/s) under open- vs closed-page policy."""

    open_page: float
    closed_page: float

    @property
    def open_advantage(self) -> float:
        return self.open_page / self.closed_page


def page_policy(num_words: int = 6000) -> PagePolicyAblation:
    """Open- vs closed-page on the NMP streaming pattern.

    The NMP-local controllers stream long contiguous runs, so leaving rows
    open (the repo's default) amortises one ACT over a whole row of
    accesses; auto-precharge pays ACT+PRE per revisit.
    """
    def bandwidth(policy: str) -> float:
        controller = MemoryController(DDR4_3200, row_policy=policy)
        controller.enqueue_batch(streaming_buffer(0, num_words))
        stats = controller.run_to_completion()
        return stats.bandwidth(DDR4_3200)

    return PagePolicyAblation(
        open_page=bandwidth("open"), closed_page=bandwidth("closed")
    )


@dataclass
class QueueSizing:
    """Bandwidth-delay-product queue sizing (Section 4.2)."""

    required_bytes: int
    paper_bytes: int = 512

    @property
    def matches_paper(self) -> bool:
        return self.required_bytes == self.paper_bytes


def queue_sizing(
    bandwidth: float = DIMM_PEAK_BANDWIDTH, delay: float = NMP_QUEUE_DELAY_S
) -> QueueSizing:
    """25.6 GB/s x 20 ns = 512 B per queue (1.5 KB across A/B/C)."""
    return QueueSizing(required_bytes=required_queue_bytes(bandwidth, delay))


#: The named studies ``run_all`` executes, in display order.
STUDIES = {
    "address_mapping": address_mapping,
    "scheduler": scheduler,
    "cpu_cache": cpu_cache,
    "page_policy": page_policy,
    "queue_sizing": queue_sizing,
}


def run_all(overrides: dict | None = None) -> dict:
    """Run every ablation study in-process (each is internally seeded).

    ``overrides`` maps study name -> keyword arguments (e.g. smaller sizes
    for a quick CLI run); a name that is not in :data:`STUDIES` raises
    :class:`ValueError`.
    """
    overrides = overrides or {}
    unknown = sorted(set(overrides) - set(STUDIES))
    if unknown:
        raise ValueError(
            f"unknown ablation studies in overrides: {', '.join(unknown)}; "
            f"known: {', '.join(STUDIES)}"
        )
    return {name: study(**overrides.get(name, {})) for name, study in STUDIES.items()}
