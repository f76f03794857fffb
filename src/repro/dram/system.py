"""Multi-channel DRAM system: channel interleaving + aggregate statistics.

A :class:`DramSystem` models the baseline CPU memory system of the paper:
several independent DDR4 channels behind one physical address space, with
consecutive 64 B blocks interleaved across channels (the standard layout
that time-multiplexes each channel across all the DIMMs behind it —
Section 4.2's "fixed bandwidth per channel" argument).  Traffic arrives
as a :class:`~repro.dram.trace.OpTraffic` description, never as a
whole-system trace.  Every pristine channel drains its share through one
:class:`~repro.dram.memo.DrainBatch`, which owns the memo protocol and the
in-process vs pool decision: channels whose shares have equal keys share
one drain, and a share is built in closed form only when it drains.

TensorDIMMs do *not* use this class for their NMP-local traffic; each
TensorDIMM owns a private single-channel controller (see
:mod:`repro.core.tensordimm`), which is exactly why the node's aggregate
bandwidth scales with the DIMM count.
"""

from dataclasses import dataclass

from .controller import ControllerStats, MemoryController
from .mapping import AddressMapping, DramOrganization
from .memo import DrainBatch
from .timing import DDR4_3200, DramTiming
from .trace import OpTraffic


@dataclass
class SystemStats:
    """Aggregate results of a multi-channel run."""

    total_bytes: int
    elapsed_seconds: float
    channel_stats: list

    @property
    def bandwidth(self) -> float:
        """Achieved system bandwidth in bytes/second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.total_bytes / self.elapsed_seconds

    @property
    def row_hit_rate(self) -> float:
        accesses = sum(s.accesses for s in self.channel_stats)
        if not accesses:
            return 0.0
        return sum(s.row_hits for s in self.channel_stats) / accesses

    @property
    def mean_read_latency_cycles(self) -> float:
        reads = sum(s.reads for s in self.channel_stats)
        if not reads:
            return 0.0
        return sum(s.read_latency_sum for s in self.channel_stats) / reads


class DramSystem:
    """A physical address space striped over N independent DDR4 channels."""

    def __init__(
        self,
        channels: int = 8,
        timing: DramTiming = DDR4_3200,
        organization: DramOrganization | None = None,
        mapping_factory=None,
        refresh_enabled: bool = True,
        window: int = 32,
    ):
        if channels < 1:
            raise ValueError("need at least one channel")
        self.num_channels = channels
        self.timing = timing
        self.organization = organization or DramOrganization(ranks=4)
        self.controllers = []
        for _ in range(channels):
            mapping = mapping_factory(self.organization) if mapping_factory else None
            self.controllers.append(
                MemoryController(
                    timing,
                    organization=self.organization,
                    mapping=mapping,
                    refresh_enabled=refresh_enabled,
                    window=window,
                )
            )
        self._pending: OpTraffic | None = None

    @property
    def peak_bandwidth(self) -> float:
        return self.num_channels * self.timing.peak_bandwidth

    @property
    def capacity_bytes(self) -> int:
        return self.num_channels * self.organization.capacity_bytes

    def route(self, addr: int) -> tuple[int, int]:
        """Map a system byte address to (channel, channel-local address).

        Raises ``ValueError`` for an address outside the system capacity,
        as :meth:`enqueue_traffic` does.
        """
        if not 0 <= addr < self.capacity_bytes:
            raise ValueError(
                f"address {addr:#x} outside system capacity {self.capacity_bytes:#x}"
            )
        block = addr // 64
        channel = block % self.num_channels
        local = (block // self.num_channels) * 64 + (addr % 64)
        return channel, local

    def enqueue_traffic(self, traffic: OpTraffic) -> None:
        """Hold one operation's traffic, described symbolically, for
        :meth:`run`.

        The traffic is checked against the system capacity at once, so a
        bad description raises ``ValueError`` and leaves the system as it
        was.  The system holds one pending description: a second call
        before :meth:`run` raises ``ValueError``.  No share is built here;
        :meth:`run` drains each channel's share.
        """
        if self._pending is not None:
            raise ValueError("the system already holds traffic; run it before enqueueing more")
        low, high = traffic.word_span()
        if high < low:
            return
        words = self.capacity_bytes // 64
        if low < 0 or high >= words:
            bad = (low if low < 0 else high) * 64
            raise ValueError(
                f"address {bad:#x} outside system capacity {self.capacity_bytes:#x}"
            )
        self._pending = traffic

    def run(self, jobs: int | None = None) -> SystemStats:
        """Drain every channel and aggregate the results.

        Channels share no timing state (separate command/address and data
        wires), so they are simulated independently; the elapsed time is the
        slowest channel's finish time.

        A pristine channel with nothing queued drains its share of the
        pending description (:meth:`enqueue_traffic`) through a
        :class:`~repro.dram.memo.DrainBatch`, keyed by
        :meth:`~repro.dram.trace.OpTraffic.share_key`: word ``w`` goes to
        channel ``w % C`` at local word ``w // C``, and a share whose key
        was drained before (on any channel, by any system) adopts the
        memoized stats without being built.  At ``jobs > 1`` (default:
        ``$REPRO_JOBS``, else 1) a large share ships to the process pool as
        its description.  The per-channel ``ControllerStats`` are
        bit-identical at every worker count.  A warm controller continues
        from its accumulated state, and one holding records queued with
        ``enqueue_batch`` drains them too, so such a channel queues its
        share and drains in place, outside the memo.
        """
        traffic, self._pending = self._pending, None
        channels = self.num_channels
        # A lone channel has nothing to overlap its drain with.
        batch = DrainBatch(jobs if channels > 1 else 1)
        stats: list[ControllerStats | None] = []
        batched = []
        shipped = 0 if traffic is None else traffic.records
        for channel, controller in enumerate(self.controllers):
            if traffic is not None and controller.pristine and not controller.pending:
                batch.submit(controller.snapshot_config(), traffic, channel, channels, controller)
                batched.append(channel)
                stats.append(None)
                continue
            if traffic is not None:
                share = traffic.share(channel, channels)
                shipped -= len(share)
                controller.enqueue_batch(share)
            stats.append(controller.run_to_completion())
        results = batch.results()
        for channel, s in zip(batched, results):
            stats[channel] = s
        # Drains that saw only their channels' shares must account for
        # exactly those channels' requests.
        drained = sum(s.accesses for s in results)
        if drained != shipped:
            raise RuntimeError(
                f"channels {batched} drained {drained} requests but were "
                f"shipped {shipped}: independent-channel invariant violated"
            )
        return SystemStats(
            total_bytes=sum(s.total_bytes for s in stats),
            elapsed_seconds=max(c.elapsed_seconds() for c in self.controllers),
            channel_stats=stats,
        )
