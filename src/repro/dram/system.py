"""Multi-channel DRAM system: channel interleaving + aggregate statistics.

A :class:`DramSystem` models the baseline CPU memory system of the paper:
several independent DDR4 channels behind one physical address space, with
consecutive 64 B blocks interleaved across channels (the standard layout
that time-multiplexes each channel across all the DIMMs behind it —
Section 4.2's "fixed bandwidth per channel" argument).  Traffic arrives
as a :class:`~repro.dram.trace.OpTraffic` description, never as a
whole-system trace: each channel gets its share in closed form, and
channels with equal shares share one buffer and one drain.  Every
pristine channel drains through one :class:`~repro.parallel.DrainBatch`,
which owns the memo protocol and the in-process vs pool decision.

TensorDIMMs do *not* use this class for their NMP-local traffic; each
TensorDIMM owns a private single-channel controller (see
:mod:`repro.core.tensordimm`), which is exactly why the node's aggregate
bandwidth scales with the DIMM count.
"""

from dataclasses import dataclass

from .controller import ControllerStats, MemoryController
from .mapping import AddressMapping, DramOrganization
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
        """Queue one operation's traffic, described symbolically.

        Each channel's share is computed in closed form (word ``w`` goes to
        channel ``w % C`` at local word ``w // C``); each distinct
        :meth:`~repro.dram.trace.OpTraffic.share_key` is built once and
        the same buffer is queued on every channel with that key, so
        :meth:`run` drains it once and the other channels adopt its
        memoized stats.  The traffic is checked against the system
        capacity before any channel is touched, so a bad description
        leaves every controller as it was.
        """
        low, high = traffic.word_span()
        if high < low:
            return
        words = self.capacity_bytes // 64
        if low < 0 or high >= words:
            bad = (low if low < 0 else high) * 64
            raise ValueError(
                f"address {bad:#x} outside system capacity {self.capacity_bytes:#x}"
            )
        shares = {}
        for channel, controller in enumerate(self.controllers):
            key = traffic.share_key(channel, self.num_channels)
            share = shares.get(key)
            if share is None:
                share = shares[key] = traffic.share(channel, self.num_channels)
            if len(share):
                controller.enqueue_batch(share)

    def run(self, jobs: int | None = None) -> SystemStats:
        """Drain every channel and aggregate the results.

        Channels share no timing state (separate command/address and data
        wires), so they are simulated independently; the elapsed time is the
        slowest channel's finish time.

        A channel whose controller is pristine drains its pending trace
        (:meth:`MemoryController.pending_trace`) through a
        :class:`~repro.parallel.DrainBatch`: a trace with the same read and
        write streams as one drained before adopts the memoized stats, and
        at ``jobs > 1`` (default: ``$REPRO_JOBS``, else 1) a large backlog
        ships to the process pool as a columnar trace.  The per-channel
        ``ControllerStats`` are bit-identical at every worker count.  A warm
        controller continues from its accumulated state, so it drains in
        place.
        """
        from ..parallel import DrainBatch

        # A lone channel has nothing to overlap its drain with.
        batch = DrainBatch(jobs if self.num_channels > 1 else 1)
        stats: list[ControllerStats | None] = []
        batched = []
        for channel, controller in enumerate(self.controllers):
            trace = controller.pending_trace()
            if trace is None:
                stats.append(controller.run_to_completion())
                continue
            batch.submit(controller.snapshot_config(), trace=trace, controller=controller)
            batched.append((channel, len(trace)))
            stats.append(None)
        for (channel, records), s in zip(batched, batch.results()):
            # A drain that saw only this channel's trace must account for
            # exactly this channel's requests.
            if s.accesses != records:
                raise RuntimeError(
                    f"channel {channel} drained {s.accesses} requests but "
                    f"was shipped {records}: independent-channel invariant "
                    "violated"
                )
            stats[channel] = s
        return SystemStats(
            total_bytes=sum(s.total_bytes for s in stats),
            elapsed_seconds=max(c.elapsed_seconds() for c in self.controllers),
            channel_stats=stats,
        )
