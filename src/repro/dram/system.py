"""Multi-channel DRAM system: channel interleaving + aggregate statistics.

A :class:`DramSystem` models the baseline CPU memory system of the paper:
several independent DDR4 channels behind one physical address space, with
consecutive 64 B blocks interleaved across channels (the standard layout
that time-multiplexes each channel across all the DIMMs behind it —
Section 4.2's "fixed bandwidth per channel" argument).  Traffic arrives
as a :class:`~repro.dram.trace.OpTraffic` description, never as a
whole-system trace.  Every channel drains its share through
:func:`repro.dram.memo.drain`, which owns the memo protocol: channels
whose shares have equal keys share one drain, and a share is built in
closed form only when it drains.  All channels have one controller
configuration, so the system holds that configuration, not a controller
per channel.

TensorDIMMs do *not* use this class for their NMP-local traffic; each
TensorDIMM has a single-channel controller of its own (see
:mod:`repro.core.tensordimm`), which is exactly why the node's aggregate
bandwidth scales with the DIMM count.
"""

from dataclasses import dataclass

from .controller import ControllerStats, MemoryController
from .mapping import DramOrganization
from .memo import drain
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
        #: Every channel's controller configuration (the constructor
        #: checks the arguments, so a bad ``window`` raises here).
        self.config = MemoryController(
            timing,
            organization=self.organization,
            mapping=mapping_factory(self.organization) if mapping_factory else None,
            refresh_enabled=refresh_enabled,
            window=window,
        ).snapshot_config()
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

    def run(self) -> SystemStats:
        """Drain every channel's share of the pending description
        (:meth:`enqueue_traffic`) and aggregate the results.

        Channels share no timing state (separate command/address and data
        wires), so they are simulated independently; the elapsed time is the
        slowest channel's finish time.  Each channel drains on its own,
        from a reset controller, through :func:`~repro.dram.memo.drain`,
        keyed by :meth:`~repro.dram.trace.OpTraffic.share_key`: word ``w``
        goes to channel ``w % C`` at local word ``w // C``, and a share
        whose key was drained before (on any channel, by any system) is
        answered from the memo without being built.  A run consumes the
        description, so each run is a pure function of it.
        """
        traffic, self._pending = self._pending, None
        channels = self.num_channels
        if traffic is None:
            stats = [ControllerStats() for _ in range(channels)]
        else:
            stats = [drain(self.config, traffic, c, channels) for c in range(channels)]
            # Drains that saw only their channels' shares must account for
            # exactly the description's requests.
            drained = sum(s.accesses for s in stats)
            if drained != traffic.records:
                raise RuntimeError(
                    f"channels {list(range(channels))} drained {drained} requests "
                    f"but their shares hold {traffic.records}: "
                    "independent-channel invariant violated"
                )
        return SystemStats(
            total_bytes=sum(s.total_bytes for s in stats),
            elapsed_seconds=self.config.timing.cycles_to_seconds(
                max(s.finish_cycle for s in stats)
            ),
            channel_stats=stats,
        )
