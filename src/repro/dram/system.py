"""Multi-channel DRAM system: channel interleaving + aggregate statistics.

A :class:`DramSystem` models the baseline CPU memory system of the paper:
several independent DDR4 channels behind one physical address space, with
consecutive 64 B blocks interleaved across channels (the standard layout
that time-multiplexes each channel across all the DIMMs behind it —
Section 4.2's "fixed bandwidth per channel" argument).

TensorDIMMs do *not* use this class for their NMP-local traffic; each
TensorDIMM owns a private single-channel controller (see
:mod:`repro.core.tensordimm`), which is exactly why the node's aggregate
bandwidth scales with the DIMM count.
"""

from dataclasses import dataclass

import numpy as np

from .command import TraceBuffer
from .controller import ControllerStats, MemoryController
from .mapping import AddressMapping, DramOrganization
from .memo import TIMING_MEMO
from .timing import DDR4_3200, DramTiming


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
        # Columnar mirror of each channel's backlog, appended in enqueue
        # order.  The parallel run ships these buffers to the workers
        # directly instead of re-walking the controllers' entry objects;
        # kept consistent by enqueue_trace and cleared by run().
        self._pending_traces: list[list[TraceBuffer]] = [[] for _ in range(channels)]

    @property
    def peak_bandwidth(self) -> float:
        return self.num_channels * self.timing.peak_bandwidth

    @property
    def capacity_bytes(self) -> int:
        return self.num_channels * self.organization.capacity_bytes

    def route(self, addr: int) -> tuple[int, int]:
        """Map a system byte address to (channel, channel-local address)."""
        block = addr // 64
        channel = block % self.num_channels
        local = (block // self.num_channels) * 64 + (addr % 64)
        return channel, local

    def enqueue_trace(self, trace: TraceBuffer) -> None:
        """Queue a columnar trace of system addresses.

        Every record is routed with vectorized arithmetic and each channel
        receives its share as one batch, in trace order.  Addresses are
        checked against the system capacity before any channel is touched,
        so a bad trace leaves every controller as it was.
        """
        if not len(trace):
            return
        addr = trace.addr
        if addr.min() < 0 or addr.max() >= self.capacity_bytes:
            bad = addr[(addr < 0) | (addr >= self.capacity_bytes)][0]
            raise ValueError(
                f"address {int(bad):#x} outside system capacity "
                f"{self.capacity_bytes:#x}"
            )
        # route(): channel = block % C, local = (block // C) * 64 + offset
        block, offset = np.divmod(addr, 64)
        local_block, channel_ids = np.divmod(block, self.num_channels)
        local = local_block * 64 + offset
        for channel in range(self.num_channels):
            mask = channel_ids == channel
            if not mask.any():
                continue
            share = TraceBuffer(local[mask], trace.is_write[mask], trace.cycle[mask])
            self.controllers[channel].enqueue_batch(share)
            self._pending_traces[channel].append(share)

    def run(self, jobs: int | None = None) -> SystemStats:
        """Drain every channel and aggregate the results.

        Channels share no timing state (separate command/address and data
        wires), so they are simulated independently; the elapsed time is the
        slowest channel's finish time.

        ``jobs`` (default: ``$REPRO_JOBS``, else 1) fans the independent
        channel drains out across the process pool of :mod:`repro.parallel`.
        Each channel ships its backlog as a columnar trace plus a config
        snapshot; per-channel ``ControllerStats`` come back in channel order
        and are bit-identical to the sequential drain at every worker count
        (tiny traces fall back to the in-process path automatically).

        Per-channel drains are memoized through the process-wide timing
        cache (:mod:`repro.dram.memo`): a channel whose pending backlog is
        byte-identical to a previously drained one adopts the cached stats
        without simulating.  The memo only applies when the system's
        columnar backlog mirror matches the controller (i.e. every request
        entered through :meth:`enqueue_trace`); a directly fed controller
        always drains for real.
        """
        from ..parallel import min_task_records, resolve_jobs

        jobs = resolve_jobs(jobs)
        threshold = min_task_records()
        if (
            jobs > 1
            and self.num_channels > 1
            and any(c.pending >= threshold for c in self.controllers)
        ):
            return self._run_parallel(jobs)
        stats: list[ControllerStats] = []
        total_bytes = 0
        elapsed = 0.0
        for channel, controller in enumerate(self.controllers):
            s = None
            mirror_ok = (
                sum(len(b) for b in self._pending_traces[channel])
                == controller.pending
            )
            # A warm controller (this system already ran once) continues
            # from its accumulated clock/stats state, so its drain is not
            # a pure function of the pending trace — memo only applies to
            # pristine controllers.
            if mirror_ok and controller.pending and controller.pristine:
                trace = self._channel_trace(channel)
                config = controller.snapshot_config()
                s = TIMING_MEMO.lookup(config, trace)
                if s is not None:
                    controller.adopt_run(s)
                else:
                    s = controller.run_to_completion()
                    TIMING_MEMO.store(config, trace, s)
            if s is None:
                s = controller.run_to_completion()
            stats.append(s)
            total_bytes += s.total_bytes
            elapsed = max(elapsed, controller.elapsed_seconds())
        self._pending_traces = [[] for _ in range(self.num_channels)]
        return SystemStats(total_bytes=total_bytes, elapsed_seconds=elapsed, channel_stats=stats)

    def _channel_trace(self, channel: int) -> TraceBuffer:
        """This channel's backlog as one columnar trace, in enqueue order.

        The cheap path concatenates the buffers :meth:`enqueue_trace` already
        demuxed; if the mirror disagrees with the controller (someone fed
        the controller directly), fall back to exporting its backlog.
        """
        controller = self.controllers[channel]
        buffers = self._pending_traces[channel]
        if sum(len(b) for b in buffers) == controller.pending:
            return buffers[0] if len(buffers) == 1 else TraceBuffer.concat(buffers)
        return controller.export_pending()

    def _run_parallel(self, jobs: int) -> SystemStats:
        """Fan the per-channel drains out across worker processes."""
        from ..parallel import replay_traces

        traces = [self._channel_trace(c) for c in range(self.num_channels)]
        tasks = [
            (controller.snapshot_config(), trace)
            for controller, trace in zip(self.controllers, traces)
        ]
        stats = replay_traces(tasks, jobs=jobs)
        total_bytes = 0
        elapsed = 0.0
        for controller, trace, s in zip(self.controllers, traces, stats):
            # Channels share no timing state, so a worker that saw only this
            # channel's trace must account for exactly this channel's
            # requests — anything else means the domains leaked into each
            # other and the merge would be nondeterministic.
            assert s.accesses == len(trace), (
                f"channel drained {s.accesses} requests but was shipped "
                f"{len(trace)} — independent-channel invariant violated"
            )
            controller.adopt_run(s)
            total_bytes += s.total_bytes
            elapsed = max(elapsed, controller.elapsed_seconds())
        self._pending_traces = [[] for _ in range(self.num_channels)]
        return SystemStats(total_bytes=total_bytes, elapsed_seconds=elapsed, channel_stats=stats)
