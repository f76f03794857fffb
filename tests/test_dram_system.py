"""Tests for the multi-channel DRAM system."""

import numpy as np
import pytest

from repro.bench.figure11 import AVERAGE_NUM, EMBEDDING_DIM, LOOKUPS_PER_SAMPLE
from repro.core.address_map import EmbeddingLayout
from repro.dram.bank import Rank
from repro.dram.controller import ControllerStats
from repro.dram import memo
from repro.dram.mapping import AddressMapping
from repro.dram.system import DramSystem
from repro.dram.timing import DDR4_3200
from repro.dram.trace import average_traffic, reduce_traffic
from repro.env import reference_mode


class TestRouting:
    def test_blocks_interleave_across_channels(self):
        system = DramSystem(channels=4)
        channels = [system.route(i * 64)[0] for i in range(8)]
        assert channels == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_local_addresses_compact(self):
        system = DramSystem(channels=4)
        _, local0 = system.route(0)
        _, local1 = system.route(4 * 64)  # next block on channel 0
        assert local0 == 0
        assert local1 == 64

    def test_byte_offset_preserved(self):
        system = DramSystem(channels=2)
        _, local = system.route(64 + 7)
        assert local % 64 == 7

    def test_single_channel_identity(self):
        system = DramSystem(channels=1)
        assert system.route(12345 & ~63) == (0, 12345 & ~63)

    @pytest.mark.parametrize("offset", [0, 5, None])
    def test_out_of_range_address_rejected(self, offset):
        system = DramSystem(channels=8)
        bad = system.capacity_bytes + offset if offset is not None else -64
        with pytest.raises(ValueError, match=f"address {bad:#x} outside system"):
            system.route(bad)

    def test_last_address_routes_to_last_channel(self):
        system = DramSystem(channels=8)
        channel, local = system.route(system.capacity_bytes - 1)
        assert channel == 7
        assert local == system.organization.capacity_bytes - 1

    def test_invalid_channel_count(self):
        with pytest.raises(ValueError):
            DramSystem(channels=0)

    def test_empty_window_raises_at_construction(self):
        with pytest.raises(ValueError, match="window must be at least 1"):
            DramSystem(window=0)


class TestEnqueueTraceValidation:
    """``enqueue_traffic`` checks a description against the system capacity
    before any channel queues anything."""

    @pytest.mark.parametrize("offset", [192, None])
    def test_bad_address_leaves_every_channel_untouched(self, offset):
        system = DramSystem(channels=8)
        bad = system.capacity_bytes + offset if offset is not None else -64
        traffic = reduce_traffic(0, 64 * 64, bad, 1)
        with pytest.raises(ValueError, match=f"address {bad:#x} outside system"):
            system.enqueue_traffic(traffic)
        # Nothing is held: the next description is accepted and runs alone.
        system.enqueue_traffic(reduce_traffic(0, 64 * 64, 128 * 64, 8))
        assert system.run().total_bytes == 24 * 64

    def test_last_valid_address_accepted(self):
        system = DramSystem(channels=2)
        last = system.capacity_bytes - 64
        system.enqueue_traffic(average_traffic(0, 1, last, 1))
        assert [s.accesses for s in system.run().channel_stats] == [1, 1]

    def test_second_description_before_run_raises(self):
        system = DramSystem(channels=2)
        system.enqueue_traffic(reduce_traffic(0, 64 * 64, 128 * 64, 8))
        with pytest.raises(ValueError, match="already holds traffic"):
            system.enqueue_traffic(reduce_traffic(0, 64 * 64, 128 * 64, 8))
        assert system.run().total_bytes == 24 * 64
        # ``run`` took the description; the next run drains only its own.
        system.enqueue_traffic(reduce_traffic(0, 64 * 64, 128 * 64, 8))
        assert system.run().total_bytes == 24 * 64

    def test_empty_trace_is_a_no_op(self):
        system = DramSystem(channels=2)
        system.enqueue_traffic(reduce_traffic(0, 0, 0, 0))
        assert system.run().total_bytes == 0


class _WrongMemo:
    """A memo whose every lookup answers a one-read drain."""

    def lookup(self, config, key):
        return ControllerStats(reads=1)

    def store(self, config, key, stats):
        pass


class TestShippedDrainCheck:
    def test_worker_stats_for_the_wrong_trace_raise(self, monkeypatch):
        # Memo entries that account for other requests than the channels'
        # shares hold are refused with an error that survives ``python -O``.
        monkeypatch.setattr(memo, "TIMING_MEMO", _WrongMemo())
        system = DramSystem(channels=2)
        system.enqueue_traffic(average_traffic(0, 1, 64 * 64, 2))  # 2 records a channel
        with pytest.raises(
            RuntimeError, match=r"channels \[0, 1\] drained 2 requests but their shares hold 4"
        ):
            system.run()


class TestAggregates:
    def test_peak_bandwidth_scales_with_channels(self):
        assert DramSystem(channels=8).peak_bandwidth == pytest.approx(
            8 * DDR4_3200.peak_bandwidth
        )

    def test_eight_channels_is_dgx_host(self):
        # Section 4.2: the baseline CPU tops out at 204.8 GB/s.
        assert DramSystem(channels=8).peak_bandwidth == pytest.approx(204.8e9)

    def test_streaming_uses_all_channels(self):
        system = DramSystem(channels=4, refresh_enabled=False)
        system.enqueue_traffic(average_traffic(0, 1, 1 << 22, 4000))
        stats = system.run()
        for channel in stats.channel_stats:
            assert channel.accesses == 2000

    def test_multi_channel_bandwidth_scales(self):
        results = {}
        for channels in (1, 4):
            system = DramSystem(channels=channels, refresh_enabled=False)
            system.enqueue_traffic(average_traffic(0, 1, 1 << 22, channels * 2000))
            results[channels] = system.run().bandwidth
        assert results[4] > 3.5 * results[1]

    def test_total_bytes_aggregated(self):
        system = DramSystem(channels=2)
        system.enqueue_traffic(average_traffic(0, 1, 1 << 22, 50))
        stats = system.run()
        assert stats.total_bytes == 6400

    def test_empty_run(self):
        system = DramSystem(channels=2)
        stats = system.run()
        assert stats.bandwidth == 0.0
        assert stats.total_bytes == 0

    def test_row_hit_rate_reported(self):
        system = DramSystem(channels=2)
        system.enqueue_traffic(average_traffic(0, 1, 1 << 22, 1000))
        stats = system.run()
        assert stats.row_hit_rate > 0.9

    def test_mean_read_latency_positive(self):
        system = DramSystem(channels=2)
        system.enqueue_traffic(average_traffic(0, 1, 1 << 22, 100))
        stats = system.run()
        assert stats.mean_read_latency_cycles > 0


class TestWorkOnlyForDrainsThatRun:
    """A channel whose drain the trace memo answers neither decodes
    its trace nor builds rank and bank state; with the memos off
    (``REPRO_REFERENCE=1``) every channel does both."""

    def test_fig11_average_point_decodes_one_channel(self, timing_memo, monkeypatch):
        decoded, ranks_built = [], []
        decode_batch = AddressMapping.decode_batch
        rank_init = Rank.__init__

        def spy_decode(mapping, addr):
            decoded.append(len(addr))
            return decode_batch(mapping, addr)

        def spy_rank(rank, *args):
            ranks_built.append(rank)
            rank_init(rank, *args)

        monkeypatch.setattr(AddressMapping, "decode_batch", spy_decode)
        monkeypatch.setattr(Rank, "__init__", spy_rank)
        # The Fig. 11 CPU AVERAGE point at batch 2: every channel's share
        # has the same read and write streams, so one channel drains.
        words = 2 * LOOKUPS_PER_SAMPLE * EmbeddingLayout(1, 1, EMBEDDING_DIM).chunks
        traffic = average_traffic(0, AVERAGE_NUM, words * AVERAGE_NUM * 64, words)
        system = DramSystem(channels=8)
        system.enqueue_traffic(traffic)
        assert decoded == [] and ranks_built == []
        result = system.run()
        drains = 8 if reference_mode() else 1
        share = words * (AVERAGE_NUM + 1) // 8
        assert decoded == [share] * drains
        assert len(ranks_built) == drains * system.organization.ranks
        if not reference_mode():
            assert (timing_memo.hits, timing_memo.misses) == (7, 1)
        assert [s.accesses for s in result.channel_stats] == [share] * 8
