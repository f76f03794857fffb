"""Tests for the FR-FCFS memory controller."""

import pytest

from repro.dram.command import Request
from repro.dram.controller import MemoryController
from repro.dram.timing import DDR4_2400, DDR4_3200
from repro.dram.trace import reduce_buffer, streaming_buffer


def make_controller(**kwargs):
    return MemoryController(DDR4_3200, **kwargs)


class TestBasicOperation:
    def test_single_read_completes(self):
        mc = make_controller()
        req = Request(addr=0, is_write=False)
        mc.enqueue(req)
        stats = mc.run_to_completion()
        assert stats.reads == 1
        assert req.done

    def test_single_read_latency_is_act_rcd_cl_burst(self):
        mc = make_controller(refresh_enabled=False)
        req = Request(addr=0, is_write=False)
        mc.enqueue(req)
        mc.run_to_completion()
        t = DDR4_3200
        assert req.completion == t.rcd + t.cl + t.burst_cycles

    def test_single_write_completes(self):
        mc = make_controller()
        req = Request(addr=128, is_write=True)
        mc.enqueue(req)
        stats = mc.run_to_completion()
        assert stats.writes == 1

    def test_empty_run(self):
        mc = make_controller()
        stats = mc.run_to_completion()
        assert stats.accesses == 0
        assert stats.finish_cycle == 0

    def test_row_hit_after_first_access(self):
        mc = make_controller(refresh_enabled=False)
        mc.enqueue(Request(addr=0, is_write=False))
        # Same row (bank-interleaved order: +64 moves bank group, so use
        # an address in the same row of the same bank: +16*64).
        mc.enqueue(Request(addr=16 * 64, is_write=False))
        stats = mc.run_to_completion()
        assert stats.row_hits == 1
        assert stats.row_misses == 1

    def test_row_conflict_requires_precharge(self):
        mc = make_controller(refresh_enabled=False)
        org = mc.organization
        row_stride = org.banks * org.columns * 64  # same bank, next row
        mc.enqueue(Request(addr=0, is_write=False))
        mc.enqueue(Request(addr=row_stride, is_write=False))
        stats = mc.run_to_completion()
        assert stats.row_conflicts == 1
        assert stats.precharges == 1

    def test_rejects_rank_overflow(self):
        mc = make_controller()
        huge = mc.organization.capacity_bytes * 2
        with pytest.raises(ValueError):
            mc.enqueue(Request(addr=huge, is_write=False))


class TestBandwidth:
    def test_streaming_reads_near_peak(self):
        mc = make_controller(refresh_enabled=False)
        mc.enqueue_batch(streaming_buffer(0, 8000))
        stats = mc.run_to_completion()
        assert stats.bandwidth(DDR4_3200) > 0.97 * DDR4_3200.peak_bandwidth

    def test_streaming_with_refresh_still_above_90_percent(self):
        mc = make_controller(refresh_enabled=True)
        mc.enqueue_batch(streaming_buffer(0, 8000))
        stats = mc.run_to_completion()
        assert stats.bandwidth(DDR4_3200) > 0.90 * DDR4_3200.peak_bandwidth

    def test_bandwidth_never_exceeds_peak(self):
        mc = make_controller(refresh_enabled=False)
        mc.enqueue_batch(streaming_buffer(0, 2000))
        stats = mc.run_to_completion()
        assert stats.bandwidth(DDR4_3200) <= DDR4_3200.peak_bandwidth

    def test_reduce_traffic_sustains_high_bandwidth(self):
        mc = make_controller()
        mc.enqueue_batch(reduce_buffer(0, 1 << 22, 1 << 23, 3000))
        stats = mc.run_to_completion()
        assert stats.bandwidth(DDR4_3200) > 0.7 * DDR4_3200.peak_bandwidth

    def test_random_reads_far_below_peak(self):
        import random

        random.seed(1)
        mc = make_controller()
        for _ in range(3000):
            mc.enqueue(Request(addr=random.randrange(1 << 30) & ~63, is_write=False))
        stats = mc.run_to_completion()
        assert stats.bandwidth(DDR4_3200) < 0.6 * DDR4_3200.peak_bandwidth

    def test_slower_grade_lower_bandwidth(self):
        results = {}
        for timing in (DDR4_2400, DDR4_3200):
            mc = MemoryController(timing, refresh_enabled=False)
            mc.enqueue_batch(streaming_buffer(0, 4000))
            stats = mc.run_to_completion()
            results[timing.name] = stats.bandwidth(timing)
        assert results["DDR4-3200"] > results["DDR4-2400"]

    def test_data_bus_cycles_match_access_count(self):
        mc = make_controller(refresh_enabled=False)
        mc.enqueue_batch(streaming_buffer(0, 500))
        stats = mc.run_to_completion()
        assert stats.data_bus_cycles == 500 * DDR4_3200.burst_cycles


class TestWriteHandling:
    def test_writes_drain_in_batches(self):
        mc = make_controller(refresh_enabled=False)
        # Interleave reads and writes; the watermark policy should still
        # complete everything.
        for i in range(200):
            mc.enqueue(Request(addr=i * 64, is_write=(i % 2 == 0)))
        stats = mc.run_to_completion()
        assert stats.reads == 100
        assert stats.writes == 100

    def test_write_only_stream(self):
        mc = make_controller(refresh_enabled=False)
        mc.enqueue_batch(streaming_buffer(0, 1000, is_write=True))
        stats = mc.run_to_completion()
        assert stats.writes == 1000
        assert stats.bandwidth(DDR4_3200) > 0.9 * DDR4_3200.peak_bandwidth

    def test_mixed_bandwidth_lower_than_pure_read(self):
        pure = make_controller(refresh_enabled=False)
        pure.enqueue_batch(streaming_buffer(0, 2000))
        pure_bw = pure.run_to_completion().bandwidth(DDR4_3200)

        mixed = make_controller(refresh_enabled=False)
        for i in range(2000):
            mixed.enqueue(Request(addr=i * 64, is_write=(i % 4 == 0)))
        mixed_bw = mixed.run_to_completion().bandwidth(DDR4_3200)
        assert mixed_bw < pure_bw


class TestArrivalTimes:
    def test_request_not_served_before_arrival(self):
        mc = make_controller(refresh_enabled=False)
        req = Request(addr=0, is_write=False, arrival=10_000)
        mc.enqueue(req)
        mc.run_to_completion()
        assert req.completion >= 10_000

    def test_paced_arrivals_have_low_queueing_latency(self):
        t = DDR4_3200
        mc = make_controller(refresh_enabled=False)
        # One request every 100 cycles: the queue never builds up.
        reqs = [Request(addr=i * 64, is_write=False, arrival=i * 100) for i in range(100)]
        for r in reqs:
            mc.enqueue(r)
        mc.run_to_completion()
        service = t.rcd + t.cl + t.burst_cycles
        for r in reqs:
            assert r.latency <= service + t.rc  # no long queueing

    def test_burst_arrivals_queue(self):
        mc = make_controller(refresh_enabled=False)
        reqs = [Request(addr=i * 64, is_write=False) for i in range(64)]
        for r in reqs:
            mc.enqueue(r)
        stats = mc.run_to_completion()
        assert stats.mean_read_latency > DDR4_3200.cl


class TestRefresh:
    def test_refreshes_occur_on_long_runs(self):
        mc = make_controller(refresh_enabled=True)
        mc.enqueue_batch(streaming_buffer(0, 30_000))
        stats = mc.run_to_completion()
        expected = stats.finish_cycle // DDR4_3200.refi
        assert stats.refreshes >= expected

    def test_no_refresh_when_disabled(self):
        mc = make_controller(refresh_enabled=False)
        mc.enqueue_batch(streaming_buffer(0, 30_000))
        stats = mc.run_to_completion()
        assert stats.refreshes == 0


class TestRowPolicy:
    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            make_controller(row_policy="lazy")

    def test_closed_page_has_no_row_hits_on_streaming(self):
        mc = make_controller(row_policy="closed", refresh_enabled=False)
        mc.enqueue_batch(streaming_buffer(0, 500))
        stats = mc.run_to_completion()
        assert stats.row_hits == 0
        assert stats.row_misses == 500

    def test_closed_page_slower_for_streaming(self):
        def bandwidth(policy):
            mc = make_controller(row_policy=policy, refresh_enabled=False)
            mc.enqueue_batch(streaming_buffer(0, 2000))
            return mc.run_to_completion().bandwidth(DDR4_3200)

        assert bandwidth("open") > 1.5 * bandwidth("closed")

    def test_closed_page_still_functionally_complete(self):
        mc = make_controller(row_policy="closed")
        mc.enqueue_batch(reduce_buffer(0, 1 << 20, 1 << 21, 300))
        stats = mc.run_to_completion()
        assert stats.accesses == 900


class TestStats:
    def test_row_hit_rate_bounds(self):
        mc = make_controller()
        mc.enqueue_batch(streaming_buffer(0, 1000))
        stats = mc.run_to_completion()
        assert 0.0 <= stats.row_hit_rate <= 1.0

    def test_hit_miss_conflict_partition(self):
        mc = make_controller()
        mc.enqueue_batch(streaming_buffer(0, 1000))
        stats = mc.run_to_completion()
        assert stats.row_hits + stats.row_misses + stats.row_conflicts == stats.accesses

    def test_total_bytes(self):
        mc = make_controller()
        mc.enqueue_batch(streaming_buffer(0, 100))
        stats = mc.run_to_completion()
        assert stats.total_bytes == 6400

    def test_empty_stats_properties(self):
        mc = make_controller()
        stats = mc.run_to_completion()
        assert stats.row_hit_rate == 0.0
        assert stats.bus_utilization == 0.0
        assert stats.mean_read_latency == 0.0
        assert stats.bandwidth(DDR4_3200) == 0.0


class TestConfigValidation:
    """Configurations the drain cannot make progress with are rejected at
    construction, with the offending parameter named."""

    @pytest.mark.parametrize("window", [0, -3])
    def test_rejects_empty_window(self, window):
        with pytest.raises(ValueError, match="window"):
            make_controller(window=window)

    def test_rejects_negative_low_watermark(self):
        with pytest.raises(ValueError, match="write_low_watermark"):
            make_controller(write_high_watermark=0, write_low_watermark=-1)
