"""Tests for the FR-FCFS memory controller."""

import numpy as np
import pytest

from repro.dram.command import TraceBuffer
from repro.dram.controller import ControllerStats, MemoryController
from repro.dram.timing import DDR4_2400, DDR4_3200
from repro.dram.trace import reduce_traffic, streaming_buffer

from trace_oracles import concat


def make_controller(**kwargs):
    return MemoryController(DDR4_3200, **kwargs)


def enqueue(mc, addrs, is_write=False, arrival=None):
    """Queue the records ``addrs`` as one trace; returns the completions
    array the drain fills in (-1 until a record completes)."""
    trace = TraceBuffer(np.asarray(addrs, dtype=np.int64), is_write, arrival)
    done = np.full(len(trace), -1, dtype=np.int64)
    mc.enqueue_batch(trace, completions=done)
    return done


class TestBasicOperation:
    def test_single_read_completes(self):
        mc = make_controller()
        done = enqueue(mc, [0])
        stats = mc.run_to_completion()
        assert stats.reads == 1
        assert done[0] >= 0

    def test_single_read_latency_is_act_rcd_cl_burst(self):
        mc = make_controller(refresh_enabled=False)
        done = enqueue(mc, [0])
        mc.run_to_completion()
        t = DDR4_3200
        assert done[0] == t.rcd + t.cl + t.burst_cycles

    def test_single_write_completes(self):
        mc = make_controller()
        done = enqueue(mc, [128], is_write=True)
        stats = mc.run_to_completion()
        assert stats.writes == 1
        assert done[0] >= 0

    def test_empty_run(self):
        mc = make_controller()
        stats = mc.run_to_completion()
        assert stats.accesses == 0
        assert stats.finish_cycle == 0

    def test_row_hit_after_first_access(self):
        mc = make_controller(refresh_enabled=False)
        # Same row (bank-interleaved order: +64 moves bank group, so use
        # an address in the same row of the same bank: +16*64).
        enqueue(mc, [0, 16 * 64])
        stats = mc.run_to_completion()
        assert stats.row_hits == 1
        assert stats.row_misses == 1

    def test_row_conflict_requires_precharge(self):
        mc = make_controller(refresh_enabled=False)
        org = mc.organization
        row_stride = org.banks * org.columns * 64  # same bank, next row
        enqueue(mc, [0, row_stride])
        stats = mc.run_to_completion()
        assert stats.row_conflicts == 1
        assert stats.precharges == 1

    def test_rejects_rank_overflow(self):
        mc = make_controller()
        huge = mc.organization.capacity_bytes * 2
        with pytest.raises(ValueError):
            enqueue(mc, [huge])
        assert mc.pending == 0


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
        mc.enqueue_batch(reduce_traffic(0, 1 << 22, 1 << 23, 3000).share(0, 1))
        stats = mc.run_to_completion()
        assert stats.bandwidth(DDR4_3200) > 0.7 * DDR4_3200.peak_bandwidth

    def test_random_reads_far_below_peak(self):
        import random

        random.seed(1)
        mc = make_controller()
        enqueue(mc, [random.randrange(1 << 30) & ~63 for _ in range(3000)])
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
        enqueue(mc, np.arange(200) * 64, is_write=np.arange(200) % 2 == 0)
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
        enqueue(mixed, np.arange(2000) * 64, is_write=np.arange(2000) % 4 == 0)
        mixed_bw = mixed.run_to_completion().bandwidth(DDR4_3200)
        assert mixed_bw < pure_bw


class TestArrivalTimes:
    def test_request_not_served_before_arrival(self):
        mc = make_controller(refresh_enabled=False)
        done = enqueue(mc, [0], arrival=10_000)
        mc.run_to_completion()
        assert done[0] >= 10_000

    def test_paced_arrivals_have_low_queueing_latency(self):
        t = DDR4_3200
        mc = make_controller(refresh_enabled=False)
        # One request every 100 cycles: the queue never builds up.
        arrival = np.arange(100) * 100
        done = enqueue(mc, np.arange(100) * 64, arrival=arrival)
        mc.run_to_completion()
        service = t.rcd + t.cl + t.burst_cycles
        assert (done - arrival <= service + t.rc).all()  # no long queueing

    def test_burst_arrivals_queue(self):
        mc = make_controller(refresh_enabled=False)
        enqueue(mc, np.arange(64) * 64)
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
        mc.enqueue_batch(reduce_traffic(0, 1 << 20, 1 << 21, 300).share(0, 1))
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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("window", 2.5),
            ("window", True),
            ("window", "32"),
            ("write_high_watermark", 32.5),
            ("write_high_watermark", True),
            ("write_low_watermark", 8.0),
            ("write_low_watermark", False),
        ],
    )
    def test_rejects_non_integer_sizes(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_controller(**{field: value})

    def test_numpy_integer_sizes_accepted(self):
        mc = make_controller(window=np.int64(16), write_high_watermark=np.int32(24))
        assert (mc.window, mc.write_high) == (16, 24)
        assert type(mc.window) is int and type(mc.write_high) is int


class TestCompletions:
    """``enqueue_batch(trace, completions=)``: the drain writes each
    record's burst-end cycle at its trace position, from per-command steps,
    hit-phase steps and the phase's closed-form runs alike."""

    @pytest.mark.parametrize(
        "completions",
        [np.zeros(3, dtype=np.int64), np.zeros(5, dtype=np.int64), np.zeros((4, 1), dtype=np.int64)],
        ids=["short", "long", "2-d"],
    )
    def test_wrong_length_rejected(self, completions):
        mc = make_controller()
        trace = TraceBuffer(np.arange(4) * 64, False)
        with pytest.raises(ValueError, match="completions"):
            mc.enqueue_batch(trace, completions=completions)
        assert mc.pending == 0

    @pytest.mark.parametrize("dtype", [np.int32, np.float64])
    def test_wrong_dtype_rejected(self, dtype):
        mc = make_controller()
        trace = TraceBuffer(np.arange(4) * 64, False)
        with pytest.raises(ValueError, match="completions"):
            mc.enqueue_batch(trace, completions=np.zeros(4, dtype=dtype))
        assert mc.pending == 0

    def test_streak_and_step_completions_match_scan_oracle(self, monkeypatch):
        from repro.dram.mapping import RANK_INTERLEAVED_ORDER, AddressMapping, DramOrganization
        from repro.env import reference_mode

        from scan_oracle import ScanController
        from trace_oracles import enqueue_records

        org = DramOrganization(ranks=4)
        kw = {"organization": org, "mapping": AddressMapping(org, order=RANK_INTERLEAVED_ORDER)}
        mapping = kw["mapping"]
        rng = np.random.default_rng(13)
        # Row-0 write hits in rank 0 at cycle 0 (one write hit phase, most
        # of it retired in closed form), then reads and writes to random
        # rows of every rank (ACT/PRE, per-command steps).
        coords = [(0, i % 4, (i // 4) % 4, 0, i // 16) for i in range(600)]
        coords += [tuple(int(v) for v in c) for c in rng.integers(
            [0, 0, 0, 1, 0], [4, 4, 4, 64, 128], (400, 5)
        )]
        addrs = np.array([mapping.encode(*c) for c in coords], dtype=np.int64)
        is_write = np.concatenate([np.ones(600, dtype=bool), rng.random(400) < 0.4])
        cycles = np.concatenate([np.zeros(600, dtype=np.int64), 4000 + 20 * np.arange(400)])
        trace = TraceBuffer(addrs, is_write, cycles)

        mc = MemoryController(DDR4_3200, **kw)
        runs = []
        stretch = MemoryController._stretch

        def spy(ctrl, *args):
            result = stretch(ctrl, *args)
            if result.__class__ is tuple:
                runs.append(result[0])
            return result

        monkeypatch.setattr(MemoryController, "_stretch", spy)
        done = np.full(len(trace), -1, dtype=np.int64)
        mc.enqueue_batch(trace, completions=done)
        stats = mc.run_to_completion()
        monkeypatch.undo()
        if not reference_mode():
            assert sum(runs) > 100
            assert mc.phase_columns >= 570
        assert stats.activates > 300  # the random tail stepped command by command

        oracle = ScanController(DDR4_3200, **kw)
        expected = np.full(len(trace), -1, dtype=np.int64)
        enqueue_records(oracle, trace, expected)
        assert stats == oracle.run_to_completion()
        assert (done >= 0).all()
        assert np.array_equal(done, expected)


class TestPendingTrace:
    """The controller keeps the traces it was handed until they drain."""

    def test_concatenates_enqueued_traces_in_order(self):
        first = TraceBuffer(np.arange(3) * 64, False)
        second = TraceBuffer(np.arange(3, 5) * 64, True, 7)
        pieces = make_controller()
        pieces.enqueue_batch(first)
        pieces.enqueue_batch(second)
        assert pieces.pending == 5
        whole = make_controller()
        whole.enqueue_batch(concat([first, second]))
        assert pieces.run_to_completion() == whole.run_to_completion()

    def test_cleared_by_drain_and_reset(self):
        mc = make_controller()
        mc.enqueue_batch(streaming_buffer(0, 10))
        mc.reset()
        assert mc.pending == 0
        assert mc.run_to_completion() == ControllerStats()
        mc.enqueue_batch(streaming_buffer(0, 10))
        assert mc.run_to_completion().reads == 10
        assert mc.pending == 0


class TestDeferredDecode:
    """``enqueue_batch`` checks a trace at once; the drain decodes it."""

    def test_interleaved_enqueues_drain_like_the_scan_oracle(self):
        from scan_oracle import ScanController
        from trace_oracles import enqueue_records

        rng = np.random.default_rng(5)
        traces = [
            TraceBuffer(
                rng.integers(0, 1 << 14, 300) * 64,
                rng.random(300) < 0.3,
                np.sort(rng.integers(0, 3000, 300)),
            )
            for _ in range(4)
        ]
        fast = [make_controller(), make_controller()]
        oracles = [ScanController(DDR4_3200), ScanController(DDR4_3200)]
        for i, trace in enumerate(traces):
            fast[i % 2].enqueue_batch(trace)
        assert [mc.pending for mc in fast] == [600, 600]
        for i, trace in enumerate(traces):
            enqueue_records(oracles[i % 2], trace)
        # Drained later, and in the opposite order.
        for k in (1, 0):
            assert fast[k].run_to_completion() == oracles[k].run_to_completion()
            assert fast[k].pending == 0

    def test_pieces_drain_like_whole_across_drains(self):
        # Each drain numbers its records afresh, reads then writes in
        # enqueue order: a trace enqueued in pieces drains like the whole
        # trace, and so does a second drain on the same controller.
        from scan_oracle import ScanController
        from trace_oracles import enqueue_records

        rng = np.random.default_rng(9)
        pieces, whole, oracle = make_controller(), make_controller(), ScanController(DDR4_3200)
        for _ in range(2):
            trace = TraceBuffer(
                rng.integers(0, 1 << 12, 900) * 64,
                rng.random(900) < 0.4,
                np.sort(rng.integers(0, 9000, 900)) + pieces.stats.finish_cycle,
            )
            done = {mc: np.full(900, -1, dtype=np.int64) for mc in (pieces, whole, oracle)}
            for lo, hi in ((0, 250), (250, 251), (251, 900)):
                part = TraceBuffer(trace.addr[lo:hi], trace.is_write[lo:hi], trace.cycle[lo:hi])
                pieces.enqueue_batch(part, completions=done[pieces][lo:hi])
            whole.enqueue_batch(trace, completions=done[whole])
            enqueue_records(oracle, trace, done[oracle])
            expected = oracle.run_to_completion()
            assert pieces.run_to_completion() == expected
            assert whole.run_to_completion() == expected
            assert np.array_equal(done[pieces], done[oracle])
            assert np.array_equal(done[whole], done[oracle])

    @pytest.mark.parametrize("bad", ["negative", "past-capacity"])
    def test_bad_address_raises_at_enqueue(self, bad):
        mc = make_controller()
        addr = -64 if bad == "negative" else mc.organization.capacity_bytes
        with pytest.raises(ValueError, match="outside channel capacity"):
            mc.enqueue_batch(TraceBuffer(np.array([0, 64, addr]), False))
        assert mc.pending == 0
        assert mc.run_to_completion() == ControllerStats()

    @pytest.mark.parametrize(
        "cycles, bad",
        [([0, 5, -500], -500), ([-1, 5, 3], -1), ([0, 2**62 + 5], 2**62 + 5), ([2**62, 0], 2**62)],
        ids=["negative", "minus-one", "past-sentinel", "sentinel"],
    )
    def test_bad_cycle_raises_at_enqueue(self, cycles, bad):
        # A negative arrival would count towards the read latency, and one
        # at or past the drain's 2**62 sentinel would never be admitted.
        mc = make_controller()
        mc.enqueue_batch(streaming_buffer(0, 4))
        trace = TraceBuffer(np.arange(len(cycles)) * 64, False, cycles)
        with pytest.raises(ValueError, match=f"cycle {bad} "):
            mc.enqueue_batch(trace)
        assert mc.pending == 4
        good = make_controller()
        good.enqueue_batch(streaming_buffer(0, 4))
        assert mc.run_to_completion() == good.run_to_completion()

    def test_failed_enqueue_keeps_earlier_traces(self):
        mc = make_controller()
        good = streaming_buffer(0, 4)
        mc.enqueue_batch(good)
        with pytest.raises(ValueError, match="completions"):
            mc.enqueue_batch(streaming_buffer(256, 4), completions=np.zeros(3, dtype=np.int64))
        assert mc.pending == 4
        assert mc.run_to_completion().reads == 4
