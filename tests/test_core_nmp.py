"""Tests for the NMP core: ALU, SRAM queues, and instruction execution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DIMM_PEAK_BANDWIDTH, NMP_ALU_CLOCK_HZ
from repro.core.isa import Opcode, ReduceOp, average, gather, reduce
from repro.core.nmp_core import (
    NmpCore,
    NmpExecStats,
    SramQueue,
    VectorAlu,
    required_queue_bytes,
)
from repro.dram.storage import WordStorage


class TestQueueSizing:
    def test_paper_sizing_rule(self):
        # Section 4.2: 25.6 GB/s x 20 ns = 512 B per queue.
        assert required_queue_bytes() == 512

    def test_scales_with_bandwidth(self):
        assert required_queue_bytes(51.2e9, 20e-9) == 1024


class TestSramQueue:
    def test_minimum_capacity(self):
        with pytest.raises(ValueError):
            SramQueue(32)

    def test_capacity_in_words(self):
        assert SramQueue(512).capacity_words == 8

    def test_push_pop_fifo_order(self):
        q = SramQueue(512)
        q.push(np.full(16, 1.0))
        q.push(np.full(16, 2.0))
        assert q.pop()[0] == 1.0
        assert q.pop()[0] == 2.0

    def test_overflow(self):
        q = SramQueue(128)  # 2 words
        q.push(np.zeros(16))
        q.push(np.zeros(16))
        with pytest.raises(OverflowError):
            q.push(np.zeros(16))

    def test_underflow(self):
        with pytest.raises(IndexError):
            SramQueue(512).pop()

    def test_high_water_mark(self):
        q = SramQueue(512)
        for _ in range(5):
            q.push(np.zeros(16))
        q.pop()
        assert q.high_water_words == 5


class TestVectorAlu:
    def test_requires_16_lanes(self):
        with pytest.raises(ValueError):
            VectorAlu(lanes=8)

    @pytest.mark.parametrize(
        "op,fn",
        [
            (ReduceOp.SUM, np.add),
            (ReduceOp.SUB, np.subtract),
            (ReduceOp.MUL, np.multiply),
            (ReduceOp.MAX, np.maximum),
            (ReduceOp.MIN, np.minimum),
        ],
    )
    def test_elementwise_matches_numpy(self, op, fn, rng):
        alu = VectorAlu()
        a = rng.standard_normal((10, 16)).astype(np.float32)
        b = rng.standard_normal((10, 16)).astype(np.float32)
        np.testing.assert_allclose(alu.elementwise(a, b, op), fn(a, b), rtol=1e-6)

    def test_elementwise_shape_mismatch(self):
        alu = VectorAlu()
        with pytest.raises(ValueError):
            alu.elementwise(np.zeros((2, 16)), np.zeros((3, 16)), ReduceOp.SUM)

    def test_elementwise_counts_cycles(self):
        alu = VectorAlu()
        alu.elementwise(np.zeros((10, 16)), np.zeros((10, 16)), ReduceOp.SUM)
        assert alu.busy_cycles == 10

    def test_accumulate_mean_matches_numpy(self, rng):
        alu = VectorAlu()
        groups = rng.standard_normal((4, 25, 16)).astype(np.float32)
        np.testing.assert_allclose(
            alu.accumulate_mean(groups), groups.mean(axis=1), rtol=1e-5
        )

    def test_accumulate_mean_cycle_count(self):
        alu = VectorAlu()
        alu.accumulate_mean(np.zeros((4, 25, 16), dtype=np.float32))
        # ceil(25/2) pair-pops per output plus one divide per output.
        assert alu.busy_cycles == 4 * 13 + 4

    def test_seconds_at_150mhz(self):
        alu = VectorAlu()
        assert alu.seconds(150) == pytest.approx(1e-6)

    def test_alu_throughput_exceeds_reduce_demand(self):
        """Section 4.2's sizing argument: at 25.6 GB/s, REDUCE feeds the ALU
        one output word per 3 DRAM words, which a 150 MHz ALU absorbs."""
        dram_words_per_second = DIMM_PEAK_BANDWIDTH / 64
        alu_words_per_second = NMP_ALU_CLOCK_HZ
        assert alu_words_per_second > dram_words_per_second / 3


def make_core(node_dim=4, dimm_id=0, capacity=4096):
    return NmpCore(dimm_id, node_dim, WordStorage(capacity))


class TestCoreValidation:
    def test_dimm_id_range(self):
        with pytest.raises(ValueError):
            NmpCore(4, 4, WordStorage(16))

    def test_unaligned_base_rejected(self):
        core = make_core()
        instr = reduce(1, 4, 8, 1)  # input base not aligned to node_dim
        with pytest.raises(ValueError):
            core.execute(instr)


class TestGatherExecution:
    def test_gather_moves_correct_slices(self, rng):
        node_dim = 4
        core = make_core(node_dim=node_dim, dimm_id=0)
        # Table of 8 rows x 1 word/slice at local 0; indices at local 512.
        table = rng.standard_normal((8, 16)).astype(np.float32)
        core.storage.write_words(0, table)
        idx = np.array([5, 1, 7], dtype=np.int32)
        core.storage.write_indices(512, idx)
        instr = gather(
            table_base=0, index_base=512, output_base=256 * node_dim, num_lookups=3
        )
        stats = core.execute(instr)
        got = core.storage.read_words(256 + np.arange(3))
        np.testing.assert_array_equal(got, table[idx])
        assert stats.opcode == Opcode.GATHER

    def test_gather_stats_count_words(self):
        core = make_core()
        core.storage.write_indices(512, np.zeros(10, dtype=np.int32))
        instr = gather(0, 512, 1024, 10, words_per_slice=2)
        stats = core.execute(instr)
        assert stats.words_written == 20
        assert stats.words_read == 20 + 1  # + one index word

    def test_gather_bypasses_alu(self):
        core = make_core()
        core.storage.write_indices(512, np.zeros(4, dtype=np.int32))
        stats = core.execute(gather(0, 512, 1024, 4))
        assert stats.alu_cycles == 0

    def test_gather_wide_slices(self, rng):
        core = make_core(node_dim=2)
        table = rng.standard_normal((4 * 3, 16)).astype(np.float32)  # 4 rows x 3 words
        core.storage.write_words(0, table)
        core.storage.write_indices(900, np.array([2], dtype=np.int32))
        instr = gather(0, 900, 2 * 100, 1, words_per_slice=3)
        core.execute(instr)
        got = core.storage.read_words(100 + np.arange(3))
        np.testing.assert_array_equal(got, table[6:9])


class TestReduceExecution:
    def test_reduce_sums_slices(self, rng):
        core = make_core(node_dim=2)
        a = rng.standard_normal((6, 16)).astype(np.float32)
        b = rng.standard_normal((6, 16)).astype(np.float32)
        core.storage.write_words(0, a)
        core.storage.write_words(6, b)
        instr = reduce(0, 6 * 2, 12 * 2, 6)
        stats = core.execute(instr)
        np.testing.assert_allclose(
            core.storage.read_words(12 + np.arange(6)), a + b, rtol=1e-6
        )
        assert stats.words_read == 12
        assert stats.words_written == 6
        assert stats.alu_cycles == 6

    def test_reduce_subop(self, rng):
        core = make_core(node_dim=2)
        a = rng.standard_normal((3, 16)).astype(np.float32)
        b = rng.standard_normal((3, 16)).astype(np.float32)
        core.storage.write_words(0, a)
        core.storage.write_words(3, b)
        core.execute(reduce(0, 6, 12, 3, op=ReduceOp.MAX))
        np.testing.assert_array_equal(
            core.storage.read_words(6 + np.arange(3)), np.maximum(a, b)
        )

    def test_reduce_in_place_accumulator(self, rng):
        # The runtime chains REDUCEs with the accumulator as input1/output.
        core = make_core(node_dim=2)
        a = rng.standard_normal((3, 16)).astype(np.float32)
        b = rng.standard_normal((3, 16)).astype(np.float32)
        core.storage.write_words(0, a)
        core.storage.write_words(3, b)
        core.execute(reduce(0, 6, 0, 3))  # a += b, written back over a
        np.testing.assert_allclose(core.storage.read_words(np.arange(3)), a + b, rtol=1e-6)


class TestAverageExecution:
    def test_average_matches_numpy(self, rng):
        core = make_core(node_dim=2)
        groups = rng.standard_normal((4 * 5, 16)).astype(np.float32)
        core.storage.write_words(0, groups)
        instr = average(0, 5, 40, 4)
        stats = core.execute(instr)
        expected = groups.reshape(4, 5, 16).mean(axis=1)
        np.testing.assert_allclose(
            core.storage.read_words(20 + np.arange(4)), expected, rtol=1e-5
        )
        assert stats.words_read == 20
        assert stats.words_written == 4

    def test_average_group_of_one_is_copy(self, rng):
        core = make_core(node_dim=2)
        data = rng.standard_normal((3, 16)).astype(np.float32)
        core.storage.write_words(0, data)
        core.execute(average(0, 1, 6, 3))
        np.testing.assert_allclose(core.storage.read_words(3 + np.arange(3)), data)


def instr_trace(core, instr):
    """The instruction's DRAM trace, as the timed paths build it."""
    return core.describe(instr).share(0, 1)


class TestTraceGeneration:
    def _trace_counts(self, core, instr):
        trace = instr_trace(core, instr)
        return trace.reads, trace.writes

    def test_gather_trace_matches_stats(self):
        core = make_core()
        core.storage.write_indices(512, np.arange(6, dtype=np.int32))
        instr = gather(0, 512, 1024, 6, words_per_slice=2)
        reads, writes = self._trace_counts(core, instr)
        stats = core.execute(instr)
        assert reads == stats.words_read
        assert writes == stats.words_written

    def test_reduce_trace_matches_stats(self):
        core = make_core(node_dim=2)
        instr = reduce(0, 20, 40, 10)
        reads, writes = self._trace_counts(core, instr)
        stats = core.execute(instr)
        assert (reads, writes) == (stats.words_read, stats.words_written)

    def test_average_trace_matches_stats(self):
        core = make_core(node_dim=2)
        instr = average(0, 4, 80, 10)
        reads, writes = self._trace_counts(core, instr)
        stats = core.execute(instr)
        assert (reads, writes) == (stats.words_read, stats.words_written)

    def test_trace_addresses_are_64B_aligned(self):
        core = make_core(node_dim=2)
        assert (instr_trace(core, reduce(0, 20, 40, 10)).addr % 64 == 0).all()


class TestTimingModel:
    def test_dram_seconds(self):
        stats = NmpExecStats(Opcode.REDUCE, words_read=200, words_written=100)
        assert stats.dram_seconds(19.2e9) == pytest.approx(300 * 64 / 19.2e9)

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            NmpExecStats(Opcode.REDUCE).dram_seconds(0.0)

    def test_alu_seconds(self):
        stats = NmpExecStats(Opcode.REDUCE, alu_cycles=150)
        assert stats.alu_seconds() == pytest.approx(1e-6)

    def test_pipelined_takes_slower_stream(self):
        stats = NmpExecStats(Opcode.REDUCE, words_read=2, words_written=1, alu_cycles=1)
        dram = stats.dram_seconds(DIMM_PEAK_BANDWIDTH)
        alu = stats.alu_seconds()
        assert stats.pipelined_seconds(DIMM_PEAK_BANDWIDTH) == max(dram, alu)

    def test_reduce_is_dram_bound_at_peak(self):
        """At full DIMM bandwidth the 150 MHz ALU keeps up with REDUCE."""
        words = 10_000
        stats = NmpExecStats(
            Opcode.REDUCE, words_read=2 * words, words_written=words, alu_cycles=words
        )
        assert stats.dram_seconds(DIMM_PEAK_BANDWIDTH) > stats.alu_seconds()


class TestFunctionalProperty:
    @given(
        count=st.integers(1, 24),
        op=st.sampled_from(list(ReduceOp)),
    )
    @settings(max_examples=40, deadline=None)
    def test_reduce_property(self, count, op):
        core = make_core(node_dim=2, capacity=512)
        rng = np.random.default_rng(count)
        a = rng.standard_normal((count, 16)).astype(np.float32)
        b = rng.standard_normal((count, 16)).astype(np.float32)
        core.storage.write_words(0, a)
        core.storage.write_words(count, b)
        core.execute(reduce(0, count * 2, count * 4, count, op=op))
        fn = {
            ReduceOp.SUM: np.add,
            ReduceOp.SUB: np.subtract,
            ReduceOp.MUL: np.multiply,
            ReduceOp.MAX: np.maximum,
            ReduceOp.MIN: np.minimum,
        }[op]
        np.testing.assert_allclose(
            core.storage.read_words(count * 2 + np.arange(count)), fn(a, b), rtol=1e-5
        )
