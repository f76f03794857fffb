"""Tests for the columnar memory-trace builders."""

import numpy as np

from repro.dram.trace import (
    WORD_BYTES,
    average_buffer,
    gather_buffer,
    reduce_buffer,
    streaming_buffer,
    strided_buffer,
)


class TestStreaming:
    def test_count(self):
        assert len(streaming_buffer(0, 100)) == 100

    def test_addresses_sequential(self):
        assert streaming_buffer(128, 4).addr.tolist() == [128, 192, 256, 320]

    def test_reads_by_default(self):
        assert streaming_buffer(0, 10).writes == 0

    def test_write_flag(self):
        assert streaming_buffer(0, 10, is_write=True).writes == 10

    def test_start_cycle(self):
        assert streaming_buffer(0, 2, start_cycle=50).cycle.tolist() == [50, 50]


class TestStrided:
    def test_stride_spacing(self):
        assert strided_buffer(0, 3, stride_words=4).addr.tolist() == [0, 256, 512]


class TestGather:
    def test_read_write_balance(self):
        rows = np.array([5, 2, 9])
        buf = gather_buffer(0, 8, rows, 1 << 20)
        assert buf.reads == 24
        assert buf.writes == 24

    def test_reads_hit_looked_up_rows(self):
        buf = gather_buffer(0, 2, np.array([3]), 1 << 20)
        reads = buf.addr[~buf.is_write]
        assert reads.tolist() == [3 * 2 * 64, 3 * 2 * 64 + 64]

    def test_writes_pack_output(self):
        buf = gather_buffer(0, 2, np.array([7, 1]), 1 << 20)
        base = 1 << 20
        assert buf.addr[buf.is_write].tolist() == [base, base + 64, base + 128, base + 192]


class TestReduce:
    def test_three_streams(self):
        buf = reduce_buffer(0, 1 << 10, 1 << 11, 16)
        assert buf.reads == 32
        assert buf.writes == 16

    def test_byte_accounting(self):
        assert len(reduce_buffer(0, 1 << 10, 1 << 11, 16)) * WORD_BYTES == 48 * 64


class TestAverage:
    def test_n_reads_per_output(self):
        buf = average_buffer(0, 25, 1 << 20, 8)
        assert buf.reads == 200
        assert buf.writes == 8

    def test_inputs_contiguous_by_group(self):
        buf = average_buffer(0, 2, 1 << 20, 2)
        assert buf.addr[~buf.is_write].tolist() == [0, 64, 128, 192]
