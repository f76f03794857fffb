"""Tests for the streaming builder and the one-channel traces of
:class:`repro.dram.trace.OpTraffic` descriptions (reads, then writes)."""

import numpy as np
import pytest

from repro.dram.trace import (
    WORD_BYTES,
    OpTraffic,
    average_traffic,
    gather_traffic,
    reduce_traffic,
    streaming_buffer,
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
        # AVERAGE group members are whole rows: output word k of a 4-word
        # row reads word k of each of its 3 input rows, 4 words apart.
        buf = OpTraffic("AVERAGE", (0, 100), 1, row_words=4, average_num=3).share(0, 1)
        assert (buf.addr[~buf.is_write] // WORD_BYTES).tolist() == [
            0, 4, 8, 1, 5, 9, 2, 6, 10, 3, 7, 11,
        ]


class TestGather:
    def test_read_write_balance(self):
        rows = np.array([5, 2, 9])
        buf = gather_traffic(0, 8, rows, 1 << 20).share(0, 1)
        assert buf.reads == 24
        assert buf.writes == 24

    def test_reads_hit_looked_up_rows(self):
        buf = gather_traffic(0, 2, np.array([3]), 1 << 20).share(0, 1)
        reads = buf.addr[~buf.is_write]
        assert reads.tolist() == [3 * 2 * 64, 3 * 2 * 64 + 64]

    def test_writes_pack_output(self):
        buf = gather_traffic(0, 2, np.array([7, 1]), 1 << 20).share(0, 1)
        base = 1 << 20
        assert buf.addr[buf.is_write].tolist() == [base, base + 64, base + 128, base + 192]


class TestReduce:
    def test_three_streams(self):
        buf = reduce_traffic(0, 1 << 10, 1 << 11, 16).share(0, 1)
        assert buf.reads == 32
        assert buf.writes == 16

    def test_byte_accounting(self):
        assert len(reduce_traffic(0, 1 << 10, 1 << 11, 16).share(0, 1)) * WORD_BYTES == 48 * 64


class TestAverage:
    def test_n_reads_per_output(self):
        buf = average_traffic(0, 25, 1 << 20, 8).share(0, 1)
        assert buf.reads == 200
        assert buf.writes == 8

    def test_inputs_contiguous_by_group(self):
        buf = average_traffic(0, 2, 1 << 20, 2).share(0, 1)
        assert buf.addr[~buf.is_write].tolist() == [0, 64, 128, 192]


ROWS = np.array([1, 2])


@pytest.mark.parametrize(
    "build,field",
    [
        (lambda: reduce_traffic(0, 512, 1024, -5), "num_words"),
        (lambda: average_traffic(0, 0, 512, 4), "average_num"),
        (lambda: average_traffic(0, -3, 512, 4), "average_num"),
        (lambda: gather_traffic(0, 2, [1.7, 2.2], 4096), "rows"),
        (lambda: gather_traffic(0, -2, [1, 2], 4096), "row_words"),
        (lambda: gather_traffic(0, 0, [1, 2], 4096), "row_words"),
        (lambda: OpTraffic("GATHER", (0, 64), 3, row_words=2, rows=ROWS), "rows"),
        (lambda: OpTraffic("GATHER", (0, 64), 2, row_words=2), "rows"),
        (lambda: OpTraffic("REDUCE", (0, 64, 128), 2, rows=ROWS), "rows"),
        (lambda: OpTraffic("REDUCE", (0, 64, 128), 2, row_words=2), "row_words"),
        (lambda: OpTraffic("REDUCE", (0, 64), 2), "bases"),
        (lambda: OpTraffic("AVERAGE", (0, 1.5), 2), "bases"),
        (lambda: OpTraffic("AVERAGE", (0, 64), 2.0), "num_words"),
        (lambda: OpTraffic("AVERAGE", (0, 64), 2, index_base=9), "index_base"),
        (lambda: OpTraffic("GATHER", (0, 64), 2, index_base=-1, rows=ROWS), "index_base"),
        (lambda: OpTraffic("SCATTER", (0, 64), 2), "op"),
    ],
)
def test_bad_traffic_names_the_field(build, field):
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        build()
