"""Channel shares of the traffic description (``repro.dram.trace.OpTraffic``)
against per-record routing of whole-system traces.

Each channel's share must carry the read stream and the write stream that
:meth:`DramSystem.route`, record by record, hands that channel: the CPU
ops' closed-form shares against their generators' traces, and the shares
selected from the whole streams (index reads, UPDATE, AVERAGE rows wider
than a word) against the one-channel share, which
``tests/test_nmp_traffic.py`` checks against the NMP instruction oracle;
equal share keys must mean byte-identical shares; aligned shapes must give
every channel one key; and a description outside the system must be
refused before any controller queues anything.  CI also runs this file
with ``REPRO_REFERENCE=1``, where the memos are off and every channel
drains its own share.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.dram.system import DramSystem
from repro.dram.trace import OpTraffic, average_traffic, gather_traffic, reduce_traffic

from trace_oracles import average_trace, gather_trace, reduce_trace, routed_shares, to_buffer

#: One system per channel count: building 8 controllers per example would
#: dominate the property run.
_SYSTEMS = {c: DramSystem(channels=c) for c in (1, 2, 3, 8)}


@st.composite
def cases(draw):
    """``(channels, aligned, traffic, whole-system trace)`` for one op.

    Aligned cases put every base, the GATHER row width and the REDUCE and
    AVERAGE word counts on multiples of ``channels`` words; the others
    draw any base, any row width and odd word counts.  Unaligned cases also
    draw the traffic only an NMP instruction has (index reads, UPDATE,
    AVERAGE rows wider than a word), whose shares have no closed form."""
    channels = draw(st.sampled_from(sorted(_SYSTEMS)))
    aligned = draw(st.booleans())
    unit = channels if aligned else 1

    def base():
        return draw(st.integers(0, 300)) * unit * 64

    def count(low, high):
        if aligned:
            return draw(st.integers(low, high)) * channels
        return draw(st.integers(low, high)) * 2 + 1

    if not aligned and draw(st.booleans()):
        op = draw(st.sampled_from(["GATHER", "UPDATE", "AVERAGE"]))
        rows = draw(st.lists(st.integers(0, 40), max_size=40))
        fields = {"row_words": draw(st.integers(1, 5))}
        if op == "AVERAGE":
            fields["average_num"] = draw(st.integers(1, 4))
            num_words = draw(st.integers(0, 8))
        else:
            fields.update(rows=rows, index_base=draw(st.none() | st.integers(0, 300)))
            num_words = len(rows)
        bases = (draw(st.integers(0, 300)), draw(st.integers(0, 300)))
        traffic = OpTraffic(op, bases, num_words, **fields)
        return channels, aligned, traffic, traffic.share(0, 1)
    op = draw(st.sampled_from(["GATHER", "REDUCE", "AVERAGE"]))
    if op == "GATHER":
        if aligned:
            row_words = draw(st.integers(1, 3)) * channels
        else:
            # Row widths on and off multiples of ``channels``: with an
            # unaligned table both give channels different shares.
            row_words = draw(
                st.integers(1, 20) | st.integers(1, 3).map(lambda k: k * channels)
            )
        rows = np.array(
            draw(st.lists(st.integers(0, 40), max_size=12)), dtype=np.int64
        )
        args = (base(), row_words, rows, base())
        return channels, aligned, gather_traffic(*args), to_buffer(gather_trace(*args))
    if op == "REDUCE":
        args = (base(), base(), base(), count(0, 20))
        return channels, aligned, reduce_traffic(*args), to_buffer(reduce_trace(*args))
    args = (base(), draw(st.integers(1, 6)), base(), count(0, 12))
    return channels, aligned, average_traffic(*args), to_buffer(average_trace(*args))


def _streams(trace):
    reads = ~trace.is_write
    return trace.addr[reads], trace.addr[trace.is_write]


def _identical(a, b):
    return (
        np.array_equal(a.addr, b.addr)
        and np.array_equal(a.is_write, b.is_write)
        and np.array_equal(a.cycle, b.cycle)
    )


class TestShares:
    @settings(max_examples=200, deadline=None)
    @given(cases())
    def test_each_share_matches_per_record_routing(self, case):
        channels, _, traffic, trace = case
        routed = routed_shares(_SYSTEMS[channels], trace)
        for channel, golden in enumerate(routed):
            share = traffic.share(channel, channels)
            if golden is None:
                assert len(share) == 0
                continue
            reads, writes = _streams(share)
            golden_reads, golden_writes = _streams(golden)
            assert np.array_equal(reads, golden_reads)
            assert np.array_equal(writes, golden_writes)
            assert share.digest() == golden.digest()

    @settings(max_examples=200, deadline=None)
    @given(cases())
    def test_equal_keys_mean_identical_shares(self, case):
        channels, aligned, traffic, _ = case
        by_key = {}
        for channel in range(channels):
            key = traffic.share_key(channel, channels)
            hash(key)
            share = traffic.share(channel, channels)
            if key in by_key:
                assert _identical(by_key[key], share)
            by_key[key] = share
        if aligned:
            assert len(by_key) == 1

    @settings(max_examples=50, deadline=None)
    @given(cases())
    def test_system_queues_one_buffer_per_key(self, case):
        channels, _, traffic, trace = case
        system = DramSystem(channels=channels)
        system.enqueue_traffic(traffic)
        routed = routed_shares(system, trace)
        buffers = {}
        for channel, (controller, golden) in enumerate(zip(system.controllers, routed)):
            pending = controller.pending_trace()
            if golden is None:
                assert pending is None
                continue
            assert pending.digest() == golden.digest()
            key = traffic.share_key(channel, channels)
            assert buffers.setdefault(key, pending) is pending


class TestOutOfRange:
    @settings(max_examples=50, deadline=None)
    @given(cases(), st.booleans(), st.integers(0, 7))
    def test_refused_before_any_channel_queues(self, case, negative, spill):
        channels, _, traffic, _ = case
        system = DramSystem(channels=channels)
        write_words = traffic.num_words * traffic.row_words
        # The last base starts the written run (UPDATE writes table rows).
        assume(write_words and traffic.op != "UPDATE")
        spill %= write_words
        words = system.capacity_bytes // 64
        out = -1 - spill if negative else words - spill
        bad = replace(traffic, bases=traffic.bases[:-1] + (out,))
        with pytest.raises(ValueError, match="outside system capacity"):
            system.enqueue_traffic(bad)
        assert all(c.pending == 0 for c in system.controllers)
        assert all(c.pending_trace() is None for c in system.controllers)


def test_unaligned_base_refused():
    with pytest.raises(ValueError, match="not 64 B-aligned"):
        reduce_traffic(0, 32, 128, 4)
