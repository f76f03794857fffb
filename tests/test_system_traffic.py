"""Channel shares of the traffic description (``repro.dram.trace.OpTraffic``)
against per-record routing of whole-system traces.

Each channel's share must carry the read stream and the write stream that
:meth:`DramSystem.route`, record by record, hands that channel: the CPU
ops' closed-form shares against their generators' traces, and the shares
selected from the whole streams (index reads, AVERAGE rows wider than a
word) against the one-channel share, which
``tests/test_nmp_traffic.py`` checks against the NMP instruction oracle.
Equal share keys must mean byte-identical shares, within one description
and across descriptions, because the timing memo is keyed by the share key
alone and one description's drain serves another's.  Aligned shapes must
give every channel one key, and a description outside the system must be
refused before any controller queues anything.  CI also runs this file
with ``REPRO_REFERENCE=1``, where the memo is off and every channel
drains its own share.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.dram import memo
from repro.dram.command import TraceBuffer
from repro.dram.system import DramSystem
from repro.dram.trace import OpTraffic, average_traffic, gather_traffic, reduce_traffic
from repro.env import reference_mode

from trace_oracles import (
    average_trace, drain_routed, gather_trace, reduce_trace, routed_shares, streams,
    to_buffer,
)

#: One system per channel count, shared by every example.
_SYSTEMS = {c: DramSystem(channels=c) for c in (1, 2, 3, 8)}


@st.composite
def cases(draw):
    """``(channels, aligned, traffic, whole-system trace)`` for one op.

    Aligned cases put every base, the GATHER row width and the REDUCE and
    AVERAGE word counts on multiples of ``channels`` words; the others
    draw any base, any row width and odd word counts.  Unaligned cases also
    draw the traffic only an NMP instruction has (index reads, AVERAGE rows
    wider than a word), whose shares have no closed form."""
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
        op = draw(st.sampled_from(["GATHER", "AVERAGE"]))
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


@st.composite
def near_pairs(draw):
    """``(channels, a, b)``: two descriptions of one op built to collide on
    some channels' keys — the same shape and rows, with each of ``b``'s
    bases within two channel widths of ``a``'s."""
    channels = draw(st.sampled_from([2, 3, 4, 8]))
    op = draw(st.sampled_from(["GATHER", "REDUCE", "AVERAGE"]))
    first = [draw(st.integers(0, 8 * channels)) for _ in range(3 if op == "REDUCE" else 2)]
    second = tuple(
        max(0, base + draw(st.integers(-2 * channels, 2 * channels))) for base in first
    )
    fields = {}
    if op == "GATHER":
        rows = draw(st.lists(st.integers(0, 20), max_size=12))
        row_words = draw(st.integers(1, 3) | st.integers(1, 3).map(lambda k: k * channels))
        fields = {"row_words": row_words, "rows": np.array(rows, dtype=np.int64)}
        num_words = len(rows)
    else:
        num_words = draw(st.integers(0, 4)) * channels + draw(st.sampled_from([0, 1]))
        if op == "AVERAGE":
            fields["average_num"] = draw(st.integers(1, 4))
    return (
        channels,
        OpTraffic(op, tuple(first), num_words, **fields),
        OpTraffic(op, second, num_words, **fields),
    )


def _gather_8_channels(table_word: int) -> OpTraffic:
    return OpTraffic("GATHER", (table_word, 800), 3, row_words=8, rows=np.array([4, 0, 4]))


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
            assert streams(share) == streams(golden)

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

    @settings(max_examples=200, deadline=None)
    @given(near_pairs())
    @example((8, _gather_8_channels(1), _gather_8_channels(8)))
    def test_equal_keys_across_descriptions_mean_identical_shares(self, case):
        channels, a, b = case
        for c in range(channels):
            for d in range(channels):
                if a.share_key(c, channels) == b.share_key(d, channels):
                    assert _identical(a.share(c, channels), b.share(d, channels))

    def test_gather_tables_a_word_apart_collide_on_channel_0(self):
        # Channel 0 holds word 8 of each row in both tables, at the same
        # local word, so one memo entry serves both.
        a, b = _gather_8_channels(1), _gather_8_channels(8)
        assert a.share_key(0, 8) == b.share_key(0, 8)
        assert _identical(a.share(0, 8), b.share(0, 8))
        assert a.share_key(1, 8) != b.share_key(1, 8)

    @settings(max_examples=50, deadline=None)
    @given(cases())
    def test_system_queues_one_buffer_per_key(self, case):
        """``run`` builds one share buffer per distinct key (every channel's
        in reference mode, where the memo is off) and drains each channel
        to the stats of its per-record routed share."""
        channels, _, traffic, trace = case
        assume(traffic.records)  # an empty description is not held at all
        system = DramSystem(channels=channels)
        system.enqueue_traffic(traffic)
        keys = {traffic.share_key(c, channels) for c in range(channels)}
        constructions = TraceBuffer.constructions
        with mock.patch.object(memo, "TIMING_MEMO", memo.TimingMemo()):
            result = system.run()
        built = channels if reference_mode() else len(keys)
        assert TraceBuffer.constructions - constructions == built
        assert result.channel_stats == drain_routed(system, trace)


class TestOutOfRange:
    @settings(max_examples=50, deadline=None)
    @given(cases(), st.booleans(), st.integers(0, 7))
    def test_refused_before_any_channel_queues(self, case, negative, spill):
        channels, _, traffic, _ = case
        system = DramSystem(channels=channels)
        write_words = traffic.num_words * traffic.row_words
        # The last base starts the written run.
        assume(write_words)
        spill %= write_words
        words = system.capacity_bytes // 64
        out = -1 - spill if negative else words - spill
        bad = replace(traffic, bases=traffic.bases[:-1] + (out,))
        with pytest.raises(ValueError, match="outside system capacity"):
            system.enqueue_traffic(bad)
        assert system.run().total_bytes == 0


def test_unaligned_base_refused():
    with pytest.raises(ValueError, match="not 64 B-aligned"):
        reduce_traffic(0, 32, 128, 4)
