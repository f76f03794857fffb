"""Golden parity tests for the vectorized trace engine and scheduler.

The perf overhaul (columnar ``TraceBuffer`` traces, ``decode_batch`` +
``enqueue_batch`` fast paths, the indexed FR-FCFS scheduler, and controller
reuse via ``reset()``) must be *bit-identical* to the original scalar paths:
every :class:`ControllerStats` field — reads, writes, row hits/misses/
conflicts, activates, precharges, refreshes, data-bus cycles, finish cycle,
read-latency sum — has to match, command for command.  These tests pin that
equivalence on seeded traces of all four TensorISA opcodes and on synthetic
traffic patterns that stress every scheduler branch.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.isa import average, gather, reduce, update
from repro.core.nmp_core import NmpCore
from repro.core.tensordimm import TensorDimm
from repro.bench import ablation
from repro.bench.figure11 import AVERAGE_NUM, LOOKUPS_PER_SAMPLE, TABLE_ROWS
from repro.core.address_map import EmbeddingLayout
from repro.dram import command as command_module
from repro.dram import controller as controller_module
from repro.dram.bank import Rank
from repro.dram.command import TraceBuffer, reserve_seq_block
from repro.dram.controller import MemoryController
from repro.dram.mapping import (
    BANK_INTERLEAVED_ORDER,
    RANK_INTERLEAVED_ORDER,
    ROW_INTERLEAVED_ORDER,
    AddressMapping,
    DramOrganization,
)
from repro.dram.storage import WordStorage
from repro.dram.system import DramSystem
from repro.dram.timing import DDR4_3200
from repro.dram.trace import (
    WORD_BYTES,
    OpTraffic,
    average_traffic,
    gather_traffic,
    reduce_traffic,
    streaming_buffer,
)
from repro.env import REFERENCE_ENV_VAR, reference_mode

from scan_oracle import ScanController
from trace_oracles import (
    Record,
    average_trace,
    concat,
    enqueue_records,
    enqueue_routed,
    gather_trace,
    records,
    reduce_trace,
    reinterleave,
    streaming_trace,
    streams,
    strided_trace,
    to_buffer,
)


def seeded_core(seed=7, node_dim=2, capacity=1 << 16):
    """An NMP core with a seeded index buffer at local word 30000."""
    rng = np.random.default_rng(seed)
    core = NmpCore(0, node_dim, WordStorage(capacity))
    idx = rng.integers(0, 256, size=100).astype(np.int32)
    core.storage.write_indices(30000, idx)
    return core


OPCODE_CASES = {
    "gather": gather(0, 30000, 2 * 4000, 100, words_per_slice=3),
    "reduce": reduce(0, 2 * 1000, 2 * 2000, 300),
    "average": average(0, 5, 2 * 3000, 60, words_per_slice=3),
    "update": update(2 * 1000, 30000, 0, 100, words_per_slice=2),
}


def instr_trace(core, instr):
    """The instruction's DRAM trace, as the timed paths build it."""
    return core.describe(instr).share(0, 1)


def run_scalar_scan(trace, timing=DDR4_3200, **kw):
    """Reference path: per-record enqueue + the scan scheduler oracle."""
    mc = ScanController(timing, **kw)
    enqueue_records(mc, trace)
    return mc.run_to_completion()


def run_batch_indexed(trace, timing=DDR4_3200, **kw):
    """Fast path: one columnar enqueue + the indexed drain."""
    mc = MemoryController(timing, **kw)
    mc.enqueue_batch(trace if isinstance(trace, TraceBuffer) else to_buffer(trace))
    return mc.run_to_completion()


class TestOpcodeTraceParity:
    """Scalar enqueue + scan scheduler vs batch enqueue + indexed scheduler."""

    @pytest.mark.parametrize("name", list(OPCODE_CASES))
    def test_controller_stats_bit_identical(self, name):
        core = seeded_core()
        trace = instr_trace(core, OPCODE_CASES[name])
        golden = run_scalar_scan(trace)
        fast = run_batch_indexed(trace)
        assert fast == golden  # dataclass equality covers every counter

    @pytest.mark.parametrize("name", list(OPCODE_CASES))
    def test_parity_with_refresh_disabled(self, name):
        core = seeded_core(seed=11)
        trace = instr_trace(core, OPCODE_CASES[name])
        golden = run_scalar_scan(trace, refresh_enabled=False)
        fast = run_batch_indexed(trace, refresh_enabled=False)
        assert fast == golden

    @pytest.mark.parametrize("name", ["gather", "update"])
    def test_parity_closed_page(self, name):
        core = seeded_core(seed=13)
        trace = instr_trace(core, OPCODE_CASES[name])
        golden = run_scalar_scan(trace, row_policy="closed")
        fast = run_batch_indexed(trace, row_policy="closed")
        assert fast == golden

    @pytest.mark.parametrize("order", [BANK_INTERLEAVED_ORDER, ROW_INTERLEAVED_ORDER])
    def test_parity_across_mappings(self, order):
        core = seeded_core(seed=17)
        trace = instr_trace(core, OPCODE_CASES["gather"])
        org = DramOrganization()
        mapping = AddressMapping(org, order=order)
        golden = run_scalar_scan(trace, organization=org, mapping=mapping)
        fast = run_batch_indexed(trace, organization=org, mapping=mapping)
        assert fast == golden


class TestWindowParity:
    """The scan reference only schedules from the first ``window`` entries
    of a queue.  Reads can never outgrow the window (admission caps them),
    but writes are admitted up to ``write_high``; when that exceeds the
    window the slice is observable, and the indexed drain must match the
    reference there too (it stages the admitted writes beyond the window)."""

    def build_records(self, seed=43, n=600):
        rng = np.random.default_rng(seed)
        addrs = (rng.integers(0, 1 << 20, size=n) * 64).tolist()
        return [Record(0, a, bool(i % 2)) for i, a in enumerate(addrs)]

    @pytest.mark.parametrize("window", [1, 8, 16])
    def test_small_window_matches_scan(self, window):
        trace = self.build_records()
        golden = run_scalar_scan(trace, window=window)
        fast = run_batch_indexed(trace, window=window)
        assert fast == golden

    def test_window_below_write_high(self):
        trace = self.build_records(seed=47)
        kw = {"window": 8, "write_high_watermark": 32, "write_low_watermark": 4}
        assert run_batch_indexed(trace, **kw) == run_scalar_scan(trace, **kw)


class TestSyntheticTrafficParity:
    """Patterns that force ACT/PRE churn, write drains, and arrivals."""

    def test_streaming_mixed_reads_writes(self):
        trace = [
            Record(0, (i // 3) * 64, i % 4 == 0) for i in range(1200)
        ]
        assert run_batch_indexed(trace) == run_scalar_scan(trace)

    def test_random_rows_multi_rank(self):
        rng = np.random.default_rng(23)
        org = DramOrganization(ranks=4)
        addrs = (rng.integers(0, org.capacity_bytes // 64, size=800) * 64).tolist()
        trace = [Record(0, a, bool(i % 5 == 0)) for i, a in enumerate(addrs)]
        mapping = AddressMapping(org, order=RANK_INTERLEAVED_ORDER)
        golden = run_scalar_scan(trace, organization=org, mapping=mapping)
        fast = run_batch_indexed(trace, organization=org, mapping=mapping)
        assert fast == golden

    def test_paced_arrivals(self):
        trace = [Record(i * 37, (i % 64) * 64, i % 3 == 0) for i in range(500)]
        assert run_batch_indexed(trace) == run_scalar_scan(trace)

    def test_single_bank_row_conflicts(self):
        org = DramOrganization()
        row_stride = org.banks * org.columns * 64
        trace = [Record(0, (i % 7) * row_stride, False) for i in range(300)]
        assert run_batch_indexed(trace) == run_scalar_scan(trace)


class TestDramSystemParity:
    """``DramSystem.enqueue_traffic`` against per-record routing: every
    record of the builder's whole-system trace sent through
    :meth:`DramSystem.route`, and each channel's records queued as one
    buffer on its controller."""

    @staticmethod
    def _routed_scalar(system, trace):
        enqueue_routed(system, trace)
        return system.run()

    @staticmethod
    def _figure11_cpu(op, batch=2):
        # The Fig. 11 CPU-baseline shapes (figure11._cpu_bandwidth), as a
        # description and as the builder's whole-system trace.
        rng = np.random.default_rng(batch)
        lookups = batch * LOOKUPS_PER_SAMPLE
        row_words = EmbeddingLayout(1, 1, 512).chunks
        if op == "GATHER":
            args = (0, row_words, rng.integers(0, TABLE_ROWS, lookups), TABLE_ROWS * row_words * 64)
            return gather_traffic(*args), to_buffer(gather_trace(*args))
        words = lookups * row_words
        if op == "REDUCE":
            args = (0, words * 64, 2 * words * 64, words)
            return reduce_traffic(*args), to_buffer(reduce_trace(*args))
        args = (0, AVERAGE_NUM, words * AVERAGE_NUM * 64, words)
        return average_traffic(*args), to_buffer(average_trace(*args))

    @pytest.mark.parametrize("op", ["GATHER", "REDUCE", "AVERAGE"])
    def test_figure11_cpu_matches_per_record_routing(self, op):
        traffic, trace = self._figure11_cpu(op)
        golden = self._routed_scalar(DramSystem(channels=8), trace)
        fast = DramSystem(channels=8)
        fast.enqueue_traffic(traffic)
        result = fast.run()
        assert result.channel_stats == golden.channel_stats
        assert result.total_bytes == golden.total_bytes
        assert result.elapsed_seconds == golden.elapsed_seconds

    @pytest.mark.parametrize("op", ["GATHER", "REDUCE", "AVERAGE"])
    def test_figure11_cpu_channels_match_scan_oracle(self, op, timing_memo):
        # Eight channels of four ranks, as the Fig. 11 CPU baseline: each
        # channel's stats against the scan oracle draining the channel-local
        # records of the whole-system trace one request at a time.  Every
        # channel's share has the same read stream and the same write
        # stream (in the whole-system trace, for AVERAGE, they interleave
        # differently per channel), so all eight channels have one share
        # key: the point builds one share and drains it once, and the
        # other seven channels adopt the memoized stats.
        traffic, trace = self._figure11_cpu(op)
        system = DramSystem(channels=8)
        assert system.organization.ranks == 4
        channel_of = (trace.addr // 64) % 8
        layouts = {trace.is_write[channel_of == c].tobytes() for c in range(8)}
        assert len(layouts) == (8 if op == "AVERAGE" else 1)
        assert len({traffic.share_key(c, 8) for c in range(8)}) == 1
        system.enqueue_traffic(traffic)
        oracles = [
            ScanController.from_config(c.snapshot_config()) for c in system.controllers
        ]
        constructions = TraceBuffer.constructions
        result = system.run()
        if not reference_mode():
            assert TraceBuffer.constructions - constructions == 1
            assert (timing_memo.hits, timing_memo.misses) == (7, 1)
        for r in records(trace):
            channel, local = system.route(r.addr)
            oracles[channel].enqueue_record(local, r.is_write, r.cycle)
        assert all(o.pending for o in oracles)
        assert result.channel_stats == [o.run_to_completion() for o in oracles]


def _scalar_bandwidth(trace, **kw):
    return run_scalar_scan(trace, **kw).bandwidth(DDR4_3200)


def _scalar_seconds(trace):
    mc = ScanController(DDR4_3200)
    enqueue_records(mc, trace)
    mc.run_to_completion()
    return mc.elapsed_seconds()


class TestAblationParity:
    """The ablation studies against per-record enqueue and the scan oracle."""

    def test_scheduler(self):
        batch, table_rows = 32, 1024
        rows = np.random.default_rng(11).integers(0, table_rows, batch)
        trace = list(gather_trace(0, 4, rows, table_rows * 4 * 64))
        expected = ablation.SchedulerAblation(
            fr_fcfs=_scalar_bandwidth(trace, window=32),
            fcfs=_scalar_bandwidth(trace, window=1),
        )
        assert ablation.scheduler(batch=batch, table_rows=table_rows) == expected

    def test_page_policy(self):
        trace = list(streaming_trace(0, 600))
        expected = ablation.PagePolicyAblation(
            open_page=_scalar_bandwidth(trace, row_policy="open"),
            closed_page=_scalar_bandwidth(trace, row_policy="closed"),
        )
        assert ablation.page_policy(num_words=600) == expected

    def test_address_mapping(self):
        node_dimms, batch, row_words, table_rows = 4, 8, 8, 512
        rows = np.random.default_rng(7).integers(0, table_rows, batch)
        total_bytes = batch * row_words * 64 * 2
        slice_words = max(1, row_words // node_dimms)
        interleaved = _scalar_seconds(
            gather_trace(0, slice_words, rows, table_rows * slice_words * 64)
        )
        buckets = {}
        for row in rows:
            buckets.setdefault(int(row) % node_dimms, []).append(int(row))
        worst = max(
            _scalar_seconds(
                gather_trace(0, row_words, np.array(r), table_rows * row_words * 64)
            )
            for r in buckets.values()
        )
        expected = ablation.MappingAblation(
            interleaved=total_bytes / interleaved, whole_row=total_bytes / worst
        )
        got = ablation.address_mapping(
            node_dimms=node_dimms, batch=batch, row_words=row_words, table_rows=table_rows
        )
        assert got == expected


class TestControllerReset:
    def test_reset_reproduces_fresh_controller(self):
        core = seeded_core(seed=29)
        trace = instr_trace(core, OPCODE_CASES["gather"])
        fresh = run_batch_indexed(trace)
        mc = MemoryController(DDR4_3200)
        for _ in range(2):
            mc.reset()
            mc.enqueue_batch(trace)
            assert mc.run_to_completion() == fresh

    def test_timed_execute_reuse_is_deterministic(self):
        dimm = TensorDimm(0, 2, capacity_words=1 << 14)
        instr = reduce(0, 2 * 2048, 2 * 4096, 500)
        first = dimm.execute_timed(instr)
        second = dimm.execute_timed(instr)
        assert first.dram_stats == second.dram_stats
        assert first.seconds == second.seconds

    def test_degenerate_watermarks_rejected(self):
        # low == high livelocks the drain policy (ACT/PRE ping-pong).
        with pytest.raises(ValueError):
            MemoryController(DDR4_3200, write_high_watermark=8, write_low_watermark=8)


class TestTraceBuffer:
    def test_columns_hold_records(self):
        buf = TraceBuffer(
            np.array([0, 64, 128]), np.array([False, True, False]), np.array([0, 5, 9])
        )
        assert buf.addr.tolist() == [0, 64, 128]
        assert buf.is_write.tolist() == [False, True, False]
        assert buf.cycle.tolist() == [0, 5, 9]
        assert len(buf) == 3 and buf.reads == 2 and buf.writes == 1

    def test_oracle_records_round_trip(self):
        trace = [Record(i, i * 64, i % 2 == 0) for i in range(10)]
        assert records(to_buffer(trace)) == trace

    def test_slice_and_concat(self):
        buf = TraceBuffer(np.arange(6) * 64, np.zeros(6, dtype=bool))
        halves = [
            TraceBuffer(buf.addr[s], buf.is_write[s], buf.cycle[s])
            for s in (slice(0, 3), slice(3, 6))
        ]
        joined = concat(halves)
        assert joined.addr.tolist() == buf.addr.tolist()

    @pytest.mark.parametrize("column", ["addr", "is_write", "cycle"])
    def test_columns_are_read_only(self, column):
        buf = TraceBuffer(np.arange(4) * 64, np.zeros(4, dtype=bool))
        with pytest.raises(ValueError):
            getattr(buf, column)[0] = 1

    def test_input_arrays_stay_writable(self):
        addr = np.arange(4, dtype=np.int64) * 64
        TraceBuffer(addr, np.zeros(4, dtype=bool))
        addr[0] = 64
        assert addr[0] == 64


def gather_buffer(*args):
    return gather_traffic(*args).share(0, 1)


def reduce_buffer(*args):
    return reduce_traffic(*args).share(0, 1)


def average_buffer(*args):
    return average_traffic(*args).share(0, 1)


def strided_buffer(input_base, average_num, output_base, num_rows, row_words):
    bases = (input_base // WORD_BYTES, output_base // WORD_BYTES)
    traffic = OpTraffic(
        "AVERAGE", bases, num_rows, row_words=row_words, average_num=average_num
    )
    return traffic.share(0, 1)


class TestColumnarBuilders:
    """Each columnar builder must emit its generator twin's read stream and
    write stream; the streaming builder, its records exactly.  The op
    builders are the one-channel shares of the op's description (the
    strided one: an AVERAGE over rows wider than a word)."""

    @pytest.mark.parametrize(
        "buffer_fn,trace_fn,args",
        [
            (streaming_buffer, streaming_trace, (1 << 12, 50, True, 7)),
            (strided_buffer, strided_trace, (0, 3, 1 << 16, 5, 4)),
            (gather_buffer, gather_trace, (1 << 14, 4, np.array([5, 1, 5, 2]), 1 << 18)),
            (reduce_buffer, reduce_trace, (0, 1 << 14, 1 << 15, 30)),
            (average_buffer, average_trace, (0, 5, 1 << 16, 12)),
        ],
    )
    def test_matches_generator(self, buffer_fn, trace_fn, args):
        golden = to_buffer(trace_fn(*args))
        assert streams(buffer_fn(*args)) == streams(golden)
        if buffer_fn is streaming_buffer:
            assert records(buffer_fn(*args)) == records(golden)


class TestDecodeBatch:
    @pytest.mark.parametrize(
        "order", [BANK_INTERLEAVED_ORDER, ROW_INTERLEAVED_ORDER, RANK_INTERLEAVED_ORDER]
    )
    def test_matches_scalar_decode(self, order):
        org = DramOrganization(ranks=4)
        mapping = AddressMapping(org, order=order, column_lo_bits=2)
        rng = np.random.default_rng(31)
        addrs = rng.integers(0, org.capacity_bytes // 64, size=500) * 64
        batch = mapping.decode_batch(addrs)
        for i, addr in enumerate(addrs.tolist()):
            scalar = mapping.decode(addr)
            for field in ("rank", "bankgroup", "bank", "row", "column"):
                assert int(batch[field][i]) == scalar[field], (field, addr)


class TestIndexBufferCache:
    """A GATHER's description carries its indices: describing reads the
    index buffer once, building the trace reads it no more, and a rewritten
    buffer is never served stale."""

    def test_trace_then_execute_reads_indices_once(self, monkeypatch):
        core = seeded_core(seed=37)
        reads = []
        real = core.storage.read_indices
        monkeypatch.setattr(
            core.storage, "read_indices", lambda *a: reads.append(a) or real(*a)
        )
        traffic = core.describe(OPCODE_CASES["gather"])
        traffic.share(0, 1)
        assert len(reads) == 1

    def test_cache_invalidated_by_writes(self):
        core = seeded_core(seed=41)
        instr = OPCODE_CASES["gather"]
        before = core.describe(instr)
        core.storage.write_indices(30000, np.zeros(100, dtype=np.int32))
        after = core.describe(instr)
        assert not np.array_equal(before.rows, after.rows)
        assert (after.rows == 0).all()
        assert after != before


def _traffic(name):
    """Named traffic patterns stressing every streak invariant."""
    org = DramOrganization()
    if name == "hot_row":
        # One bank, one row, cycling columns: the single-bank streak kind.
        addrs = ((np.arange(3000) % org.columns) << 4) * 64
        return TraceBuffer(addrs, np.zeros(len(addrs), dtype=bool))
    if name == "sequential":
        # Bank-interleaved rotation: the multi-bank streak kind.
        addrs = np.arange(4000, dtype=np.int64) * 64
        return TraceBuffer(addrs, np.zeros(len(addrs), dtype=bool))
    if name == "sequential_writes":
        addrs = np.arange(4000, dtype=np.int64) * 64
        return TraceBuffer(addrs, np.ones(len(addrs), dtype=bool))
    if name == "reduce_shaped":
        # Two read streams + a write stream: write-drain watermark
        # crossings and same-bank row alternation.
        i = np.arange(1500, dtype=np.int64)[:, None]
        addrs = (np.array([0, 8192, 16384], dtype=np.int64) + i).reshape(-1) * 64
        return TraceBuffer(addrs, np.tile(np.array([False, False, True]), 1500))
    if name == "hot_row_mixed":
        # Hot-row reads with a write stripe: drain flips inside a
        # streak-friendly pattern.
        addrs = ((np.arange(3000) % org.columns) << 4) * 64
        return TraceBuffer(addrs, (np.arange(3000) % 5 == 0))
    if name == "paced":
        # Arrival gaps: backlog absorption must respect arrival <= now.
        n = 2000
        addrs = ((np.arange(n) % org.columns) << 4) * 64
        return TraceBuffer(addrs, np.zeros(n, dtype=bool), np.arange(n) * 3)
    raise ValueError(name)


class TestStreakFastPathParity:
    """The streak-compiled drain must be bit-identical to the scan
    reference (and to the fast-path-off indexed loop) across the full
    configuration matrix: row policies, refresh on/off, watermark
    crossings, multi-rank traffic, and sub-default windows."""

    PATTERNS = [
        "hot_row", "sequential", "sequential_writes", "reduce_shaped",
        "hot_row_mixed", "paced",
    ]

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("row_policy", ["open", "closed"])
    def test_matches_scan_reference(self, pattern, row_policy):
        trace = _traffic(pattern)
        golden = run_scalar_scan(trace, row_policy=row_policy)
        fast = run_batch_indexed(trace, row_policy=row_policy)
        assert fast == golden

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_fast_on_matches_fast_off(self, pattern, monkeypatch):
        trace = _traffic(pattern)
        on = run_batch_indexed(trace)
        monkeypatch.setenv(REFERENCE_ENV_VAR, "1")
        off = run_batch_indexed(trace)
        assert on == off

    @pytest.mark.parametrize("pattern", ["hot_row", "sequential", "reduce_shaped"])
    def test_refresh_disabled(self, pattern):
        trace = _traffic(pattern)
        golden = run_scalar_scan(trace, refresh_enabled=False)
        fast = run_batch_indexed(trace, refresh_enabled=False)
        assert fast == golden

    @pytest.mark.parametrize(
        "watermarks",
        [
            {"write_high_watermark": 4, "write_low_watermark": 1},
            {"write_high_watermark": 16, "write_low_watermark": 12},
            {"write_high_watermark": 32, "write_low_watermark": 8},
        ],
    )
    def test_watermark_crossings(self, watermarks):
        trace = _traffic("reduce_shaped")
        golden = run_scalar_scan(trace, **watermarks)
        fast = run_batch_indexed(trace, **watermarks)
        assert fast == golden

    @pytest.mark.parametrize("window", [4, 8, 16])
    def test_sub_default_windows(self, window):
        for pattern in ("hot_row", "sequential"):
            trace = _traffic(pattern)
            golden = run_scalar_scan(trace, window=window)
            fast = run_batch_indexed(trace, window=window)
            assert fast == golden

    def test_multi_rank_traffic(self):
        org = DramOrganization(ranks=4)
        mapping = AddressMapping(org, order=RANK_INTERLEAVED_ORDER)
        addrs = np.arange(4000, dtype=np.int64) * 64
        trace = TraceBuffer(addrs, np.zeros(len(addrs), dtype=bool))
        kw = {"organization": org, "mapping": mapping}
        golden = run_scalar_scan(trace, **kw)
        fast = run_batch_indexed(trace, **kw)
        assert fast == golden

    @pytest.mark.parametrize("name", list(OPCODE_CASES))
    def test_opcode_traces(self, name):
        core = seeded_core(seed=19)
        trace = instr_trace(core, OPCODE_CASES[name])
        golden = run_scalar_scan(trace)
        fast = run_batch_indexed(trace)
        assert fast == golden

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv(REFERENCE_ENV_VAR, "1")
        assert reference_mode()
        trace = _traffic("hot_row")
        golden = run_scalar_scan(trace)
        assert run_batch_indexed(trace) == golden  # fast path off via env

    def test_scalar_enqueue_completions_after_streak(self, monkeypatch):
        # Completion cycles must be written even for records the streak
        # compiler retires straight from the backlog, and match both the
        # streak-free drain and the per-record scan oracle.
        trace = TraceBuffer(
            ((np.arange(500) % 128) << 4) * 64, np.zeros(500, dtype=bool)
        )

        def completions(mc, enqueue):
            done = np.full(len(trace), -1, dtype=np.int64)
            enqueue(mc, done)
            mc.run_to_completion()
            return done

        def batch(mc, done):
            mc.enqueue_batch(trace, completions=done)

        fast = completions(MemoryController(DDR4_3200), batch)
        assert (fast >= 0).all()
        oracle = completions(
            ScanController(DDR4_3200), lambda mc, done: enqueue_records(mc, trace, done)
        )
        monkeypatch.setenv(REFERENCE_ENV_VAR, "1")
        assert np.array_equal(fast, completions(MemoryController(DDR4_3200), batch))
        assert np.array_equal(fast, oracle)


class TestStreakFuzzParity:
    """Seeded randomized traffic/configuration fuzz: the fast path must
    match the scan reference on every draw (a bounded version of the
    exploratory fuzz run while developing the streak compiler)."""

    @staticmethod
    def _random_case(rng, ranks=1):
        n = int(rng.integers(50, 1200))
        kind = int(rng.integers(0, 4))
        if kind == 0:
            addrs = (rng.integers(0, 128, size=n) << 4) * 64
        elif kind == 1:
            addrs = (int(rng.integers(0, 1000)) + np.arange(n)) * 64
        elif kind == 2:
            addrs = rng.integers(0, 1 << 14, size=n) * 64
        else:
            i = np.arange(n // 3 + 1, dtype=np.int64)[:, None]
            addrs = (np.array([0, 8192, 16384]) + i).reshape(-1)[:n] * 64
        wmode = int(rng.integers(0, 3))
        if wmode == 0:
            iw = np.zeros(n, dtype=bool)
        elif wmode == 1:
            iw = np.ones(n, dtype=bool)
        else:
            iw = (np.arange(n) % 3) == 2
        cyc = (
            np.zeros(n, dtype=np.int64)
            if rng.integers(0, 2)
            else np.cumsum(rng.integers(0, 25, size=n))
        )
        window = int(rng.choice([4, 8, 32]))
        wh = int(rng.integers(2, 33))
        wl = int(rng.integers(1, wh))
        kw = {
            "window": window,
            "write_high_watermark": wh,
            "write_low_watermark": wl,
            "row_policy": "closed" if rng.integers(0, 4) == 0 else "open",
            "refresh_enabled": bool(rng.integers(0, 2)),
        }
        if ranks > 1:
            # Rank bits right above the block offset: consecutive and
            # random blocks alike spread over every rank.
            org = DramOrganization(ranks=ranks)
            kw["organization"] = org
            kw["mapping"] = AddressMapping(org, order=RANK_INTERLEAVED_ORDER)
        return TraceBuffer(addrs, iw, cyc), kw

    @pytest.mark.parametrize("seed", range(6))
    def test_fast_matches_scan(self, seed):
        rng = np.random.default_rng(1000 + seed)
        for _ in range(6):
            trace, kw = self._random_case(rng)
            golden = run_scalar_scan(trace, **kw)
            fast = run_batch_indexed(trace, **kw)
            assert fast == golden, kw

    @pytest.mark.parametrize("ranks", [2, 4])
    @pytest.mark.parametrize("seed", range(6))
    def test_multi_rank_fast_matches_scan(self, ranks, seed):
        rng = np.random.default_rng(2000 + 10 * ranks + seed)
        for _ in range(3):
            trace, kw = self._random_case(rng, ranks=ranks)
            golden = run_scalar_scan(trace, **kw)
            fast = run_batch_indexed(trace, **kw)
            assert fast == golden, kw


class TestReinterleaveFuzzParity:
    """A drain is a pure function of the trace's read stream and its write
    stream, not of how the two interleave: a share is built reads first,
    while the oracle generators emit program order, and the parity tests
    compare the two by their streams (``trace_oracles.streams``).  Seeded
    fuzz: a trace and a random direction-preserving re-interleaving of it
    must drain to identical stats, both matching the scan oracle."""

    @pytest.mark.parametrize("ranks", [1, 2, 4])
    @pytest.mark.parametrize("seed", range(5))
    def test_reinterleaved_trace_drains_identically(self, ranks, seed):
        rng = np.random.default_rng(3000 + 10 * ranks + seed)
        for _ in range(7):
            case, kw = TestStreakFuzzParity._random_case(rng, ranks=ranks)
            write_share = rng.uniform(0.04, 0.5)
            trace = TraceBuffer(case.addr, rng.random(len(case)) < write_share, case.cycle)
            mixed = reinterleave(trace, rng)
            assert streams(mixed) == streams(trace)
            golden = run_scalar_scan(trace, **kw)
            assert run_batch_indexed(trace, **kw) == golden, kw
            assert run_batch_indexed(mixed, **kw) == golden, kw


class TestIncrementalFloorParity:
    """The indexed drain keeps its rank and bankgroup readiness floors
    incrementally: loaded from ``Rank`` state when a drain starts and after
    each streak, then raised per issued ACT or column command.  The scan
    reference queries ``Rank.earliest_*`` afresh for every entry, so any
    term the incremental update drops shows up as a stats mismatch."""

    #: DDR4-3200 with tFAW = 30 ns (the 2 KB-page value): four ACTs at
    #: tRRD_S spacing span 27 cycles, so a fifth must wait for the window.
    TFAW_TIMING = replace(DDR4_3200, faw=48)

    def test_node_embedding_gather_shape(self):
        # One DIMM's share of a node_embedding GATHER: a 4096-word table
        # spanning rows 0-1 of all 16 banks, 1,600 random one-word lookups,
        # each followed by its output write into row 2.
        rng = np.random.default_rng(17)
        trace = to_buffer(gather_trace(0, 1, rng.integers(0, 4096, 1600), 4096 * 64))
        org = DramOrganization()
        coords = AddressMapping(org).decode_batch(trace.addr)
        reads = ~trace.is_write
        assert np.array_equal(trace.is_write, np.arange(3200) % 2 == 1)
        assert set(coords["row"][reads].tolist()) == {0, 1}
        assert set(coords["row"][~reads].tolist()) == {2}
        banks = coords["bankgroup"] * org.banks_per_group + coords["bank"]
        assert len(set(banks[reads].tolist())) == org.banks
        kw = {"window": 32, "write_high_watermark": 32, "write_low_watermark": 8}
        golden = run_scalar_scan(trace, **kw)
        assert run_batch_indexed(trace, **kw) == golden

    @pytest.mark.parametrize("ranks", [1, 2, 4])
    def test_tfaw_bound_act_bursts(self, ranks):
        # Random blocks over the whole channel: nearly every request opens
        # a row, so every rank sees back-to-back ACT bursts across its banks.
        org = DramOrganization(ranks=ranks)
        kw = {
            "organization": org,
            "mapping": AddressMapping(org, order=RANK_INTERLEAVED_ORDER),
        }
        rng = np.random.default_rng(100 + ranks)
        n = 600
        blocks = rng.integers(0, org.capacity_bytes // 64, n)
        trace = TraceBuffer(blocks * 64, rng.random(n) < 0.25)
        golden = run_scalar_scan(trace, timing=self.TFAW_TIMING, **kw)
        assert run_batch_indexed(trace, timing=self.TFAW_TIMING, **kw) == golden
        # tFAW binds: the same traffic under the stock tFAW drains differently.
        assert run_batch_indexed(trace, **kw) != golden

    def test_warm_controller_second_drain(self):
        # A GATHER that ends with writes to row 2, then a read-back of its
        # output rows: the second drain's first reads are row hits gated by
        # the first drain's tWTR and tCCD history, which the indexed drain
        # must load from Rank state on entry.
        rng = np.random.default_rng(23)
        first = to_buffer(gather_trace(0, 1, rng.integers(0, 4096, 400), 4096 * 64))
        readback = streaming_buffer(4096 * 64, 400)
        runs = {}
        for cls in (ScanController, MemoryController):
            mc = cls(DDR4_3200)
            drains = []
            for trace in (first, readback):
                if cls is ScanController:
                    enqueue_records(mc, trace)
                else:
                    mc.enqueue_batch(trace)
                # run_to_completion returns the controller's accumulating
                # stats object: keep a copy of each drain's result.
                drains.append(replace(mc.run_to_completion()))
            runs[cls] = drains
        assert runs[MemoryController] == runs[ScanController]


class TestLeanStepParity:
    """The per-command step visits only the non-empty bank queues of its
    direction, folds the rank, bankgroup, bus and floor terms into one value
    per bankgroup, and compares candidates on one integer tie key.  Each
    case drives one situation those shortcuts must get right, checks with a
    spy that the drain really met it, and requires the scan oracle's stats,
    at 1 and 4 ranks, for reads and for writes.  Streak situations are only
    checked with streaks on (not under ``REPRO_REFERENCE=1``)."""

    @staticmethod
    def _config(ranks):
        org = DramOrganization(ranks=ranks)
        order = RANK_INTERLEAVED_ORDER if ranks > 1 else BANK_INTERLEAVED_ORDER
        mapping = AddressMapping(org, order=order)
        return mapping, {"organization": org, "mapping": mapping}

    @staticmethod
    def _trace(mapping, coords, is_write, cycles=None):
        """A one-direction trace of ``(rank, bankgroup, bank, row, column)``."""
        addrs = np.array([mapping.encode(*c) for c in coords], dtype=np.int64)
        n = len(addrs)
        if cycles is None:
            cycles = np.zeros(n, dtype=np.int64)
        return TraceBuffer(addrs, np.full(n, is_write), np.asarray(cycles, dtype=np.int64))

    @staticmethod
    def _drain(cls, parts, gap=0, **kw):
        """Enqueue ``parts`` one ``enqueue_batch`` call each, advancing the
        sequence counter by ``gap`` between them, and drain."""
        mc = cls(DDR4_3200, **kw)
        for i, part in enumerate(parts):
            if i and gap:
                reserve_seq_block(gap)
            mc.enqueue_batch(part)
        return mc.run_to_completion()

    @staticmethod
    def _banks(mc, is_write):
        return mc._write_banks if is_write else mc._read_banks

    @staticmethod
    def _hits_then_random(ranks, n_hits, n_rand, seed, rotate):
        """Row-0 hits in rank 0 (streak-friendly), then random rows over
        every rank and bank (ACT/PRE, always per-command steps).  The hits
        either rotate over the banks in order or pick banks at random; the
        random order makes streaks stop early on a tCCD_L pair, so a streak
        can issue every queued entry of one bank and keep other banks'."""
        rng = np.random.default_rng(seed)
        if rotate:
            coords = [(0, i % 4, (i // 4) % 4, 0, i // 16) for i in range(n_hits)]
        else:
            coords = [
                (0, int(bg), int(b), 0, int(c))
                for bg, b, c in rng.integers(0, [4, 4, 128], (n_hits, 3))
            ]
        coords += [
            (int(r), int(bg), int(b), int(row), int(c))
            for r, bg, b, row, c in rng.integers(
                [0, 0, 0, 1, 0], [ranks, 4, 4, 64, 128], (n_rand, 5)
            )
        ]
        return coords

    @pytest.mark.parametrize("is_write", [False, True], ids=["reads", "writes"])
    @pytest.mark.parametrize("ranks", [1, 4])
    def test_bank_queue_empties_and_refills(self, ranks, is_write, monkeypatch):
        mapping, kw = self._config(ranks)
        last = ranks - 1
        # Bank A gets four quick row hits, then bank B a long run of row
        # conflicts; A's second group is admitted once A's queue has emptied.
        coords = [(0, 0, 0, 0, c) for c in range(4)]
        coords += [(last, 3, 3, i % 2, i) for i in range(40)]
        coords += [(0, 0, 0, 5, c) for c in range(4)]
        coords += [(last, 3, 3, i % 2, i) for i in range(10)]
        trace = self._trace(mapping, coords, is_write)
        flat_a = 0
        mc = MemoryController(DDR4_3200, **kw)
        refills = []
        popleft = controller_module._Backlog.popleft

        def spy(backlog):
            entry = popleft(backlog)
            if entry.flat == flat_a:
                queue = self._banks(mc, is_write).get(flat_a)
                refills.append(queue is not None and not queue.entries)
            return entry

        monkeypatch.setattr(controller_module._Backlog, "popleft", spy)
        mc.enqueue_batch(trace)
        fast = mc.run_to_completion()
        monkeypatch.undo()
        assert refills.count(True) >= 1
        assert fast == self._drain(ScanController, [trace], **kw)

    @pytest.mark.parametrize("is_write", [False, True], ids=["reads", "writes"])
    @pytest.mark.parametrize("ranks", [1, 4])
    def test_streak_retires_window_then_steps_resume(self, ranks, is_write, monkeypatch):
        mapping, kw = self._config(ranks)
        trace = self._trace(
            mapping, self._hits_then_random(ranks, 600, 200, ranks, rotate=True), is_write
        )
        mc = MemoryController(DDR4_3200, **kw)
        cleared = []
        attempt = MemoryController._attempt_streak

        def spy(ctrl, is_write_q, queue, *args):
            result = attempt(ctrl, is_write_q, queue, *args)
            if result and not queue:
                cleared.append(ctrl.pending)
            return result

        monkeypatch.setattr(MemoryController, "_attempt_streak", spy)
        mc.enqueue_batch(trace)
        fast = mc.run_to_completion()
        monkeypatch.undo()
        if not reference_mode():
            # The whole window went in one streak and random-row traffic
            # (ACT/PRE, always per-command) was still pending.
            assert any(pending > 0 for pending in cleared)
        assert fast.activates > 16  # the random tail opened rows afterwards
        assert fast == self._drain(ScanController, [trace], **kw)

    @pytest.mark.parametrize("is_write", [False, True], ids=["reads", "writes"])
    @pytest.mark.parametrize("ranks", [1, 4])
    def test_streak_leaves_bank_without_entries(self, ranks, is_write, monkeypatch):
        mapping, kw = self._config(ranks)
        trace = self._trace(
            mapping, self._hits_then_random(ranks, 400, 100, ranks, rotate=False), is_write
        )
        mc = MemoryController(DDR4_3200, **kw)
        emptied = []
        attempt = MemoryController._attempt_streak

        def spy(ctrl, is_write_q, queue, *args):
            banks = self._banks(ctrl, is_write_q)
            before = {f for f, q in banks.items() if q.entries}
            result = attempt(ctrl, is_write_q, queue, *args)
            if result and queue:
                after = {f for f, q in banks.items() if q.entries}
                emptied.append(len(before - after))
            return result

        monkeypatch.setattr(MemoryController, "_attempt_streak", spy)
        mc.enqueue_batch(trace)
        fast = mc.run_to_completion()
        monkeypatch.undo()
        if not reference_mode():
            # A partial streak issued every queued entry of some bank.
            assert any(emptied)
        assert fast == self._drain(ScanController, [trace], **kw)

    @pytest.mark.parametrize("is_write", [False, True], ids=["reads", "writes"])
    @pytest.mark.parametrize("ranks", [1, 4])
    def test_refresh_with_empty_bank_queues(self, ranks, is_write, monkeypatch):
        mapping, kw = self._config(ranks)
        # Every bank of every rank at cycle 0, then paced traffic to two
        # banks per rank across the first refresh (tREFI = 12,480 cycles).
        coords = [
            (r, bg, b, 0, c) for c in range(2) for r in range(ranks)
            for bg in range(4) for b in range(4)
        ]
        cycles = [0] * len(coords)
        for i in range(400):
            coords.append((i % ranks, 0, i % 2, (i // 8) % 3, i % 128))
            cycles.append(2000 + 40 * i)
        trace = self._trace(mapping, coords, is_write, cycles)
        mc = MemoryController(DDR4_3200, **kw)
        seen = []
        refresh = Rank.refresh

        def spy(rank, cycle):
            queues = self._banks(mc, is_write).values()
            seen.append(
                any(not q.entries for q in queues) and any(q.entries for q in queues)
            )
            return refresh(rank, cycle)

        monkeypatch.setattr(Rank, "refresh", spy)
        mc.enqueue_batch(trace)
        fast = mc.run_to_completion()
        monkeypatch.undo()
        assert fast.refreshes >= ranks
        assert any(seen)
        assert fast == self._drain(ScanController, [trace], **kw)

    @pytest.mark.parametrize("is_write", [False, True], ids=["reads", "writes"])
    @pytest.mark.parametrize("ranks", [1, 4])
    def test_tie_key_exact_for_any_sequence_numbers(self, ranks, is_write, monkeypatch):
        # Sequence numbers only order requests; the drain must not depend
        # on their size.  The second half of the trace is enqueued after the
        # process-wide counter jumped past 2**41, so its numbers exceed any
        # fixed row-command offset below 2**41 plus the first half's.
        monkeypatch.setattr(command_module._seq_counter, "value", 0)
        mapping, kw = self._config(ranks)
        rng = np.random.default_rng(50 + ranks)
        n = 800
        blocks = rng.integers(0, 1 << 13, n)
        if ranks > 1:
            blocks = blocks * ranks + rng.integers(0, ranks, n)
        trace = TraceBuffer(blocks * 64, np.full(n, is_write))
        parts = [
            TraceBuffer(trace.addr[s], trace.is_write[s], trace.cycle[s])
            for s in (slice(0, n // 2), slice(n // 2, n))
        ]
        fresh = self._drain(MemoryController, parts, **kw)
        gapped = self._drain(MemoryController, parts, gap=1 << 41, **kw)
        assert command_module.seq_ceiling() > 1 << 41
        assert gapped == fresh
        assert fresh == self._drain(ScanController, parts, **kw)


class TestStreakRefusal:
    """A streak probe whose window already bounds the run below
    :data:`~repro.dram.controller.STREAK_BREAK_EVEN` commands is refused
    before the numpy compile.  In a REDUCE-shaped read stream each read of
    ``in1`` is followed by its ``in2`` partner in the same bankgroup, so
    tCCD_L cuts every run to two or three commands: no probe reaches the
    compile, and the stats still equal the scan oracle's."""

    @staticmethod
    def _reduce_reads(ranks):
        if ranks == 1:
            words = 256
            trace = to_buffer(reduce_trace(0, words * 64, 2 * words * 64, words))
            config = MemoryController(DDR4_3200).snapshot_config()
        else:
            # One channel's share of a Fig. 11 CPU REDUCE (8 x 4 ranks).
            words = 1024
            config = DramSystem(channels=8).controllers[0].snapshot_config()
            trace = reduce_traffic(0, words * 64, 2 * words * 64, words).share(0, 8)
        reads = ~trace.is_write
        return config, TraceBuffer(trace.addr[reads], False, trace.cycle[reads])

    @pytest.mark.parametrize("ranks", [1, 4])
    def test_reduce_reads_never_reach_the_compile(self, ranks, monkeypatch):
        config, trace = self._reduce_reads(ranks)
        assert config.organization.ranks == ranks
        probes, compiles = [], []
        attempt = MemoryController._attempt_streak
        compile_streak = MemoryController._compile_streak

        def spy_attempt(ctrl, *args):
            result = attempt(ctrl, *args)
            probes.append(result)
            return result

        def spy_compile(ctrl, *args):
            compiles.append(len(args[1]))
            return compile_streak(ctrl, *args)

        monkeypatch.setattr(MemoryController, "_attempt_streak", spy_attempt)
        monkeypatch.setattr(MemoryController, "_compile_streak", spy_compile)
        mc = config.build()
        mc.enqueue_batch(trace)
        fast = mc.run_to_completion()
        monkeypatch.undo()
        if not reference_mode():
            # Runs of two or three commands were found and refused.
            assert sum(result is False for result in probes) >= 10
        assert compiles == []
        oracle = ScanController.from_config(config)
        enqueue_records(oracle, trace)
        assert fast == oracle.run_to_completion()
