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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.isa import average, gather, reduce
from repro.core.nmp_core import NmpCore
from repro.core.tensordimm import TensorDimm
from repro.bench import ablation
from repro.bench.figure11 import AVERAGE_NUM, LOOKUPS_PER_SAMPLE, TABLE_ROWS
from repro.core.address_map import EmbeddingLayout
from repro.dram import controller as controller_module
from repro.dram.bank import Rank
from repro.dram.command import TraceBuffer
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
    drain_routed,
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

    @pytest.mark.parametrize("name", ["gather", "reduce"])
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
    :meth:`DramSystem.route`, and each channel's records drained as one
    buffer on a controller of the system's configuration."""

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
        system = DramSystem(channels=8)
        golden = drain_routed(system, trace)
        system.enqueue_traffic(traffic)
        result = system.run()
        assert result.channel_stats == golden
        assert result.total_bytes == sum(s.total_bytes for s in golden)
        finish = max(s.finish_cycle for s in golden)
        assert result.elapsed_seconds == system.config.timing.cycles_to_seconds(finish)

    @pytest.mark.parametrize("op", ["GATHER", "REDUCE", "AVERAGE"])
    def test_figure11_cpu_channels_match_scan_oracle(self, op, timing_memo):
        # Eight channels of four ranks, as the Fig. 11 CPU baseline: each
        # channel's stats against the scan oracle draining the channel-local
        # records of the whole-system trace one request at a time.  Every
        # channel's share has the same read stream and the same write
        # stream (in the whole-system trace, for AVERAGE, they interleave
        # differently per channel), so all eight channels have one share
        # key: the point builds one share and drains it once, and the
        # other seven channels are answered from the memo.
        traffic, trace = self._figure11_cpu(op)
        system = DramSystem(channels=8)
        assert system.organization.ranks == 4
        channel_of = (trace.addr // 64) % 8
        layouts = {trace.is_write[channel_of == c].tobytes() for c in range(8)}
        assert len(layouts) == (8 if op == "AVERAGE" else 1)
        assert len({traffic.share_key(c, 8) for c in range(8)}) == 1
        system.enqueue_traffic(traffic)
        oracles = [ScanController.from_config(system.config) for _ in range(8)]
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
    """Named traffic patterns stressing every hit-phase end condition."""
    org = DramOrganization()
    if name == "hot_row":
        # One bank, one row, cycling columns: a one-bankgroup phase.
        addrs = ((np.arange(3000) % org.columns) << 4) * 64
        return TraceBuffer(addrs, np.zeros(len(addrs), dtype=bool))
    if name == "sequential":
        # Bank-interleaved rotation: a phase at the tCCD_S floor.
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
        # phase-friendly pattern.
        addrs = ((np.arange(3000) % org.columns) << 4) * 64
        return TraceBuffer(addrs, (np.arange(3000) % 5 == 0))
    if name == "paced":
        # Arrival gaps: backlog absorption must respect arrival <= now.
        n = 2000
        addrs = ((np.arange(n) % org.columns) << 4) * 64
        return TraceBuffer(addrs, np.zeros(n, dtype=bool), np.arange(n) * 3)
    raise ValueError(name)


class TestStreakFastPathParity:
    """The drain with its hit phase must be bit-identical to the scan
    reference (and to the phase-off indexed loop) across the full
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
        # Completion cycles must be written even for records the hit
        # phase retires straight from the backlog, and match both the
        # phase-off drain and the per-record scan oracle.
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
    """Seeded randomized traffic/configuration fuzz: the drain, hit phase
    included, must match the scan reference on every draw.  The traffic
    mixes random and streaming blocks, REDUCE-shaped same-bank pairs, and
    writes that arrive late, under random windows and watermarks."""

    @staticmethod
    def _random_case(rng, ranks=1):
        n = int(rng.integers(50, 1200))
        kind = int(rng.integers(0, 5))
        if kind == 0:
            addrs = (rng.integers(0, 128, size=n) << 4) * 64
        elif kind == 1:
            addrs = (int(rng.integers(0, 1000)) + np.arange(n)) * 64
        elif kind == 2:
            addrs = rng.integers(0, 1 << 14, size=n) * 64
        elif kind == 3:
            i = np.arange(n // 3 + 1, dtype=np.int64)[:, None]
            addrs = (np.array([0, 8192, 16384]) + i).reshape(-1)[:n] * 64
        else:
            # REDUCE-shaped pairs: block i and block i + 1024 share bank and
            # row under both mappings the fuzz uses (the pair is a tCCD_L
            # pair FR-FCFS reorders).
            i = np.arange(n // 2 + 1, dtype=np.int64)[:, None]
            addrs = (np.array([0, 1024]) + i).reshape(-1)[:n] * 64
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
        if rng.integers(0, 2):
            # Late writes: every write arrives well after the reads began.
            cyc = cyc + np.where(iw, int(rng.integers(100, 6000)), 0)
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
    each hit phase, then raised per issued ACT or column command.  The scan
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
    """The per-command step keeps each direction's queued entries in bank
    lists, oldest first, reads its candidates from classes that share one
    readiness term (``TestClassIndexParity``), and compares candidates on
    one integer tie key.  Each case drives one situation those shortcuts
    must get right, checks with a spy that the drain really met it, and
    requires the scan oracle's stats, at 1 and 4 ranks, for reads and for
    writes.  Hit-phase situations (the ``streak`` cases: a run the phase
    retires in closed form, and a phase that empties a bank) are only
    checked with the phase on (not under ``REPRO_REFERENCE=1``)."""

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
    def _drain(cls, parts, **kw):
        """Enqueue ``parts`` one ``enqueue_batch`` call each, and drain."""
        mc = cls(DDR4_3200, **kw)
        for part in parts:
            mc.enqueue_batch(part)
        return mc.run_to_completion()

    @staticmethod
    def _lists(mc, is_write):
        """The direction's bank lists (queued indices per flat bank)."""
        return mc._write_lists if is_write else mc._read_lists

    @staticmethod
    def _hits_then_random(ranks, n_hits, n_rand, seed, rotate):
        """Row-0 hits in rank 0 (one hit phase), then random rows over
        every rank and bank (ACT/PRE, always per-command steps).  The hits
        either rotate over the banks in order, which the phase retires in
        closed form, or pick banks at random, which it issues command by
        command in FR-FCFS order, so a phase can issue every queued entry of
        one bank and keep other banks'."""
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

        class BankList(list):
            # Bank A's list: records, for each index it files, whether the
            # list held no older entry of A then.
            def append(self, i):
                refills.append((i, not self))
                super().append(i)

        mc.ranks
        mc._build_index()
        self._lists(mc, is_write)[flat_a] = BankList()
        mc.enqueue_batch(trace)
        fast = mc.run_to_completion()
        # A's first record finds its list empty, and so does the first
        # record of its second group (index 44): the list emptied and
        # refilled.
        first = {}
        for i, empty in refills:
            first.setdefault(i, empty)
        assert first[0] and first[44]
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
        stretch = MemoryController._stretch

        def spy(ctrl, heads, is_write_q, r0, bgf, floor, now, fetch, end, *args):
            queued = sum(map(len, heads))
            result = stretch(ctrl, heads, is_write_q, r0, bgf, floor, now, fetch, end, *args)
            if result.__class__ is tuple and not any(heads):
                # The records of the direction's backlog left behind.
                cleared.append(end - fetch - max(0, result[0] - queued))
            return result

        monkeypatch.setattr(MemoryController, "_stretch", spy)
        mc.enqueue_batch(trace)
        fast = mc.run_to_completion()
        monkeypatch.undo()
        if not reference_mode():
            # The whole window went in one closed-form run and random-row
            # traffic (ACT/PRE, always per-command) was still pending.
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
        index_window = MemoryController._index_window

        def spy(ctrl, lists, classes, queued=None, live=None):
            # At a phase's end ``lists`` still hold the entries the phase
            # started with; the call re-indexes the window left.
            before = {flat for flat, entries in enumerate(lists) if entries}
            index_window(ctrl, lists, classes, queued, live)
            if queued:
                emptied.append(len(before - {ctrl._columns[4][i] for i in queued}))

        monkeypatch.setattr(MemoryController, "_index_window", spy)
        mc.enqueue_batch(trace)
        fast = mc.run_to_completion()
        monkeypatch.undo()
        if not reference_mode():
            # A phase issued every queued entry of some bank and left
            # entries of other banks queued.
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
            # Every bank held entries at cycle 0.
            lists = self._lists(mc, is_write)
            seen.append(any(not entries for entries in lists) and any(lists))
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
    def test_tie_key_exact_across_pieces_and_drains(self, ranks, is_write):
        # A drain's tie keys are its own record indices.  The trace enqueued
        # in two pieces drains like the whole trace, and the same traffic
        # drained twice on one controller, whose second drain numbers its
        # records from 0 again, drains like the scan oracle's two drains.
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
        whole = self._drain(MemoryController, [trace], **kw)
        assert self._drain(MemoryController, parts, **kw) == whole
        assert whole == self._drain(ScanController, [trace], **kw)
        runs = []
        for cls in (MemoryController, ScanController):
            mc = cls(DDR4_3200, **kw)
            drains = []
            for _ in range(2):
                mc.enqueue_batch(trace)
                drains.append(replace(mc.run_to_completion()))
            runs.append(drains)
        assert runs[0] == runs[1]
        assert runs[0][1].accesses == 2 * n


class TestHitPhaseReorders:
    """In a REDUCE-shaped read stream each read of ``in1`` is followed by
    its ``in2`` partner in the same bank and row, so every pair is a tCCD_L
    pair and FR-FCFS issues the partner after younger reads of other
    bankgroups.  The hit phase issues that order command by command; it
    never retires such a run in closed form, and the stats and completion
    cycles still equal the scan oracle's."""

    @staticmethod
    def _reduce_reads(ranks):
        if ranks == 1:
            words = 256
            trace = to_buffer(reduce_trace(0, words * 64, 2 * words * 64, words))
            config = MemoryController(DDR4_3200).snapshot_config()
        else:
            # One channel's share of a Fig. 11 CPU REDUCE (8 x 4 ranks).
            words = 1024
            config = DramSystem(channels=8).config
            trace = reduce_traffic(0, words * 64, 2 * words * 64, words).share(0, 8)
        reads = ~trace.is_write
        return config, TraceBuffer(trace.addr[reads], False, trace.cycle[reads])

    @pytest.mark.parametrize("ranks", [1, 4])
    def test_reduce_reads_issue_in_the_phase(self, ranks, monkeypatch):
        config, trace = self._reduce_reads(ranks)
        assert config.organization.ranks == ranks
        runs = []
        stretch = MemoryController._stretch

        def spy(ctrl, *args):
            result = stretch(ctrl, *args)
            runs.append(result)
            return result

        monkeypatch.setattr(MemoryController, "_stretch", spy)
        mc = config.build()
        done = np.full(len(trace), -1, dtype=np.int64)
        mc.enqueue_batch(trace, completions=done)
        fast = mc.run_to_completion()
        monkeypatch.undo()
        if not reference_mode():
            # All but the reads issued while the banks opened went in the
            # phase, none of them in closed form.
            assert mc.phase_columns >= len(trace) - 64
            assert runs and not any(result.__class__ is tuple for result in runs)
        # FR-FCFS reordered the stream: a younger read finished first.
        assert (np.diff(done) < 0).any()
        oracle = ScanController.from_config(config)
        expected = np.full(len(trace), -1, dtype=np.int64)
        enqueue_records(oracle, trace, expected)
        assert fast == oracle.run_to_completion()
        assert np.array_equal(done, expected)


class TestHitPhaseParity:
    """The hit phase against the scan oracle in the situations that end it
    or reorder it, at 1 and 4 ranks, for reads and for writes: stats and
    completion cycles must match, and (with the phase on) the phase must
    really have issued the traffic meant for it."""

    _config = staticmethod(TestLeanStepParity._config)

    @staticmethod
    def _hits(ranks, n, row=0):
        """``n`` row hits rotating over the 16 banks of the last rank."""
        return [(ranks - 1, i % 4, (i // 4) % 4, row, (i // 16) % 128) for i in range(n)]

    @staticmethod
    def _trace(mapping, coords, is_write, cycles=None):
        """A trace of ``(rank, bankgroup, bank, row, column)`` records with a
        direction and an arrival cycle each (a scalar for all of them)."""
        addrs = np.array([mapping.encode(*c) for c in coords], dtype=np.int64)
        n = len(addrs)
        is_write = np.broadcast_to(np.asarray(is_write, dtype=bool), (n,))
        cycles = np.broadcast_to(np.asarray(0 if cycles is None else cycles, dtype=np.int64), (n,))
        return TraceBuffer(addrs, is_write.copy(), cycles.copy())

    @staticmethod
    def _run(trace, **kw):
        """Drain ``trace`` and the scan oracle; return the controller."""
        mc = MemoryController(DDR4_3200, **kw)
        done = np.full(len(trace), -1, dtype=np.int64)
        mc.enqueue_batch(trace, completions=done)
        stats = mc.run_to_completion()
        oracle = ScanController(DDR4_3200, **kw)
        expected = np.full(len(trace), -1, dtype=np.int64)
        enqueue_records(oracle, trace, expected)
        assert stats == oracle.run_to_completion()
        assert np.array_equal(done, expected)
        return mc

    @pytest.mark.parametrize("is_write", [False, True], ids=["reads", "writes"])
    @pytest.mark.parametrize("ranks", [1, 4])
    def test_reduce_pairs(self, ranks, is_write):
        # a[i] and b[i] in one bank and row, interleaved a0 b0 a1 b1 ...
        mapping, kw = self._config(ranks)
        coords = []
        for a in self._hits(ranks, 400):
            coords += [a, a[:4] + (a[4] + 64,)]
        mc = self._run(self._trace(mapping, coords, is_write), **kw)
        if not reference_mode():
            assert mc.phase_columns >= len(coords) - 64

    @pytest.mark.parametrize("is_write", [False, True], ids=["reads", "writes"])
    @pytest.mark.parametrize("ranks", [1, 4])
    def test_one_bankgroup_warm_up(self, ranks, is_write):
        # Hits rotating over the four banks of one bankgroup: the phase
        # starts while the last-opened bank still waits out tRCD, so its
        # steps must let younger entries of warm banks go first, and its
        # closed form (one command per tCCD_L) waits for the warm-up.
        mapping, kw = self._config(ranks)
        coords = [(ranks - 1, 2, i % 4, 0, i // 4) for i in range(400)]
        mc = self._run(self._trace(mapping, coords, is_write), **kw)
        if not reference_mode():
            assert mc.phase_columns >= 300

    @pytest.mark.parametrize("is_write", [False, True], ids=["reads", "writes"])
    @pytest.mark.parametrize("ranks", [1, 4])
    def test_non_hit_admitted_mid_phase(self, ranks, is_write):
        mapping, kw = self._config(ranks)
        hits = self._hits(ranks, 600)
        coords = hits[:300] + [(ranks - 1, 0, 0, 7, 0)] + hits[300:]
        mc = self._run(self._trace(mapping, coords, is_write), **kw)
        assert mc.stats.row_conflicts >= 1
        if not reference_mode():
            # The phase ran up to the conflicting record and again after it.
            assert 300 <= mc.phase_columns < len(coords)

    @pytest.mark.parametrize("is_write", [False, True], ids=["reads", "writes"])
    @pytest.mark.parametrize("ranks", [1, 4])
    def test_phase_reaches_refresh(self, ranks, is_write):
        # 4,000 hits at one per 4 cycles outlast tREFI (12,480 cycles).
        mapping, kw = self._config(ranks)
        mc = self._run(self._trace(mapping, self._hits(ranks, 4000), is_write), **kw)
        assert mc.stats.refreshes >= ranks
        if not reference_mode():
            assert mc.phase_columns >= 3000

    @pytest.mark.parametrize("is_write", [False, True], ids=["reads", "writes"])
    @pytest.mark.parametrize("ranks", [1, 4])
    def test_watermarks_with_late_arrivals(self, ranks, is_write):
        # Hits of one direction at cycle 0; the other direction's records
        # trickle in from cycle 200, so a read phase meets write_high and a
        # write phase meets write_low with reads queued.
        mapping, kw = self._config(ranks)
        hits = self._hits(ranks, 800)
        late = [(0, i % 4, 0, 1 + i % 3, i % 128) for i in range(60)]
        trace = concat(
            [
                self._trace(mapping, hits, is_write),
                self._trace(mapping, late, not is_write, 200 + 10 * np.arange(60)),
            ]
        )
        mc = self._run(trace, **kw)
        if not reference_mode():
            assert mc.phase_columns >= 400

    @pytest.mark.parametrize("is_write", [False, True], ids=["reads", "writes"])
    @pytest.mark.parametrize("ranks", [1, 4])
    def test_window_below_write_high(self, ranks, is_write):
        # Writes beyond the window are staged: write phases never start,
        # read phases see the staged writes in the write level.
        mapping, kw = self._config(ranks)
        kw.update(window=8, write_high_watermark=32, write_low_watermark=4)
        hits = self._hits(ranks, 600)
        late = [(0, i % 4, 1, 2, i % 128) for i in range(100)]
        trace = concat(
            [
                self._trace(mapping, hits, is_write),
                self._trace(mapping, late, not is_write, 100 + 15 * np.arange(100)),
            ]
        )
        mc = self._run(trace, **kw)
        if not reference_mode() and not is_write:
            assert mc.phase_columns >= 400

    @pytest.mark.parametrize("ranks", [1, 4])
    def test_reads_run_while_writes_are_due_later(self, ranks, monkeypatch):
        # 600 row-hit reads in rank 0 at cycle 0, then 400 random reads and
        # writes from cycle 4,000: the read phase runs while the writes,
        # already in the backlog, cannot be admitted yet.
        mapping, kw = self._config(ranks)
        rng = np.random.default_rng(13)
        coords = [(0, i % 4, (i // 4) % 4, 0, i // 16) for i in range(600)]
        coords += [
            tuple(int(v) for v in c)
            for c in rng.integers([0, 0, 0, 1, 0], [ranks, 4, 4, 64, 128], (400, 5))
        ]
        is_write = np.concatenate([np.zeros(600, dtype=bool), rng.random(400) < 0.4])
        cycles = np.concatenate([np.zeros(600, dtype=np.int64), 4000 + 20 * np.arange(400)])
        first_phase = []
        index_window = MemoryController._index_window

        def spy(ctrl, *args):
            if ctrl.phase_columns and not first_phase:
                first_phase.append(ctrl.phase_columns)
            index_window(ctrl, *args)

        monkeypatch.setattr(MemoryController, "_index_window", spy)
        mc = self._run(self._trace(mapping, coords, is_write, cycles), **kw)
        monkeypatch.undo()
        assert mc.stats.activates > 300
        if not reference_mode():
            # Every read but those issued while the 16 banks were still
            # opening went in the first phase.
            assert first_phase and first_phase[0] >= 570


class TestClassIndexParity:
    """Every way the per-command step's candidate classes change, against
    the scan oracle: stats and completion cycles must match at 1 and 4
    ranks, for reads and for writes, and a spy (or the completion order)
    shows that the drain really met the situation.  The step files each
    bank's candidates in a column or ACT class of its bankgroup or in the
    PRE class, and re-files them as ACT, PRE, auto-precharge and refresh
    change the bank's open row."""

    _config = staticmethod(TestLeanStepParity._config)
    _trace = staticmethod(TestHitPhaseParity._trace)

    @staticmethod
    def _run(trace, **kw):
        """Drain ``trace`` on a new controller and on the scan oracle;
        return the controller and its completion cycles."""
        mc = MemoryController(DDR4_3200, **kw)
        done = np.full(len(trace), -1, dtype=np.int64)
        mc.enqueue_batch(trace, completions=done)
        stats = mc.run_to_completion()
        oracle = ScanController(DDR4_3200, **kw)
        expected = np.full(len(trace), -1, dtype=np.int64)
        enqueue_records(oracle, trace, expected)
        assert stats == oracle.run_to_completion()
        assert np.array_equal(done, expected)
        return mc, done

    @staticmethod
    def _classes(mc, is_write):
        return mc._write_classes if is_write else mc._read_classes

    @pytest.mark.parametrize("is_write", [False, True], ids=["reads", "writes"])
    @pytest.mark.parametrize("ranks", [1, 4])
    def test_act_refiles_other_direction(self, ranks, is_write, monkeypatch):
        # Both directions queue conflicting rows of the same two banks, most
        # records in the direction under test.
        mapping, kw = self._config(ranks)
        rng = np.random.default_rng(60 + ranks)
        n = 300
        coords = [
            (int(r), 0, int(b), int(row), int(c))
            for r, b, row, c in rng.integers([0, 0, 0, 0], [ranks, 2, 4, 128], (n, 4))
        ]
        writes = (rng.random(n) < 0.3) != is_write
        seen = []
        file = controller_module._file

        def spy(classes, entries, g, open_row, put, row):
            # Only an ACT takes a bank's candidates out of an ACT class: the
            # other direction's, before filing them under the new row.
            if put is controller_module._take and open_row < 0:
                seen.append(classes)
            file(classes, entries, g, open_row, put, row)

        monkeypatch.setattr(controller_module, "_file", spy)
        mc, _ = self._run(self._trace(mapping, coords, writes), **kw)
        monkeypatch.undo()
        other = self._classes(mc, not is_write)
        assert any(classes is other for classes in seen)

    @pytest.mark.parametrize("is_write", [False, True], ids=["reads", "writes"])
    @pytest.mark.parametrize("ranks", [1, 4])
    def test_pre_wins_over_younger_hit_held_by_bus(self, ranks, is_write):
        # Bank 0 opens row 1 and the stream's banks (bankgroups 1-3 of the
        # last rank) open row 0.  From cycle 1000 a row-2 request to bank 0,
        # 20 stream hits, a younger row-1 hit to bank 0 and more stream hits
        # arrive.  The stream keeps the data bus busy, so each column waits
        # for the bus while bank 0's PRE is ready at the command floor.
        mapping, kw = self._config(ranks)
        last = ranks - 1
        stream = [(last, 1 + i % 3, (i // 3) % 4, 0, i // 12) for i in range(60)]
        warm = [(0, 0, 0, 1, 0)] + stream[:12]
        late = [(0, 0, 0, 2, 0)] + stream[:20] + [(0, 0, 0, 1, 1)] + stream[20:]
        cycles = [0] * len(warm) + [1000] * len(late)
        mc, done = self._run(self._trace(mapping, warm + late, is_write, cycles), **kw)
        miss, hit = len(warm), len(warm) + 21
        # The PRE for the row-2 request went first: the younger row-1
        # request, queued as a hit, finished after it.
        assert done[hit] > done[miss]
        assert mc.stats.row_conflicts >= 2

    @pytest.mark.parametrize("is_write", [False, True], ids=["reads", "writes"])
    @pytest.mark.parametrize("ranks", [1, 4])
    def test_refresh_mid_window_with_every_class_filled(self, ranks, is_write, monkeypatch):
        # Random rows over four banks per rank, enough of them to keep the
        # window full past the first refresh (tREFI = 12,480 cycles).
        mapping, kw = self._config(ranks)
        rng = np.random.default_rng(70 + ranks)
        n = 3000 if ranks == 1 else 4000
        coords = [
            (int(r), int(bg), int(b), int(row), int(c))
            for r, bg, b, row, c in rng.integers([0, 0, 0, 0, 0], [ranks, 2, 2, 3, 128], (n, 5))
        ]
        cycles = None
        seen = []
        refresh = Rank.refresh
        index_window = MemoryController._index_window

        def spy_refresh(rank, cycle):
            seen.append(None)  # the classes are checked as they are re-filed
            return refresh(rank, cycle)

        def spy(ctrl, lists, classes, *args):
            if seen and seen[-1] is None and classes is self._classes(ctrl, is_write):
                col, act, pre = classes
                seen[-1] = any(col) and any(act) and bool(pre)
            index_window(ctrl, lists, classes, *args)

        monkeypatch.setattr(Rank, "refresh", spy_refresh)
        monkeypatch.setattr(MemoryController, "_index_window", spy)
        mc, _ = self._run(self._trace(mapping, coords, is_write, cycles), **kw)
        monkeypatch.undo()
        assert mc.stats.refreshes >= ranks
        assert any(seen)

    @pytest.mark.parametrize("is_write", [False, True], ids=["reads", "writes"])
    @pytest.mark.parametrize("ranks", [1, 4])
    def test_closed_page_with_both_directions_on_one_bank(self, ranks, is_write, monkeypatch):
        mapping, kw = self._config(ranks)
        kw["row_policy"] = "closed"
        rng = np.random.default_rng(80 + ranks)
        n = 400
        coords = [
            (int(r), 1, int(b), int(row), int(c))
            for r, b, row, c in rng.integers([0, 0, 0, 0], [ranks, 2, 3, 128], (n, 4))
        ]
        writes = (rng.random(n) < 0.35) != is_write
        both = []
        refile = controller_module._refile

        def spy(directions, flat, g, old_row, new_row, row):
            both.append(all(lists[flat] for lists, _ in directions))
            refile(directions, flat, g, old_row, new_row, row)

        monkeypatch.setattr(controller_module, "_refile", spy)
        mc, _ = self._run(self._trace(mapping, coords, writes), **kw)
        monkeypatch.undo()
        assert mc.stats.precharges >= mc.stats.accesses
        assert any(both)

    @pytest.mark.parametrize("is_write", [False, True], ids=["reads", "writes"])
    @pytest.mark.parametrize("ranks", [1, 4])
    def test_unready_class_tie_goes_to_oldest(self, ranks, is_write, monkeypatch):
        # A refresh closes every bank of a rank with one earliest-ACT cycle,
        # so an ACT class of several banks has no member ready at its term
        # and all of them tie on their bank term.
        mapping, kw = self._config(ranks)
        rng = np.random.default_rng(90 + ranks)
        n = 2000 if ranks == 1 else 3200
        coords = [
            (int(r), 0, int(b), int(row), int(c))
            for r, b, row, c in rng.integers([0, 0, 0, 0], [ranks, 4, 4, 128], (n, 4))
        ]
        cycles = None
        ties = []
        index_window = MemoryController._index_window

        def spy(ctrl, lists, classes, *args):
            index_window(ctrl, lists, classes, *args)
            if classes is self._classes(ctrl, is_write):
                bank = [ctrl._flat_bank[f] for f in ctrl._columns[4]]
                ties.extend(
                    len(members) > 1 and len({bank[e].earliest_act for e in members}) == 1
                    for members in classes[1]
                )

        monkeypatch.setattr(MemoryController, "_index_window", spy)
        mc, _ = self._run(self._trace(mapping, coords, is_write, cycles), **kw)
        monkeypatch.undo()
        assert mc.stats.refreshes >= ranks
        assert any(ties)

    @settings(max_examples=150, deadline=None)
    @given(
        ranks=st.sampled_from([1, 4]),
        n=st.integers(1, 150),
        window=st.integers(1, 48),
        high_offset=st.integers(-4, 8),
        low_share=st.floats(0, 1),
        write_share=st.floats(0, 1),
        pace=st.sampled_from([0, 0, 3, 11]),
        closed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fuzz_few_banks_and_rows(
        self, ranks, n, window, high_offset, low_share, write_share, pace, closed, seed
    ):
        mapping, kw = self._config(ranks)
        write_high = max(1, window + high_offset)
        kw.update(
            window=window,
            write_high_watermark=write_high,
            write_low_watermark=min(write_high - 1, int(low_share * write_high)),
            row_policy="closed" if closed else "open",
        )
        rng = np.random.default_rng(seed)
        coords = [
            (int(r), int(bg), int(b), int(row), int(c))
            for r, bg, b, row, c in rng.integers([0, 0, 0, 0, 0], [ranks, 2, 2, 3, 4], (n, 5))
        ]
        cycles = np.sort(rng.integers(0, pace * n + 1, n))
        self._run(self._trace(mapping, coords, rng.random(n) < write_share, cycles), **kw)


class TestAdmissionParity:
    """A drain numbers its records reads first, then writes, each in
    enqueue order, and admits them by walking a pointer per direction.
    Each case drives one situation that admission must get right and
    requires the scan oracle's stats and completion cycles at 1 and 4
    ranks."""

    _config = staticmethod(TestLeanStepParity._config)
    _trace = staticmethod(TestHitPhaseParity._trace)

    @staticmethod
    def _run(drains, **kw):
        """Drain each of ``drains`` (a list of traces, each enqueued with a
        completions array unless it is wrapped in a 1-tuple) on one
        controller and on the scan oracle, without a reset between drains;
        return the controller and its completion arrays."""
        mc = MemoryController(DDR4_3200, **kw)
        oracle = ScanController(DDR4_3200, **kw)
        dones = []
        for traces in drains:
            for trace in traces:
                if isinstance(trace, tuple):
                    mc.enqueue_batch(trace[0])
                    enqueue_records(oracle, trace[0])
                    continue
                done = np.full(len(trace), -1, dtype=np.int64)
                expected = np.full(len(trace), -1, dtype=np.int64)
                mc.enqueue_batch(trace, completions=done)
                enqueue_records(oracle, trace, expected)
                dones.append((done, expected))
            assert replace(mc.run_to_completion()) == oracle.run_to_completion()
            assert mc.pending == 0
        for done, expected in dones:
            assert (done >= 0).all()
            assert np.array_equal(done, expected)
        return mc, [done for done, _ in dones]

    @staticmethod
    def _random(mapping, ranks, n, seed, write_share=0.4, start=0, pace=7):
        rng = np.random.default_rng(seed)
        coords = [
            tuple(int(v) for v in c)
            for c in rng.integers([0, 0, 0, 0, 0], [ranks, 4, 4, 6, 128], (n, 5))
        ]
        cycles = start + np.sort(rng.integers(0, pace * n + 1, n))
        return TestHitPhaseParity._trace(mapping, coords, rng.random(n) < write_share, cycles)

    @pytest.mark.parametrize("ranks", [1, 4])
    def test_two_drains_without_reset(self, ranks):
        # The second drain's index space starts at 0 again, on banks and
        # rank history the first drain left.
        mapping, kw = self._config(ranks)
        first = self._random(mapping, ranks, 700, 1)
        second = self._random(mapping, ranks, 700, 2, start=20000)
        mc, _ = self._run([[first], [second]], **kw)
        assert mc.stats.accesses == 1400

    @pytest.mark.parametrize("ranks", [1, 4])
    def test_completions_from_two_traces_one_without_an_array(self, ranks):
        mapping, kw = self._config(ranks)
        traces = [self._random(mapping, ranks, 500, seed) for seed in (3, 4, 5)]
        _, dones = self._run([[traces[0], (traces[1],), traces[2]]], **kw)
        assert len(dones) == 2

    @pytest.mark.parametrize("is_write", [False, True], ids=["reads-only", "writes-only"])
    @pytest.mark.parametrize("ranks", [1, 4])
    def test_one_direction_drain(self, ranks, is_write):
        mapping, kw = self._config(ranks)
        trace = self._random(mapping, ranks, 900, 6, write_share=float(is_write))
        assert trace.writes == (900 if is_write else 0)
        mc, _ = self._run([[trace]], **kw)
        assert (mc.stats.writes if is_write else mc.stats.reads) == 900

    @pytest.mark.parametrize("ranks", [1, 4])
    def test_staging_with_late_writes(self, ranks):
        # window < write_high: admitted writes beyond the window wait in
        # the staging range while more writes keep arriving.
        mapping, kw = self._config(ranks)
        kw.update(window=6, write_high_watermark=20, write_low_watermark=3)
        early = self._random(mapping, ranks, 400, 7, write_share=0.3, pace=2)
        late = self._random(mapping, ranks, 400, 8, write_share=0.9, start=600, pace=3)
        mc, _ = self._run([[early, late]], **kw)
        assert mc.stats.writes > 300

    @pytest.mark.parametrize("ranks", [1, 4])
    def test_arrival_lands_while_the_phase_absorbs(self, ranks, monkeypatch):
        # Row-hit reads arriving one per cycle, faster than they issue, and
        # a write arriving mid-run: the closed form absorbs only what has
        # arrived and stops at the write's admission.
        mapping, kw = self._config(ranks)
        hits = TestHitPhaseParity._hits(ranks, 3000)
        write = [(0, 0, 0, 3, 0)]
        trace = concat(
            [
                self._trace(mapping, hits, False, np.arange(3000)),
                self._trace(mapping, write, True, 5000),
            ]
        )
        bounds = []
        stretch = MemoryController._stretch

        def spy(ctrl, *args):
            result = stretch(ctrl, *args)
            if result.__class__ is tuple:
                bounds.append(args[-1])
            return result

        monkeypatch.setattr(MemoryController, "_stretch", spy)
        self._run([[trace]], **kw)
        monkeypatch.undo()
        if not reference_mode():
            assert len(bounds) > 1 and 5000 in bounds

    @pytest.mark.parametrize("ranks", [1, 4])
    def test_decreasing_cycles_hold_ready_records(self, ranks):
        # A record due at cycle 4,000 heads the read FIFO; the younger
        # records behind it arrived at cycle 10 but wait for it.
        mapping, kw = self._config(ranks)
        coords = TestHitPhaseParity._hits(ranks, 200)
        cycles = np.array([0] * 50 + [4000] + [10] * 149)
        _, (done,) = self._run([[self._trace(mapping, coords, False, cycles)]], **kw)
        assert done[51:].min() > 4000
