"""Tests for the cross-layer timing memoization caches.

Two levels (see :mod:`repro.dram.memo`): the trace memo keyed by
``(ControllerConfig, trace digest)`` and the instruction memo keyed by
``(ControllerConfig, OpTraffic.key)``.  Correctness rests on the drain
being a pure function of those keys (the parity, determinism, and
description suites pin the purity); these tests pin the cache
mechanics: keying, copy semantics, LRU + byte-cap eviction, reference
mode, the lookup order of :func:`~repro.dram.memo.drain`, and every
consumer (TensorDimm, DramSystem, the parallel drain fan-out).

The suite-wide autouse fixture replaces both memos with null memos; tests
here opt back in through the ``timing_memo`` / ``instr_memo`` fixtures.
"""

import numpy as np
import pytest

from repro.core.isa import gather, reduce
from repro.core.runtime import TensorDimmRuntime
from repro.core.tensordimm import TensorDimm
from repro.core.tensornode import TensorNode
from repro.dram.command import TraceBuffer
from repro.dram.controller import MemoryController
from repro.dram.memo import (
    InstructionMemo,
    TimingMemo,
    drain,
    instr_memo_stats,
    timing_memo_stats,
)
from repro.dram.system import DramSystem
from repro.dram.timing import DDR4_3200
from repro.env import REFERENCE_ENV_VAR
from repro.parallel import DrainBatch

from trace_oracles import enqueue_routed, reinterleave


def _trace(n=600, seed=3):
    rng = np.random.default_rng(seed)
    addrs = (rng.integers(0, 1 << 12, size=n) * 64).astype(np.int64)
    return TraceBuffer(addrs, np.zeros(n, dtype=bool))


def _config():
    return MemoryController(DDR4_3200).snapshot_config()


class TestDigest:
    def test_deterministic(self):
        a = _trace()
        b = _trace()
        assert a.digest() == b.digest()

    def test_sensitive_to_every_column(self):
        base = _trace()
        addr2 = base.addr.copy()
        addr2[0] += 64
        assert TraceBuffer(addr2, base.is_write, base.cycle).digest() != base.digest()
        flipped = base.is_write.copy()
        flipped[0] = True
        assert TraceBuffer(base.addr, flipped, base.cycle).digest() != base.digest()
        cycles = base.cycle.copy()
        cycles[0] = 7
        assert TraceBuffer(base.addr, base.is_write, cycles).digest() != base.digest()

    def test_cached_on_buffer(self):
        t = _trace()
        assert t.digest() is t.digest()

    @staticmethod
    def _mixed(seed=5, n=400):
        # Reads and writes with paced arrivals, so every column varies.
        rng = np.random.default_rng(seed)
        addrs = (rng.integers(0, 1 << 12, size=n) * 64).astype(np.int64)
        return TraceBuffer(addrs, rng.random(n) < 0.3, np.cumsum(rng.integers(0, 9, n)))

    def test_direction_preserving_reinterleave_keeps_digest(self):
        base = self._mixed()
        rng = np.random.default_rng(1)
        grouped = np.argsort(base.is_write, kind="stable")  # all reads first
        for mixed in (
            TraceBuffer(base.addr[grouped], base.is_write[grouped], base.cycle[grouped]),
            reinterleave(base, rng),
            reinterleave(base, rng),
        ):
            for d in (False, True):
                keep = mixed.is_write == d
                base_keep = base.is_write == d
                assert np.array_equal(mixed.addr[keep], base.addr[base_keep])
                assert np.array_equal(mixed.cycle[keep], base.cycle[base_keep])
            assert not np.array_equal(mixed.is_write, base.is_write)
            assert mixed.digest() == base.digest()

    def test_moving_a_record_across_directions_changes_digest(self):
        base = self._mixed()
        i = int(np.flatnonzero(~base.is_write)[0])
        flipped = base.is_write.copy()
        flipped[i] = True
        assert TraceBuffer(base.addr, flipped, base.cycle).digest() != base.digest()

    @pytest.mark.parametrize("is_write", [False, True], ids=["reads", "writes"])
    def test_swapping_two_records_of_one_direction_changes_digest(self, is_write):
        base = self._mixed()
        i, j = np.flatnonzero(base.is_write == is_write)[:2].tolist()
        assert base.addr[i] != base.addr[j]
        order = np.arange(len(base))
        order[[i, j]] = order[[j, i]]
        # Whole records swap: each direction keeps the same set of
        # (addr, cycle) pairs, only their order changes.
        swapped = TraceBuffer(base.addr[order], base.is_write, base.cycle[order])
        assert swapped.digest() != base.digest()

    def test_changing_one_arrival_changes_digest(self):
        base = self._mixed()
        for is_write in (False, True):
            i = int(np.flatnonzero(base.is_write == is_write)[3])
            cycles = base.cycle.copy()
            cycles[i] += 1
            assert TraceBuffer(base.addr, base.is_write, cycles).digest() != base.digest()


class TestTimingMemoMechanics:
    def test_hit_returns_equal_but_fresh_copy(self, timing_memo):
        config = _config()
        trace = _trace()
        mc = MemoryController(DDR4_3200)
        mc.enqueue_batch(trace)
        stats = mc.run_to_completion()
        timing_memo.store(config, trace, stats)
        hit = timing_memo.lookup(config, trace)
        assert hit == stats
        assert hit is not stats
        assert timing_memo.lookup(config, trace) is not hit  # fresh per hit

    def test_counters_and_stats(self, timing_memo):
        config = _config()
        trace = _trace()
        assert timing_memo.lookup(config, trace) is None
        timing_memo.store(config, trace, MemoryController(DDR4_3200).stats)
        timing_memo.lookup(config, trace)
        report = timing_memo.stats()
        assert report["hits"] == 1 and report["misses"] == 1
        assert report["hit_rate"] == 0.5
        assert timing_memo_stats()["entries"] == 1

    def test_config_is_part_of_key(self, timing_memo):
        trace = _trace()
        open_cfg = MemoryController(DDR4_3200).snapshot_config()
        closed_cfg = MemoryController(DDR4_3200, row_policy="closed").snapshot_config()
        timing_memo.store(open_cfg, trace, MemoryController(DDR4_3200).stats)
        assert timing_memo.lookup(closed_cfg, trace) is None

    def test_kill_switch(self, timing_memo, monkeypatch):
        config = _config()
        trace = _trace()
        timing_memo.store(config, trace, MemoryController(DDR4_3200).stats)
        monkeypatch.setenv(REFERENCE_ENV_VAR, "1")
        assert timing_memo.lookup(config, trace) is None
        assert timing_memo.misses == 0  # disabled lookups do not count

    def test_lru_eviction_prefers_stale_entries(self, timing_memo):
        memo = TimingMemo(max_entries=2)
        config = _config()
        stats = MemoryController(DDR4_3200).stats
        traces = [_trace(seed=s) for s in range(3)]
        memo.store(config, traces[0], stats)
        memo.store(config, traces[1], stats)
        assert memo.lookup(config, traces[0]) is not None  # refresh recency
        memo.store(config, traces[2], stats)  # evicts trace 1, not trace 0
        assert len(memo) == 2
        assert memo.lookup(config, traces[1]) is None
        assert memo.lookup(config, traces[0]) is not None
        assert memo.evictions == 1

    def test_byte_cap_evicts_and_accounts(self, timing_memo):
        config = _config()
        stats = MemoryController(DDR4_3200).stats
        probe = TimingMemo(max_entries=64)
        probe.store(config, _trace(seed=0), stats)
        per_entry = probe.resident_bytes
        assert per_entry > 0
        memo = TimingMemo(max_entries=64, max_bytes=per_entry * 2)
        for s in range(3):
            memo.store(config, _trace(seed=s), stats)
        assert len(memo) == 2  # third store pushed the first out by bytes
        assert memo.resident_bytes == per_entry * 2
        assert memo.evictions == 1
        report = memo.stats()
        assert report["evictions"] == 1
        assert report["resident_bytes"] == memo.resident_bytes

    def test_restore_same_key_does_not_double_count_bytes(self, timing_memo):
        config = _config()
        stats = MemoryController(DDR4_3200).stats
        memo = TimingMemo()
        memo.store(config, _trace(), stats)
        once = memo.resident_bytes
        memo.store(config, _trace(), stats)
        assert memo.resident_bytes == once
        assert len(memo) == 1


class TestTensorDimmIntegration:
    def test_second_execute_timed_hits_and_matches(self, timing_memo):
        dimm = TensorDimm(0, 2, capacity_words=1 << 14)
        instr = reduce(0, 2 * 2048, 2 * 4096, 400)
        first = dimm.execute_timed(instr)
        assert timing_memo.hits == 0
        second = dimm.execute_timed(instr)
        assert timing_memo.hits == 1
        assert second.dram_stats == first.dram_stats
        assert second.seconds == first.seconds

    def test_hit_is_bit_identical_to_cold_run(self, timing_memo):
        instr = reduce(0, 2 * 2048, 2 * 4096, 400)
        warm = TensorDimm(0, 2, capacity_words=1 << 14)
        warm.execute_timed(instr)
        served = warm.execute_timed(instr)  # memo hit
        timing_memo.clear()
        cold = TensorDimm(0, 2, capacity_words=1 << 14).execute_timed(instr)
        assert served.dram_stats == cold.dram_stats

    def test_different_instructions_do_not_collide(self, timing_memo):
        dimm = TensorDimm(0, 2, capacity_words=1 << 14)
        a = dimm.execute_timed(reduce(0, 2 * 2048, 2 * 4096, 400))
        b = dimm.execute_timed(reduce(0, 2 * 2048, 2 * 4096, 401))
        assert timing_memo.hits == 0
        assert a.dram_stats != b.dram_stats

    def test_gather_keyed_by_index_content(self, timing_memo):
        dimm = TensorDimm(0, 2, capacity_words=1 << 16)
        idx = np.arange(100, dtype=np.int32)
        dimm.write_indices(30000, idx)
        instr = gather(0, 30000, 2 * 4000, 100, words_per_slice=2)
        first = dimm.execute_timed(instr)
        dimm.write_indices(30000, idx[::-1].copy())
        second = dimm.execute_timed(instr)  # different trace -> miss
        assert timing_memo.hits == 0
        assert first.dram_stats.accesses == second.dram_stats.accesses


class TestDramSystemIntegration:
    def _loaded_system(self):
        system = DramSystem(channels=2)
        addrs = (np.arange(2000, dtype=np.int64) * 64)
        enqueue_routed(system, TraceBuffer(addrs, np.zeros(2000, dtype=bool)))
        return system

    def test_second_run_served_from_cache(self, timing_memo):
        golden = self._loaded_system().run()
        # Striping hands both channels byte-identical local traces, so the
        # second channel already hits the entry the first one stored.
        assert timing_memo.hits == 1 and timing_memo.misses == 1
        again = self._loaded_system().run()
        assert timing_memo.hits == 3  # both channels served from cache
        assert again.channel_stats == golden.channel_stats
        assert again.elapsed_seconds == golden.elapsed_seconds

    def test_directly_fed_controller_drains_through_memo(self, timing_memo):
        self._loaded_system().run()
        hits, misses = timing_memo.hits, timing_memo.misses

        def fed_system():
            # One controller also gets a record behind the system's back:
            # the controller's own pending trace carries it into the memo.
            system = self._loaded_system()
            system.controllers[0].enqueue_batch(
                TraceBuffer(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=bool))
            )
            return system

        system = fed_system()
        records = system.controllers[0].pending_trace()
        assert len(records) == 1001
        result = system.run()
        # The fed channel misses once, the clean channel hits.
        assert (timing_memo.hits, timing_memo.misses) == (hits + 1, misses + 1)
        fresh = system.controllers[0].snapshot_config().build()
        fresh.enqueue_batch(records)
        assert result.channel_stats[0] == fresh.run_to_completion()
        again = fed_system().run()
        assert (timing_memo.hits, timing_memo.misses) == (hits + 3, misses + 1)
        assert again.channel_stats == result.channel_stats


class TestParallelIntegration:
    def test_replay_traces_parent_side_hits(self, timing_memo):
        config = _config()
        trace = _trace(n=900)
        batch = DrainBatch(jobs=2)
        batch.submit(config, trace=trace)
        batch.submit(config, trace=trace)  # shares the first task's worker call
        first = batch.results()
        assert first[0] == first[1] and first[0] is not first[1]
        assert timing_memo.misses == 2 and len(timing_memo) == 1
        again = DrainBatch(jobs=2)
        again.submit(config, trace=trace)  # answered by the parent's memo
        assert again.results() == first[:1]
        assert timing_memo.hits == 1

    def test_broadcast_timed_batch_dedups_identical_dimm_traces(
        self, timing_memo, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PARALLEL_MIN_RECORDS", "0")
        node = TensorNode(num_dimms=4, capacity_words_per_dimm=1 << 14)
        instr = reduce(0, 4 * 1024, 4 * 2048, 300)
        parallel = node.broadcast_timed_batch(
            [instr], simulate_dimms=None, jobs=2
        )[0]
        timing_memo.clear()
        sequential = TensorNode(
            num_dimms=4, capacity_words_per_dimm=1 << 14
        ).broadcast_timed_batch([instr], simulate_dimms=None, jobs=1)[0]
        assert parallel.dram_per_dimm == sequential.dram_per_dimm
        assert parallel.seconds == sequential.seconds


class TestWarmControllerSoundness:
    """The memo must only serve/record drains of *pristine* controllers: a
    warm controller's next drain continues from accumulated clock/stats
    state and is not a pure function of the pending trace."""

    def _trace(self, n=1000):
        addrs = np.arange(n, dtype=np.int64) * 64
        return TraceBuffer(addrs, np.zeros(n, dtype=bool))

    def test_second_run_on_same_system_not_served_stale(self, timing_memo):
        warm = DramSystem(channels=2)
        enqueue_routed(warm, self._trace())
        warm.run()
        enqueue_routed(warm, self._trace())
        cached_result = warm.run()  # warm drain: must NOT hit the memo
        # Reference system with an identical memo history (cleared before
        # its first run, so both systems adopt/drain the same channels);
        # its second run drains for real because its controllers are warm.
        timing_memo.clear()
        cold = DramSystem(channels=2)
        enqueue_routed(cold, self._trace())
        cold.run()
        enqueue_routed(cold, self._trace())
        timing_memo.clear()  # force the reference through the real engine
        golden = cold.run()
        assert cached_result.channel_stats == golden.channel_stats
        assert cached_result.elapsed_seconds == golden.elapsed_seconds

    def test_warm_drain_does_not_poison_cache(self, timing_memo):
        warm = DramSystem(channels=2)
        enqueue_routed(warm, self._trace())
        warm.run()
        enqueue_routed(warm, self._trace())
        warm.run()  # accumulated stats must not be stored under the trace key
        fresh = DramSystem(channels=2)
        enqueue_routed(fresh, self._trace())
        result = fresh.run()
        assert all(s.accesses == 500 for s in result.channel_stats)

    def test_warm_run_does_not_depend_on_memo_hits(self, timing_memo):
        def warm_second_run():
            system = DramSystem(channels=2)
            for _ in range(2):
                enqueue_routed(system, self._trace())
                result = system.run()
            return result

        # The first system drains channel 0 for real and adopts channel 1
        # from the memo; the second system adopts both.
        first = warm_second_run()
        assert timing_memo.misses == 1
        second = warm_second_run()
        assert timing_memo.misses == 1
        assert second.channel_stats == first.channel_stats

    def test_pristine_flag(self):
        mc = MemoryController(DDR4_3200)
        assert mc.pristine
        mc.enqueue_batch(_trace(100))
        assert mc.pristine  # enqueueing alone does not warm it
        mc.run_to_completion()
        assert not mc.pristine
        mc.reset()
        assert mc.pristine


def _described_reduce(count=300, dimms=2):
    dimm = TensorDimm(0, dimms, capacity_words=1 << 14)
    instr = reduce(0, dimms * 2048, dimms * 4096, count)
    return dimm, instr, dimm.nmp.describe(instr)


class TestInstructionMemoMechanics:
    def test_hit_returns_equal_but_fresh_copy(self, instr_memo):
        dimm, instr, descriptor = _described_reduce()
        config = dimm.timed_controller_config(True)
        stats = MemoryController(DDR4_3200).stats
        instr_memo.store(config, descriptor, stats)
        hit = instr_memo.lookup(config, descriptor)
        assert hit == stats and hit is not stats
        assert instr_memo.lookup(config, descriptor) is not hit

    def test_counters_and_stats(self, instr_memo):
        dimm, instr, descriptor = _described_reduce()
        config = dimm.timed_controller_config(True)
        assert instr_memo.lookup(config, descriptor) is None
        instr_memo.store(config, descriptor, MemoryController(DDR4_3200).stats)
        instr_memo.lookup(config, descriptor)
        report = instr_memo_stats()
        assert report["hits"] == 1 and report["misses"] == 1
        assert report["entries"] == 1
        assert report["resident_bytes"] > 0

    def test_config_is_part_of_key(self, instr_memo):
        _, _, descriptor = _described_reduce()
        open_cfg = MemoryController(DDR4_3200).snapshot_config()
        closed_cfg = MemoryController(DDR4_3200, row_policy="closed").snapshot_config()
        instr_memo.store(open_cfg, descriptor, MemoryController(DDR4_3200).stats)
        assert instr_memo.lookup(closed_cfg, descriptor) is None

    def test_kill_switch(self, instr_memo, monkeypatch):
        dimm, instr, descriptor = _described_reduce()
        config = dimm.timed_controller_config(True)
        instr_memo.store(config, descriptor, MemoryController(DDR4_3200).stats)
        monkeypatch.setenv(REFERENCE_ENV_VAR, "1")
        assert instr_memo.lookup(config, descriptor) is None
        assert instr_memo.misses == 0  # disabled lookups do not count

    def test_lru_on_hit(self, instr_memo):
        memo = InstructionMemo(max_entries=2)
        config = MemoryController(DDR4_3200).snapshot_config()
        stats = MemoryController(DDR4_3200).stats
        descriptors = [_described_reduce(count=c)[2] for c in (10, 20, 30)]
        memo.store(config, descriptors[0], stats)
        memo.store(config, descriptors[1], stats)
        assert memo.lookup(config, descriptors[0]) is not None
        memo.store(config, descriptors[2], stats)
        assert memo.lookup(config, descriptors[1]) is None
        assert memo.lookup(config, descriptors[0]) is not None

    def test_layers_are_independent(self, instr_memo, timing_memo):
        """A miss populates both levels; clearing one leaves the other."""
        dimm, instr, descriptor = _described_reduce()
        dimm.execute_timed(instr)
        assert len(instr_memo) == 1 and len(timing_memo) == 1
        timing_memo.clear()
        second = dimm.execute_timed(instr)  # served at the instruction level
        assert instr_memo.hits == 1
        assert timing_memo.hits == 0 and timing_memo.misses == 0
        assert second.dram_stats.accesses == 900


class TestDescriptorReplay:
    def test_replay_descriptor_matches_trace_replay(self, instr_memo):
        dimm, instr, descriptor = _described_reduce(count=400)
        config = dimm.timed_controller_config(True)
        mc = config.build()
        mc.enqueue_batch(descriptor.share(0, 1))
        golden = mc.run_to_completion()
        assert drain(config, descriptor=descriptor) == golden
        assert drain(config, descriptor=descriptor) == golden  # memo hit
        assert instr_memo.hits == 1

    def test_broadcast_batch_parallel_ships_descriptors(
        self, instr_memo, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PARALLEL_MIN_RECORDS", "0")
        node = TensorNode(num_dimms=4, capacity_words_per_dimm=1 << 14)
        instr = reduce(0, 4 * 1024, 4 * 2048, 300)
        parallel = node.broadcast_timed_batch(
            [instr], simulate_dimms=None, jobs=2
        )[0]
        # All four DIMMs share one descriptor: one IPC round trip, and the
        # collection stored it at the instruction level.
        assert len(instr_memo) == 1
        instr_memo.clear()
        sequential = TensorNode(
            num_dimms=4, capacity_words_per_dimm=1 << 14
        ).broadcast_timed_batch([instr], simulate_dimms=None, jobs=1)[0]
        assert parallel.dram_per_dimm == sequential.dram_per_dimm
        assert parallel.seconds == sequential.seconds

    def test_second_parallel_batch_is_pure_hits(self, instr_memo, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_MIN_RECORDS", "0")
        node = TensorNode(num_dimms=4, capacity_words_per_dimm=1 << 14)
        instr = reduce(0, 4 * 1024, 4 * 2048, 300)
        first = node.broadcast_timed_batch([instr], simulate_dimms=None, jobs=2)[0]
        constructions = TraceBuffer.constructions
        second = node.broadcast_timed_batch([instr], simulate_dimms=None, jobs=2)[0]
        assert TraceBuffer.constructions == constructions  # zero materialization
        assert second.dram_per_dimm == first.dram_per_dimm


class TestDrainLookupOrder:
    """The hit/miss counters :func:`drain` leaves pin its lookup order:
    instruction memo, then the description's share, then trace memo, then
    a real drain."""

    def test_figure11_cpu_points(self, timing_memo, instr_memo):
        from repro.bench import figure11

        constructions = TraceBuffer.constructions
        figure11.sweep_grid(
            [("CPU", 8, op, 2, 512) for op in figure11.OPS], jobs=1
        )
        # 24 channel drains of 3 distinct keys: within each op every
        # channel's share has the same read stream and the same write
        # stream, so each point builds one share buffer (no whole-system
        # trace) and queues it on all 8 channels; no instruction is
        # described on the conventional system.
        assert TraceBuffer.constructions - constructions == 3
        assert (timing_memo.hits, timing_memo.misses) == (21, 3)
        assert (instr_memo.hits, instr_memo.misses) == (0, 0)

    @pytest.mark.parametrize("jobs,trace_misses", [(1, 11), (2, 9)])
    def test_cycle_runtime_forward_and_combine(
        self, timing_memo, instr_memo, monkeypatch, jobs, trace_misses
    ):
        monkeypatch.setenv("REPRO_PARALLEL_MIN_RECORDS", "0")
        node = TensorNode(num_dimms=4, capacity_words_per_dimm=1 << 16)
        runtime = TensorDimmRuntime(node, timing_mode="cycle", jobs=jobs)
        rng = np.random.default_rng(3)
        tables = [
            runtime.create_table(
                f"t{i}", rng.normal(size=(256, 128)).astype(np.float32)
            )
            for i in range(3)
        ]
        for _ in range(2):
            first_new = len(node.allocator.allocations)
            pooled = [
                runtime.embedding_forward(t, rng.integers(0, 256, (16, 4)))[0]
                for t in tables
            ]
            runtime.combine(pooled)
            for name in reversed(list(node.allocator.allocations)[first_new:]):
                node.allocator.free(name)
        # Batch 1 misses all 8 instructions; batch 2 re-issues the 3
        # AVERAGEs and 2 REDUCEs on the same bases (hits) and 3 GATHERs
        # with new indices (misses).  Each instruction miss consults the
        # trace memo in this process, except that at jobs=2 the first
        # combine's two REDUCEs are drained by the workers.
        assert (instr_memo.hits, instr_memo.misses) == (5, 11)
        assert (timing_memo.hits, timing_memo.misses) == (0, trace_misses)
