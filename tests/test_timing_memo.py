"""Tests for the cross-layer timing memo.

One LRU store keyed by ``(ControllerConfig, traffic.share_key(channel,
channels))`` (see :mod:`repro.dram.memo`), for DramSystem channel shares
and NMP instructions (the one-channel case) alike.  Correctness rests on
equal share keys meaning byte-identical shares
(``tests/test_system_traffic.py``) and on the drain being a pure function
of the config and the share (the parity, determinism, and description
suites pin the purity); these tests pin the cache mechanics: keying, copy
semantics, LRU eviction, reference mode, the lookup order of
:func:`~repro.dram.memo.drain`, and every consumer (TensorDimm,
TensorNode, DramSystem).

The suite-wide autouse fixture replaces the memo with a null memo; tests
here opt back in through the ``timing_memo`` fixture.
"""

import numpy as np
import pytest

from repro.core.isa import gather, reduce
from repro.core.runtime import TensorDimmRuntime
from repro.core.tensordimm import TensorDimm
from repro.core.tensornode import TensorNode
from repro.dram import memo
from repro.dram.command import TraceBuffer
from repro.dram.controller import MemoryController
from repro.dram.memo import TimingMemo, drain
from repro.dram.system import DramSystem
from repro.dram.timing import DDR4_3200
from repro.dram.trace import average_traffic, gather_traffic
from repro.env import REFERENCE_ENV_VAR


def _traffic(n=600, seed=3):
    """A CPU GATHER of ``n`` random one-word rows."""
    rng = np.random.default_rng(seed)
    return gather_traffic(0, 1, rng.integers(0, 1 << 12, size=n), 1 << 22)


def _key(seed=3, channel=0, channels=8):
    return _traffic(seed=seed).share_key(channel, channels)


def _config():
    return MemoryController(DDR4_3200).snapshot_config()


class TestTimingMemoMechanics:
    def test_hit_returns_equal_but_fresh_copy(self, timing_memo):
        config = _config()
        traffic = _traffic()
        mc = MemoryController(DDR4_3200)
        mc.enqueue_batch(traffic.share(0, 8))
        stats = mc.run_to_completion()
        timing_memo.store(config, traffic.share_key(0, 8), stats)
        hit = timing_memo.lookup(config, traffic.share_key(0, 8))
        assert hit == stats
        assert hit is not stats
        assert timing_memo.lookup(config, traffic.share_key(0, 8)) is not hit  # fresh per hit

    def test_counters_and_stats(self, timing_memo):
        config = _config()
        assert timing_memo.lookup(config, _key()) is None
        timing_memo.store(config, _key(), MemoryController(DDR4_3200).stats)
        timing_memo.lookup(config, _key())
        report = timing_memo.stats()
        assert report["hits"] == 1 and report["misses"] == 1
        assert report["hit_rate"] == 0.5
        assert report["entries"] == 1

    def test_config_is_part_of_key(self, timing_memo):
        open_cfg = MemoryController(DDR4_3200).snapshot_config()
        closed_cfg = MemoryController(DDR4_3200, row_policy="closed").snapshot_config()
        timing_memo.store(open_cfg, _key(), MemoryController(DDR4_3200).stats)
        assert timing_memo.lookup(closed_cfg, _key()) is None

    def test_kill_switch(self, timing_memo, monkeypatch):
        config = _config()
        timing_memo.store(config, _key(), MemoryController(DDR4_3200).stats)
        monkeypatch.setenv(REFERENCE_ENV_VAR, "1")
        assert timing_memo.lookup(config, _key()) is None
        assert timing_memo.misses == 0  # disabled lookups do not count

    @pytest.mark.parametrize("max_entries", [0, -1, 1.5, True, "3"])
    def test_capacity_must_be_a_positive_integer(self, max_entries):
        with pytest.raises(ValueError, match="max_entries"):
            TimingMemo(max_entries=max_entries)

    def test_lru_eviction_prefers_stale_entries(self, timing_memo):
        cache = TimingMemo(max_entries=2)
        config = _config()
        stats = MemoryController(DDR4_3200).stats
        keys = [_key(seed=s) for s in range(3)]
        cache.store(config, keys[0], stats)
        cache.store(config, keys[1], stats)
        assert cache.lookup(config, keys[0]) is not None  # refresh recency
        cache.store(config, keys[2], stats)  # evicts key 1, not key 0
        assert len(cache) == 2
        assert cache.lookup(config, keys[1]) is None
        assert cache.lookup(config, keys[0]) is not None
        assert cache.evictions == 1


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
    @staticmethod
    def _loaded_system():
        # 1,000 reads and 1,000 writes on even word boundaries: both
        # channels' shares have one key.
        system = DramSystem(channels=2)
        system.enqueue_traffic(average_traffic(0, 1, 1 << 22, 1000))
        return system

    def test_second_run_served_from_cache(self, timing_memo):
        golden = self._loaded_system().run()
        # Both channels' shares have one key, so the second channel already
        # hits the entry the first one stored.
        assert timing_memo.hits == 1 and timing_memo.misses == 1
        system = self._loaded_system()
        constructions = TraceBuffer.constructions
        again = system.run()
        assert timing_memo.hits == 3  # both channels served from cache
        assert TraceBuffer.constructions == constructions  # no share was built
        assert again.channel_stats == golden.channel_stats
        assert again.elapsed_seconds == golden.elapsed_seconds


class TestParallelIntegration:
    def test_broadcast_timed_batch_dedups_identical_dimm_traces(self, timing_memo):
        # The rank-interleaved layout gives all four DIMMs one description:
        # the first drains it and the other three are memo hits.
        node = TensorNode(num_dimms=4, capacity_words_per_dimm=1 << 14)
        instr = reduce(0, 4 * 1024, 4 * 2048, 300)
        deduped = node.broadcast_timed_batch([instr], simulate_dimms=None)[0]
        assert (timing_memo.hits, timing_memo.misses, len(timing_memo)) == (3, 1, 1)
        # Every DIMM's own description, drained outside the memo.
        golden = []
        for dimm in TensorNode(num_dimms=4, capacity_words_per_dimm=1 << 14).dimms:
            controller = dimm.timed_controller_config().build()
            controller.enqueue_batch(dimm.nmp.describe(instr).share(0, 1))
            golden.append(controller.run_to_completion())
        assert deduped.dram_per_dimm == golden


class TestWarmControllerSoundness:
    """A system run is a pure function of its description: a second run on
    the same system drains afresh, so the memo may serve it, and it stores
    nothing but that one drain."""

    @staticmethod
    def _traffic():
        # 500 reads and 500 writes: 500 records a channel, one key.
        return average_traffic(0, 1, 1 << 22, 500)

    def test_second_run_on_same_system_not_served_stale(self, timing_memo):
        system = DramSystem(channels=2)
        system.enqueue_traffic(self._traffic())
        system.run()
        system.enqueue_traffic(self._traffic())
        served = system.run()
        assert (timing_memo.hits, timing_memo.misses) == (3, 1)
        # Each channel's share drained on a fresh controller, outside the memo.
        for channel, stats in enumerate(served.channel_stats):
            controller = system.config.build()
            controller.enqueue_batch(self._traffic().share(channel, 2))
            assert stats == controller.run_to_completion()

    def test_warm_drain_does_not_poison_cache(self, timing_memo):
        warm = DramSystem(channels=2)
        warm.enqueue_traffic(self._traffic())
        warm.run()
        warm.enqueue_traffic(self._traffic())
        warm.run()  # must not store anything but one channel's drain
        fresh = DramSystem(channels=2)
        fresh.enqueue_traffic(self._traffic())
        result = fresh.run()
        assert all(s.accesses == 500 for s in result.channel_stats)

    def test_warm_run_does_not_depend_on_memo_hits(self, timing_memo):
        def warm_second_run():
            system = DramSystem(channels=2)
            for _ in range(2):
                system.enqueue_traffic(self._traffic())
                result = system.run()
            return result

        # The first system drains channel 0 for real and answers the rest
        # from the memo; the second system answers every channel from it.
        first = warm_second_run()
        assert timing_memo.misses == 1
        second = warm_second_run()
        assert timing_memo.misses == 1
        assert second.channel_stats == first.channel_stats


def _described_reduce(count=300, dimms=2):
    dimm = TensorDimm(0, dimms, capacity_words=1 << 14)
    instr = reduce(0, dimms * 2048, dimms * 4096, count)
    return dimm, instr, dimm.nmp.describe(instr)


class TestInstructionMemoMechanics:
    """An NMP instruction is keyed as the one-channel share of its
    description, ``(OpTraffic.key, 0, 1)``."""

    @staticmethod
    def _key(descriptor):
        key = descriptor.share_key(0, 1)
        assert key == (descriptor.key, 0, 1)
        return key

    def test_hit_returns_equal_but_fresh_copy(self, timing_memo):
        dimm, instr, descriptor = _described_reduce()
        config = dimm.timed_controller_config(True)
        stats = MemoryController(DDR4_3200).stats
        timing_memo.store(config, self._key(descriptor), stats)
        hit = timing_memo.lookup(config, self._key(descriptor))
        assert hit == stats and hit is not stats
        assert timing_memo.lookup(config, self._key(descriptor)) is not hit

    def test_counters_and_stats(self, timing_memo):
        dimm, instr, descriptor = _described_reduce()
        config = dimm.timed_controller_config(True)
        assert timing_memo.lookup(config, self._key(descriptor)) is None
        timing_memo.store(config, self._key(descriptor), MemoryController(DDR4_3200).stats)
        timing_memo.lookup(config, self._key(descriptor))
        report = timing_memo.stats()
        assert report["hits"] == 1 and report["misses"] == 1
        assert report["entries"] == 1

    def test_config_is_part_of_key(self, timing_memo):
        _, _, descriptor = _described_reduce()
        open_cfg = MemoryController(DDR4_3200).snapshot_config()
        closed_cfg = MemoryController(DDR4_3200, row_policy="closed").snapshot_config()
        timing_memo.store(open_cfg, self._key(descriptor), MemoryController(DDR4_3200).stats)
        assert timing_memo.lookup(closed_cfg, self._key(descriptor)) is None

    def test_kill_switch(self, timing_memo, monkeypatch):
        dimm, instr, descriptor = _described_reduce()
        config = dimm.timed_controller_config(True)
        timing_memo.store(config, self._key(descriptor), MemoryController(DDR4_3200).stats)
        monkeypatch.setenv(REFERENCE_ENV_VAR, "1")
        assert timing_memo.lookup(config, self._key(descriptor)) is None
        assert timing_memo.misses == 0  # disabled lookups do not count

    def test_lru_on_hit(self, timing_memo):
        cache = TimingMemo(max_entries=2)
        config = MemoryController(DDR4_3200).snapshot_config()
        stats = MemoryController(DDR4_3200).stats
        keys = [self._key(_described_reduce(count=c)[2]) for c in (10, 20, 30)]
        cache.store(config, keys[0], stats)
        cache.store(config, keys[1], stats)
        assert cache.lookup(config, keys[0]) is not None
        cache.store(config, keys[2], stats)
        assert cache.lookup(config, keys[1]) is None
        assert cache.lookup(config, keys[0]) is not None


class TestOneStore:
    """Channel shares and instructions share one LRU store and one cap."""

    def test_process_memos_share_one_store(self, timing_memo):
        assert memo.INSTR_MEMO is memo.TIMING_MEMO is timing_memo

    def test_lru_evicts_across_key_kinds(self):
        cache = TimingMemo(max_entries=2)
        config = _config()
        stats = MemoryController(DDR4_3200).stats
        share = _key()
        instrs = [_described_reduce(count=c)[2].share_key(0, 1) for c in (10, 20)]
        cache.store(config, share, stats)
        cache.store(config, instrs[0], stats)
        assert cache.lookup(config, share) is not None  # refresh recency
        cache.store(config, instrs[1], stats)  # evicts instruction 0
        assert cache.lookup(config, instrs[0]) is None
        cache.store(config, instrs[0], stats)  # evicts the share, now LRU
        assert (cache.evictions, len(cache)) == (2, 2)
        assert cache.lookup(config, share) is None


class TestDescriptorReplay:
    def test_replay_descriptor_matches_trace_replay(self, timing_memo):
        dimm, instr, descriptor = _described_reduce(count=400)
        config = dimm.timed_controller_config(True)
        mc = config.build()
        mc.enqueue_batch(descriptor.share(0, 1))
        golden = mc.run_to_completion()
        assert drain(config, descriptor) == golden
        assert drain(config, descriptor) == golden  # memo hit
        assert timing_memo.hits == 1

    def test_broadcast_batch_parallel_ships_descriptors(self, timing_memo):
        node = TensorNode(num_dimms=4, capacity_words_per_dimm=1 << 14)
        instr = reduce(0, 4 * 1024, 4 * 2048, 300)
        first = node.broadcast_timed_batch([instr], simulate_dimms=None)[0]
        # All four DIMMs share one descriptor, stored once.
        assert len(timing_memo) == 1
        timing_memo.clear()
        again = TensorNode(
            num_dimms=4, capacity_words_per_dimm=1 << 14
        ).broadcast_timed_batch([instr], simulate_dimms=None)[0]
        assert first.dram_per_dimm == again.dram_per_dimm
        assert first.seconds == again.seconds

    def test_second_parallel_batch_is_pure_hits(self, timing_memo):
        node = TensorNode(num_dimms=4, capacity_words_per_dimm=1 << 14)
        instr = reduce(0, 4 * 1024, 4 * 2048, 300)
        first = node.broadcast_timed_batch([instr], simulate_dimms=None)[0]
        constructions = TraceBuffer.constructions
        second = node.broadcast_timed_batch([instr], simulate_dimms=None)[0]
        assert TraceBuffer.constructions == constructions  # zero materialization
        assert second.dram_per_dimm == first.dram_per_dimm


class TestDrainLookupOrder:
    """The hit/miss counters of the one memo, and the trace builds and
    real drains behind them, pin :func:`drain`'s order: the memo by the
    share key, then the share, then a real drain."""

    def test_figure11_cpu_points(self, timing_memo):
        from repro.bench import figure11

        constructions = TraceBuffer.constructions
        figure11.sweep_grid(
            [("CPU", 8, op, 2, 512) for op in figure11.OPS], jobs=1
        )
        # 24 channel drains of 3 distinct keys: within each op every
        # channel's share has the same key, so each point builds one share
        # buffer (no whole-system trace) on its first channel's miss, and
        # the other 7 channels hit.
        assert TraceBuffer.constructions - constructions == 3
        assert (timing_memo.hits, timing_memo.misses) == (21, 3)

    @pytest.mark.parametrize("jobs,drained_here", [(1, 11), (None, 11)])
    def test_cycle_runtime_forward_and_combine(
        self, timing_memo, monkeypatch, jobs, drained_here
    ):
        drains = []
        run = MemoryController.run_to_completion

        def spy(controller):
            drains.append(controller)
            return run(controller)

        monkeypatch.setattr(MemoryController, "run_to_completion", spy)
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
        # with new indices (misses).  Every drain runs in this process.
        assert (timing_memo.hits, timing_memo.misses) == (5, 11)
        assert len(drains) == drained_here
