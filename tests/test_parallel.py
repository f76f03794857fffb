"""Tests for the process-pool execution engine (repro.parallel).

The engine's contract is *bit-identity*: fanning independent timing
domains (channels, DIMMs, sweep points) out across worker processes must
produce exactly the stats the sequential path produces, at every worker
count and under both fork and spawn start methods.
"""

import numpy as np
import pytest

from repro import parallel
from repro.core.isa import gather, reduce
from repro.core.runtime import TensorDimmRuntime
from repro.core.tensornode import TensorNode
from repro.dram.controller import MemoryController
from repro.dram.memo import drain
from repro.dram.system import DramSystem
from repro.dram.timing import DDR4_3200
from repro.dram.trace import average_traffic, gather_traffic, reduce_traffic
from repro.models.model_zoo import YOUTUBE
from repro.service import ServicePolicy, compare_designs
from repro.service.simulator import _GrowArray


@pytest.fixture
def force_pool(monkeypatch):
    """Disable the tiny-trace fallback so small test traces hit the pool."""
    monkeypatch.setattr("repro.parallel.MIN_TASK_RECORDS", 0)


class TestResolveJobs:
    def test_default_is_sequential(self, monkeypatch):
        monkeypatch.delenv(parallel.JOBS_ENV_VAR, raising=False)
        assert parallel.resolve_jobs() == 1

    def test_explicit_wins(self):
        assert parallel.resolve_jobs(3) == 3

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv(parallel.JOBS_ENV_VAR, "5")
        assert parallel.resolve_jobs() == 5

    def test_zero_means_all_cpus(self):
        import os

        assert parallel.resolve_jobs(0) == (os.cpu_count() or 1)

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv(parallel.JOBS_ENV_VAR, "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            parallel.resolve_jobs()

    def test_workers_never_nest(self, monkeypatch):
        monkeypatch.setenv(parallel._WORKER_ENV_VAR, "1")
        assert parallel.resolve_jobs(8) == 1


def _pooled(tasks, jobs, start_method=None):
    """Drain ``(config, traffic, channel, channels)`` tasks through a
    :class:`DrainBatch`."""
    batch = parallel.DrainBatch(jobs, start_method)
    for task in tasks:
        batch.submit(*task)
    return batch.results()


@pytest.mark.usefixtures("force_pool")
class TestReplayTraces:
    def _tasks(self, channels=3, rows=250):
        """Every channel's share of a CPU GATHER whose 5-word rows give
        each channel a share of its own."""
        config = MemoryController(DDR4_3200).snapshot_config()
        rng = np.random.default_rng(channels)
        traffic = gather_traffic(0, 5, rng.integers(0, 4000, rows), 1 << 24)
        keys = {traffic.share_key(c, channels) for c in range(channels)}
        assert len(keys) == channels  # nothing shares a worker call
        return [(config, traffic, c, channels) for c in range(channels)]

    def test_inprocess_matches_pool(self):
        tasks = self._tasks()
        sequential = [drain(*task) for task in tasks]
        assert _pooled(tasks, jobs=2) == sequential

    def test_spawn_start_method_matches(self):
        # A CPU channel ships as its description; the spawned worker, which
        # shares no memory with this process, builds the share itself.
        tasks = self._tasks(channels=2, rows=160)
        sequential = [drain(*task) for task in tasks]
        assert _pooled(tasks, jobs=2, start_method="spawn") == sequential

    def test_results_in_task_order(self):
        # Drains with very different load finish at different times; the
        # merge must still be in submission order.
        config = MemoryController(DDR4_3200).snapshot_config()
        tasks = [(config, average_traffic(0, 1, 1 << 20, n), 0, 1) for n in (1000, 25, 450)]
        stats = _pooled(tasks, jobs=3)
        assert [s.accesses for s in stats] == [2000, 50, 900]


class TestDramSystemParallel:
    def _run(self, jobs, channels=4, words=2000):
        # Unaligned bases give every channel a share of its own.
        system = DramSystem(channels=channels, refresh_enabled=False)
        system.enqueue_traffic(
            reduce_traffic(64, 64 + words * 64, 64 + 2 * words * 64, words)
        )
        return system.run(jobs=jobs)

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_bit_identical_system_stats(self, force_pool, jobs):
        reference = self._run(1)
        result = self._run(jobs)
        assert result.channel_stats == reference.channel_stats
        assert result.total_bytes == reference.total_bytes
        assert result.elapsed_seconds == reference.elapsed_seconds

    def test_tiny_trace_falls_back_inprocess(self):
        # Default threshold: a 600-record description never reaches the
        # pool, and the result is still correct.
        reference = self._run(1, words=200)
        result = self._run(4, words=200)
        assert result.channel_stats == reference.channel_stats

    def test_warm_second_run_matches_sequential(self, force_pool):
        """A second run continues from the first run's state; the pool
        must not replace that with a fresh drain of the new backlog."""

        def warm(jobs):
            system = DramSystem(channels=2)
            for _ in range(2):
                system.enqueue_traffic(average_traffic(0, 1, 1 << 22, 1500))
                result = system.run(jobs=jobs)
            return result

        sequential = warm(1)
        pooled = warm(2)
        assert [s.accesses for s in sequential.channel_stats] == [3000, 3000]
        assert pooled.channel_stats == sequential.channel_stats
        assert pooled.elapsed_seconds == sequential.elapsed_seconds

    def test_controllers_drained_after_parallel_run(self, force_pool):
        system = DramSystem(channels=2, refresh_enabled=False)
        system.enqueue_traffic(average_traffic(0, 1, 1 << 22, 1000))
        stats = system.run(jobs=2)
        for controller, channel in zip(system.controllers, stats.channel_stats):
            assert controller.pending == 0
            assert controller.stats == channel
            assert controller.elapsed_seconds() > 0


def _seeded_node(dimms=4):
    node = TensorNode(num_dimms=dimms, capacity_words_per_dimm=1 << 16)
    rng = np.random.default_rng(42)
    table = node.alloc_tensor("table", 1024, dimms * 2 * 16)
    node.write_tensor(
        table, rng.normal(size=(1024, table.embedding_dim)).astype(np.float32)
    )
    idx = rng.integers(0, 1024, 400).astype(np.int32)
    alloc = node.alloc_indices("idx", idx.size)
    node.write_indices(alloc, idx)
    out = node.alloc_tensor("out", idx.size, table.embedding_dim)
    instr = gather(
        table.base_word, alloc.base_word, out.base_word, idx.size,
        table.words_per_slice,
    )
    return node, instr, out


class TestTensorNodeParallel:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_broadcast_timed_bit_identical(self, force_pool, jobs):
        node_a, instr_a, out_a = _seeded_node()
        node_b, instr_b, out_b = _seeded_node()
        reference = node_a.broadcast_timed(instr_a, simulate_dimms=None, jobs=1)
        result = node_b.broadcast_timed(instr_b, simulate_dimms=None, jobs=jobs)
        assert result.per_dimm == reference.per_dimm
        assert result.dram_per_dimm == reference.dram_per_dimm
        assert result.seconds == reference.seconds
        # Functional state (the gathered tensor) must match too.
        assert np.array_equal(node_a.read_tensor(out_a), node_b.read_tensor(out_b))

    def test_dram_stats_surfaced_on_both_paths(self, force_pool):
        node, instr, _ = _seeded_node(dimms=2)
        stats = node.broadcast_timed(instr, simulate_dimms=None, jobs=2)
        assert len(stats.dram_per_dimm) == 2
        assert all(s.accesses > 0 for s in stats.dram_per_dimm)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_chain_deterministic(self, force_pool, jobs):
        """A GATHER -> REDUCE chain where instruction order matters."""
        def build():
            node = TensorNode(num_dimms=2, capacity_words_per_dimm=1 << 16)
            a = node.alloc_tensor("a", 256, 64)
            b = node.alloc_tensor("b", 256, 64)
            out = node.alloc_tensor("out", 256, 64)
            rng = np.random.default_rng(9)
            node.write_tensor(a, rng.normal(size=(256, 64)).astype(np.float32))
            node.write_tensor(b, rng.normal(size=(256, 64)).astype(np.float32))
            instrs = [
                reduce(a.base_word, b.base_word, out.base_word, a.words_per_dimm),
                reduce(out.base_word, b.base_word, out.base_word, a.words_per_dimm),
            ]
            return node, instrs, out

        node_ref, instrs_ref, out_ref = build()
        reference = node_ref.broadcast_timed_batch(instrs_ref, simulate_dimms=None)
        node_par, instrs_par, out_par = build()
        result = node_par.broadcast_timed_batch(
            instrs_par, simulate_dimms=None, jobs=jobs
        )
        assert len(result) == len(reference) == 2
        for got, want in zip(result, reference):
            assert got.per_dimm == want.per_dimm
            assert got.dram_per_dimm == want.dram_per_dimm
            assert got.seconds == want.seconds
        assert np.array_equal(
            node_ref.read_tensor(out_ref), node_par.read_tensor(out_par)
        )
        assert node_par.instructions_executed == node_ref.instructions_executed

    def test_runtime_cycle_mode_threads_jobs(self, force_pool):
        def total(jobs):
            node = TensorNode(num_dimms=2, capacity_words_per_dimm=1 << 16)
            runtime = TensorDimmRuntime(node, timing_mode="cycle", jobs=jobs)
            rng = np.random.default_rng(5)
            table = runtime.create_table(
                "t", rng.normal(size=(512, 32)).astype(np.float32)
            )
            _, launches = runtime.embedding_forward(
                table, rng.integers(0, 512, size=(16, 4)).astype(np.int32)
            )
            return sum(l.seconds for l in launches)

        assert total(2) == total(1)


class TestExplicitSequentialWins:
    """An explicit jobs=1 must stay in-process even when REPRO_JOBS is set."""

    @pytest.fixture
    def no_pool(self, monkeypatch):
        monkeypatch.setenv(parallel.JOBS_ENV_VAR, "4")
        monkeypatch.setattr("repro.parallel.MIN_TASK_RECORDS", 0)

        def boom(*args, **kwargs):
            raise AssertionError("process pool used despite explicit jobs=1")

        monkeypatch.setattr(parallel, "get_executor", boom)

    def test_dram_system(self, no_pool):
        system = DramSystem(channels=2, refresh_enabled=False)
        system.enqueue_traffic(average_traffic(0, 1, 1 << 22, 200))
        assert system.run(jobs=1).total_bytes == 400 * 64

    def test_broadcast_timed_batch(self, no_pool):
        node, instr, _ = _seeded_node(dimms=2)
        results = node.broadcast_timed_batch([instr], simulate_dimms=None, jobs=1)
        assert len(results) == 1 and results[0].seconds > 0


def _system_drains(jobs):
    """Per-channel stats of a 2-channel system holding a description with
    two distinct tiny shares (602 and 600 records), drained by
    ``run(jobs)``; with ``jobs=None``, the same tasks drained directly by
    ``memo.drain``."""
    system = DramSystem(channels=2, refresh_enabled=False)
    traffic = average_traffic(0, 1, 1 << 22, 601)
    if jobs is None:
        return [
            drain(c.snapshot_config(), traffic, channel, 2)
            for channel, c in enumerate(system.controllers)
        ]
    system.enqueue_traffic(traffic)
    return system.run(jobs=jobs).channel_stats


def _node_drains(jobs):
    """Per-(instruction, DIMM) stats of two tiny REDUCEs on 2 DIMMs, drained
    by ``broadcast_timed_batch(jobs)``; with ``jobs=None``, directly by
    ``memo.drain``."""
    node = TensorNode(num_dimms=2, capacity_words_per_dimm=1 << 14)
    instrs = [reduce(0, 2 * 1024, 2 * 2048, n) for n in (300, 200)]
    if jobs is None:
        return [
            drain(d.timed_controller_config(), d.nmp.describe(i))
            for i in instrs
            for d in node.dimms
        ]
    results = node.broadcast_timed_batch(instrs, simulate_dimms=None, jobs=jobs)
    return [s for r in results for s in r.dram_per_dimm]


CALLERS = pytest.mark.parametrize(
    "caller", [_system_drains, _node_drains], ids=["system", "node"]
)


class TestOneRoutingRule:
    """``DramSystem.run`` and ``TensorNode.broadcast_timed_batch`` drain
    through one :class:`~repro.parallel.DrainBatch` rule: in-process at
    ``jobs=1`` or below ``MIN_TASK_RECORDS``, otherwise on the pool."""

    @CALLERS
    @pytest.mark.parametrize("jobs", [1, 2], ids=["jobs1", "below-threshold"])
    def test_in_process_starts_no_pool(self, caller, jobs):
        parallel.shutdown()
        assert caller(jobs) == caller(None)
        assert parallel._EXECUTORS == {}

    @CALLERS
    def test_pooled_is_bit_identical(self, caller, force_pool):
        parallel.shutdown()
        pooled = caller(2)
        assert parallel._EXECUTORS  # the tasks really shipped
        assert pooled == caller(1)

    @pytest.mark.parametrize(
        "caller,expected",
        [(_system_drains, (0, 2, 2)), (_node_drains, (2, 2, 2))],
        ids=["system", "node"],
    )
    def test_one_memo_counts_every_drain(self, caller, expected, timing_memo):
        """(hits, misses, entries) of the one memo: the two channels have
        shares of their own; each instruction misses on its first DIMM and
        hits on the second, whose description has the same key."""
        caller(1)
        assert (timing_memo.hits, timing_memo.misses, len(timing_memo)) == expected


class TestEnvDefaultHonoured:
    def test_evaluate_all_routes_through_pool(self, monkeypatch):
        from repro.system.design_points import evaluate_all

        sequential = evaluate_all(YOUTUBE, 32, jobs=1)
        calls = []
        real = parallel.get_executor

        def spy(jobs, start_method=None):
            calls.append(jobs)
            return real(jobs, start_method)

        monkeypatch.setattr(parallel, "get_executor", spy)
        monkeypatch.setenv(parallel.JOBS_ENV_VAR, "2")
        pooled = evaluate_all(YOUTUBE, 32)
        assert calls == [2]
        assert pooled == sequential


def _rng_point(seed):
    """Sweep point whose result depends only on the seed handed over."""
    rng = np.random.default_rng(seed)
    return float(rng.normal(size=100).sum())


class TestParallelMap:
    def test_seeded_rng_handed_to_workers(self, force_pool):
        seeds = list(range(8))
        sequential = parallel.parallel_map(_rng_point, seeds, jobs=1)
        pooled = parallel.parallel_map(_rng_point, seeds, jobs=3)
        assert pooled == sequential

    def test_single_item_stays_inprocess(self):
        assert parallel.parallel_map(_rng_point, [7], jobs=4) == [_rng_point(7)]


class TestServiceParallel:
    def test_compare_designs_bit_identical(self):
        kwargs = dict(
            arrival_rate=4000,
            duration=0.02,
            designs=("CPU-GPU", "TDIMM"),
            policy=ServicePolicy(max_batch=16),
            seed=3,
        )
        reference = compare_designs(YOUTUBE, **kwargs, jobs=1)
        pooled = compare_designs(YOUTUBE, **kwargs, jobs=2)
        for design in kwargs["designs"]:
            a, b = reference[design], pooled[design]
            assert np.array_equal(a.request_latencies, b.request_latencies)
            assert np.array_equal(a.batch_sizes, b.batch_sizes)
            assert a.busy_seconds == b.busy_seconds
            assert a.span_seconds == b.span_seconds


class TestGrowArray:
    def test_grows_past_chunk_boundary(self):
        buf = _GrowArray(np.float64)
        for i in range(20000):
            buf.append(float(i))
        assert buf.size == 20000
        assert buf.view()[19999] == 19999.0

    def test_extend_bulk(self):
        buf = _GrowArray(np.int64)
        buf.extend(np.arange(10000))
        buf.extend(np.arange(5))
        assert buf.size == 10005
        assert list(buf.view()[-5:]) == [0, 1, 2, 3, 4]

    def test_view_is_read_only(self):
        buf = _GrowArray(np.float64)
        buf.append(1.0)
        view = buf.view()
        with pytest.raises(ValueError):
            view[0] = 2.0

    def test_service_stats_properties_read_as_sequences(self):
        from repro.service import InferenceService

        stats = InferenceService(YOUTUBE, "TDIMM").simulate(
            2000, duration=0.02, seed=1
        )
        assert len(stats.request_latencies) == stats.requests
        assert min(stats.request_latencies) > 0
        assert max(stats.batch_sizes) >= 1
        assert stats.p50 <= stats.p99
