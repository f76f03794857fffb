"""Tests for the process-pool execution engine (repro.parallel).

The pool has one client, :func:`repro.bench.figure11.sweep_grid`, which
hands Fig. 11/12 design points to :func:`repro.parallel.parallel_map`;
timed drains always run in-process.  The
engine's contract is *bit-identity*: a timing domain (one drain, a
DramSystem, a TensorNode broadcast) run in a pool worker must produce
exactly the stats it produces in-process, at every worker count and under
both fork and spawn start methods.
"""

import numpy as np
import pytest

from repro import parallel
from repro.bench import figure11
from repro.core.isa import gather, reduce
from repro.core.runtime import TensorDimmRuntime
from repro.core.tensornode import TensorNode
from repro.dram.controller import MemoryController
from repro.dram.memo import drain
from repro.dram.system import DramSystem
from repro.dram.timing import DDR4_3200
from repro.dram.trace import average_traffic, gather_traffic, reduce_traffic


BAD_JOBS = pytest.mark.parametrize("jobs", [-1, -4, True, False, 2.0, "2"])


class TestResolveJobs:
    def test_default_is_sequential(self, monkeypatch):
        # The environment has no say: ``jobs=`` is the only way to ask.
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert parallel.resolve_jobs() == 1

    def test_explicit_wins(self):
        assert parallel.resolve_jobs(3) == 3

    def test_zero_means_all_cpus(self):
        import os

        assert parallel.resolve_jobs(0) == (os.cpu_count() or 1)

    @BAD_JOBS
    def test_bad_value_names_jobs(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            parallel.resolve_jobs(jobs)

    @BAD_JOBS
    def test_sweep_refuses_bad_value_before_running(self, jobs):
        # Even a one-point sweep, which never starts a pool, checks it.
        with pytest.raises(ValueError, match="jobs"):
            figure11.sweep_grid([("CPU", 8, "GATHER", 2, 512)], jobs=jobs)


def _drain_task(task):
    """Drain one ``(config, traffic, channel, channels)`` task."""
    return drain(*task)


class TestReplayTraces:
    def _tasks(self, channels=3, rows=250):
        """Every channel's share of a CPU GATHER whose 5-word rows give
        each channel a share of its own."""
        config = MemoryController(DDR4_3200).snapshot_config()
        rng = np.random.default_rng(channels)
        traffic = gather_traffic(0, 5, rng.integers(0, 4000, rows), 1 << 24)
        keys = {traffic.share_key(c, channels) for c in range(channels)}
        assert len(keys) == channels  # no two tasks have one drain
        return [(config, traffic, c, channels) for c in range(channels)]

    def test_inprocess_matches_pool(self):
        tasks = self._tasks()
        sequential = [drain(*task) for task in tasks]
        assert parallel.parallel_map(_drain_task, tasks, jobs=2) == sequential

    def test_spawn_start_method_matches(self):
        # A spawned worker shares no memory with this process: each point
        # carries everything it needs (a CPU point and a TensorNode point).
        points = [("CPU", 8, "GATHER", 2, 512), ("TensorNode", 4, "REDUCE", 2, 512)]
        sequential = figure11.sweep_grid(points, jobs=1)
        spawned = parallel.parallel_map(
            figure11._sweep_point, points, jobs=2, start_method="spawn"
        )
        assert spawned == list(sequential.values())

    def test_results_in_task_order(self):
        # Drains with very different load finish at different times; the
        # merge must still be in submission order.
        config = MemoryController(DDR4_3200).snapshot_config()
        tasks = [(config, average_traffic(0, 1, 1 << 20, n), 0, 1) for n in (1000, 25, 450)]
        stats = parallel.parallel_map(_drain_task, tasks, jobs=3)
        assert [s.accesses for s in stats] == [2000, 50, 900]


def _system_run(words, channels=4):
    """A REDUCE whose unaligned bases give every channel a share of its own."""
    system = DramSystem(channels=channels, refresh_enabled=False)
    system.enqueue_traffic(reduce_traffic(64, 64 + words * 64, 64 + 2 * words * 64, words))
    return system.run()


class TestDramSystemParallel:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_bit_identical_system_stats(self, jobs):
        sizes = [2000, 1200]
        pooled = parallel.parallel_map(_system_run, sizes, jobs=jobs)
        for words, result in zip(sizes, pooled):
            reference = _system_run(words)
            assert result.channel_stats == reference.channel_stats
            assert result.total_bytes == reference.total_bytes
            assert result.elapsed_seconds == reference.elapsed_seconds


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


def _node_broadcast(dimms):
    """A seeded GATHER on every DIMM: its stats and the gathered tensor."""
    node, instr, out = _seeded_node(dimms)
    stats = node.broadcast_timed(instr, simulate_dimms=None)
    return stats, node.read_tensor(out)


def _chain(_):
    """A GATHER -> REDUCE chain where instruction order matters: its stats,
    the output tensor and the node's instruction count."""
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
    results = node.broadcast_timed_batch(instrs, simulate_dimms=None)
    return results, node.read_tensor(out), node.instructions_executed


class TestTensorNodeParallel:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_broadcast_timed_bit_identical(self, jobs):
        pooled = parallel.parallel_map(_node_broadcast, [4, 2], jobs=jobs)
        for dimms, (result, tensor) in zip([4, 2], pooled):
            reference, want = _node_broadcast(dimms)
            assert result.per_dimm == reference.per_dimm
            assert result.dram_per_dimm == reference.dram_per_dimm
            assert result.seconds == reference.seconds
            # Functional state (the gathered tensor) must match too.
            assert np.array_equal(tensor, want)

    def test_dram_stats_surfaced_on_both_paths(self):
        here = [_node_broadcast(2)[0]]
        pooled = [stats for stats, _ in parallel.parallel_map(_node_broadcast, [2, 2], jobs=2)]
        for stats in here + pooled:
            assert len(stats.dram_per_dimm) == 2
            assert all(s.accesses > 0 for s in stats.dram_per_dimm)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_chain_deterministic(self, jobs):
        reference, out_ref, executed = _chain(None)
        for result, out, count in parallel.parallel_map(_chain, [0, 1], jobs=jobs):
            assert len(result) == len(reference) == 2
            for got, want in zip(result, reference):
                assert got.per_dimm == want.per_dimm
                assert got.dram_per_dimm == want.dram_per_dimm
                assert got.seconds == want.seconds
            assert np.array_equal(out, out_ref)
            assert count == executed

    def test_runtime_cycle_mode_threads_jobs(self):
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

        # Drains run in-process, so ``jobs`` takes only the values that say so.
        assert total(1) == total(None)
        with pytest.raises(ValueError, match="jobs"):
            total(2)


class TestExplicitSequentialWins:
    """Timed drains stay in-process: they never reach the pool."""

    @pytest.fixture
    def no_pool(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("process pool used by a timed drain")

        monkeypatch.setattr(parallel, "get_executor", boom)

    def test_dram_system(self, no_pool):
        system = DramSystem(channels=2, refresh_enabled=False)
        system.enqueue_traffic(average_traffic(0, 1, 1 << 22, 200))
        assert system.run().total_bytes == 400 * 64

    def test_broadcast_timed_batch(self, no_pool):
        node, instr, _ = _seeded_node(dimms=2)
        results = node.broadcast_timed_batch([instr], simulate_dimms=None)
        assert len(results) == 1 and results[0].seconds > 0


def _system_drains(direct=False):
    """Per-channel stats of a 2-channel system holding a description with
    two distinct tiny shares (602 and 600 records), drained by ``run``;
    with ``direct``, the same tasks drained directly by ``memo.drain``."""
    system = DramSystem(channels=2, refresh_enabled=False)
    traffic = average_traffic(0, 1, 1 << 22, 601)
    if direct:
        return [drain(system.config, traffic, channel, 2) for channel in range(2)]
    system.enqueue_traffic(traffic)
    return system.run().channel_stats


def _node_drains(direct=False):
    """Per-(instruction, DIMM) stats of two tiny REDUCEs on 2 DIMMs, drained
    by ``broadcast_timed_batch``; with ``direct``, directly by
    ``memo.drain``."""
    node = TensorNode(num_dimms=2, capacity_words_per_dimm=1 << 14)
    instrs = [reduce(0, 2 * 1024, 2 * 2048, n) for n in (300, 200)]
    if direct:
        return [
            drain(d.timed_controller_config(), d.nmp.describe(i))
            for i in instrs
            for d in node.dimms
        ]
    results = node.broadcast_timed_batch(instrs, simulate_dimms=None)
    return [s for r in results for s in r.dram_per_dimm]


def _call(caller):
    return caller()


CALLERS = pytest.mark.parametrize(
    "caller", [_system_drains, _node_drains], ids=["system", "node"]
)


class TestOneRoutingRule:
    """``DramSystem.run`` and ``TensorNode.broadcast_timed_batch`` drain
    through one rule: :func:`~repro.dram.memo.drain`, in-process."""

    @CALLERS
    @pytest.mark.parametrize("env_jobs", ["1", "2"], ids=["jobs1", "jobs2"])
    def test_in_process_starts_no_pool(self, caller, env_jobs, monkeypatch):
        # A leftover REPRO_JOBS (no longer read) must not start a pool.
        parallel.shutdown()
        monkeypatch.setenv("REPRO_JOBS", env_jobs)
        assert caller() == caller(direct=True)
        assert parallel._EXECUTORS == {}

    @CALLERS
    def test_pooled_is_bit_identical(self, caller):
        # Run on the sweep pool, as a design point is, the caller drains
        # exactly what it drains here.
        parallel.shutdown()
        pooled = parallel.parallel_map(_call, [caller, caller], jobs=2)
        assert parallel._EXECUTORS  # the points really ran in workers
        assert pooled == [caller()] * 2

    @pytest.mark.parametrize(
        "caller,expected",
        [(_system_drains, (0, 2, 2)), (_node_drains, (2, 2, 2))],
        ids=["system", "node"],
    )
    def test_one_memo_counts_every_drain(self, caller, expected, timing_memo):
        """(hits, misses, entries) of the one memo: the two channels have
        shares of their own; each instruction misses on its first DIMM and
        hits on the second, whose description has the same key."""
        caller()
        assert (timing_memo.hits, timing_memo.misses, len(timing_memo)) == expected


def _rng_point(seed):
    """Sweep point whose result depends only on the seed handed over."""
    rng = np.random.default_rng(seed)
    return float(rng.normal(size=100).sum())


class TestParallelMap:
    def test_seeded_rng_handed_to_workers(self):
        seeds = list(range(8))
        sequential = parallel.parallel_map(_rng_point, seeds, jobs=1)
        pooled = parallel.parallel_map(_rng_point, seeds, jobs=3)
        assert pooled == sequential

    def test_single_item_stays_inprocess(self):
        assert parallel.parallel_map(_rng_point, [7], jobs=4) == [_rng_point(7)]

    @BAD_JOBS
    def test_bad_jobs_refused(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            parallel.parallel_map(_rng_point, [7], jobs=jobs)
