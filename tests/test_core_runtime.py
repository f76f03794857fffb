"""Tests for the TensorDIMM runtime system."""

import numpy as np
import pytest

from repro.core.isa import Opcode, ReduceOp
from repro.core.runtime import TensorDimmRuntime
from repro.core.tensornode import TensorNode


@pytest.fixture
def table_data(rng):
    return rng.standard_normal((200, 128)).astype(np.float32)


class TestTableManagement:
    def test_create_and_read_back(self, runtime, small_node, table_data):
        layout = runtime.create_table("users", table_data)
        np.testing.assert_array_equal(small_node.read_tensor(layout), table_data)

    def test_rejects_non_2d(self, runtime):
        with pytest.raises(ValueError):
            runtime.create_table("bad", np.zeros(10, dtype=np.float32))

    def test_invalid_timing_mode(self, small_node):
        with pytest.raises(ValueError):
            TensorDimmRuntime(small_node, timing_mode="warp-speed")

    @pytest.mark.parametrize("efficiency", [float("nan"), 0.0, -0.5, 2.0, float("inf")])
    def test_stream_efficiency_outside_unit_interval_rejected(self, small_node, efficiency):
        with pytest.raises(ValueError, match="stream_efficiency"):
            TensorDimmRuntime(small_node, stream_efficiency=efficiency)

    @pytest.mark.parametrize("jobs", [None, 1])
    def test_in_process_jobs_accepted(self, small_node, jobs):
        assert TensorDimmRuntime(small_node, timing_mode="cycle", jobs=jobs).launches == []

    @pytest.mark.parametrize("jobs", [2, 0, -1, True, 1.0, "1"])
    def test_other_jobs_rejected(self, small_node, jobs):
        # Timed drains always run in-process.
        with pytest.raises(ValueError, match="jobs"):
            TensorDimmRuntime(small_node, timing_mode="cycle", jobs=jobs)


class TestGather:
    def test_matches_numpy_fancy_indexing(self, runtime, small_node, table_data, rng):
        table = runtime.create_table("t", table_data)
        idx = rng.integers(0, 200, 40).astype(np.int32)
        out, launch = runtime.gather(table, idx)
        np.testing.assert_array_equal(small_node.read_tensor(out), table_data[idx])

    def test_duplicate_indices_allowed(self, runtime, small_node, table_data):
        table = runtime.create_table("t", table_data)
        idx = np.array([7, 7, 7], dtype=np.int32)
        out, _ = runtime.gather(table, idx)
        np.testing.assert_array_equal(
            small_node.read_tensor(out), table_data[[7, 7, 7]]
        )

    def test_out_of_table_index_rejected(self, runtime, table_data):
        table = runtime.create_table("t", table_data)
        with pytest.raises(IndexError):
            runtime.gather(table, np.array([200], dtype=np.int32))

    def test_negative_index_rejected(self, runtime, table_data):
        table = runtime.create_table("t", table_data)
        with pytest.raises(IndexError):
            runtime.gather(table, np.array([-1], dtype=np.int32))

    def test_empty_gather_rejected(self, runtime, table_data):
        table = runtime.create_table("t", table_data)
        with pytest.raises(ValueError):
            runtime.gather(table, np.array([], dtype=np.int32))

    def test_launch_records_one_gather_instruction(self, runtime, table_data):
        table = runtime.create_table("t", table_data)
        _, launch = runtime.gather(table, np.array([1, 2], dtype=np.int32))
        assert len(launch.instructions) == 1
        assert launch.instructions[0].opcode == Opcode.GATHER

    def test_analytic_timing_positive(self, runtime, table_data):
        table = runtime.create_table("t", table_data)
        _, launch = runtime.gather(table, np.arange(32, dtype=np.int32))
        assert launch.seconds > 0


class TestPoolAndCombine:
    def test_pool_mean_matches_numpy(self, runtime, small_node, table_data, rng):
        table = runtime.create_table("t", table_data)
        idx = rng.integers(0, 200, 6 * 10).astype(np.int32)
        gathered, _ = runtime.gather(table, idx)
        pooled, _ = runtime.pool_mean(gathered, group=10)
        expected = table_data[idx].reshape(6, 10, 128).mean(axis=1)
        np.testing.assert_allclose(small_node.read_tensor(pooled), expected, rtol=1e-5)

    def test_pool_requires_divisible_group(self, runtime, small_node, table_data):
        table = runtime.create_table("t", table_data)
        gathered, _ = runtime.gather(table, np.arange(10, dtype=np.int32))
        with pytest.raises(ValueError):
            runtime.pool_mean(gathered, group=3)

    def test_combine_sum(self, runtime, small_node, table_data, rng):
        table = runtime.create_table("t", table_data)
        handles = [runtime.gather(table, rng.integers(0, 200, 8).astype(np.int32))[0]
                   for _ in range(3)]
        out, launch = runtime.combine(handles, op=ReduceOp.SUM)
        expected = sum(small_node.read_tensor(h) for h in handles)
        np.testing.assert_allclose(small_node.read_tensor(out), expected, rtol=1e-5)
        # N-ary combine lowers to N-1 binary REDUCEs.
        assert len(launch.instructions) == 2

    def test_combine_mul(self, runtime, small_node, table_data, rng):
        table = runtime.create_table("t", table_data)
        a, _ = runtime.gather(table, rng.integers(0, 200, 8).astype(np.int32))
        b, _ = runtime.gather(table, rng.integers(0, 200, 8).astype(np.int32))
        out, _ = runtime.combine([a, b], op=ReduceOp.MUL)
        expected = small_node.read_tensor(a) * small_node.read_tensor(b)
        np.testing.assert_allclose(small_node.read_tensor(out), expected, rtol=1e-5)

    def test_combine_needs_two_tensors(self, runtime, small_node, table_data):
        table = runtime.create_table("t", table_data)
        a, _ = runtime.gather(table, np.arange(4, dtype=np.int32))
        with pytest.raises(ValueError):
            runtime.combine([a])

    def test_combine_shape_mismatch(self, runtime, small_node, table_data):
        table = runtime.create_table("t", table_data)
        a, _ = runtime.gather(table, np.arange(4, dtype=np.int32))
        b, _ = runtime.gather(table, np.arange(6, dtype=np.int32))
        with pytest.raises(ValueError):
            runtime.combine([a, b])


class TestEmbeddingForward:
    def test_one_hot(self, runtime, small_node, table_data, rng):
        table = runtime.create_table("t", table_data)
        idx = rng.integers(0, 200, 16).astype(np.int32)
        out, launches = runtime.embedding_forward(table, idx)
        assert len(launches) == 1
        np.testing.assert_array_equal(small_node.read_tensor(out), table_data[idx])

    def test_multi_hot_mean_pooled(self, runtime, small_node, table_data, rng):
        table = runtime.create_table("t", table_data)
        idx = rng.integers(0, 200, (4, 25)).astype(np.int32)
        out, launches = runtime.embedding_forward(table, idx)
        assert len(launches) == 2  # gather + pool
        expected = table_data[idx].mean(axis=1)
        np.testing.assert_allclose(small_node.read_tensor(out), expected, rtol=1e-5)

    def test_fanin_one_skips_pooling(self, runtime, small_node, table_data, rng):
        table = runtime.create_table("t", table_data)
        idx = rng.integers(0, 200, (8, 1)).astype(np.int32)
        out, launches = runtime.embedding_forward(table, idx)
        assert len(launches) == 1
        np.testing.assert_array_equal(
            small_node.read_tensor(out), table_data[idx.reshape(-1)]
        )

    def test_3d_indices_rejected(self, runtime, table_data):
        table = runtime.create_table("t", table_data)
        with pytest.raises(ValueError):
            runtime.embedding_forward(table, np.zeros((2, 2, 2), dtype=np.int32))


class TestTiming:
    def test_total_seconds_accumulates(self, runtime, table_data):
        table = runtime.create_table("t", table_data)
        runtime.gather(table, np.arange(16, dtype=np.int32))
        after_one = runtime.total_seconds
        runtime.gather(table, np.arange(16, dtype=np.int32))
        assert runtime.total_seconds > after_one

    def test_off_mode_records_zero(self, small_node, table_data):
        rt = TensorDimmRuntime(small_node, timing_mode="off")
        table = rt.create_table("t", table_data)
        rt.gather(table, np.arange(4, dtype=np.int32))
        assert rt.total_seconds == 0.0

    def test_cycle_mode_slower_than_zero(self, table_data):
        node = TensorNode(num_dimms=4, capacity_words_per_dimm=1 << 13)
        rt = TensorDimmRuntime(node, timing_mode="cycle")
        table = rt.create_table("t", table_data)
        _, launch = rt.gather(table, np.arange(64, dtype=np.int32))
        assert launch.seconds > 0

    def test_analytic_close_to_cycle_for_streaming(self, rng):
        """The analytic model's stream efficiency was calibrated against the
        cycle-level controller; the two must agree within ~20% on REDUCE."""
        data = rng.standard_normal((256, 512)).astype(np.float32)

        def run(mode):
            node = TensorNode(num_dimms=4, capacity_words_per_dimm=1 << 14)
            rt = TensorDimmRuntime(node, timing_mode=mode)
            a = rt.create_table("a", data)
            b = rt.create_table("b", data)
            out, launch = rt.combine([a, b])
            return launch.seconds

        analytic = run("analytic")
        cycle = run("cycle")
        assert analytic == pytest.approx(cycle, rel=0.25)

    def test_launch_dram_bytes(self, runtime, table_data):
        table = runtime.create_table("t", table_data)
        _, launch = runtime.gather(table, np.arange(8, dtype=np.int32))
        assert launch.dram_bytes > 0
