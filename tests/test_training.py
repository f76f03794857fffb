"""Tests for the near-memory training extension (UPDATE instruction)."""

import numpy as np
import pytest

from repro.core.isa import Opcode, ReduceOp, update
from repro.core.nmp_core import NmpCore
from repro.core.runtime import TensorDimmRuntime
from repro.core.tensornode import TensorNode
from repro.dram.storage import WordStorage


class TestUpdateInstruction:
    def test_builder_fields(self):
        instr = update(64, 512, 0, 8, words_per_slice=2, op=ReduceOp.SUB)
        assert instr.opcode == Opcode.UPDATE
        assert instr.input_base == 64
        assert instr.index_base == 512
        assert instr.output_base == 0
        assert instr.count == 8
        assert instr.subop == ReduceOp.SUB

    def test_only_sum_and_sub(self):
        with pytest.raises(ValueError):
            update(0, 0, 0, 1, op=ReduceOp.MUL)

    def test_encode_decode(self):
        instr = update(64, 512, 0, 8, 2, ReduceOp.SUB)
        from repro.core.isa import Instruction

        assert Instruction.decode(instr.encode()) == instr


class TestNmpUpdate:
    def make_core(self, node_dim=2, capacity=2048):
        return NmpCore(0, node_dim, WordStorage(capacity))

    def test_scatter_add(self, rng):
        core = self.make_core()
        table = rng.standard_normal((8, 16)).astype(np.float32)
        grads = rng.standard_normal((3, 16)).astype(np.float32)
        core.storage.write_words(0, table)
        core.storage.write_words(100, grads)
        core.storage.write_indices(900, np.array([5, 2, 5], dtype=np.int32))
        stats = core.execute(update(100 * 2, 900, 0, 3))
        expected = table.copy()
        expected[5] += grads[0] + grads[2]  # duplicates accumulate
        expected[2] += grads[1]
        np.testing.assert_allclose(
            core.storage.read_words(np.arange(8)), expected, rtol=1e-5
        )
        assert stats.opcode == Opcode.UPDATE

    def test_subtract_op(self, rng):
        core = self.make_core()
        table = rng.standard_normal((4, 16)).astype(np.float32)
        grads = rng.standard_normal((1, 16)).astype(np.float32)
        core.storage.write_words(0, table)
        core.storage.write_words(50, grads)
        core.storage.write_indices(900, np.array([1], dtype=np.int32))
        core.execute(update(100, 900, 0, 1, op=ReduceOp.SUB))
        np.testing.assert_allclose(
            core.storage.read_word(1), table[1] - grads[0], rtol=1e-5
        )

    def test_mul_rejected_at_execute(self):
        core = self.make_core()
        instr = update(0, 900, 0, 1)
        object.__setattr__(instr, "subop", ReduceOp.MUL)
        with pytest.raises(ValueError):
            core.execute(instr)

    def test_wide_slices(self, rng):
        core = self.make_core()
        table = rng.standard_normal((4 * 3, 16)).astype(np.float32)  # wps=3
        grads = rng.standard_normal((1 * 3, 16)).astype(np.float32)
        core.storage.write_words(0, table)
        core.storage.write_words(200, grads)
        core.storage.write_indices(900, np.array([2], dtype=np.int32))
        core.execute(update(400, 900, 0, 1, words_per_slice=3))
        np.testing.assert_allclose(
            core.storage.read_words(6 + np.arange(3)), table[6:9] + grads, rtol=1e-5
        )

    def test_trace_is_read_modify_write(self):
        core = self.make_core()
        core.storage.write_indices(900, np.array([1, 3], dtype=np.int32))
        instr = update(100, 900, 0, 2, words_per_slice=2)
        trace = core.describe(instr).share(0, 1)
        assert trace.writes == 4  # one write per touched table word
        assert trace.reads == 1 + 4 + 4  # index word + gradients + table reads


class TestRuntimeBackward:
    @pytest.fixture
    def setup(self, small_node, rng):
        runtime = TensorDimmRuntime(small_node, timing_mode="analytic")
        weights = rng.standard_normal((100, 128)).astype(np.float32)
        table = runtime.create_table("t", weights)
        return runtime, table, weights

    def test_one_hot_sgd_step(self, setup, small_node, rng):
        runtime, table, weights = setup
        idx = np.array([7, 3, 7], dtype=np.int32)
        grad = rng.standard_normal((3, 128)).astype(np.float32)
        runtime.embedding_backward(table, idx, grad, learning_rate=0.1)
        expected = weights.copy()
        np.add.at(expected, idx, -0.1 * grad)
        np.testing.assert_allclose(small_node.read_tensor(table), expected, rtol=1e-4)

    def test_multi_hot_mean_pool_backward(self, setup, small_node, rng):
        runtime, table, weights = setup
        idx = rng.integers(0, 100, (4, 10)).astype(np.int32)
        grad = rng.standard_normal((4, 128)).astype(np.float32)
        runtime.embedding_backward(table, idx, grad, learning_rate=0.5)
        expected = weights.copy()
        np.add.at(
            expected,
            idx.reshape(-1),
            np.repeat(-0.5 * grad / 10, 10, axis=0).reshape(-1, 128),
        )
        np.testing.assert_allclose(
            small_node.read_tensor(table), expected, rtol=1e-4, atol=1e-6
        )

    def test_gradient_shape_mismatch(self, setup, rng):
        runtime, table, _ = setup
        with pytest.raises(ValueError):
            runtime.embedding_backward(
                table, np.array([1, 2], dtype=np.int32),
                rng.standard_normal((2, 64)).astype(np.float32),
            )

    def test_out_of_range_index(self, setup, rng):
        runtime, table, _ = setup
        with pytest.raises(IndexError):
            runtime.embedding_backward(
                table, np.array([100], dtype=np.int32),
                rng.standard_normal((1, 128)).astype(np.float32),
            )

    def test_forward_backward_round_trip_reduces_loss(self, setup, small_node, rng):
        """A few SGD steps on a toy regression must reduce the loss —
        the end-to-end sanity check that near-memory training learns."""
        runtime, table, _ = setup
        idx = rng.integers(0, 100, 32).astype(np.int32)
        target = rng.standard_normal((32, 128)).astype(np.float32)

        def loss_and_grad():
            out, _ = runtime.gather(table, idx)
            pred = small_node.read_tensor(out)
            diff = pred - target
            return float((diff**2).mean()), 2 * diff / diff.size * 128

        first_loss, grad = loss_and_grad()
        for _ in range(5):
            runtime.embedding_backward(table, idx, grad, learning_rate=10.0)
            new_loss, grad = loss_and_grad()
        assert new_loss < first_loss

    def test_timed_update(self, setup):
        runtime, table, _ = setup
        idx = np.arange(16, dtype=np.int32)
        grad = np.ones((16, 128), dtype=np.float32)
        launch = runtime.embedding_backward(table, idx, grad)
        assert launch.seconds > 0
        assert launch.instructions[0].opcode == Opcode.UPDATE
