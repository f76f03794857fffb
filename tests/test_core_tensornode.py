"""Tests for the TensorNode disaggregated memory pool."""

import numpy as np
import pytest

from repro.core.isa import average, gather, reduce
from repro.core.tensornode import TensorNode


class TestConstruction:
    def test_needs_at_least_one_dimm(self):
        with pytest.raises(ValueError):
            TensorNode(num_dimms=0)

    def test_table1_configuration(self):
        node = TensorNode(num_dimms=32)
        assert node.peak_bandwidth == pytest.approx(819.2e9)

    def test_capacity_sums_dimms(self):
        node = TensorNode(num_dimms=4, capacity_words_per_dimm=1024)
        assert node.capacity_bytes == 4 * 1024 * 64

    def test_dimm_ids_assigned(self):
        node = TensorNode(num_dimms=4, capacity_words_per_dimm=64)
        assert [d.dimm_id for d in node.dimms] == [0, 1, 2, 3]


class TestTensorIO:
    def test_round_trip(self, small_node, rng):
        values = rng.standard_normal((10, 96)).astype(np.float32)
        layout = small_node.alloc_tensor("t", 10, 96)
        small_node.write_tensor(layout, values)
        np.testing.assert_array_equal(small_node.read_tensor(layout), values)

    def test_two_tensors_coexist(self, small_node, rng):
        a = rng.standard_normal((4, 128)).astype(np.float32)
        b = rng.standard_normal((6, 128)).astype(np.float32)
        la = small_node.alloc_tensor("a", 4, 128)
        lb = small_node.alloc_tensor("b", 6, 128)
        small_node.write_tensor(la, a)
        small_node.write_tensor(lb, b)
        np.testing.assert_array_equal(small_node.read_tensor(la), a)
        np.testing.assert_array_equal(small_node.read_tensor(lb), b)

    def test_foreign_layout_rejected(self, small_node):
        from repro.core.address_map import EmbeddingLayout

        wrong = EmbeddingLayout(node_dim=4, rows=2, embedding_dim=64)
        with pytest.raises(ValueError):
            small_node.read_tensor(wrong)

    def test_data_actually_distributed(self, small_node, rng):
        """Every DIMM must hold a slice (no DIMM left cold)."""
        values = rng.standard_normal((4, 128)).astype(np.float32)
        layout = small_node.alloc_tensor("t", 4, 128)
        small_node.write_tensor(layout, values)
        for dimm in small_node.dimms:
            payload = dimm.read_slice(0, layout.words_per_dimm)
            assert np.abs(payload).sum() > 0

    def test_index_replication(self, small_node):
        idx = np.array([5, 3, 8], dtype=np.int32)
        alloc = small_node.alloc_indices("idx", 3)
        small_node.write_indices(alloc, idx)
        for dimm in small_node.dimms:
            got = dimm.storage.read_indices(alloc.base_word, 1)
            assert got[:3].tolist() == [5, 3, 8]

    def test_write_indices_requires_replicated_allocation(self, small_node):
        tensor = small_node.allocator.alloc_words("t", 8)
        with pytest.raises(ValueError):
            small_node.write_indices(tensor, np.array([1], dtype=np.int32))


class TestBroadcast:
    def test_gather_broadcast(self, canonical_node, rng):
        table_values = rng.standard_normal((50, 256)).astype(np.float32)
        table = canonical_node.alloc_tensor("table", 50, 256)
        canonical_node.write_tensor(table, table_values)
        idx = rng.integers(0, 50, 12).astype(np.int32)
        alloc = canonical_node.alloc_indices("idx", 12)
        canonical_node.write_indices(alloc, idx)
        out = canonical_node.alloc_tensor("out", 12, 256)
        stats = canonical_node.broadcast(
            gather(table.base_word, alloc.base_word, out.base_word, 12,
                   table.words_per_slice)
        )
        np.testing.assert_array_equal(canonical_node.read_tensor(out), table_values[idx])
        assert len(stats.per_dimm) == 16

    def test_reduce_broadcast(self, small_node, rng):
        a_val = rng.standard_normal((5, 128)).astype(np.float32)
        b_val = rng.standard_normal((5, 128)).astype(np.float32)
        a = small_node.alloc_tensor("a", 5, 128)
        b = small_node.alloc_tensor("b", 5, 128)
        out = small_node.alloc_tensor("o", 5, 128)
        small_node.write_tensor(a, a_val)
        small_node.write_tensor(b, b_val)
        small_node.broadcast(
            reduce(a.base_word, b.base_word, out.base_word, a.words_per_dimm)
        )
        np.testing.assert_allclose(small_node.read_tensor(out), a_val + b_val, rtol=1e-6)

    def test_average_broadcast(self, small_node, rng):
        groups = rng.standard_normal((12, 128)).astype(np.float32)
        src = small_node.alloc_tensor("src", 12, 128)
        out = small_node.alloc_tensor("out", 4, 128)
        small_node.write_tensor(src, groups)
        small_node.broadcast(
            average(src.base_word, 3, out.base_word, out.words_per_dimm)
        )
        np.testing.assert_allclose(
            small_node.read_tensor(out),
            groups.reshape(4, 3, 128).mean(axis=1),
            rtol=1e-5,
        )

    def test_all_dimm_loads_identical(self, canonical_node, rng):
        """The rank-interleaved mapping load-balances perfectly: every NMP
        core reads and writes exactly the same number of words."""
        table = canonical_node.alloc_tensor("t", 30, 256)
        canonical_node.write_tensor(
            table, rng.standard_normal((30, 256)).astype(np.float32)
        )
        idx = rng.integers(0, 30, 8).astype(np.int32)
        alloc = canonical_node.alloc_indices("i", 8)
        canonical_node.write_indices(alloc, idx)
        out = canonical_node.alloc_tensor("o", 8, 256)
        stats = canonical_node.broadcast(
            gather(table.base_word, alloc.base_word, out.base_word, 8, 1)
        )
        reads = {s.words_read for s in stats.per_dimm}
        writes = {s.words_written for s in stats.per_dimm}
        assert len(reads) == 1 and len(writes) == 1

    def test_instruction_counter(self, small_node):
        a = small_node.alloc_tensor("a", 2, 128)
        small_node.broadcast(reduce(a.base_word, a.base_word, a.base_word, 1))
        small_node.broadcast(reduce(a.base_word, a.base_word, a.base_word, 1))
        assert small_node.instructions_executed == 2


class TestTimedBroadcast:
    def test_aggregate_bandwidth_below_peak(self, rng):
        node = TensorNode(num_dimms=8, capacity_words_per_dimm=1 << 13)
        a = node.alloc_tensor("a", 64, 512)
        b = node.alloc_tensor("b", 64, 512)
        out = node.alloc_tensor("o", 64, 512)
        stats = node.broadcast_timed(
            reduce(a.base_word, b.base_word, out.base_word, a.words_per_dimm)
        )
        assert 0 < stats.aggregate_bandwidth <= node.peak_bandwidth

    def test_streaming_reaches_most_of_peak(self):
        node = TensorNode(num_dimms=4, capacity_words_per_dimm=1 << 14)
        a = node.alloc_tensor("a", 256, 512)
        b = node.alloc_tensor("b", 256, 512)
        out = node.alloc_tensor("o", 256, 512)
        stats = node.broadcast_timed(
            reduce(a.base_word, b.base_word, out.base_word, a.words_per_dimm)
        )
        assert stats.aggregate_bandwidth > 0.6 * node.peak_bandwidth

    def test_full_simulation_matches_sampled(self, rng):
        """simulate_dimms=1 must agree with simulating every DIMM, because
        the interleaved layout gives all DIMMs identical streams."""
        def run(simulate):
            node = TensorNode(num_dimms=4, capacity_words_per_dimm=1 << 12)
            a = node.alloc_tensor("a", 32, 512)
            b = node.alloc_tensor("b", 32, 512)
            out = node.alloc_tensor("o", 32, 512)
            return node.broadcast_timed(
                reduce(a.base_word, b.base_word, out.base_word, a.words_per_dimm),
                simulate_dimms=simulate,
            ).seconds

        assert run(1) == pytest.approx(run(None), rel=1e-9)

    @pytest.mark.parametrize("simulate", [0, -1, 5, 9])
    def test_simulate_dimms_outside_the_node_raises(self, simulate):
        node = TensorNode(num_dimms=4, capacity_words_per_dimm=1 << 12)
        a = node.alloc_tensor("a", 32, 512)
        instr = reduce(a.base_word, a.base_word, a.base_word, a.words_per_dimm)
        with pytest.raises(ValueError, match=f"1..4 \\(None for all\\), got {simulate}"):
            node.broadcast_timed(instr, simulate_dimms=simulate)
        assert node.instructions_executed == 0

    @pytest.mark.parametrize("simulate", [None, 1, 4])
    def test_simulate_dimms_in_range_simulates_that_many(self, simulate):
        node = TensorNode(num_dimms=4, capacity_words_per_dimm=1 << 12)
        a = node.alloc_tensor("a", 32, 512)
        instr = reduce(a.base_word, a.base_word, a.base_word, a.words_per_dimm)
        stats = node.broadcast_timed(instr, simulate_dimms=simulate)
        assert len(stats.dram_per_dimm) == (simulate or 4)
        assert stats.seconds > 0

    def test_functional_result_still_correct(self, rng):
        node = TensorNode(num_dimms=4, capacity_words_per_dimm=1 << 12)
        vals = rng.standard_normal((16, 256)).astype(np.float32)
        a = node.alloc_tensor("a", 16, 256)
        out = node.alloc_tensor("o", 16, 256)
        node.write_tensor(a, vals)
        node.broadcast_timed(
            reduce(a.base_word, a.base_word, out.base_word, a.words_per_dimm)
        )
        np.testing.assert_allclose(node.read_tensor(out), 2 * vals, rtol=1e-6)
