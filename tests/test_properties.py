"""Cross-module property-based tests: the invariants that make the
TensorDIMM design work, checked over randomised configurations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.address_map import EmbeddingLayout
from repro.core.isa import ReduceOp, gather, reduce
from repro.core.nmp_core import expand
from repro.core.runtime import TensorDimmRuntime
from repro.core.tensornode import TensorNode
from repro.models.recsys import RecSysConfig
from repro.system.design_points import evaluate
from repro.system.params import DEFAULT_PARAMS


# ---------------------------------------------------------------------------
# The address map partitions node words exactly across DIMMs
# ---------------------------------------------------------------------------

class TestPartitionInvariants:
    @given(
        node_dim=st.sampled_from([2, 4, 8, 16, 32]),
        rows=st.integers(1, 8),
        dim=st.integers(1, 600),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_node_word_owned_by_exactly_one_dimm(self, node_dim, rows, dim):
        layout = EmbeddingLayout(node_dim=node_dim, rows=rows, embedding_dim=dim)
        owners = {}
        for row in range(rows):
            for chunk in range(layout.chunks_padded):
                word = layout.node_word(row, chunk)
                assert word not in owners
                owners[word] = layout.dimm_of(word)
        counts = {}
        for dimm in owners.values():
            counts[dimm] = counts.get(dimm, 0) + 1
        # Perfect balance: every DIMM owns the same number of words.
        assert len(set(counts.values())) == 1
        assert sum(counts.values()) == layout.total_words

    @given(
        node_dim=st.sampled_from([2, 4, 8]),
        rows=st.integers(1, 6),
        dim=st.integers(1, 300),
    )
    @settings(max_examples=40, deadline=None)
    def test_local_words_are_dense_per_dimm(self, node_dim, rows, dim):
        """The per-DIMM slice of a tensor is a contiguous local range —
        the property that makes NMP streaming possible."""
        layout = EmbeddingLayout(node_dim=node_dim, rows=rows, embedding_dim=dim)
        for dimm in range(node_dim):
            locals_ = sorted(
                layout.local_word(layout.node_word(r, c))
                for r in range(rows)
                for c in range(layout.chunks_padded)
                if layout.dimm_of(layout.node_word(r, c)) == dimm
            )
            assert locals_ == list(range(locals_[0], locals_[0] + len(locals_)))


# ---------------------------------------------------------------------------
# Functional equivalence: node ops == NumPy, arbitrary geometry
# ---------------------------------------------------------------------------

class TestFunctionalEquivalence:
    @given(
        node_dim=st.sampled_from([2, 4, 8, 16]),
        dim=st.sampled_from([16, 100, 256, 512]),
        batch=st.integers(1, 24),
        table_rows=st.integers(4, 64),
    )
    @settings(max_examples=25, deadline=None)
    def test_gather_equivalence(self, node_dim, dim, batch, table_rows):
        rng = np.random.default_rng(node_dim * dim + batch)
        node = TensorNode(num_dimms=node_dim, capacity_words_per_dimm=1 << 14)
        runtime = TensorDimmRuntime(node, timing_mode="off")
        weights = rng.standard_normal((table_rows, dim)).astype(np.float32)
        table = runtime.create_table("t", weights)
        idx = rng.integers(0, table_rows, batch).astype(np.int32)
        out, _ = runtime.gather(table, idx)
        np.testing.assert_array_equal(node.read_tensor(out), weights[idx])

    @given(
        node_dim=st.sampled_from([2, 4, 8]),
        dim=st.sampled_from([64, 144, 512]),
        batch=st.integers(1, 8),
        fanin=st.integers(2, 12),
    )
    @settings(max_examples=20, deadline=None)
    def test_pooling_equivalence(self, node_dim, dim, batch, fanin):
        rng = np.random.default_rng(dim + fanin)
        node = TensorNode(num_dimms=node_dim, capacity_words_per_dimm=1 << 14)
        runtime = TensorDimmRuntime(node, timing_mode="off")
        weights = rng.standard_normal((50, dim)).astype(np.float32)
        table = runtime.create_table("t", weights)
        idx = rng.integers(0, 50, (batch, fanin)).astype(np.int32)
        out, _ = runtime.embedding_forward(table, idx)
        np.testing.assert_allclose(
            node.read_tensor(out), weights[idx].mean(axis=1), rtol=1e-4, atol=1e-6
        )

    @given(
        op=st.sampled_from([ReduceOp.SUM, ReduceOp.MUL, ReduceOp.MAX, ReduceOp.MIN]),
        tensors=st.integers(2, 5),
    )
    @settings(max_examples=20, deadline=None)
    def test_combine_chain_equivalence(self, op, tensors):
        rng = np.random.default_rng(int(op) * 10 + tensors)
        node = TensorNode(num_dimms=4, capacity_words_per_dimm=1 << 14)
        runtime = TensorDimmRuntime(node, timing_mode="off")
        weights = rng.standard_normal((40, 128)).astype(np.float32)
        table = runtime.create_table("t", weights)
        handles = []
        arrays = []
        for _ in range(tensors):
            idx = rng.integers(0, 40, 6).astype(np.int32)
            h, _ = runtime.gather(table, idx)
            handles.append(h)
            arrays.append(weights[idx])
        out, _ = runtime.combine(handles, op=op)
        fn = {
            ReduceOp.SUM: np.add,
            ReduceOp.MUL: np.multiply,
            ReduceOp.MAX: np.maximum,
            ReduceOp.MIN: np.minimum,
        }[op]
        expected = arrays[0]
        for a in arrays[1:]:
            expected = fn(expected, a)
        np.testing.assert_allclose(node.read_tensor(out), expected, rtol=1e-4)


# ---------------------------------------------------------------------------
# Traffic accounting invariants (what the latency model relies on)
# ---------------------------------------------------------------------------

class TestTrafficInvariants:
    @given(
        tables=st.integers(1, 8),
        reduction=st.integers(1, 50),
        layers=st.integers(1, 6),
        batch=st.sampled_from([1, 8, 64, 128]),
        combiner=st.sampled_from(["concat", "sum", "mul"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_reduction_never_inflates_traffic(self, tables, reduction, layers, batch, combiner):
        config = RecSysConfig(
            name="x", num_tables=tables, max_reduction=reduction,
            mlp_layers=layers, combiner=combiner,
        )
        assert config.reduced_bytes(batch) <= config.gathered_bytes(batch)

    @given(
        tables=st.integers(1, 8),
        reduction=st.integers(1, 50),
        batch=st.sampled_from([1, 16, 64]),
    )
    @settings(max_examples=40, deadline=None)
    def test_gathered_bytes_linear_in_batch(self, tables, reduction, batch):
        config = RecSysConfig(
            name="x", num_tables=tables, max_reduction=reduction, mlp_layers=2
        )
        assert config.gathered_bytes(2 * batch) == 2 * config.gathered_bytes(batch)

    @given(
        design=st.sampled_from(["CPU-only", "CPU-GPU", "PMEM", "TDIMM", "GPU-only"]),
        tables=st.integers(1, 8),
        reduction=st.integers(1, 50),
        batch=st.sampled_from([1, 8, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_latency_positive_and_finite(self, design, tables, reduction, batch):
        config = RecSysConfig(
            name="x", num_tables=tables, max_reduction=reduction, mlp_layers=3
        )
        result = evaluate(design, config, batch, DEFAULT_PARAMS)
        assert 0 < result.total < 10.0  # sane bounds for one inference

    @given(
        tables=st.integers(1, 6),
        reduction=st.integers(4, 50),
        batch=st.sampled_from([32, 64, 128]),
    )
    @settings(max_examples=40, deadline=None)
    def test_tdimm_transfer_below_pmem_transfer(self, tables, reduction, batch):
        """The core bandwidth-amplification claim, as a property: with real
        reduction fan-in, TDIMM's copy stage is cheaper than PMEM's up to
        at most one extra fixed message latency (TDIMM sends two messages —
        indices out, reduced tensor back — so at tiny payloads the fixed
        costs, not the data, set the difference)."""
        config = RecSysConfig(
            name="x", num_tables=tables, max_reduction=reduction, mlp_layers=2
        )
        tdimm = evaluate("TDIMM", config, batch, DEFAULT_PARAMS)
        pmem = evaluate("PMEM", config, batch, DEFAULT_PARAMS)
        allowance = DEFAULT_PARAMS.node_link.latency
        assert tdimm.transfer < pmem.transfer + allowance


# ---------------------------------------------------------------------------
# ISA-level invariants
# ---------------------------------------------------------------------------

class TestIsaInvariants:
    @given(
        node_dim=st.sampled_from([2, 4, 8]),
        count=st.integers(1, 32),
    )
    @settings(max_examples=30, deadline=None)
    def test_trace_matches_execution_stats(self, node_dim, count):
        """For every op, the cycle-level trace and the functional stats
        must agree on DRAM traffic — the timing model depends on it."""
        node = TensorNode(num_dimms=node_dim, capacity_words_per_dimm=1 << 13)
        rng = np.random.default_rng(count)
        a = node.alloc_tensor("a", count, 64)
        b = node.alloc_tensor("b", count, 64)
        out = node.alloc_tensor("o", count, 64)
        instr = reduce(a.base_word, b.base_word, out.base_word, a.words_per_dimm)
        dimm = node.dimms[0]
        trace = expand(dimm.nmp.describe(instr), dimm.nmp.instruction_indices(instr))
        stats = dimm.execute(instr)
        assert len(trace) == stats.words_touched

    @given(count=st.integers(1, 64), node_dim=st.sampled_from([2, 4, 8, 16]))
    @settings(max_examples=30, deadline=None)
    def test_gather_output_is_dense(self, count, node_dim):
        """GATHER must pack arbitrary sparse rows into a dense tensor that
        reads back in lookup order."""
        node = TensorNode(num_dimms=node_dim, capacity_words_per_dimm=1 << 14)
        runtime = TensorDimmRuntime(node, timing_mode="off")
        rng = np.random.default_rng(count * node_dim)
        weights = np.arange(30 * 16, dtype=np.float32).reshape(30, 16)
        table = runtime.create_table("t", weights)
        idx = rng.integers(0, 30, count).astype(np.int32)
        out, _ = runtime.gather(table, idx)
        got = node.read_tensor(out)
        for i, row in enumerate(idx):
            np.testing.assert_array_equal(got[i], weights[row])
