"""Integration tests: full models running their embedding layers on a
TensorNode, cross-checked against the pure-NumPy reference path."""

import numpy as np
import pytest

from repro.core.runtime import TensorDimmRuntime
from repro.core.tensornode import TensorNode
from repro.models.embedding import EmbeddingTable
from repro.models.model_zoo import ALL_WORKLOADS, small_scale
from repro.models.recsys import RecommenderModel
from repro.workloads.requests import RequestGenerator


def make_runtime(num_dimms=8, capacity=1 << 16):
    return TensorDimmRuntime(
        TensorNode(num_dimms=num_dimms, capacity_words_per_dimm=capacity),
        timing_mode="analytic",
    )


class TestEndToEndEquivalence:
    """forward_tensordimm must reproduce forward bit-for-bit-ish on every
    Table 2 workload — the near-memory path computes the same math."""

    @pytest.mark.parametrize("config", ALL_WORKLOADS, ids=lambda c: c.name)
    def test_model_agrees_with_numpy(self, config, rng):
        tiny = small_scale(config, rows=300)
        model = RecommenderModel(tiny, rng)
        sparse, dense = model.sample_inputs(8, rng)
        runtime = make_runtime()
        reference = model.forward(sparse, dense)
        offloaded = model.forward_tensordimm(runtime, sparse, dense)
        np.testing.assert_allclose(offloaded, reference, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("batch", [1, 4, 16])
    def test_batch_sizes(self, batch, rng):
        config = small_scale(ALL_WORKLOADS[1], rows=200)  # YouTube
        model = RecommenderModel(config, rng)
        sparse, dense = model.sample_inputs(batch, rng)
        runtime = make_runtime()
        np.testing.assert_allclose(
            model.forward_tensordimm(runtime, sparse, dense),
            model.forward(sparse, dense),
            rtol=1e-4,
            atol=1e-6,
        )

    def test_repeated_inference_reuses_tables(self, rng):
        config = small_scale(ALL_WORKLOADS[0], rows=100)  # NCF
        model = RecommenderModel(config, rng)
        runtime = make_runtime()
        for _ in range(3):
            sparse, dense = model.sample_inputs(4, rng)
            model.forward_tensordimm(runtime, sparse, dense)
        # Tables uploaded once: 4 table allocations survive in the pool.
        table_allocs = [
            n for n in runtime.node.allocator.allocations if "table" in n
        ]
        assert len(table_allocs) == config.num_tables

    def test_runtime_accumulates_node_time(self, rng):
        config = small_scale(ALL_WORKLOADS[2], rows=100)  # Fox
        model = RecommenderModel(config, rng)
        runtime = make_runtime()
        sparse, dense = model.sample_inputs(4, rng)
        model.forward_tensordimm(runtime, sparse, dense)
        assert runtime.total_seconds > 0
        assert len(runtime.launches) >= config.num_tables


class TestRequestDrivenPipeline:
    def test_generated_requests_run_end_to_end(self, rng):
        config = small_scale(ALL_WORKLOADS[3], rows=400)  # Facebook
        model = RecommenderModel(config, rng)
        generator = RequestGenerator(config, distribution="zipfian", seed=9)
        runtime = make_runtime(capacity=1 << 17)
        for batch in generator.batches(8, count=2):
            out = model.forward_tensordimm(runtime, batch.sparse, batch.dense)
            assert out.shape == (8,)
            assert ((out >= 0) & (out <= 1)).all()


class TestCycleTimedInference:
    def test_cycle_mode_end_to_end(self, rng):
        """The full embedding layer of a workload through the cycle-level
        DRAM model: functional output intact, realistic node bandwidth."""
        config = small_scale(ALL_WORKLOADS[1], rows=256)  # YouTube
        model = RecommenderModel(config, rng)
        node = TensorNode(num_dimms=8, capacity_words_per_dimm=1 << 16)
        runtime = TensorDimmRuntime(node, timing_mode="cycle")
        sparse, dense = model.sample_inputs(4, rng)
        reference = model.forward(sparse, dense)
        offloaded = model.forward_tensordimm(runtime, sparse, dense)
        np.testing.assert_allclose(offloaded, reference, rtol=1e-4, atol=1e-6)
        for launch in runtime.launches:
            for stats in launch.node_stats:
                assert 0 < stats.aggregate_bandwidth <= node.peak_bandwidth


class TestCapacityPressure:
    def test_out_of_memory_is_reported(self, rng, monkeypatch):
        from repro.core.allocator import OutOfNodeMemory

        # The pool rejects table0 before any weight is read, so the tables
        # are zero-filled instead of drawn (eight 50,000 x 512 normal
        # draws took seconds); every shape stays as configured.
        monkeypatch.setattr(
            EmbeddingTable,
            "random",
            classmethod(
                lambda cls, name, rows, dim, rng=None: cls(
                    name, np.zeros((rows, dim), dtype=np.float32)
                )
            ),
        )
        config = small_scale(ALL_WORKLOADS[3], rows=50_000)  # Facebook, big
        model = RecommenderModel(small_scale(config, rows=50_000), rng)
        assert [t.weights.shape for t in model.tables] == [(50_000, 512)] * 8
        runtime = make_runtime(num_dimms=2, capacity=1 << 12)  # tiny pool
        sparse, dense = model.sample_inputs(2, rng)
        with pytest.raises(OutOfNodeMemory):
            model.forward_tensordimm(runtime, sparse, dense)
