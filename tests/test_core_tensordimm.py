"""Tests for the TensorDIMM module."""

import numpy as np
import pytest

from repro.core.isa import gather, reduce
from repro.core.tensordimm import TensorDimm
from repro.dram.timing import DDR4_2400, DDR4_3200


class TestConstruction:
    def test_capacity(self):
        dimm = TensorDimm(0, 4, capacity_words=1024)
        assert dimm.capacity_words == 1024

    def test_peak_bandwidth_follows_grade(self):
        assert TensorDimm(0, 4, timing=DDR4_3200).peak_bandwidth == pytest.approx(25.6e9)
        assert TensorDimm(0, 4, timing=DDR4_2400).peak_bandwidth == pytest.approx(19.2e9)


class TestNormalDimmMode:
    def test_load_store_round_trip(self, rng):
        dimm = TensorDimm(0, 4, capacity_words=64)
        word = rng.standard_normal(16).astype(np.float32)
        dimm.store64(7, word)
        np.testing.assert_array_equal(dimm.load64(7), word)

    def test_bulk_slice_io(self, rng):
        dimm = TensorDimm(0, 4, capacity_words=64)
        payload = rng.standard_normal((8, 16)).astype(np.float32)
        dimm.write_slice(4, payload)
        np.testing.assert_array_equal(dimm.read_slice(4, 8), payload)

    def test_index_buffer(self):
        dimm = TensorDimm(0, 4, capacity_words=64)
        dimm.write_indices(10, np.array([3, 1, 4], dtype=np.int32))
        got = dimm.storage.read_indices(10, 1)
        assert got[:3].tolist() == [3, 1, 4]


class TestNmpMode:
    def test_functional_execute(self, rng):
        dimm = TensorDimm(1, 2, capacity_words=256)
        a = rng.standard_normal((4, 16)).astype(np.float32)
        b = rng.standard_normal((4, 16)).astype(np.float32)
        dimm.write_slice(0, a)
        dimm.write_slice(4, b)
        stats = dimm.execute(reduce(0, 8, 16, 4))
        assert stats.words_written == 4
        np.testing.assert_allclose(dimm.read_slice(8, 4), a + b, rtol=1e-6)

    def test_timed_execute_returns_plausible_bandwidth(self):
        dimm = TensorDimm(0, 2, capacity_words=8192)
        timed = dimm.execute_timed(reduce(0, 4096, 8192, 2000))
        assert 0 < timed.seconds
        assert 0.3 * dimm.peak_bandwidth < timed.bandwidth <= dimm.peak_bandwidth

    def test_timed_execute_updates_storage(self, rng):
        dimm = TensorDimm(0, 2, capacity_words=256)
        a = rng.standard_normal((4, 16)).astype(np.float32)
        dimm.write_slice(0, a)
        dimm.write_slice(4, a)
        dimm.execute_timed(reduce(0, 8, 16, 4))
        np.testing.assert_allclose(dimm.read_slice(8, 4), 2 * a, rtol=1e-6)

    def test_timed_gather_counts_dram_traffic(self):
        dimm = TensorDimm(0, 2, capacity_words=4096)
        dimm.write_indices(2048, np.arange(16, dtype=np.int32))
        timed = dimm.execute_timed(gather(0, 2048, 2 * 1024, 16, words_per_slice=2))
        # 32 table reads + 1 index read + 32 output writes
        assert timed.dram_stats.accesses == 65

    def test_refresh_toggle_changes_latency(self):
        def run(refresh):
            dimm = TensorDimm(0, 2, capacity_words=1 << 14)
            return dimm.execute_timed(
                reduce(0, 8192, 16384, 4000), refresh_enabled=refresh
            ).seconds

        assert run(True) > run(False)

    def test_alu_floor_on_timed_execution(self):
        """Node time can never undercut the ALU's streaming rate."""
        dimm = TensorDimm(0, 2, capacity_words=1 << 13)
        timed = dimm.execute_timed(reduce(0, 2048, 4096, 1000))
        assert timed.seconds >= timed.exec_stats.alu_seconds()
