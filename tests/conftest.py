"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.core import TensorDimmRuntime, TensorNode
from repro.dram import memo


class NullMemo:
    """A memo that never hits and stores nothing."""

    def lookup(self, config, key):
        return None

    def store(self, config, key, stats):
        pass


_REAL_TIMING_MEMO = memo.TIMING_MEMO


@pytest.fixture(autouse=True)
def _isolate_timing_memo(monkeypatch):
    """Replace the timing memo with a :class:`NullMemo` for every test by
    default.

    The determinism suites compare in-process against pooled Fig. 11/12
    sweep points (and fast against reference) runs; a warm memo would let
    the second run short-circuit and the comparison would stop testing
    anything.  Tests
    that exercise the memo itself put the real one back via
    ``timing_memo``.  ``REPRO_REFERENCE`` passes through from the
    environment, so ``REPRO_REFERENCE=1 pytest tests/test_perf_parity.py``
    pins the per-command loop, with the hit phase off, against the scan oracle;
    tests that set it themselves do so with ``monkeypatch``.
    """
    monkeypatch.setattr(memo, "TIMING_MEMO", NullMemo())
    yield
    _REAL_TIMING_MEMO.clear()


@pytest.fixture
def timing_memo(monkeypatch):
    """The real, empty process-wide timing memo (overrides the autouse
    default for tests that target the cache)."""
    monkeypatch.setattr(memo, "TIMING_MEMO", _REAL_TIMING_MEMO)
    _REAL_TIMING_MEMO.clear()
    return _REAL_TIMING_MEMO


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_node():
    """A 8-DIMM TensorNode with 1 MB per DIMM — fast functional testing."""
    return TensorNode(num_dimms=8, capacity_words_per_dimm=1 << 14)


@pytest.fixture
def runtime(small_node):
    """An analytic-timing runtime over the small node."""
    return TensorDimmRuntime(small_node, timing_mode="analytic")


@pytest.fixture
def canonical_node():
    """A 16-DIMM node: 1 KB (256-dim) embeddings give words_per_slice == 1,
    the paper's canonical Fig. 7 configuration."""
    return TensorNode(num_dimms=16, capacity_words_per_dimm=1 << 14)
