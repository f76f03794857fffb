"""Tests for the CPU cache model used by the gather ablation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cache_oracle import OracleCache, OracleHierarchy
from repro.config import CPU_PEAK_BANDWIDTH
from repro.dram.cache import Cache, CacheHierarchy


class TestCache:
    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            Cache(capacity_bytes=1000, ways=8)

    def test_first_access_misses(self):
        cache = Cache(8192, ways=2)
        assert cache.access(0) is False

    def test_second_access_hits(self):
        cache = Cache(8192, ways=2)
        cache.access(0)
        assert cache.access(0) is True

    def test_different_lines_in_same_set_coexist(self):
        cache = Cache(8192, ways=2)  # 64 sets
        cache.access(0)
        cache.access(64 * 64)  # same set, different tag
        assert cache.access(0) is True
        assert cache.access(64 * 64) is True

    def test_lru_eviction(self):
        cache = Cache(8192, ways=2)
        set_stride = 64 * cache.num_sets
        cache.access(0)
        cache.access(set_stride)
        cache.access(2 * set_stride)  # evicts line 0 (LRU)
        assert cache.access(0) is False

    def test_lru_order_updated_on_hit(self):
        cache = Cache(8192, ways=2)
        set_stride = 64 * cache.num_sets
        cache.access(0)
        cache.access(set_stride)
        cache.access(0)  # 0 becomes MRU
        cache.access(2 * set_stride)  # evicts set_stride
        assert cache.access(0) is True
        assert cache.access(set_stride) is False

    def test_access_many_counts_hits(self):
        cache = Cache(8192, ways=2)
        assert cache.access_many([0, 0, 0]) == 2

    def test_hit_rate_stat(self):
        cache = Cache(8192, ways=2)
        cache.access_many([0, 0, 64, 64])
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_sequential_within_capacity_all_hit_second_pass(self):
        cache = Cache(64 * 1024, ways=8)
        addrs = [i * 64 for i in range(512)]
        cache.access_many(addrs)
        assert cache.access_many(addrs) == 512


class TestHierarchy:
    def test_l2_hit_is_fast(self):
        h = CacheHierarchy.xeon_like()
        h.access(0)
        assert h.access(0) == h.l2_latency_ns

    def test_cold_access_pays_dram(self):
        h = CacheHierarchy.xeon_like()
        assert h.access(1 << 33 & ~63) == h.dram_latency_ns

    def test_uniform_gather_efficiency_below_5_percent(self):
        # The Gupta et al. observation the paper cites (Section 7).
        h = CacheHierarchy.xeon_like()
        rng = np.random.default_rng(0)
        addrs = (rng.integers(0, 2_000_000, 5000) * 2048).tolist()
        assert h.gather_efficiency(addrs, CPU_PEAK_BANDWIDTH) < 0.05

    def test_hot_working_set_recovers_bandwidth(self):
        h = CacheHierarchy.xeon_like()
        addrs = [(i % 64) * 64 for i in range(5000)]
        hot = h.gather_efficiency(addrs, CPU_PEAK_BANDWIDTH)
        h2 = CacheHierarchy.xeon_like()
        rng = np.random.default_rng(0)
        cold_addrs = (rng.integers(0, 2_000_000, 5000) * 2048).tolist()
        cold = h2.gather_efficiency(cold_addrs, CPU_PEAK_BANDWIDTH)
        assert hot > 5 * cold

    def test_gather_throughput_empty(self):
        assert CacheHierarchy.xeon_like().gather_throughput([]) == 0.0

    def test_invalid_peak(self):
        with pytest.raises(ValueError):
            CacheHierarchy.xeon_like().gather_efficiency([0], 0.0)


class TestBadInputs:
    @pytest.mark.parametrize("kwargs, field", [
        (dict(capacity_bytes=0), "capacity_bytes"),
        (dict(capacity_bytes=-1024), "capacity_bytes"),
        (dict(capacity_bytes=1024, ways=0), "ways"),
        (dict(capacity_bytes=1024, ways=-2), "ways"),
        (dict(capacity_bytes=1024, ways=2, line_bytes=0), "line_bytes"),
        (dict(capacity_bytes=1000, ways=8), "capacity_bytes"),
    ])
    def test_bad_geometry_names_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            Cache(**kwargs)

    def test_negative_address_rejected_before_any_state_changes(self):
        cache = Cache(8192, ways=2)
        cache.access(0)
        with pytest.raises(ValueError, match="addr"):
            cache.access(-64)
        with pytest.raises(ValueError, match="addr"):
            cache.access_batch([64, -1])
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        assert cache.access(64) is False

    def test_non_integer_address_rejected(self):
        with pytest.raises(ValueError, match="addr"):
            Cache(8192, ways=2).access_batch([0.5, 64.0])

    @pytest.mark.parametrize("mlp", [0, -1, float("nan")])
    def test_non_positive_mlp_rejected(self, mlp):
        h = CacheHierarchy.xeon_like()
        with pytest.raises(ValueError, match="mlp"):
            h.gather_throughput([0, 64], mlp=mlp)
        with pytest.raises(ValueError, match="mlp"):
            h.gather_efficiency([0, 64], CPU_PEAK_BANDWIDTH, mlp=mlp)
        with pytest.raises(ValueError, match="mlp"):
            h.gather_throughput([], mlp=mlp)


def _pair(num_sets, ways, line_bytes):
    capacity = num_sets * ways * line_bytes
    return Cache(capacity, ways, line_bytes), OracleCache(capacity, ways, line_bytes)


def _resident(cache: Cache) -> list[list[int]]:
    """Each set's resident lines, LRU first, read from the packed state."""
    sets = [[] for _ in range(cache.num_sets)]
    for line, index in zip(cache._lines.tolist(), cache._sets.tolist()):
        sets[index].append(line)
    return sets


def _assert_same(cache: Cache, oracle: OracleCache):
    assert (cache.stats.hits, cache.stats.misses) == (oracle.stats.hits, oracle.stats.misses)
    assert _resident(cache) == oracle.resident()


@st.composite
def _workload(draw):
    """A geometry and several calls that carry state: each call is one
    scalar ``access`` or a batch over a few more lines than the cache holds."""
    num_sets = draw(st.integers(1, 8))
    ways = draw(st.integers(1, 4))
    line_bytes = draw(st.sampled_from([1, 8, 64]))
    addrs = st.integers(0, num_sets * (ways + 2) * line_bytes - 1)
    calls = draw(st.lists(
        st.one_of(addrs, st.lists(addrs, max_size=48)), min_size=1, max_size=6
    ))
    return (num_sets, ways, line_bytes), calls


class TestOracleParity:
    """The vectorized model against the per-access ``OrderedDict`` LRU."""

    @settings(max_examples=300, deadline=None)
    @given(_workload())
    def test_hits_stats_and_state_match(self, workload):
        geometry, calls = workload
        cache, oracle = _pair(*geometry)
        for call in calls:
            if isinstance(call, int):
                assert cache.access(call) is oracle.access(call)
            else:
                expected = [oracle.access(addr) for addr in call]
                assert cache.access_batch(call).tolist() == expected
            _assert_same(cache, oracle)

    @pytest.mark.parametrize("ways", [1, 2, 4])
    def test_cycling_more_lines_than_ways_always_misses(self, ways):
        # ways + 1 lines cycling through one set: every reuse gap holds
        # ``ways`` distinct lines, so LRU never hits.
        cache, oracle = _pair(1, ways, 64)
        addrs = [64 * (i % (ways + 1)) for i in range(10 * (ways + 1))]
        expected = [oracle.access(addr) for addr in addrs]
        assert not any(expected)
        assert cache.access_batch(addrs).tolist() == expected
        _assert_same(cache, oracle)

    def test_long_gap_of_few_distinct_lines_hits(self):
        # One 2-way set.  The second access to line 0 has a gap of four
        # accesses but one distinct line, so it hits; the last access to
        # line 2 has a gap of two holding two distinct lines, so it misses.
        cache, oracle = _pair(1, 2, 64)
        addrs = [0, 128, 128, 128, 128, 0, 128, 256, 384, 128, 256, 0]
        expected = [oracle.access(addr) for addr in addrs]
        assert expected == [False, False, True, True, True, True,
                            True, False, False, False, False, False]
        assert cache.access_batch(addrs).tolist() == expected
        _assert_same(cache, oracle)

    def test_untouched_sets_keep_their_lines(self):
        cache, oracle = _pair(4, 2, 64)
        for batch in ([0, 64, 128, 192, 256], [512, 768, 1024], [64, 320]):
            assert cache.access_batch(batch).tolist() == [oracle.access(a) for a in batch]
            _assert_same(cache, oracle)


@st.composite
def _hierarchy_workload(draw):
    l2 = (draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    llc = (draw(st.integers(1, 8)), draw(st.integers(1, 4)))
    latencies = draw(st.lists(
        st.floats(0.01, 500.0, allow_nan=False), min_size=3, max_size=3
    ))
    addrs = st.integers(0, 64 * 48)
    calls = draw(st.lists(
        st.one_of(addrs, st.lists(addrs, max_size=64)), min_size=1, max_size=4
    ))
    return l2, llc, latencies, calls


class TestHierarchyOracleParity:
    @settings(max_examples=150, deadline=None)
    @given(_hierarchy_workload())
    def test_latencies_and_throughput_floats_match(self, workload):
        (l2_sets, l2_ways), (llc_sets, llc_ways), latencies, calls = workload
        l2, l2_oracle = _pair(l2_sets, l2_ways, 64)
        llc, llc_oracle = _pair(llc_sets, llc_ways, 64)
        hierarchy = CacheHierarchy(l2, llc, *latencies)
        oracle = OracleHierarchy(l2_oracle, llc_oracle, *latencies)
        for call in calls:
            if isinstance(call, int):
                assert hierarchy.access(call) == oracle.access(call)
            else:
                assert hierarchy.gather_throughput(call, mlp=7.5) == \
                    oracle.gather_throughput(call, mlp=7.5)
            _assert_same(l2, l2_oracle)
            _assert_same(llc, llc_oracle)

    def test_xeon_ablation_stream_matches_oracle(self):
        # The ablation's Zipf-like reuse at full Xeon geometry.
        rng = np.random.default_rng(5)
        addrs = (rng.zipf(1.3, 3000) % 50_000) * 2048 + np.arange(3000) % 32 * 64
        hierarchy = CacheHierarchy.xeon_like()
        oracle = OracleHierarchy(OracleCache(1 << 20, ways=16), OracleCache(32 << 20, ways=16))
        for _ in range(2):
            assert hierarchy.gather_throughput(addrs) == \
                oracle.gather_throughput(addrs.tolist())
        _assert_same(hierarchy.l2, oracle.l2)
        _assert_same(hierarchy.llc, oracle.llc)
