"""Per-access LRU reference for ``repro.dram.cache``.

``OracleCache`` keeps one ``OrderedDict`` of tags per set and walks a stream
one address at a time, moving a hit to the MRU end and evicting the LRU tag
on a miss into a full set.  ``OracleHierarchy`` sends each L2 miss to the
LLC and sums latencies with Python's ``sum``.  The vectorized model must
agree with these on every hit, every counter and every float.
"""

from collections import OrderedDict

from repro.dram.cache import CacheStats


class OracleCache:
    """An LRU set-associative cache over 64 B lines, one access at a time."""

    def __init__(self, capacity_bytes: int, ways: int = 8, line_bytes: int = 64):
        if capacity_bytes % (ways * line_bytes):
            raise ValueError("capacity must be a multiple of ways * line size")
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = capacity_bytes // (ways * line_bytes)
        self._sets = [OrderedDict() for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def access(self, addr: int) -> bool:
        """Touch one address; returns True on hit."""
        line = addr // self.line_bytes
        index = line % self.num_sets
        tag = line // self.num_sets
        entries = self._sets[index]
        if tag in entries:
            entries.move_to_end(tag)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(entries) >= self.ways:
            entries.popitem(last=False)
        entries[tag] = True
        return False

    def resident(self) -> list[list[int]]:
        """Each set's resident lines, LRU first."""
        return [
            [tag * self.num_sets + index for tag in entries]
            for index, entries in enumerate(self._sets)
        ]


class OracleHierarchy:
    """Private L2 + shared LLC, walked one access at a time."""

    def __init__(self, l2: OracleCache, llc: OracleCache, l2_latency_ns=5.0,
                 llc_latency_ns=20.0, dram_latency_ns=80.0):
        self.l2 = l2
        self.llc = llc
        self.l2_latency_ns = l2_latency_ns
        self.llc_latency_ns = llc_latency_ns
        self.dram_latency_ns = dram_latency_ns

    def access(self, addr: int) -> float:
        """Returns the access latency in nanoseconds."""
        if self.l2.access(addr):
            return self.l2_latency_ns
        if self.llc.access(addr):
            return self.llc_latency_ns
        return self.dram_latency_ns

    def gather_throughput(self, addrs, mlp: float = 10.0) -> float:
        addrs = list(addrs)
        if not addrs:
            return 0.0
        avg_ns = sum(self.access(addr) for addr in addrs) / len(addrs)
        return mlp * self.l2.line_bytes / (avg_ns * 1e-9)
