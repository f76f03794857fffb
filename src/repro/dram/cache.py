"""Set-associative LRU cache model for the CPU-gather ablation.

Gupta et al. (cited in Section 7) observed that the irregular, sparse access
pattern of embedding lookups makes CPU cache hit rates extremely low, so the
cache hierarchy's lookup latency is paid on nearly every access and less
than 5% of the DRAM bandwidth is realised.  This module models an LRU
set-associative hierarchy to reproduce that observation and to justify the
CPU gather-efficiency factor used by the system model.

A batch of accesses is decided at once by LRU stack distance.  An access
hits iff its line was seen before -- resident, or earlier in the batch --
and fewer than ``ways`` distinct lines of its set were touched since then.
That is exact for LRU: a line's position in its set's recency stack is the
number of distinct lines of the set touched since its own last touch, and
LRU evicts exactly the lines whose position reaches ``ways``.  A reuse gap
of fewer than ``ways`` accesses is a hit outright; a longer gap is settled
by counting the last occurrences inside it.

State carries across calls as the resident lines of each set, LRU first:
one int64 array grouped by set.  A call puts the resident lines of the sets
it touches in front of its batch, as if they had just been accessed in LRU
to MRU order (which rebuilds exactly the same recency stack), and afterwards
keeps the last ``ways`` distinct lines of each touched set.  Sets never
shrink, so a call that fills no new way rewrites its sets in place; only a
call that grows a set splices the array.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses


def _addresses(addrs) -> np.ndarray:
    """``addrs`` as a flat int64 array; rejects non-integer or negative ones."""
    addrs = np.asarray(addrs).ravel()
    if not addrs.size:
        return addrs.astype(np.int64)
    if addrs.dtype.kind not in "iu":
        raise ValueError(f"addr must be integers, got dtype {addrs.dtype}")
    addrs = addrs.astype(np.int64, copy=False)
    if addrs.min() < 0:
        raise ValueError(f"addr must be non-negative, got {addrs.min()}")
    return addrs


class Cache:
    """An LRU set-associative cache over 64 B lines."""

    def __init__(self, capacity_bytes: int, ways: int = 8, line_bytes: int = 64):
        for name, value in (("capacity_bytes", capacity_bytes), ("ways", ways),
                            ("line_bytes", line_bytes)):
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if capacity_bytes % (ways * line_bytes):
            raise ValueError("capacity_bytes must be a multiple of ways * line_bytes")
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = capacity_bytes // (ways * line_bytes)
        # Resident lines grouped by ascending set, LRU first within a set,
        # and the set of each.
        self._lines = np.empty(0, dtype=np.int64)
        self._sets = np.empty(0, dtype=np.int64)
        self.stats = CacheStats()

    def access(self, addr: int) -> bool:
        """Touch one address; returns True on hit."""
        return bool(self.access_batch([addr])[0])

    def access_many(self, addrs) -> int:
        """Touch a sequence of addresses; returns the number of hits."""
        return int(np.count_nonzero(self.access_batch(addrs)))

    def access_batch(self, addrs) -> np.ndarray:
        """Touch a sequence of addresses in order; returns the hit mask."""
        lines = _addresses(addrs) // self.line_bytes
        if not lines.size:
            return np.zeros(0, dtype=bool)
        # The batch in set-major order: a set's accesses contiguous, in time order.
        sets = lines % self.num_sets
        by_set = np.argsort(sets, kind="stable")
        lines, sets = lines[by_set], sets[by_set]
        touched = sets[np.flatnonzero(np.diff(sets, prepend=-1))]
        lo = np.searchsorted(self._sets, touched, "left")
        counts = np.searchsorted(self._sets, touched, "right") - lo
        held = np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)

        # Each touched set's resident lines (LRU first) go before its batch
        # accesses; ``seq`` is that sequence, still set-major.
        held_sets = self._sets[held]
        size = held.size + lines.size
        at_held = np.arange(held.size) + np.searchsorted(sets, held_sets, "left")
        at_batch = np.arange(lines.size) + np.searchsorted(held_sets, sets, "right")
        seq = np.empty(size, dtype=np.int64)
        seq[at_held] = self._lines[held]
        seq[at_batch] = lines
        seq_sets = seq % self.num_sets
        by_line = np.argsort(seq, kind="stable")
        same = seq[by_line[1:]] == seq[by_line[:-1]]
        prev = np.full(size, -1)
        prev[by_line[1:][same]] = by_line[:-1][same]
        nxt = np.full(size, size)
        nxt[by_line[:-1][same]] = by_line[1:][same]

        hit = prev >= 0
        pos = np.arange(size)
        for j in np.flatnonzero(hit & (pos - prev > self.ways)):
            # Distinct lines touched in the gap: those not touched again before j.
            hit[j] = np.count_nonzero(nxt[prev[j] + 1 : j] > j) < self.ways

        # New state: the last ``ways`` distinct lines of each touched set.
        last = nxt == size
        later = np.append(np.cumsum(last[::-1])[::-1], 0)
        set_end = np.searchsorted(seq_sets, seq_sets, "right")
        keep = last & (later[pos] - later[set_end] <= self.ways)
        if np.count_nonzero(keep) == held.size:
            self._lines[held] = seq[keep]
        else:
            rest_sets = np.delete(self._sets, held)
            at = np.searchsorted(rest_sets, seq_sets[keep])
            self._lines = np.insert(np.delete(self._lines, held), at, seq[keep])
            self._sets = np.insert(rest_sets, at, seq_sets[keep])

        mask = np.empty(lines.size, dtype=bool)
        mask[by_set] = hit[at_batch]
        hits = int(np.count_nonzero(mask))
        self.stats.hits += hits
        self.stats.misses += mask.size - hits
        return mask


@dataclass
class CacheHierarchy:
    """A two-level hierarchy (private L2 + shared LLC) for gather studies."""

    l2: Cache
    llc: Cache
    l2_latency_ns: float = 5.0
    llc_latency_ns: float = 20.0
    dram_latency_ns: float = 80.0

    @classmethod
    def xeon_like(cls) -> "CacheHierarchy":
        """A Skylake-SP-like hierarchy: 1 MB L2, 32 MB shared LLC."""
        return cls(l2=Cache(1 << 20, ways=16), llc=Cache(32 << 20, ways=16))

    def access(self, addr: int) -> float:
        """Returns the access latency in nanoseconds."""
        return float(self.latencies([addr])[0])

    def latencies(self, addrs) -> np.ndarray:
        """Per-access latency (ns) of a stream: all of it through L2, then
        the L2 misses, in order, through the LLC."""
        addrs = _addresses(addrs)
        ns = np.full(addrs.size, self.dram_latency_ns, dtype=np.float64)
        l2_hit = self.l2.access_batch(addrs)
        ns[l2_hit] = self.l2_latency_ns
        l2_miss = np.flatnonzero(~l2_hit)
        ns[l2_miss[self.llc.access_batch(addrs[l2_miss])]] = self.llc_latency_ns
        return ns

    def gather_throughput(self, addrs, mlp: float = 10.0) -> float:
        """Bytes/second sustained by a sparse gather stream.

        Each 64 B access pays the hierarchy's lookup latency; a core keeps
        about ``mlp`` misses in flight.  With a cold cache this lands at a
        few GB/s — i.e. <5% of an 8-channel system's 204.8 GB/s peak, which
        reproduces the Gupta et al. observation the paper cites.
        """
        if not mlp > 0:
            raise ValueError(f"mlp must be positive, got {mlp}")
        ns = self.latencies(addrs)
        if not ns.size:
            return 0.0
        # A sequential sum in access order, as Python's ``sum`` adds.
        avg_ns = float(np.cumsum(ns)[-1]) / ns.size
        return mlp * self.l2.line_bytes / (avg_ns * 1e-9)

    def gather_efficiency(self, addrs, peak_bandwidth: float, mlp: float = 10.0) -> float:
        """Fraction of ``peak_bandwidth`` realised by a gather stream."""
        if peak_bandwidth <= 0:
            raise ValueError("peak bandwidth must be positive")
        return min(1.0, self.gather_throughput(addrs, mlp) / peak_bandwidth)
