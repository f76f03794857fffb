"""DRAM trace types and the request sequence counter shared across the simulator."""

import hashlib

import numpy as np


class _SeqCounter:
    """Process-wide request sequence counter.  FR-FCFS breaks ties by age,
    so every record a controller queues — one whole trace per
    ``enqueue_batch`` call — draws its sequence number from this one
    monotonic source."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


_seq_counter = _SeqCounter()


def reserve_seq_block(n: int) -> int:
    """Reserve ``n`` consecutive sequence numbers; returns the first.

    O(1) regardless of ``n`` — the enqueue path labels a whole columnar
    trace with ``base + arange(n)`` instead of drawing numbers one by one."""
    base = _seq_counter.value
    _seq_counter.value = base + n
    return base


def seq_ceiling() -> int:
    """The next sequence number: every number drawn so far lies below it."""
    return _seq_counter.value


def _frozen(column: np.ndarray) -> np.ndarray:
    """A contiguous read-only view of ``column`` (the caller's array stays
    writable)."""
    view = np.ascontiguousarray(column).view()
    view.flags.writeable = False
    return view


class TraceBuffer:
    """A columnar memory trace: parallel numpy arrays instead of objects.

    The simulator's only trace type.  The hot path moves whole instruction
    traces around — tens of thousands of 64 B transactions per TensorISA
    instruction — so a trace is three parallel arrays (``addr`` int64 byte
    addresses, ``is_write`` bool, ``cycle`` int64 arrival cycles), and
    trace generation, address decoding, and enqueueing each run as a few
    whole-array numpy operations.  Record ``i`` is
    ``(cycle[i], addr[i], is_write[i])``; ``len``, :attr:`reads` and
    :attr:`writes` count a trace's records without visiting them.

    A trace must not change once built: :meth:`digest` is cached on the
    buffer and keys the timing memo.  The columns are therefore read-only
    views.  The constructor does not copy arrays that already have the
    column dtype, so do not write to such an input after handing it over;
    build a new buffer instead.
    """

    __slots__ = ("addr", "is_write", "cycle", "_digest")

    #: Process-wide materialization counters.  The instruction-level memo's
    #: contract is that a hit performs *zero* trace construction and *zero*
    #: bulk-array hashing; tests pin that claim by snapshotting these around
    #: the hit path.  Class attributes, so ``__slots__`` instances share them.
    constructions = 0
    digests_computed = 0

    def __init__(self, addr, is_write, cycle=None):
        TraceBuffer.constructions += 1
        addr = np.ascontiguousarray(addr, dtype=np.int64)
        if addr.ndim != 1:
            raise ValueError("addr must be a 1-D array")
        n = addr.shape[0]
        is_write = np.asarray(is_write, dtype=bool)
        if is_write.ndim == 0:
            is_write = np.broadcast_to(is_write, (n,)).copy()
        if is_write.shape != (n,):
            raise ValueError("is_write must match addr length")
        if cycle is None:
            cycle = np.zeros(n, dtype=np.int64)
        else:
            cycle = np.asarray(cycle, dtype=np.int64)
            if cycle.ndim == 0:
                cycle = np.broadcast_to(cycle, (n,)).copy()
            if cycle.shape != (n,):
                raise ValueError("cycle must match addr length")
        self.addr = _frozen(addr)
        self.is_write = _frozen(is_write)
        self.cycle = _frozen(cycle)
        self._digest: bytes | None = None

    def digest(self) -> bytes:
        """Digest of the trace's read stream and its write stream.

        Hashes the read records' ``(addr, cycle)`` columns in trace order,
        then the write records', each preceded by its count.  Two traces
        that interleave the same read stream with the same write stream in
        different ways therefore share a digest, and they drain
        bit-identically through equally configured controllers: reads and
        writes sit in separate backlogs, queues and bank maps, and sequence
        numbers are only ever compared within one of them (candidate
        selection, the per-bank minima, a streak's ``sorted(queue)``; the
        scan oracle likewise ranks only its active queue).  The directions
        interact only through counts (the watermarks, ``pending``), bank and
        rank state, and the data bus, none of which depends on how the two
        streams interleave.  A drain is thus a pure function of
        ``(config, read stream, write stream)``, so
        ``(ControllerConfig, digest)`` keys the cross-layer timing memo
        (:mod:`repro.dram.memo`).  An equal digest does not imply
        byte-identical buffers.

        A trace whose arrivals are all zero hashes a flag in place of its
        ``cycle`` column, and a one-direction trace skips the masking.
        Computed once and cached on the buffer (see the class docstring for
        why a buffer never changes)."""
        if self._digest is None:
            TraceBuffer.digests_computed += 1
            h = hashlib.sha1(usedforsecurity=False)
            paced = bool(self.cycle.any())
            h.update(b"\x01" if paced else b"\x00")
            n = len(self)
            writes = self.writes
            for count, mask in ((n - writes, ~self.is_write), (writes, self.is_write)):
                h.update(count.to_bytes(8, "little"))
                if count == n:
                    addr, cycle = self.addr, self.cycle
                elif count:
                    addr, cycle = self.addr[mask], self.cycle[mask]
                else:
                    continue
                h.update(addr.tobytes())
                if paced:
                    h.update(cycle.tobytes())
            self._digest = h.digest()
        return self._digest

    @classmethod
    def concat(cls, buffers) -> "TraceBuffer":
        """Concatenate several buffers in order."""
        if not buffers:
            return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))
        return cls(
            addr=np.concatenate([b.addr for b in buffers]),
            is_write=np.concatenate([b.is_write for b in buffers]),
            cycle=np.concatenate([b.cycle for b in buffers]),
        )

    def __len__(self) -> int:
        return self.addr.shape[0]

    @property
    def writes(self) -> int:
        return int(np.count_nonzero(self.is_write))

    @property
    def reads(self) -> int:
        return len(self) - self.writes
