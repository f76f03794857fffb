"""DRAM trace types and the request sequence counter shared across the simulator."""

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

    A trace must not change once built: a controller keeps the buffers it
    was handed until it drains them.  The columns are therefore read-only
    views.  The constructor does not copy arrays that already have the
    column dtype, so do not write to such an input after handing it over;
    build a new buffer instead.
    """

    __slots__ = ("addr", "is_write", "cycle")

    #: Process-wide construction counter.  The memo's contract is that a
    #: hit builds *no* trace; tests pin that claim by snapshotting it around
    #: the hit path.  A class attribute, so ``__slots__`` instances share it.
    constructions = 0

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

    def __len__(self) -> int:
        return self.addr.shape[0]

    @property
    def writes(self) -> int:
        return int(np.count_nonzero(self.is_write))

    @property
    def reads(self) -> int:
        return len(self) - self.writes
