"""Reference trace generators for the tests.

The package has one trace type, the columnar
:class:`~repro.dram.command.TraceBuffer`, and one traffic description,
:class:`~repro.dram.trace.OpTraffic`, whose shares are built reads first,
then writes.  The generators here build each op's traffic one record at a
time in program order (per row or word: its reads, then its write), as a
reference: the builder-equivalence tests compare every description's
read stream and write stream against its generator's, and the parity
tests feed the records one by one through the scan oracle's
``enqueue_record`` to pin what the batched paths compute.
:func:`nmp_trace` builds an NMP instruction's trace directly from the
instruction, the reference for :meth:`repro.core.nmp_core.NmpCore.describe`.
"""

from typing import Iterable, Iterator, NamedTuple

import numpy as np

from repro.config import ACCESS_GRANULARITY, ELEMS_PER_WORD
from repro.core.isa import Opcode
from repro.dram.command import TraceBuffer

WORD_BYTES = 64


class Record(NamedTuple):
    """One (cycle, address, is_write) trace record."""

    cycle: int
    addr: int
    is_write: bool


def streaming_trace(
    base_addr: int, num_words: int, is_write: bool = False, start_cycle: int = 0
) -> Iterator[Record]:
    for i in range(num_words):
        yield Record(start_cycle, base_addr + i * WORD_BYTES, is_write)


def gather_trace(
    table_base: int, row_words: int, rows: np.ndarray, output_base: int
) -> Iterator[Record]:
    out = 0
    for row in np.asarray(rows).reshape(-1):
        src = table_base + int(row) * row_words * WORD_BYTES
        for w in range(row_words):
            yield Record(0, src + w * WORD_BYTES, False)
        for w in range(row_words):
            yield Record(0, output_base + (out + w) * WORD_BYTES, True)
        out += row_words


def reduce_trace(
    input1_base: int, input2_base: int, output_base: int, num_words: int
) -> Iterator[Record]:
    for i in range(num_words):
        offset = i * WORD_BYTES
        yield Record(0, input1_base + offset, False)
        yield Record(0, input2_base + offset, False)
        yield Record(0, output_base + offset, True)


def average_trace(
    input_base: int, average_num: int, output_base: int, num_outputs: int
) -> Iterator[Record]:
    for i in range(num_outputs):
        for j in range(average_num):
            yield Record(0, input_base + (i * average_num + j) * WORD_BYTES, False)
        yield Record(0, output_base + i * WORD_BYTES, True)


def streams(trace: TraceBuffer) -> tuple[list, list]:
    """A trace's read stream and write stream: the ``(addr, cycle)`` pairs
    of each direction, in trace order.  Equal streams drain identically,
    however the two interleave (``tests/test_perf_parity.py``'s
    ``TestReinterleaveFuzzParity``)."""
    pairs = list(zip(trace.addr.tolist(), trace.cycle.tolist()))
    is_write = trace.is_write.tolist()
    return (
        [p for p, w in zip(pairs, is_write) if not w],
        [p for p, w in zip(pairs, is_write) if w],
    )


def strided_trace(
    input_base: int, average_num: int, output_base: int, num_rows: int, row_words: int
) -> Iterator[Record]:
    """AVERAGE over rows ``row_words`` words wide: output word ``k`` of a
    row reads word ``k`` of each of its ``average_num`` input rows,
    ``row_words`` words apart, then is written."""
    for r in range(num_rows):
        for k in range(row_words):
            for j in range(average_num):
                word = (r * average_num + j) * row_words + k
                yield Record(0, input_base + word * WORD_BYTES, False)
            yield Record(0, output_base + (r * row_words + k) * WORD_BYTES, True)


def records(trace: TraceBuffer) -> list[Record]:
    """The records of a columnar trace, in order."""
    return [
        Record(cycle, addr, is_write)
        for cycle, addr, is_write in zip(
            trace.cycle.tolist(), trace.addr.tolist(), trace.is_write.tolist()
        )
    ]


def to_buffer(trace: Iterable[Record]) -> TraceBuffer:
    """The columnar form of a record sequence."""
    trace = list(trace)
    return TraceBuffer(
        [r.addr for r in trace],
        np.array([r.is_write for r in trace], dtype=bool),
        [r.cycle for r in trace],
    )


def concat(buffers) -> TraceBuffer:
    """Several traces as one, in order."""
    columns = ("addr", "is_write", "cycle")
    return TraceBuffer(*(np.concatenate([getattr(b, c) for b in buffers]) for c in columns))


def reinterleave(trace: TraceBuffer, rng: np.random.Generator) -> TraceBuffer:
    """A random merge of ``trace``'s read stream with its write stream.

    Each direction keeps its records, in order; only where the reads and
    the writes fall relative to each other is redrawn.
    """
    is_write = rng.permutation(trace.is_write)
    order = np.empty(len(trace), dtype=np.int64)
    order[~is_write] = np.flatnonzero(~trace.is_write)
    order[is_write] = np.flatnonzero(trace.is_write)
    return TraceBuffer(trace.addr[order], is_write, trace.cycle[order])


def routed_shares(system, trace: TraceBuffer) -> list[TraceBuffer | None]:
    """Each channel's share of a system-address trace, routed one record at
    a time through :meth:`DramSystem.route` (``None`` for a channel with no
    records): the per-record reference for
    :meth:`~repro.dram.trace.OpTraffic.share`.  Every address is routed
    before any share is built, so a bad one raises ``ValueError`` first."""
    routed = [[] for _ in system.controllers]
    for r in records(trace):
        channel, local = system.route(r.addr)
        routed[channel].append(Record(r.cycle, local, r.is_write))
    return [to_buffer(share) if share else None for share in routed]


def enqueue_routed(system, trace: TraceBuffer) -> None:
    """Queue a system-address trace on a ``DramSystem`` by per-record
    routing, each channel's records as one buffer in trace order."""
    for controller, share in zip(system.controllers, routed_shares(system, trace)):
        if share is not None:
            controller.enqueue_batch(share)


def enqueue_records(controller, trace, completions=None) -> None:
    """Queue a trace one record at a time on a scan oracle (the per-record
    reference path); ``completions[i]`` receives record ``i``'s burst end.

    ``trace`` is a :class:`TraceBuffer` or any record sequence.
    """
    if isinstance(trace, TraceBuffer):
        trace = records(trace)
    for i, r in enumerate(trace):
        controller.enqueue_record(r.addr, r.is_write, r.cycle, completions, i)


def nmp_trace(core, instr) -> TraceBuffer:
    """The DIMM-local trace of one instruction on NMP core ``core``.

    The instruction's 64 B transactions in program order, built straight
    from the instruction: the reference for the symbolic pipeline, whose
    trace ``core.describe(instr).share(0, 1)`` must have the same read
    stream and the same write stream.
    """
    word = ACCESS_GRANULARITY
    index_words = -(-instr.count // ELEMS_PER_WORD)
    if instr.opcode in (Opcode.GATHER, Opcode.UPDATE):
        indices = core.storage.read_indices(instr.index_base, index_words)
        rows = indices[: instr.count].astype(np.int64)
    if instr.opcode == Opcode.GATHER:
        wps = instr.words_per_slice
        table_local = core._local_base(instr.table_base)
        out_local = core._local_base(instr.output_base)
        idx_addrs = instr.index_base + np.arange(index_words, dtype=np.int64)
        # Per row: wps source reads then wps destination writes.
        offsets = np.arange(wps, dtype=np.int64)
        src = (table_local + rows * wps)[:, None] + offsets
        dst = (out_local + np.arange(len(rows), dtype=np.int64) * wps)[:, None] + offsets
        body = np.concatenate([src, dst], axis=1).reshape(-1)
        addrs = np.concatenate([idx_addrs, body])
        is_write = np.concatenate(
            [
                np.zeros(index_words, dtype=bool),
                np.tile(np.repeat([False, True], wps), len(rows)),
            ]
        )
        return TraceBuffer(addrs * word, is_write)
    if instr.opcode == Opcode.REDUCE:
        in1 = core._local_base(instr.input_base)
        in2 = core._local_base(instr.aux)
        out = core._local_base(instr.output_base)
        i = np.arange(instr.count, dtype=np.int64)[:, None]
        addrs = (np.array([in1, in2, out], dtype=np.int64) + i).reshape(-1)
        is_write = np.tile(np.array([False, False, True]), instr.count)
        return TraceBuffer(addrs * word, is_write)
    if instr.opcode == Opcode.AVERAGE:
        src = core._local_base(instr.input_base)
        out = core._local_base(instr.output_base)
        wps = instr.words_per_slice
        group = instr.average_num
        i = np.arange(instr.count, dtype=np.int64)
        row, k = i // wps, i % wps
        # Per output word: its group's reads, then one write.
        reads = src + ((row * group)[:, None] + np.arange(group, dtype=np.int64)) * wps + k[:, None]
        addrs = np.concatenate([reads, (out + i)[:, None]], axis=1).reshape(-1)
        is_write = np.tile(np.append(np.zeros(group, dtype=bool), True), instr.count)
        return TraceBuffer(addrs * word, is_write)
    if instr.opcode == Opcode.UPDATE:
        wps = instr.words_per_slice
        grad_local = core._local_base(instr.input_base)
        table_local = core._local_base(instr.output_base)
        idx_addrs = instr.index_base + np.arange(index_words, dtype=np.int64)
        offsets = np.arange(wps, dtype=np.int64)
        # Per (row, word): gradient read, table read, table write.
        grad = (grad_local + np.arange(len(rows), dtype=np.int64) * wps)[:, None] + offsets
        target = (table_local + rows * wps)[:, None] + offsets
        body = np.stack([grad, target, target], axis=2).reshape(-1)
        addrs = np.concatenate([idx_addrs, body])
        is_write = np.concatenate(
            [
                np.zeros(index_words, dtype=bool),
                np.tile(np.array([False, False, True]), len(rows) * wps),
            ]
        )
        return TraceBuffer(addrs * word, is_write)
    raise ValueError(f"unknown opcode {instr.opcode}")
