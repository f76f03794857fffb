"""Memory-trace builders.

The paper hooks a tracing function into the DL framework and feeds the
resulting read/write streams to Ramulator (Section 5).  This module plays
the same role: it turns tensor-operation descriptions into 64 B transaction
streams, either for a conventional channel-interleaved memory system or for
a single TensorDIMM's local controller.

Every ``*_buffer`` builder returns a
:class:`~repro.dram.command.TraceBuffer`, the one trace representation,
built in a handful of whole-array operations; feed it to
:meth:`repro.dram.controller.MemoryController.enqueue_batch`.

The CPU baseline's three tensor operations also have a symbolic form,
:class:`SystemTraffic` (:func:`gather_traffic`, :func:`reduce_traffic`,
:func:`average_traffic`, with the builders' signatures).  It builds no
trace up front; :meth:`repro.dram.system.DramSystem.enqueue_traffic`
asks it for each channel's share in channel-local coordinates, and
channels whose shares have equal :meth:`SystemTraffic.share_key` get one
shared buffer.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .command import TraceBuffer

WORD_BYTES = 64


def streaming_buffer(
    base_addr: int, num_words: int, is_write: bool = False, start_cycle: int = 0
) -> TraceBuffer:
    """Sequential 64 B accesses over [base, base + num_words * 64)."""
    addrs = base_addr + np.arange(num_words, dtype=np.int64) * WORD_BYTES
    return TraceBuffer(addrs, bool(is_write), start_cycle)


def strided_buffer(
    base_addr: int, num_words: int, stride_words: int, is_write: bool = False
) -> TraceBuffer:
    """Accesses separated by a fixed stride (in 64 B words)."""
    addrs = base_addr + np.arange(num_words, dtype=np.int64) * stride_words * WORD_BYTES
    return TraceBuffer(addrs, bool(is_write))


def gather_buffer(
    table_base: int,
    row_words: int,
    rows: np.ndarray,
    output_base: int,
) -> TraceBuffer:
    """Embedding-gather traffic: read each looked-up row, write it out.

    Models the GATHER semantics of Fig. 9(a) on a flat address space: each
    gathered embedding is ``row_words`` consecutive 64 B words read from the
    table, then written to the next ``row_words`` words of a dense output
    tensor.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    offsets = np.arange(row_words, dtype=np.int64) * WORD_BYTES
    src = (table_base + rows * row_words * WORD_BYTES)[:, None] + offsets
    dst = (output_base + np.arange(len(rows), dtype=np.int64)[:, None] * row_words * WORD_BYTES) + offsets
    addrs = np.concatenate([src, dst], axis=1).reshape(-1)
    is_write = np.tile(np.repeat([False, True], row_words), len(rows))
    return TraceBuffer(addrs, is_write)


def reduce_buffer(
    input1_base: int, input2_base: int, output_base: int, num_words: int
) -> TraceBuffer:
    """Element-wise binary reduction traffic (Fig. 9b).

    Per word: read input 1, read input 2, write the output."""
    offsets = np.arange(num_words, dtype=np.int64)[:, None] * WORD_BYTES
    bases = np.array([input1_base, input2_base, output_base], dtype=np.int64)
    addrs = (bases + offsets).reshape(-1)
    is_write = np.tile(np.array([False, False, True]), num_words)
    return TraceBuffer(addrs, is_write)


def average_buffer(
    input_base: int, average_num: int, output_base: int, num_outputs: int
) -> TraceBuffer:
    """N-ary average traffic (Fig. 9c).

    Per output word: ``average_num`` contiguous input reads, then one write."""
    i = np.arange(num_outputs, dtype=np.int64)
    reads = input_base + ((i * average_num)[:, None] + np.arange(average_num, dtype=np.int64)) * WORD_BYTES
    writes = (output_base + i * WORD_BYTES)[:, None]
    addrs = np.concatenate([reads, writes], axis=1).reshape(-1)
    is_write = np.tile(np.append(np.zeros(average_num, dtype=bool), True), num_outputs)
    return TraceBuffer(addrs, is_write)


def _channel_run(base: int, length: int, channel: int, channels: int) -> tuple[int, int]:
    """``channel``'s part of the word run ``[base, base + length)``: its
    first channel-local word and its word count.  System word ``w`` lives on
    channel ``w % channels`` at local word ``w // channels``, so the part is
    itself a run."""
    skip = (channel - base) % channels
    return (base + skip) // channels, max(0, -(-(length - skip) // channels))


def _run_words(run: tuple[int, int]) -> np.ndarray:
    start, count = run
    return start + np.arange(count, dtype=np.int64)


@dataclass(frozen=True)
class SystemTraffic:
    """One tensor operation's CPU-side traffic, held symbolically.

    The same traffic as the op's ``*_buffer`` builder, over a flat,
    64 B-word-interleaved system address space, kept as a few integers:
    the ``bases`` (word addresses, in the builder's argument order),
    ``row_words`` (GATHER), ``num_words`` (GATHER rows, REDUCE words,
    AVERAGE outputs) and ``average_num``, plus the GATHER ``rows`` and their
    SHA-1 ``rows_digest``.  Every op writes one word run; GATHER reads its
    rows, REDUCE two runs word by word, AVERAGE one run.

    :meth:`share` builds one channel's share directly in channel-local
    coordinates, its reads then its writes: the read stream and write
    stream per-record routing of the builder's trace hands that channel,
    in another interleaving, which drains bit-identically (see
    :meth:`TraceBuffer.digest`).  Equal :meth:`share_key` values mean
    byte-identical shares.
    """

    op: str
    bases: tuple
    num_words: int
    row_words: int = 1
    average_num: int = 1
    rows: np.ndarray | None = field(default=None, compare=False, repr=False)
    rows_digest: bytes | None = None

    def word_span(self) -> tuple[int, int]:
        """The lowest and highest system word the traffic touches
        (``(0, -1)`` when it touches none)."""
        runs = [(self.bases[-1], self.num_words * self.row_words)]
        if self.op == "GATHER":
            if self.num_words and self.row_words:
                table = self.bases[0]
                runs.append((table + int(self.rows.min()) * self.row_words, 1))
                runs.append((table + int(self.rows.max()) * self.row_words, self.row_words))
        elif self.op == "REDUCE":
            runs += [(base, self.num_words) for base in self.bases[:2]]
        else:
            runs.append((self.bases[0], self.num_words * self.average_num))
        runs = [(base, length) for base, length in runs if length > 0]
        if not runs:
            return 0, -1
        return min(b for b, _ in runs), max(b + n - 1 for b, n in runs)

    def _read_plan(self, channel: int, channels: int) -> tuple:
        """The read stream of ``channel``'s share, as a hashable plan."""
        if self.op == "AVERAGE":
            length = self.num_words * self.average_num
            return ("run", _channel_run(self.bases[0], length, channel, channels))
        if self.op == "REDUCE":
            parts = []
            for base in self.bases[:2]:
                skip = (channel - base) % channels
                parts.append((skip, _channel_run(base, self.num_words, channel, channels)))
            # The run whose first word comes earlier leads; input 1 on a tie.
            first, second = sorted(parts, key=lambda part: part[0])
            return ("pair", first[1], second[1])
        table, row_words = self.bases[0], self.row_words
        if row_words % channels == 0:
            # Every row starts on the same channel residue as the table.
            skip = (channel - table) % channels
            return ("rows", self.rows_digest, row_words // channels, (table + skip) // channels)
        return ("rows", self.rows_digest, row_words, table, channel, channels)

    def share_key(self, channel: int, channels: int) -> tuple:
        """A hashable key of ``channel``'s share; equal keys, equal shares.

        When every base, the row width (GATHER) and the word count
        (REDUCE, AVERAGE) are multiples of ``channels`` words, every
        channel has the same key."""
        write_run = _channel_run(
            self.bases[-1], self.num_words * self.row_words, channel, channels
        )
        return (self.op, self._read_plan(channel, channels), write_run)

    def share(self, channel: int, channels: int) -> TraceBuffer:
        """``channel``'s share as a trace of channel-local byte addresses:
        its reads in stream order, then its writes.  O(share), plus O(rows)
        for a GATHER whose row width is not a multiple of ``channels``."""
        _, plan, write_run = self.share_key(channel, channels)
        kind = plan[0]
        if kind == "run":
            reads = _run_words(plan[1])
        elif kind == "pair":
            first, second = _run_words(plan[1]), _run_words(plan[2])
            reads = np.empty(len(first) + len(second), dtype=np.int64)
            reads[0::2] = first
            reads[1::2] = second
        else:
            starts = self.bases[0] + self.rows * self.row_words
            skips = (channel - starts) % channels
            counts = np.maximum(0, -(-(self.row_words - skips) // channels))
            firsts = (starts + skips) // channels
            ends = np.cumsum(counts)
            reads = np.repeat(firsts - (ends - counts), counts) + np.arange(
                ends[-1] if len(ends) else 0, dtype=np.int64
            )
        writes = _run_words(write_run)
        is_write = np.zeros(len(reads) + len(writes), dtype=bool)
        is_write[len(reads):] = True
        return TraceBuffer(np.concatenate([reads, writes]) * WORD_BYTES, is_write)


def _word_bases(*bases: int) -> tuple:
    for base in bases:
        if base % WORD_BYTES:
            raise ValueError(f"base address {base:#x} is not {WORD_BYTES} B-aligned")
    return tuple(base // WORD_BYTES for base in bases)


def gather_traffic(
    table_base: int, row_words: int, rows: np.ndarray, output_base: int
) -> SystemTraffic:
    """:func:`gather_buffer`'s traffic as a :class:`SystemTraffic`."""
    rows = np.array(rows, dtype=np.int64).reshape(-1)
    rows.flags.writeable = False
    return SystemTraffic(
        "GATHER",
        _word_bases(table_base, output_base),
        len(rows),
        row_words=row_words,
        rows=rows,
        rows_digest=hashlib.sha1(rows.tobytes(), usedforsecurity=False).digest(),
    )


def reduce_traffic(
    input1_base: int, input2_base: int, output_base: int, num_words: int
) -> SystemTraffic:
    """:func:`reduce_buffer`'s traffic as a :class:`SystemTraffic`."""
    return SystemTraffic(
        "REDUCE", _word_bases(input1_base, input2_base, output_base), num_words
    )


def average_traffic(
    input_base: int, average_num: int, output_base: int, num_outputs: int
) -> SystemTraffic:
    """:func:`average_buffer`'s traffic as a :class:`SystemTraffic`."""
    return SystemTraffic(
        "AVERAGE",
        _word_bases(input_base, output_base),
        num_outputs,
        average_num=average_num,
    )
