"""Memory-trace builders.

The paper hooks a tracing function into the DL framework and feeds the
resulting read/write streams to Ramulator (Section 5).  This module plays
the same role: it turns tensor-operation descriptions into 64 B transaction
streams, either for a conventional channel-interleaved memory system or for
a single TensorDIMM's local controller.

Every builder returns a :class:`~repro.dram.command.TraceBuffer`, the one
trace representation, built in a handful of whole-array operations; feed
it to :meth:`repro.dram.system.DramSystem.enqueue_trace` or
:meth:`repro.dram.controller.MemoryController.enqueue_batch`.
"""

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
