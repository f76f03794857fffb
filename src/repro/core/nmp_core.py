"""The TensorDIMM buffer-device NMP core (Section 4.2, Fig. 6a).

One NMP core sits in each TensorDIMM's buffer device and contains:

* an NMP-local memory controller that expands TensorISA instructions into
  DRAM read/write transactions (modelled functionally here and with the
  cycle-level controller in :mod:`repro.core.tensordimm`),
* two input SRAM queues (A, B) and one output queue (C), each sized by the
  bandwidth-delay product rule of Section 4.2 (25.6 GB/s x 20 ns = 512 B),
* a 16-lane vector ALU clocked at 150 MHz that performs the element-wise
  arithmetic.

The functional semantics follow the pseudo code of Fig. 9 exactly, with the
``words_per_slice`` generalisation for embeddings wider than
``64 * node_dim`` bytes (see :mod:`repro.core.isa`).
"""

import hashlib
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..config import (
    ACCESS_GRANULARITY,
    DIMM_PEAK_BANDWIDTH,
    ELEMS_PER_WORD,
    NMP_ALU_CLOCK_HZ,
    NMP_ALU_LANES,
    NMP_QUEUE_DELAY_S,
)
from ..dram.command import TraceBuffer, TraceDescriptor
from ..dram.storage import WordStorage
from .isa import Instruction, Opcode, ReduceOp


def required_queue_bytes(
    bandwidth: float = DIMM_PEAK_BANDWIDTH, delay: float = NMP_QUEUE_DELAY_S
) -> int:
    """SRAM queue capacity by the bandwidth-delay product rule (Section 4.2)."""
    return int(bandwidth * delay)


class SramQueue:
    """A bounded FIFO of 64 B words with high-water-mark tracking."""

    def __init__(self, capacity_bytes: int = 512):
        if capacity_bytes < ACCESS_GRANULARITY:
            raise ValueError("queue must hold at least one 64 B word")
        self.capacity_words = capacity_bytes // ACCESS_GRANULARITY
        self._entries: deque[np.ndarray] = deque()
        self.high_water_words = 0
        self.total_pushed = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity_words

    def push(self, word: np.ndarray) -> None:
        if self.full:
            raise OverflowError("SRAM queue overflow")
        self._entries.append(word)
        self.total_pushed += 1
        self.high_water_words = max(self.high_water_words, len(self._entries))

    def pop(self) -> np.ndarray:
        if not self._entries:
            raise IndexError("SRAM queue underflow")
        return self._entries.popleft()


class VectorAlu:
    """The 16-wide, 150 MHz vector ALU.

    Each cycle it consumes one pair of 64 B operands and produces one 64 B
    result (16 FP32 lanes).  ``busy_cycles`` accumulates across calls so a
    TensorDIMM can report ALU utilisation.
    """

    def __init__(self, lanes: int = NMP_ALU_LANES, clock_hz: float = NMP_ALU_CLOCK_HZ):
        if lanes != ELEMS_PER_WORD:
            raise ValueError(
                f"ALU lanes must match the 64 B access granularity "
                f"({ELEMS_PER_WORD} FP32 lanes), got {lanes}"
            )
        self.lanes = lanes
        self.clock_hz = clock_hz
        self.busy_cycles = 0

    def elementwise(self, a: np.ndarray, b: np.ndarray, op: ReduceOp) -> np.ndarray:
        """Apply ``op`` lane-wise to word arrays of shape (n, 16)."""
        a = np.asarray(a, dtype=np.float32)
        b = np.asarray(b, dtype=np.float32)
        if a.shape != b.shape:
            raise ValueError(f"operand shape mismatch: {a.shape} vs {b.shape}")
        self.busy_cycles += a.reshape(-1, self.lanes).shape[0]
        if op == ReduceOp.SUM:
            return a + b
        if op == ReduceOp.SUB:
            return a - b
        if op == ReduceOp.MUL:
            return a * b
        if op == ReduceOp.MAX:
            return np.maximum(a, b)
        if op == ReduceOp.MIN:
            return np.minimum(a, b)
        raise ValueError(f"unsupported reduce op {op}")

    def accumulate_mean(self, groups: np.ndarray) -> np.ndarray:
        """Average over axis 1 of a (n, group, 16) word array.

        The ALU pops a *pair* of 64 B operands per cycle (Section 4.2), so
        an N-way accumulation costs ceil(N/2) cycles of input consumption
        plus one divide cycle per output word.  Note this still leaves
        AVERAGE partly compute-bound at full DRAM bandwidth — a property
        the paper's GPU-based emulation cannot expose.
        """
        groups = np.asarray(groups, dtype=np.float32)
        if groups.ndim != 3:
            raise ValueError("expected (outputs, group, lanes) array")
        outputs, group = groups.shape[0], groups.shape[1]
        self.busy_cycles += outputs * (-(-group // 2)) + outputs
        return groups.mean(axis=1, dtype=np.float32)

    def seconds(self, cycles: int | None = None) -> float:
        """Wall-clock time of ``cycles`` ALU cycles (default: all so far)."""
        if cycles is None:
            cycles = self.busy_cycles
        return cycles / self.clock_hz


@dataclass
class NmpExecStats:
    """Per-instruction execution statistics of one NMP core."""

    opcode: Opcode
    words_read: int = 0
    words_written: int = 0
    alu_cycles: int = 0

    @property
    def words_touched(self) -> int:
        return self.words_read + self.words_written

    @property
    def dram_bytes(self) -> int:
        return self.words_touched * ACCESS_GRANULARITY

    def dram_seconds(self, effective_bandwidth: float) -> float:
        """DRAM streaming time at a given effective local bandwidth."""
        if effective_bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        return self.dram_bytes / effective_bandwidth

    def alu_seconds(self, clock_hz: float = NMP_ALU_CLOCK_HZ) -> float:
        return self.alu_cycles / clock_hz

    def pipelined_seconds(
        self,
        effective_bandwidth: float,
        clock_hz: float = NMP_ALU_CLOCK_HZ,
    ) -> float:
        """Instruction time with DRAM and ALU fully overlapped.

        The queues decouple the two, so the slower of the two streams sets
        the pace.  For REDUCE the DRAM moves three words per ALU result,
        which is why the modest 150 MHz ALU never becomes the bottleneck at
        25.6 GB/s (Section 4.2's sizing argument).
        """
        return max(self.dram_seconds(effective_bandwidth), self.alu_seconds(clock_hz))


def trace_records(instr: Instruction) -> int:
    """Number of 64 B transactions in the instruction's trace.

    Computable from the instruction alone (no storage access), so the
    parallel engine can decide whether a trace is worth shipping to a
    worker process before generating it.
    """
    index_words = -(-instr.count // ELEMS_PER_WORD)
    if instr.opcode == Opcode.GATHER:
        return index_words + 2 * instr.count * instr.words_per_slice
    if instr.opcode == Opcode.REDUCE:
        return 3 * instr.count
    if instr.opcode == Opcode.AVERAGE:
        return instr.count * (instr.average_num + 1)
    if instr.opcode == Opcode.UPDATE:
        return index_words + 3 * instr.count * instr.words_per_slice
    raise ValueError(f"unknown opcode {instr.opcode}")


def expand(descriptor: TraceDescriptor, indices: np.ndarray | None = None) -> TraceBuffer:
    """Materialize the DRAM trace a :class:`TraceDescriptor` stands for.

    Pure module-level inverse of :meth:`NmpCore.describe`: given the
    descriptor and — for GATHER/UPDATE — the instruction's index array,
    rebuilds the instruction's columnar trace (the fuzz parity suite pins
    it against a per-instruction reference generator across every opcode
    and shape).  :func:`repro.dram.memo.drain` calls this on an
    instruction-memo miss, in worker processes too, so IPC payloads stay
    O(count) instead of O(trace records).
    """
    word = ACCESS_GRANULARITY
    opcode = Opcode(descriptor.opcode)
    count = descriptor.count
    wps = descriptor.words_per_slice
    if opcode in (Opcode.GATHER, Opcode.UPDATE):
        if indices is None:
            raise ValueError(f"{opcode.name} descriptors expand from an index array")
        rows = np.asarray(indices).astype(np.int64)
        if rows.shape != (count,):
            raise ValueError(
                f"descriptor expects {count} indices, got shape {rows.shape}"
            )
    if opcode == Opcode.GATHER:
        table_local, index_base, out_local = descriptor.bases
        index_words = -(-count // ELEMS_PER_WORD)
        idx_addrs = index_base + np.arange(index_words, dtype=np.int64)
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
    if opcode == Opcode.REDUCE:
        in1, in2, out = descriptor.bases
        i = np.arange(count, dtype=np.int64)[:, None]
        addrs = (np.array([in1, in2, out], dtype=np.int64) + i).reshape(-1)
        is_write = np.tile(np.array([False, False, True]), count)
        return TraceBuffer(addrs * word, is_write)
    if opcode == Opcode.AVERAGE:
        src_base, out = descriptor.bases
        group = descriptor.average_num
        i = np.arange(count, dtype=np.int64)
        row, k = i // wps, i % wps
        reads = src_base + ((row * group)[:, None] + np.arange(group, dtype=np.int64)) * wps + k[:, None]
        addrs = np.concatenate([reads, (out + i)[:, None]], axis=1).reshape(-1)
        is_write = np.tile(np.append(np.zeros(group, dtype=bool), True), count)
        return TraceBuffer(addrs * word, is_write)
    if opcode == Opcode.UPDATE:
        grad_local, table_local, index_base = descriptor.bases
        index_words = -(-count // ELEMS_PER_WORD)
        idx_addrs = index_base + np.arange(index_words, dtype=np.int64)
        offsets = np.arange(wps, dtype=np.int64)
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
    raise ValueError(f"unknown opcode {descriptor.opcode}")


class NmpCore:
    """One TensorDIMM's near-memory core: decode + execute + describe."""

    def __init__(self, dimm_id: int, node_dim: int, storage: WordStorage):
        if not 0 <= dimm_id < node_dim:
            raise ValueError(f"dimm_id {dimm_id} outside node of {node_dim}")
        self.dimm_id = dimm_id
        self.node_dim = node_dim
        self.storage = storage
        self.alu = VectorAlu()
        self.queue_a = SramQueue(required_queue_bytes())
        self.queue_b = SramQueue(required_queue_bytes())
        self.queue_out = SramQueue(required_queue_bytes())
        # One-slot index-buffer cache: describe() and execute() of the same
        # instruction both read the replicated index buffer; the second read
        # is served from here as long as the storage has not been written.
        self._index_cache: tuple[tuple[int, int], int, np.ndarray] | None = None
        # One-slot index-content digest cache, same invalidation rule:
        # describe() of a repeated GATHER/UPDATE hashes the indices once.
        self._digest_cache: tuple[tuple[int, int], int, bytes] | None = None

    # -- address helpers ------------------------------------------------------

    def _local_base(self, node_word: int) -> int:
        """DIMM-local word address of an aligned node-word base.

        Bases are aligned to ``node_dim``; this core's slice of a tensor at
        node word ``base`` starts at local word ``base // node_dim`` (the
        ``+ tid`` in Fig. 9's address arithmetic selects the DIMM and drops
        out of the local offset).
        """
        if node_word % self.node_dim:
            raise ValueError(
                f"node word base {node_word} not aligned to node_dim {self.node_dim}"
            )
        return node_word // self.node_dim

    # -- functional execution ---------------------------------------------------

    def execute(self, instr: Instruction) -> NmpExecStats:
        """Run one broadcast instruction's slice on this DIMM."""
        if instr.opcode == Opcode.GATHER:
            return self._execute_gather(instr)
        if instr.opcode == Opcode.REDUCE:
            return self._execute_reduce(instr)
        if instr.opcode == Opcode.AVERAGE:
            return self._execute_average(instr)
        if instr.opcode == Opcode.UPDATE:
            return self._execute_update(instr)
        raise ValueError(f"unknown opcode {instr.opcode}")

    def _read_index_buffer(self, instr: Instruction) -> np.ndarray:
        """Read ``count`` int32 lookup indices from the replicated buffer.

        Cached per (base, count) until the backing storage is written, so
        describing and then executing the same instruction reads DRAM once.
        """
        key = (instr.index_base, instr.count)
        cached = self._index_cache
        if cached is not None and cached[0] == key and cached[1] == self.storage.version:
            return cached[2]
        index_words = -(-instr.count // ELEMS_PER_WORD)
        raw = self.storage.read_indices(instr.index_base, index_words)
        indices = raw[: instr.count]
        self._index_cache = (key, self.storage.version, indices)
        return indices

    def _execute_gather(self, instr: Instruction) -> NmpExecStats:
        rows = self._read_index_buffer(instr)
        wps = instr.words_per_slice
        table_local = self._local_base(instr.table_base)
        out_local = self._local_base(instr.output_base)
        # Row r's slice on this DIMM: wps consecutive local words starting
        # at table_local + r * wps (see EmbeddingLayout.row_slice_local_words).
        src = (
            table_local
            + (rows.astype(np.int64)[:, None] * wps + np.arange(wps)[None, :])
        ).reshape(-1)
        values = self.storage.read_words(src)
        self.storage.write_words(out_local, values)
        index_words = -(-instr.count // ELEMS_PER_WORD)
        return NmpExecStats(
            opcode=Opcode.GATHER,
            words_read=len(src) + index_words,
            words_written=len(src),
            alu_cycles=0,  # gathers bypass the ALU (input queue -> output queue)
        )

    def _execute_reduce(self, instr: Instruction) -> NmpExecStats:
        in1 = self._local_base(instr.input_base)
        in2 = self._local_base(instr.aux)
        out = self._local_base(instr.output_base)
        count = instr.count
        a = self.storage.read_range(in1, count)
        b = self.storage.read_range(in2, count)
        alu_before = self.alu.busy_cycles
        result = self.alu.elementwise(a, b, instr.subop)
        self.storage.write_words(out, result)
        return NmpExecStats(
            opcode=Opcode.REDUCE,
            words_read=2 * count,
            words_written=count,
            alu_cycles=self.alu.busy_cycles - alu_before,
        )

    def _execute_average(self, instr: Instruction) -> NmpExecStats:
        """AVERAGE over groups of consecutive *rows* (Fig. 9c).

        The paper's pseudo code assumes each row is exactly one word per
        DIMM (``words_per_slice == 1``); for wider embeddings each output
        row spans ``wps`` local words and the group members are ``wps``
        words apart, so the grouping must stride accordingly.
        """
        src = self._local_base(instr.input_base)
        out = self._local_base(instr.output_base)
        count = instr.count  # output words on this DIMM
        group = instr.average_num
        wps = instr.words_per_slice
        if count % wps:
            raise ValueError(
                f"AVERAGE count {count} not divisible by words_per_slice {wps}"
            )
        out_rows = count // wps
        words = self.storage.read_range(src, count * group)
        alu_before = self.alu.busy_cycles
        # (out_rows, group, wps, 16): group members are whole rows.
        grouped = words.reshape(out_rows, group, wps, ELEMS_PER_WORD)
        result = self.alu.accumulate_mean(
            grouped.transpose(0, 2, 1, 3).reshape(count, group, ELEMS_PER_WORD)
        )
        self.storage.write_words(out, result)
        return NmpExecStats(
            opcode=Opcode.AVERAGE,
            words_read=count * group,
            words_written=count,
            alu_cycles=self.alu.busy_cycles - alu_before,
        )

    def _execute_update(self, instr: Instruction) -> NmpExecStats:
        """UPDATE (extension): scatter pre-scaled gradients into a table.

        ``table[idx[i]] (+|-)= grad[i]`` for ``count`` gradient rows, with
        duplicate indices accumulating sequentially (scatter-add).  The
        read-modify-write of each table slice happens entirely inside this
        DIMM; only the gradients crossed the interconnect.
        """
        if instr.subop not in (ReduceOp.SUM, ReduceOp.SUB):
            raise ValueError("UPDATE supports only SUM and SUB")
        rows = self._read_index_buffer(instr)
        wps = instr.words_per_slice
        grad_local = self._local_base(instr.input_base)
        table_local = self._local_base(instr.output_base)
        grads = self.storage.read_range(grad_local, instr.count * wps)
        grads = grads.reshape(instr.count, wps, ELEMS_PER_WORD)
        if instr.subop == ReduceOp.SUB:
            grads = -grads
        targets = (
            table_local
            + rows.astype(np.int64)[:, None] * wps
            + np.arange(wps)[None, :]
        ).reshape(-1)
        # Duplicate rows accumulate (scatter-add): fold the gradients of
        # identical target words together, then read-modify-write once.
        touched, inverse = np.unique(targets, return_inverse=True)
        delta = np.zeros((len(touched), ELEMS_PER_WORD), dtype=np.float32)
        np.add.at(delta, inverse, grads.reshape(-1, ELEMS_PER_WORD))
        self.storage.write_scattered(touched, self.storage.read_words(touched) + delta)
        self.alu.busy_cycles += instr.count * wps
        index_words = -(-instr.count // ELEMS_PER_WORD)
        return NmpExecStats(
            opcode=Opcode.UPDATE,
            words_read=instr.count * wps + len(touched) + index_words,
            words_written=len(touched),
            alu_cycles=instr.count * wps,
        )

    # -- symbolic trace description ---------------------------------------------

    def _index_digest(self, instr: Instruction) -> bytes:
        """Content digest of the instruction's index array (cached).

        O(index bytes) — 4 B per lookup — which is the whole point: the
        descriptor key for an index-driven instruction costs a hash over
        the indices, never over the O(records) trace columns.
        """
        key = (instr.index_base, instr.count)
        cached = self._digest_cache
        if cached is not None and cached[0] == key and cached[1] == self.storage.version:
            return cached[2]
        indices = self._read_index_buffer(instr)
        digest = hashlib.blake2b(indices.tobytes(), digest_size=16).digest()
        self._digest_cache = (key, self.storage.version, digest)
        return digest

    def instruction_indices(self, instr: Instruction) -> np.ndarray | None:
        """The index array an instruction's trace depends on (None if none).

        GATHER and UPDATE traces are functions of the index *contents*;
        REDUCE and AVERAGE are index-free.  This is what rides along with a
        shipped descriptor so a worker can :func:`expand` it locally.
        """
        if instr.opcode in (Opcode.GATHER, Opcode.UPDATE):
            return self._read_index_buffer(instr)
        return None

    def describe(self, instr: Instruction) -> TraceDescriptor:
        """Symbolic descriptor of the instruction's DRAM trace.

        Cheap by construction: no trace arrays are materialized and
        nothing O(records) is hashed — O(1) for REDUCE/AVERAGE, O(index
        bytes) for GATHER/UPDATE (the index-content digest).  Equal
        descriptors expand (:func:`expand`) to byte-identical traces, so
        ``(ControllerConfig, descriptor)`` keys the instruction-level
        timing memo.  Fields that cannot affect the trace are normalized
        out of the key (REDUCE ignores ``words_per_slice``; ``subop``
        never appears — it changes ALU semantics, not DRAM traffic).
        """
        if instr.opcode == Opcode.GATHER:
            return TraceDescriptor(
                opcode=int(Opcode.GATHER),
                count=instr.count,
                words_per_slice=instr.words_per_slice,
                bases=(
                    self._local_base(instr.table_base),
                    instr.index_base,
                    self._local_base(instr.output_base),
                ),
                index_digest=self._index_digest(instr),
            )
        if instr.opcode == Opcode.REDUCE:
            return TraceDescriptor(
                opcode=int(Opcode.REDUCE),
                count=instr.count,
                words_per_slice=1,  # REDUCE traces are wps-independent
                bases=(
                    self._local_base(instr.input_base),
                    self._local_base(instr.aux),
                    self._local_base(instr.output_base),
                ),
            )
        if instr.opcode == Opcode.AVERAGE:
            return TraceDescriptor(
                opcode=int(Opcode.AVERAGE),
                count=instr.count,
                words_per_slice=instr.words_per_slice,
                bases=(
                    self._local_base(instr.input_base),
                    self._local_base(instr.output_base),
                ),
                average_num=instr.average_num,
            )
        if instr.opcode == Opcode.UPDATE:
            return TraceDescriptor(
                opcode=int(Opcode.UPDATE),
                count=instr.count,
                words_per_slice=instr.words_per_slice,
                bases=(
                    self._local_base(instr.input_base),
                    self._local_base(instr.output_base),
                    instr.index_base,
                ),
                index_digest=self._index_digest(instr),
            )
        raise ValueError(f"unknown opcode {instr.opcode}")
