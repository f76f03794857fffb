"""The TensorDIMM buffer-device NMP core (Section 4.2, Fig. 6a).

One NMP core sits in each TensorDIMM's buffer device and contains:

* an NMP-local memory controller that turns TensorISA instructions into
  DRAM read/write transactions: :meth:`NmpCore.describe` gives an
  instruction's traffic on its DIMM as an
  :class:`~repro.dram.trace.OpTraffic`, the description every layer uses,
  whose one-channel share is the trace that
  :mod:`repro.core.tensordimm` drains through the cycle-level controller,
* two input SRAM queues (A, B) and one output queue (C), each sized by the
  bandwidth-delay product rule of Section 4.2 (25.6 GB/s x 20 ns = 512 B),
* a 16-lane vector ALU clocked at 150 MHz that performs the element-wise
  arithmetic.

The functional semantics follow the pseudo code of Fig. 9 exactly, with the
``words_per_slice`` generalisation for embeddings wider than
``64 * node_dim`` bytes (see :mod:`repro.core.isa`).  They are written once,
as kernels over the memory of ``k`` lock-stepped cores
(:func:`execute_broadcast`): a TensorNode runs each broadcast instruction
once over all of its DIMMs, and a lone core is the ``k = 1`` case.
"""

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
from ..dram.storage import WordStorage
from ..dram.trace import OpTraffic
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


#: The ALU's element-wise operations, lane by lane in FP32.
_ALU_OPS = {
    ReduceOp.SUM: np.add,
    ReduceOp.SUB: np.subtract,
    ReduceOp.MUL: np.multiply,
    ReduceOp.MAX: np.maximum,
    ReduceOp.MIN: np.minimum,
}


def _alu_op(op: ReduceOp):
    fn = _ALU_OPS.get(op)
    if fn is None:
        raise ValueError(f"unsupported reduce op {op}")
    return fn


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
        fn = _alu_op(op)
        self.busy_cycles += a.reshape(-1, self.lanes).shape[0]
        return fn(a, b)

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
        self.busy_cycles += self.mean_cycles(groups.shape[0], groups.shape[1])
        return groups.mean(axis=1, dtype=np.float32)

    @staticmethod
    def mean_cycles(outputs: int, group: int) -> int:
        """ALU cycles of ``outputs`` ``group``-way averages (see above)."""
        return outputs * (-(-group // 2)) + outputs

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


# -- functional execution: one kernel per opcode over k cores' memory ----------


def local_base(node_word: int, node_dim: int) -> int:
    """DIMM-local word address of an aligned node-word base.

    Bases are aligned to ``node_dim``; every core's slice of a tensor at
    node word ``base`` starts at local word ``base // node_dim`` (the
    ``+ tid`` in Fig. 9's address arithmetic selects the DIMM and drops
    out of the local offset).
    """
    if node_word % node_dim:
        raise ValueError(
            f"node word base {node_word} not aligned to node_dim {node_dim}"
        )
    return node_word // node_dim


def check_range(words: np.ndarray, start: int, count: int) -> None:
    """Raise ``IndexError`` unless rows ``[start, start + count)`` of ``words`` exist."""
    if start < 0 or start + count > words.shape[0]:
        raise IndexError(
            f"word range [{start}, {start + count}) outside capacity {words.shape[0]}"
        )


def _index_rows(words: np.ndarray, instr: Instruction) -> np.ndarray:
    """Every core's own copy of the replicated index buffer, ``(count, k)``."""
    index_words = -(-instr.count // ELEMS_PER_WORD)
    check_range(words, instr.index_base, index_words)
    raw = words[instr.index_base : instr.index_base + index_words].view(np.int32)
    rows = raw.transpose(0, 2, 1).reshape(-1, words.shape[1])[: instr.count]
    return rows.astype(np.int64)


def _slice_words(words: np.ndarray, base: int, rows: np.ndarray, wps: int) -> np.ndarray:
    """``(count * wps, k)`` node-linear word numbers of each core's row slices.

    Row ``r``'s slice on a core is ``wps`` local words from ``base + r *
    wps``; core ``d``'s local word ``l`` is word ``l * k + d`` of the
    flattened ``(local_words * k, 16)`` memory.  Checked against the
    capacity for every core before anything is read or written.
    """
    k = words.shape[1]
    if rows.size:
        low = base + int(rows.min()) * wps
        high = base + int(rows.max()) * wps + wps
        if low < 0 or high > words.shape[0]:
            raise IndexError("word index out of range")
    offsets = base * k + np.arange(wps)[:, None] * k + np.arange(k)
    return (rows[:, None, :] * (wps * k) + offsets).reshape(-1, k)


def _uniform(words: np.ndarray, opcode: Opcode, **counts) -> list[NmpExecStats]:
    """One stats record per core, for work that is the same on every core."""
    return [NmpExecStats(opcode=opcode, **counts) for _ in range(words.shape[1])]


def _execute_gather(words, instr, node_dim):
    rows = _index_rows(words, instr)
    wps = instr.words_per_slice
    out = local_base(instr.output_base, node_dim)
    src = _slice_words(words, local_base(instr.table_base, node_dim), rows, wps)
    n = len(src)
    check_range(words, out, n)
    flat = words.reshape(-1, ELEMS_PER_WORD)
    words[out : out + n] = flat.take(src.reshape(-1), axis=0).reshape(*src.shape, -1)
    index_words = -(-instr.count // ELEMS_PER_WORD)
    # gathers bypass the ALU (input queue -> output queue)
    return _uniform(words, Opcode.GATHER, words_read=n + index_words, words_written=n)


def _execute_reduce(words, instr, node_dim):
    in1 = local_base(instr.input_base, node_dim)
    in2 = local_base(instr.aux, node_dim)
    out = local_base(instr.output_base, node_dim)
    count = instr.count
    for start in (in1, in2, out):
        check_range(words, start, count)
    op = _alu_op(instr.subop)
    words[out : out + count] = op(words[in1 : in1 + count], words[in2 : in2 + count])
    return _uniform(
        words, Opcode.REDUCE, words_read=2 * count, words_written=count, alu_cycles=count
    )


def _execute_average(words, instr, node_dim):
    """AVERAGE over groups of consecutive *rows* (Fig. 9c).

    The paper's pseudo code assumes each row is exactly one word per
    DIMM (``words_per_slice == 1``); for wider embeddings each output
    row spans ``wps`` local words and the group members are ``wps``
    words apart, so the grouping must stride accordingly.
    """
    src = local_base(instr.input_base, node_dim)
    out = local_base(instr.output_base, node_dim)
    count = instr.count  # output words per core
    group = instr.average_num
    wps = instr.words_per_slice
    if count % wps:
        raise ValueError(
            f"AVERAGE count {count} not divisible by words_per_slice {wps}"
        )
    check_range(words, src, count * group)
    check_range(words, out, count)
    k = words.shape[1]
    # (out_rows, group, wps, k, 16): group members are whole rows.  The
    # mean runs over a non-innermost axis, so each lane of each core adds
    # its group members one after another in group order: the same float32
    # sums whatever k is, or whether a core runs alone.
    grouped = words[src : src + count * group].reshape(
        count // wps, group, wps, k, ELEMS_PER_WORD
    )
    words[out : out + count] = grouped.mean(axis=1, dtype=np.float32).reshape(
        count, k, ELEMS_PER_WORD
    )
    return _uniform(
        words,
        Opcode.AVERAGE,
        words_read=count * group,
        words_written=count,
        alu_cycles=VectorAlu.mean_cycles(count, group),
    )


def _execute_update(words, instr, node_dim):
    """UPDATE (extension): scatter pre-scaled gradients into a table.

    ``table[idx[i]] (+|-)= grad[i]`` for ``count`` gradient rows, with
    duplicate indices accumulating sequentially (scatter-add).  The
    read-modify-write of each table slice happens entirely inside each
    DIMM; only the gradients crossed the interconnect.
    """
    if instr.subop not in (ReduceOp.SUM, ReduceOp.SUB):
        raise ValueError("UPDATE supports only SUM and SUB")
    rows = _index_rows(words, instr)
    wps = instr.words_per_slice
    grad = local_base(instr.input_base, node_dim)
    targets = _slice_words(words, local_base(instr.output_base, node_dim), rows, wps)
    n = len(targets)
    check_range(words, grad, n)
    k = words.shape[1]
    grads = words[grad : grad + n]
    if instr.subop == ReduceOp.SUB:
        grads = -grads
    # Duplicate rows accumulate (scatter-add): fold the gradients of
    # identical target words together, then read-modify-write once.  Each
    # target word belongs to one core, and np.add.at folds in gradient
    # order, so every core sums exactly as it would alone.
    touched, inverse = np.unique(targets.reshape(-1), return_inverse=True)
    delta = np.zeros((len(touched), ELEMS_PER_WORD), dtype=np.float32)
    np.add.at(delta, inverse, grads.reshape(-1, ELEMS_PER_WORD))
    local, core = np.divmod(touched, k)
    words[local, core] = words[local, core] + delta
    index_words = -(-instr.count // ELEMS_PER_WORD)
    return [
        NmpExecStats(
            opcode=Opcode.UPDATE,
            words_read=n + int(written) + index_words,
            words_written=int(written),
            alu_cycles=n,
        )
        for written in np.bincount(core, minlength=k)
    ]


_KERNELS = {
    Opcode.GATHER: _execute_gather,
    Opcode.REDUCE: _execute_reduce,
    Opcode.AVERAGE: _execute_average,
    Opcode.UPDATE: _execute_update,
}


def execute_broadcast(
    cores: list["NmpCore"], words: np.ndarray, instr: Instruction
) -> list[NmpExecStats]:
    """Run one broadcast instruction on ``k`` lock-stepped NMP cores at once.

    ``words`` is their memory as one ``(local_words, k, 16)`` float32
    array whose column ``d`` is ``cores[d]``'s storage.  For a
    TensorNode's DIMMs that array *is* node-linear memory: node word ``w``
    lives on DIMM ``w % k`` at local word ``w // k``.  A lone core passes
    its storage viewed as ``k = 1``.  Each core reads its own copy of a
    replicated index buffer.  Every operand of every core is checked
    before the first write, so the instruction either runs everywhere or
    raises with the memory untouched.  Returns one :class:`NmpExecStats`
    per core; each core's ALU busy cycles and storage version advance as
    if it had run alone.
    """
    kernel = _KERNELS.get(instr.opcode)
    if kernel is None:
        raise ValueError(f"unknown opcode {instr.opcode}")
    per_core = kernel(words, instr, cores[0].node_dim)
    for core, stats in zip(cores, per_core):
        core.alu.busy_cycles += stats.alu_cycles
        core.storage.version += 1
    return per_core


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

    def _local_base(self, node_word: int) -> int:
        return local_base(node_word, self.node_dim)

    def execute(self, instr: Instruction) -> NmpExecStats:
        """Run one broadcast instruction's slice on this DIMM."""
        return execute_broadcast([self], self.storage.array[:, None, :], instr)[0]

    def describe(self, instr: Instruction) -> OpTraffic:
        """The instruction's DRAM traffic on this DIMM, as an
        :class:`~repro.dram.trace.OpTraffic` in DIMM-local words.

        No trace is built: O(1) for REDUCE and AVERAGE, O(count) for GATHER
        and UPDATE, whose traffic reads the replicated index buffer first
        and carries the indices as its rows (so describe before the
        instruction runs).  The instruction's trace is the description's
        one-channel share, and equal descriptions have byte-identical
        shares, so ``(ControllerConfig, traffic.share_key(0, 1))`` keys it
        in the timing memo.  Fields that cannot affect the
        traffic are left out (REDUCE ignores ``words_per_slice``; ``subop``
        changes ALU semantics, not DRAM traffic).
        """
        opcode = Opcode(instr.opcode)
        wps = instr.words_per_slice
        bases = (self._local_base(instr.input_base), self._local_base(instr.output_base))
        if opcode == Opcode.REDUCE:
            return OpTraffic(
                "REDUCE", (bases[0], self._local_base(instr.aux), bases[1]), instr.count
            )
        if opcode == Opcode.AVERAGE:
            if instr.count % wps:
                raise ValueError(
                    f"AVERAGE count {instr.count} not divisible by words_per_slice {wps}"
                )
            return OpTraffic(
                "AVERAGE", bases, instr.count // wps, row_words=wps,
                average_num=instr.average_num,
            )
        index_words = -(-instr.count // ELEMS_PER_WORD)
        rows = self.storage.read_indices(instr.index_base, index_words)[: instr.count]
        return OpTraffic(
            opcode.name, bases, instr.count, row_words=wps,
            index_base=instr.index_base, rows=rows,
        )
