"""Per-DIMM reference forms of the NMP core's functional semantics.

``src/`` runs each broadcast instruction once over the memory of all of a
node's DIMMs (:func:`repro.core.nmp_core.execute_broadcast`).  This module
keeps the original one-DIMM-at-a-time form as the oracle it is compared
against: :func:`execute` runs one instruction on one :class:`NmpCore`
through its own :class:`~repro.dram.storage.WordStorage`, exactly as each
DIMM did before the node-wide kernels existed.  It keeps its own table of
the ALU's lane-wise ops and its own ALU cycle costs, so it does not share
them with the code it checks.

It also keeps the per-DIMM scatter/gather of an :class:`EmbeddingLayout`
(:func:`scatter`, :func:`gather_slices`), the reference for the node's
node-linear ``write_tensor``/``read_tensor``.
"""

import numpy as np

from repro.config import ELEMS_PER_WORD
from repro.core.address_map import EmbeddingLayout
from repro.core.isa import Instruction, Opcode, ReduceOp
from repro.core.nmp_core import NmpCore, NmpExecStats


def execute(core: NmpCore, instr: Instruction) -> NmpExecStats:
    """Run one broadcast instruction's slice on one DIMM."""
    if instr.opcode == Opcode.GATHER:
        return _execute_gather(core, instr)
    if instr.opcode == Opcode.REDUCE:
        return _execute_reduce(core, instr)
    if instr.opcode == Opcode.AVERAGE:
        return _execute_average(core, instr)
    raise ValueError(f"unknown opcode {instr.opcode}")


#: The ALU's lane-wise FP32 operations (REDUCE's ``subop``).
_OPS = {
    ReduceOp.SUM: np.add,
    ReduceOp.SUB: np.subtract,
    ReduceOp.MUL: np.multiply,
    ReduceOp.MAX: np.maximum,
    ReduceOp.MIN: np.minimum,
}


def _index_rows(core: NmpCore, instr: Instruction) -> np.ndarray:
    """The instruction's ``count`` int32 indices, from the core's own copy of
    the replicated index buffer."""
    index_words = -(-instr.count // ELEMS_PER_WORD)
    return core.storage.read_indices(instr.index_base, index_words)[: instr.count]


def _execute_gather(core: NmpCore, instr: Instruction) -> NmpExecStats:
    rows = _index_rows(core, instr)
    wps = instr.words_per_slice
    table_local = core._local_base(instr.table_base)
    out_local = core._local_base(instr.output_base)
    src = (
        table_local
        + (rows.astype(np.int64)[:, None] * wps + np.arange(wps)[None, :])
    ).reshape(-1)
    values = core.storage.read_words(src)
    core.storage.write_words(out_local, values)
    index_words = -(-instr.count // ELEMS_PER_WORD)
    return NmpExecStats(
        opcode=Opcode.GATHER,
        words_read=len(src) + index_words,
        words_written=len(src),
        alu_cycles=0,
    )


def _execute_reduce(core: NmpCore, instr: Instruction) -> NmpExecStats:
    in1 = core._local_base(instr.input_base)
    in2 = core._local_base(instr.aux)
    out = core._local_base(instr.output_base)
    count = instr.count
    a = core.storage.read_range(in1, count)
    b = core.storage.read_range(in2, count)
    core.storage.write_words(out, _OPS[instr.subop](a, b))
    # One pair of operands in, one result out, per ALU cycle.
    return NmpExecStats(
        opcode=Opcode.REDUCE,
        words_read=2 * count,
        words_written=count,
        alu_cycles=count,
    )


def _execute_average(core: NmpCore, instr: Instruction) -> NmpExecStats:
    src = core._local_base(instr.input_base)
    out = core._local_base(instr.output_base)
    count = instr.count
    group = instr.average_num
    wps = instr.words_per_slice
    if count % wps:
        raise ValueError(
            f"AVERAGE count {count} not divisible by words_per_slice {wps}"
        )
    out_rows = count // wps
    words = core.storage.read_range(src, count * group)
    grouped = words.reshape(out_rows, group, wps, ELEMS_PER_WORD)
    groups = grouped.transpose(0, 2, 1, 3).reshape(count, group, ELEMS_PER_WORD)
    core.storage.write_words(out, groups.mean(axis=1, dtype=np.float32))
    # Per output word: one cycle per pair of group members, then a divide.
    return NmpExecStats(
        opcode=Opcode.AVERAGE,
        words_read=count * group,
        words_written=count,
        alu_cycles=count * ((group + 1) // 2) + count,
    )


# -- per-DIMM tensor layout ------------------------------------------------------


def scatter(layout: EmbeddingLayout, values: np.ndarray) -> list[np.ndarray]:
    """Split a (rows, embedding_dim) array into per-DIMM slice payloads.

    Returns one ``(rows * words_per_slice, 16)`` float32 array per DIMM,
    ordered by DIMM-local word address; the tail of the padded region is
    zero-filled.
    """
    values = np.asarray(values, dtype=np.float32)
    if values.shape != (layout.rows, layout.embedding_dim):
        raise ValueError(
            f"expected shape {(layout.rows, layout.embedding_dim)}, got {values.shape}"
        )
    padded = np.zeros(
        (layout.rows, layout.chunks_padded * ELEMS_PER_WORD), dtype=np.float32
    )
    padded[:, : layout.embedding_dim] = values
    words = padded.reshape(layout.rows, layout.chunks_padded, ELEMS_PER_WORD)
    return [
        words[:, dimm :: layout.node_dim, :].reshape(-1, ELEMS_PER_WORD).copy()
        for dimm in range(layout.node_dim)
    ]


def gather_slices(layout: EmbeddingLayout, slices: list[np.ndarray]) -> np.ndarray:
    """Inverse of :func:`scatter`: rebuild the (rows, embedding_dim) array."""
    if len(slices) != layout.node_dim:
        raise ValueError(f"expected {layout.node_dim} slices, got {len(slices)}")
    words = np.zeros(
        (layout.rows, layout.chunks_padded, ELEMS_PER_WORD), dtype=np.float32
    )
    for dimm, payload in enumerate(slices):
        payload = np.asarray(payload, dtype=np.float32).reshape(
            layout.rows, layout.words_per_slice, ELEMS_PER_WORD
        )
        words[:, dimm :: layout.node_dim, :] = payload
    flat = words.reshape(layout.rows, -1)
    return flat[:, : layout.embedding_dim].copy()
