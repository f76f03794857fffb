"""TensorISA: the custom tensor instruction set of Section 4.4.

Three primitives exist (Fig. 8):

* ``GATHER``  — embedding lookup: read rows of a lookup table selected by an
  index buffer and pack them into a dense output tensor.
* ``REDUCE``  — element-wise binary reduction of two equally-shaped tensors.
* ``AVERAGE`` — N-ary element-wise average of groups of consecutive tensors.

Every instruction is broadcast to all TensorDIMMs in a node; each NMP core
executes only its own slice thanks to the rank-interleaved address mapping
(Fig. 7), indexing memory as ``base + i * nodeDim + tid`` exactly like the
pseudo code in Fig. 9.

Addresses are *node-linear 64 B word* addresses (the interleaving unit).
The paper leaves field widths unspecified; we use a 192-bit encoding with
40-bit word addresses (64 TB of node space), a 32-bit count, and an explicit
``words_per_slice`` field so embedding vectors larger than ``64 * nodeDim``
bytes are expressible (the paper's scaled-embedding experiments, Fig. 12/15,
need exactly this).
"""

from dataclasses import dataclass
from enum import IntEnum


class Opcode(IntEnum):
    """Primary TensorISA opcodes (Fig. 8)."""

    GATHER = 1
    REDUCE = 2
    AVERAGE = 3


class ReduceOp(IntEnum):
    """Element-wise operations selectable by REDUCE (Section 2.3 lists
    additions / multiplications / averages as the common combiners)."""

    SUM = 0
    SUB = 1
    MUL = 2
    MAX = 3
    MIN = 4


_OPCODE_BITS = 8
_SUBOP_BITS = 8
_SLICE_BITS = 16
_COUNT_BITS = 32
_ADDR_BITS = 40

_COUNT_MAX = (1 << _COUNT_BITS) - 1
_ADDR_MAX = (1 << _ADDR_BITS) - 1
_SLICE_MAX = (1 << _SLICE_BITS) - 1

#: Total encoded width in bits (3 x 64-bit words on the wire).
INSTRUCTION_BITS = 192


@dataclass(frozen=True)
class Instruction:
    """One decoded TensorISA instruction.

    Field meaning by opcode (mirroring Fig. 8's InputBase / AUX / OutputBase
    / Count):

    ========  ===================  ======================  ============
    opcode    input_base           aux                     count
    ========  ===================  ======================  ============
    GATHER    table base (node)    index buffer (local)    num lookups
    REDUCE    input tensor A       input tensor B          words/DIMM
    AVERAGE   input tensor         group size (averageNum) words/DIMM
    ========  ===================  ======================  ============

    ``words_per_slice`` is the number of 64 B words each DIMM owns per
    embedding row (1 for the paper's canonical "embedding bytes = 64 x
    nodeDim" case).  ``subop`` selects the :class:`ReduceOp` for REDUCE.
    """

    opcode: Opcode
    input_base: int
    aux: int
    output_base: int
    count: int
    words_per_slice: int = 1
    subop: ReduceOp = ReduceOp.SUM

    def __post_init__(self):
        if self.count < 0 or self.count > _COUNT_MAX:
            raise ValueError(f"count {self.count} out of range")
        if self.words_per_slice < 1 or self.words_per_slice > _SLICE_MAX:
            raise ValueError(f"words_per_slice {self.words_per_slice} out of range")
        for name in ("input_base", "aux", "output_base"):
            value = getattr(self, name)
            if value < 0 or value > _ADDR_MAX:
                raise ValueError(f"{name} {value} out of 40-bit range")

    # -- convenience views ---------------------------------------------------

    @property
    def table_base(self) -> int:
        """GATHER: node word address of the lookup table."""
        return self.input_base

    @property
    def index_base(self) -> int:
        """GATHER: DIMM-local word address of the (replicated) index buffer."""
        return self.aux

    @property
    def average_num(self) -> int:
        """AVERAGE: how many consecutive tensors are averaged per output."""
        return self.aux

    def encode(self) -> int:
        """Pack into the 192-bit binary format."""
        value = 0
        shift = 0
        for field_value, bits in (
            (int(self.opcode), _OPCODE_BITS),
            (int(self.subop), _SUBOP_BITS),
            (self.words_per_slice, _SLICE_BITS),
            (self.count, _COUNT_BITS),
            (self.input_base, _ADDR_BITS),
            (self.aux, _ADDR_BITS),
            (self.output_base, _ADDR_BITS),
        ):
            value |= field_value << shift
            shift += bits
        return value

    @classmethod
    def decode(cls, value: int) -> "Instruction":
        """Unpack a 192-bit word back into an :class:`Instruction`."""
        if value < 0 or value >= 1 << INSTRUCTION_BITS:
            raise ValueError("encoded instruction out of 192-bit range")
        fields = []
        for bits in (
            _OPCODE_BITS,
            _SUBOP_BITS,
            _SLICE_BITS,
            _COUNT_BITS,
            _ADDR_BITS,
            _ADDR_BITS,
            _ADDR_BITS,
        ):
            fields.append(value & ((1 << bits) - 1))
            value >>= bits
        opcode, subop, wps, count, input_base, aux, output_base = fields
        return cls(
            opcode=Opcode(opcode),
            subop=ReduceOp(subop),
            words_per_slice=wps,
            count=count,
            input_base=input_base,
            aux=aux,
            output_base=output_base,
        )


def gather(
    table_base: int,
    index_base: int,
    output_base: int,
    num_lookups: int,
    words_per_slice: int = 1,
) -> Instruction:
    """Build a GATHER (Fig. 9a)."""
    return Instruction(
        opcode=Opcode.GATHER,
        input_base=table_base,
        aux=index_base,
        output_base=output_base,
        count=num_lookups,
        words_per_slice=words_per_slice,
    )


def reduce(
    input1_base: int,
    input2_base: int,
    output_base: int,
    words_per_dimm: int,
    op: ReduceOp = ReduceOp.SUM,
) -> Instruction:
    """Build a REDUCE (Fig. 9b)."""
    return Instruction(
        opcode=Opcode.REDUCE,
        input_base=input1_base,
        aux=input2_base,
        output_base=output_base,
        count=words_per_dimm,
        subop=op,
    )


def average(
    input_base: int,
    average_num: int,
    output_base: int,
    words_per_dimm: int,
    words_per_slice: int = 1,
) -> Instruction:
    """Build an AVERAGE (Fig. 9c).

    ``words_per_slice`` tells the NMP core how many local words one row
    occupies, so that group members (whole rows) are strided correctly when
    embeddings are wider than ``64 * node_dim`` bytes.
    """
    if average_num < 1:
        raise ValueError("average_num must be at least 1")
    return Instruction(
        opcode=Opcode.AVERAGE,
        input_base=input_base,
        aux=average_num,
        output_base=output_base,
        count=words_per_dimm,
        words_per_slice=words_per_slice,
    )
