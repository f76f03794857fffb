"""Tests for the TensorISA instruction set."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.isa import (
    INSTRUCTION_BITS,
    Instruction,
    Opcode,
    ReduceOp,
    average,
    gather,
    reduce,
)


class TestOpcodes:
    def test_the_three_primitives_of_fig8(self):
        assert {op.name: op.value for op in Opcode} == {"GATHER": 1, "REDUCE": 2, "AVERAGE": 3}


class TestBuilders:
    def test_gather_fields(self):
        instr = gather(table_base=64, index_base=10, output_base=128, num_lookups=32)
        assert instr.opcode == Opcode.GATHER
        assert instr.table_base == 64
        assert instr.index_base == 10
        assert instr.output_base == 128
        assert instr.count == 32
        assert instr.words_per_slice == 1

    def test_gather_with_wide_slices(self):
        instr = gather(0, 0, 0, 8, words_per_slice=4)
        assert instr.words_per_slice == 4

    def test_reduce_fields(self):
        instr = reduce(0, 64, 128, 16, op=ReduceOp.MUL)
        assert instr.opcode == Opcode.REDUCE
        assert instr.subop == ReduceOp.MUL
        assert instr.input_base == 0
        assert instr.aux == 64
        assert instr.count == 16

    def test_reduce_defaults_to_sum(self):
        assert reduce(0, 64, 128, 16).subop == ReduceOp.SUM

    def test_average_fields(self):
        instr = average(0, 25, 128, 16)
        assert instr.opcode == Opcode.AVERAGE
        assert instr.average_num == 25
        assert instr.count == 16

    def test_average_rejects_empty_group(self):
        with pytest.raises(ValueError):
            average(0, 0, 128, 16)


class TestValidation:
    def test_negative_count(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.GATHER, 0, 0, 0, count=-1)

    def test_count_overflow(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.GATHER, 0, 0, 0, count=1 << 32)

    def test_address_overflow(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.GATHER, 1 << 40, 0, 0, count=1)

    def test_negative_address(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.GATHER, -1, 0, 0, count=1)

    def test_words_per_slice_zero(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.GATHER, 0, 0, 0, count=1, words_per_slice=0)

    def test_words_per_slice_overflow(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.GATHER, 0, 0, 0, count=1, words_per_slice=1 << 16)


class TestEncoding:
    def test_encoded_fits_instruction_width(self):
        instr = gather((1 << 40) - 64, (1 << 40) - 1, (1 << 40) - 128, (1 << 32) - 1, 100)
        assert instr.encode() < 1 << INSTRUCTION_BITS

    def test_decode_rejects_oversized(self):
        with pytest.raises(ValueError):
            Instruction.decode(1 << INSTRUCTION_BITS)

    def test_decode_rejects_negative(self):
        with pytest.raises(ValueError):
            Instruction.decode(-1)

    @pytest.mark.parametrize("opcode", [0, 4])
    def test_decode_rejects_unknown_opcode(self, opcode):
        word = reduce(4096, 8192, 12288, 500).encode()
        with pytest.raises(ValueError):
            Instruction.decode(word & ~0xFF | opcode)

    def test_known_encoding_round_trip(self):
        instr = reduce(4096, 8192, 12288, 500, ReduceOp.MAX)
        assert Instruction.decode(instr.encode()) == instr

    @given(
        opcode=st.sampled_from(list(Opcode)),
        subop=st.sampled_from(list(ReduceOp)),
        wps=st.integers(1, (1 << 16) - 1),
        count=st.integers(0, (1 << 32) - 1),
        input_base=st.integers(0, (1 << 40) - 1),
        aux=st.integers(0, (1 << 40) - 1),
        output_base=st.integers(0, (1 << 40) - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_round_trip_property(
        self, opcode, subop, wps, count, input_base, aux, output_base
    ):
        instr = Instruction(
            opcode=opcode,
            subop=subop,
            words_per_slice=wps,
            count=count,
            input_base=input_base,
            aux=aux,
            output_base=output_base,
        )
        assert Instruction.decode(instr.encode()) == instr

    def test_distinct_instructions_encode_differently(self):
        a = gather(0, 0, 0, 1)
        b = gather(0, 0, 64, 1)
        assert a.encode() != b.encode()

    def test_instruction_is_hashable_and_frozen(self):
        instr = gather(0, 0, 0, 1)
        with pytest.raises(AttributeError):
            instr.count = 5
        assert hash(instr) == hash(gather(0, 0, 0, 1))
