"""Tests for DRAM organization and address mapping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.mapping import (
    BANK_INTERLEAVED_ORDER,
    RANK_INTERLEAVED_ORDER,
    ROW_INTERLEAVED_ORDER,
    AddressMapping,
    DramOrganization,
)


class TestOrganization:
    def test_default_banks(self):
        org = DramOrganization()
        assert org.banks == 16  # 4 bank groups x 4 banks (DDR4)

    def test_row_bytes(self):
        org = DramOrganization(columns=128)
        assert org.row_bytes == 8192

    def test_capacity(self):
        org = DramOrganization(ranks=1, rows=1 << 16, columns=128)
        assert org.capacity_bytes == 16 * (1 << 16) * 8192

    def test_capacity_scales_with_ranks(self):
        one = DramOrganization(ranks=1)
        four = DramOrganization(ranks=4)
        assert four.capacity_bytes == 4 * one.capacity_bytes


class TestDecode:
    def test_zero_address(self):
        mapping = AddressMapping(DramOrganization())
        coords = mapping.decode(0)
        assert coords == {"rank": 0, "bankgroup": 0, "bank": 0, "row": 0, "column": 0}

    def test_bank_interleaved_rotates_bankgroups_first(self):
        # With column_lo_bits=0, consecutive 64 B blocks go to different
        # bank groups (the tCCD_S optimisation).
        mapping = AddressMapping(DramOrganization(), BANK_INTERLEAVED_ORDER, 0)
        a = mapping.decode(0)
        b = mapping.decode(64)
        assert a["bankgroup"] == 0 and b["bankgroup"] == 1
        assert a["bank"] == b["bank"] == 0

    def test_row_interleaved_walks_columns_first(self):
        mapping = AddressMapping(DramOrganization(), ROW_INTERLEAVED_ORDER, 0)
        a = mapping.decode(0)
        b = mapping.decode(64)
        assert (a["bank"], a["bankgroup"]) == (b["bank"], b["bankgroup"])
        assert b["column"] == a["column"] + 1

    def test_rank_interleaved_rotates_ranks_first(self):
        # Fig. 7a: rank bits directly above the 64 B offset.
        org = DramOrganization(ranks=4)
        mapping = AddressMapping(org, RANK_INTERLEAVED_ORDER, 0)
        ranks = [mapping.decode(i * 64)["rank"] for i in range(4)]
        assert ranks == [0, 1, 2, 3]

    def test_byte_offsets_within_block_ignored(self):
        mapping = AddressMapping(DramOrganization())
        assert mapping.decode(0) == mapping.decode(63)

    def test_non_power_of_two_dimension_rejected(self):
        with pytest.raises(ValueError, match="columns"):
            DramOrganization(columns=100)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("ranks", 0),
            ("ranks", 3),
            ("columns", 0),
            ("rows", -4),
            ("bankgroups", 2.0),
            ("banks_per_group", True),
            ("access_bytes", 0),
            ("access_bytes", 64.0),
        ],
    )
    def test_bad_geometry_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            DramOrganization(**{field: value})


class TestEncodeDecodeRoundTrip:
    @given(
        rank=st.integers(0, 3),
        bankgroup=st.integers(0, 3),
        bank=st.integers(0, 3),
        row=st.integers(0, (1 << 16) - 1),
        column=st.integers(0, 127),
        order=st.sampled_from(
            [BANK_INTERLEAVED_ORDER, ROW_INTERLEAVED_ORDER, RANK_INTERLEAVED_ORDER]
        ),
        lo_bits=st.integers(0, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, rank, bankgroup, bank, row, column, order, lo_bits):
        org = DramOrganization(ranks=4)
        mapping = AddressMapping(org, order, lo_bits)
        addr = mapping.encode(rank, bankgroup, bank, row, column)
        coords = mapping.decode(addr)
        assert coords["rank"] == rank
        assert coords["bankgroup"] == bankgroup
        assert coords["bank"] == bank
        assert coords["row"] == row
        assert coords["column"] == column

    def test_encode_rejects_overflow_fields(self):
        mapping = AddressMapping(DramOrganization(ranks=2))
        with pytest.raises(ValueError):
            mapping.encode(rank=2, bankgroup=0, bank=0, row=0, column=0)

    @given(block=st.integers(0, (1 << 26) - 1))
    @settings(max_examples=200, deadline=None)
    def test_decode_is_injective_over_capacity(self, block):
        org = DramOrganization(ranks=4)
        mapping = AddressMapping(org)
        addr = block * 64
        coords = mapping.decode(addr)
        # re-encoding the coordinates must return the original block address
        assert mapping.encode(**coords) == addr
