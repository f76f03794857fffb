"""Physical address decoding for DRAM channels.

Two concerns live here:

* :class:`DramOrganization` — the geometry of a channel (ranks, bank groups,
  banks, rows, columns).
* :class:`AddressMapping` — how a flat channel-local byte address is split
  into coordinates.  The field order is configurable from LSB to MSB so the
  baseline CPU mapping and the TensorDIMM-local mapping (Fig. 7a) can both
  be expressed.

The TensorDIMM mapping in the paper places the *rank* bits immediately above
the 64 B offset so consecutive embedding chunks interleave across ranks.  In
this codebase the rank interleaving across *TensorDIMMs* is handled one level
up by :mod:`repro.core.address_map`; each TensorDIMM's NMP-local controller
then sees a rank-less local space, decoded with the column-low / bank /
bank-group / column-high / row order used here, which maximises bank-level
parallelism for streaming accesses.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .trace import _is_int


@dataclass(frozen=True)
class DramOrganization:
    """Geometry of a single DRAM channel."""

    ranks: int = 1
    bankgroups: int = 4
    banks_per_group: int = 4
    rows: int = 1 << 16
    columns: int = 128  # 64 B column blocks per row (8 KB row buffer)
    access_bytes: int = 64

    def __post_init__(self):
        # Every dimension is a field of the decoded address, so it must be
        # a power of two; a bad value fails here, naming the field, not in
        # a later decode or enqueue.
        for name in ("ranks", "bankgroups", "banks_per_group", "rows", "columns"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1 or value & (value - 1):
                raise ValueError(f"{name} must be a positive power of two (got {value!r})")
        if not _is_int(self.access_bytes) or self.access_bytes < 1:
            raise ValueError(
                f"access_bytes must be a positive integer (got {self.access_bytes!r})"
            )

    @property
    def banks(self) -> int:
        """Total banks per rank."""
        return self.bankgroups * self.banks_per_group

    @property
    def row_bytes(self) -> int:
        return self.columns * self.access_bytes

    @property
    def capacity_bytes(self) -> int:
        return self.ranks * self.banks * self.rows * self.row_bytes


def _bits(n: int) -> int:
    """Number of address bits needed to index ``n`` items (n power of two)."""
    if n <= 0 or n & (n - 1):
        raise ValueError(f"dimension must be a positive power of two, got {n}")
    return n.bit_length() - 1


#: Decoded coordinate fields, LSB-first orders reference these names.
FIELDS = ("column_lo", "bank", "bankgroup", "rank", "column_hi", "row")

#: Baseline open-page friendly order: consecutive 64 B blocks walk the row
#: first (column bits lowest), then banks, then ranks, then rows.
ROW_INTERLEAVED_ORDER = ("column_lo", "column_hi", "bank", "bankgroup", "rank", "row")

#: Bank-interleaved order used by the NMP-local controllers: consecutive
#: blocks rotate across bank groups first (tCCD_S back-to-back bursts), then
#: banks, before advancing the column — keeping many banks streaming
#: concurrently, which is how DDR4 sustains near-peak sequential bandwidth.
BANK_INTERLEAVED_ORDER = ("column_lo", "bankgroup", "bank", "column_hi", "row", "rank")

#: Rank-interleaved order matching Fig. 7a (rank bits right above the block
#: offset) — used when a multi-rank channel should stripe consecutive chunks
#: across ranks.
RANK_INTERLEAVED_ORDER = ("column_lo", "rank", "bank", "bankgroup", "column_hi", "row")


@dataclass(frozen=True)
class AddressMapping:
    """Splits channel-local byte addresses into DRAM coordinates.

    ``order`` lists field names from LSB to MSB.  ``column_lo`` holds
    ``column_lo_bits`` of the column index; ``column_hi`` holds the rest.
    """

    organization: DramOrganization
    order: tuple = BANK_INTERLEAVED_ORDER
    column_lo_bits: int = 0

    @cached_property
    def _layout(self) -> dict:
        """Field widths, precomputed once per mapping.

        (``cached_property`` stores into ``__dict__`` directly, so it works
        on a frozen dataclass; the mapping is immutable so the cache never
        goes stale.)
        """
        org = self.organization
        col_bits = _bits(org.columns)
        lo = min(self.column_lo_bits, col_bits)
        return {
            "column_lo": lo,
            "column_hi": col_bits - lo,
            "bank": _bits(org.banks_per_group),
            "bankgroup": _bits(org.bankgroups),
            "rank": _bits(org.ranks),
            "row": _bits(org.rows),
        }

    def _field_bits(self, name: str) -> int:
        return self._layout[name]

    def decode(self, addr: int) -> dict:
        """Decode a byte address into rank/bankgroup/bank/row/column."""
        sizes = self._layout
        block = addr // self.organization.access_bytes
        values = {}
        for name in self.order:
            bits = sizes[name]
            values[name] = block & ((1 << bits) - 1)
            block >>= bits
        lo_bits = sizes["column_lo"]
        return {
            "rank": values.get("rank", 0),
            "bankgroup": values.get("bankgroup", 0),
            "bank": values.get("bank", 0),
            "row": values.get("row", 0) + (block << sizes["row"]),
            "column": values.get("column_lo", 0) | (values.get("column_hi", 0) << lo_bits),
        }

    def decode_batch(self, addrs: np.ndarray) -> dict:
        """Vectorized :meth:`decode` over an int64 address array.

        Returns a dict of parallel int64 arrays keyed ``rank`` /
        ``bankgroup`` / ``bank`` / ``row`` / ``column``, bit-identical to
        calling :meth:`decode` element-wise.
        """
        sizes = self._layout
        block = np.asarray(addrs, dtype=np.int64) // self.organization.access_bytes
        values = {}
        for name in self.order:
            bits = sizes[name]
            values[name] = block & ((1 << bits) - 1)
            block = block >> bits
        lo_bits = sizes["column_lo"]
        zero = np.zeros_like(block)  # default for fields absent from the order
        return {
            "rank": values.get("rank", zero),
            "bankgroup": values.get("bankgroup", zero),
            "bank": values.get("bank", zero),
            "row": values.get("row", zero) + (block << sizes["row"]),
            "column": values.get("column_lo", zero)
            | (values.get("column_hi", zero) << lo_bits),
        }

    def encode(self, rank: int, bankgroup: int, bank: int, row: int, column: int) -> int:
        """Inverse of :meth:`decode` (used by tests for round-trip checks)."""
        lo_bits = self._field_bits("column_lo")
        parts = {
            "rank": rank,
            "bankgroup": bankgroup,
            "bank": bank,
            "row": row,
            "column_lo": column & ((1 << lo_bits) - 1),
            "column_hi": column >> lo_bits,
        }
        block = 0
        shift = 0
        for name in self.order:
            bits = self._field_bits(name)
            value = parts[name]
            if name != "row" and value >= (1 << bits):
                raise ValueError(f"{name}={value} exceeds {bits} bits")
            block |= value << shift
            shift += bits
        return block * self.organization.access_bytes
