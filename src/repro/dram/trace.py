"""Operation traffic: the one description of a tensor op's memory traffic.

The paper hooks a tracing function into the DL framework and feeds the
resulting read/write streams to Ramulator (Section 5).  This module plays
the same role.  Every layer describes an operation's 64 B transaction
streams the same way, as an :class:`OpTraffic`: the CPU baseline's
GATHER/REDUCE/AVERAGE over a channel-interleaved system address space
(:func:`gather_traffic`, :func:`reduce_traffic`, :func:`average_traffic`),
and a TensorISA instruction on one TensorDIMM
(:meth:`repro.core.nmp_core.NmpCore.describe`), whose index-buffer reads,
``words_per_slice``-strided AVERAGE inputs and UPDATE read-modify-writes
the same type carries.

A description builds no trace up front.  :meth:`OpTraffic.share` builds one
channel's share of it as a :class:`~repro.dram.command.TraceBuffer`, its
reads then its writes: :meth:`repro.dram.system.DramSystem.enqueue_traffic`
asks for every channel's share, and an NMP instruction's trace is its
one-channel share.  Equal share keys (:meth:`OpTraffic.share_key`) mean
byte-identical shares, so ``(ControllerConfig, share key)`` keys the
timing memo (:mod:`repro.dram.memo`), and a memo hit builds no share.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..config import ELEMS_PER_WORD
from .command import TraceBuffer

WORD_BYTES = 64

#: How many word addresses each op's ``bases`` holds, in order.
_BASES = {"GATHER": 2, "REDUCE": 3, "AVERAGE": 2, "UPDATE": 2}


def streaming_buffer(
    base_addr: int, num_words: int, is_write: bool = False, start_cycle: int = 0
) -> TraceBuffer:
    """Sequential 64 B accesses over [base, base + num_words * 64)."""
    addrs = base_addr + np.arange(num_words, dtype=np.int64) * WORD_BYTES
    return TraceBuffer(addrs, bool(is_write), start_cycle)


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


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class OpTraffic:
    """One tensor operation's memory traffic, held symbolically.

    A few integers over a flat space of 64 B words: the ``bases`` (word
    addresses: GATHER ``(table, output)``, REDUCE ``(input1, input2,
    output)``, AVERAGE ``(input, output)``, UPDATE ``(gradients, table)``),
    ``num_words`` (GATHER and UPDATE rows, REDUCE words, AVERAGE output
    rows), ``row_words`` (the words of one row; AVERAGE's group members are
    whole rows, so its inputs are strided by it) and ``average_num``.
    GATHER and UPDATE carry their ``rows``; they enter equality and hashing
    through their SHA-1 ``rows_digest`` only.  ``index_base``, when set, is
    the word address of the int32 index buffer the op reads first (an NMP
    instruction reads its indices from DRAM; the CPU baseline's do not
    count).

    The streams, per row or word in order: GATHER reads each row of the
    table and writes the output run; REDUCE reads ``input1[i]`` then
    ``input2[i]`` and writes the output run; AVERAGE reads word ``k`` of
    each of its ``average_num`` input rows for output word ``k`` of a row
    and writes the output run; UPDATE reads ``gradient[i]`` then the table
    word it updates, and writes that table word.

    The constructor checks every field and raises ``ValueError`` naming
    the field it refuses.
    """

    op: str
    bases: tuple
    num_words: int
    row_words: int = 1
    average_num: int = 1
    index_base: int | None = None
    rows: np.ndarray | None = field(default=None, compare=False, repr=False)
    rows_digest: bytes | None = field(default=None, init=False)

    def __post_init__(self):
        op = self.op
        if op not in _BASES:
            raise ValueError(f"op {op!r} is not one of {', '.join(_BASES)}")

        def refuse(name, why):
            raise ValueError(f"{op} traffic: {name} {why}, got {getattr(self, name)!r}")

        if not (
            isinstance(self.bases, tuple)
            and len(self.bases) == _BASES[op]
            and all(_is_int(base) for base in self.bases)
        ):
            refuse("bases", f"must be a tuple of {_BASES[op]} word addresses")
        if not _is_int(self.num_words) or self.num_words < 0:
            refuse("num_words", "must be a non-negative integer")
        if not _is_int(self.row_words) or self.row_words < 1 or (
            op == "REDUCE" and self.row_words != 1
        ):
            refuse("row_words", "must be a positive integer (1 for REDUCE)")
        if not _is_int(self.average_num) or self.average_num < 1:
            refuse("average_num", "must be a positive integer")
        if self.index_base is not None and (
            op not in ("GATHER", "UPDATE") or not _is_int(self.index_base)
            or self.index_base < 0
        ):
            refuse("index_base", "must be a word address, and only GATHER and UPDATE read indices")
        if op in ("GATHER", "UPDATE"):
            rows = np.asarray(self.rows if self.rows is not None else ())
            if rows.ndim != 1 or len(rows) != self.num_words or (
                rows.size and rows.dtype.kind not in "iu"
            ):
                refuse("rows", f"must be {self.num_words} integer row numbers")
            rows = rows.astype(np.int64)
            rows.flags.writeable = False
            object.__setattr__(self, "rows", rows)
            digest = hashlib.sha1(rows.tobytes(), usedforsecurity=False).digest()
            object.__setattr__(self, "rows_digest", digest)
        elif self.rows is not None:
            refuse("rows", "are only for GATHER and UPDATE")

    @property
    def key(self) -> tuple:
        """Every compared field, the rows by their digest alone: equal keys
        mean identical traffic, and a memo can keep the key without keeping
        the rows."""
        return (
            self.op, self.bases, self.num_words, self.row_words,
            self.average_num, self.index_base, self.rows_digest,
        )

    def _index_words(self) -> int:
        if self.index_base is None:
            return 0
        return -(-self.num_words // ELEMS_PER_WORD)

    @property
    def records(self) -> int:
        """How many 64 B transactions the traffic holds, reads and writes."""
        row_reads = {"GATHER": 1, "REDUCE": 2, "UPDATE": 2}.get(self.op, self.average_num)
        return self._index_words() + self.num_words * self.row_words * (row_reads + 1)

    def _table(self) -> int:
        return self.bases[0] if self.op == "GATHER" else self.bases[1]

    def word_span(self) -> tuple[int, int]:
        """The lowest and highest word the traffic touches (``(0, -1)`` when
        it touches none)."""
        n, rw = self.num_words, self.row_words
        if self.op == "UPDATE":
            runs = [(self.bases[0], n * rw)]
        else:
            runs = [(self.bases[-1], n * rw)]
        if self.op == "REDUCE":
            runs += [(base, n) for base in self.bases[:2]]
        elif self.op == "AVERAGE":
            runs.append((self.bases[0], n * rw * self.average_num))
        elif n:
            runs.append((self._table() + int(self.rows.min()) * rw, 1))
            runs.append((self._table() + int(self.rows.max()) * rw, rw))
        if self.index_base is not None:
            runs.append((self.index_base, self._index_words()))
        runs = [(base, length) for base, length in runs if length > 0]
        if not runs:
            return 0, -1
        return min(b for b, _ in runs), max(b + length - 1 for b, length in runs)

    def _streams(self) -> tuple[np.ndarray, np.ndarray]:
        """The whole read stream and write stream, as word addresses."""
        n, rw, group = self.num_words, self.row_words, self.average_num
        if self.op in ("GATHER", "UPDATE"):
            table_words = (
                (self._table() + self.rows * rw)[:, None] + np.arange(rw, dtype=np.int64)
            ).reshape(-1)
        if self.op == "GATHER":
            reads = table_words
        elif self.op == "REDUCE":
            reads = np.stack([_run_words((base, n)) for base in self.bases[:2]], axis=1)
        elif self.op == "AVERAGE":
            # [row, word, member]: word k of member j of output row r.
            rows = np.arange(n, dtype=np.int64)[:, None, None] * group
            members = np.arange(group, dtype=np.int64)
            reads = self.bases[0] + (rows + members) * rw + np.arange(rw, dtype=np.int64)[:, None]
        else:
            reads = np.stack([_run_words((self.bases[0], n * rw)), table_words], axis=1)
        reads = reads.reshape(-1)
        if self.index_base is not None:
            reads = np.concatenate([_run_words((self.index_base, self._index_words())), reads])
        if self.op == "UPDATE":
            return reads, table_words
        return reads, _run_words((self.bases[-1], n * rw))

    def _plan(self, channel: int, channels: int) -> tuple | None:
        """``channel``'s share in closed form, as a hashable ``(op, read
        plan, write run)``; None when only the whole streams give it (one
        channel, index reads, UPDATE, or AVERAGE rows wider than a word)."""
        if channels == 1 or self.index_base is not None or self.op == "UPDATE":
            return None
        if self.op == "AVERAGE":
            if self.row_words != 1:
                return None
            length = self.num_words * self.average_num
            reads = ("run", _channel_run(self.bases[0], length, channel, channels))
        elif self.op == "REDUCE":
            parts = []
            for base in self.bases[:2]:
                skip = (channel - base) % channels
                parts.append((skip, _channel_run(base, self.num_words, channel, channels)))
            # The run whose first word comes earlier leads; input 1 on a tie.
            first, second = sorted(parts, key=lambda part: part[0])
            reads = ("pair", first[1], second[1])
        elif self.row_words % channels == 0:
            # Every row starts on the same channel residue as the table.
            table = self.bases[0]
            skip = (channel - table) % channels
            reads = ("rows", self.rows_digest, self.row_words // channels, (table + skip) // channels)
        else:
            reads = ("rows", self.rows_digest, self.row_words, self.bases[0], channel, channels)
        write_run = _channel_run(
            self.bases[-1], self.num_words * self.row_words, channel, channels
        )
        return (self.op, reads, write_run)

    def share_key(self, channel: int, channels: int) -> tuple:
        """A hashable key of ``channel``'s share; equal keys, equal shares.

        When every base, the row width (GATHER) and the word count
        (REDUCE, AVERAGE) are multiples of ``channels`` words, every
        channel has the same key."""
        return self._plan(channel, channels) or (self.key, channel, channels)

    def share(self, channel: int, channels: int) -> TraceBuffer:
        """``channel``'s share as a trace of channel-local byte addresses:
        its reads in stream order, then its writes.  Word ``w`` lives on
        channel ``w % channels`` at local word ``w // channels``.  Built in
        closed form where :meth:`share_key` has a plan, in O(share) plus
        O(rows) for a GATHER whose row width is not a multiple of
        ``channels``; otherwise selected from the whole streams."""
        plan = self._plan(channel, channels)
        if plan is None:
            reads, writes = self._streams()
            if channels > 1:
                reads, writes = (
                    words[words % channels == channel] // channels
                    for words in (reads, writes)
                )
        else:
            _, (kind, *read_plan), write_run = plan
            if kind == "run":
                reads = _run_words(read_plan[0])
            elif kind == "pair":
                first, second = (_run_words(run) for run in read_plan)
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
) -> OpTraffic:
    """Embedding-gather traffic (Fig. 9a) on a flat byte address space: each
    looked-up row is ``row_words`` consecutive 64 B words read from the
    table at ``table_base``, then written to the next ``row_words`` words of
    a dense output tensor at ``output_base``."""
    rows = np.asarray(rows).reshape(-1)
    return OpTraffic(
        "GATHER", _word_bases(table_base, output_base), len(rows),
        row_words=row_words, rows=rows,
    )


def reduce_traffic(
    input1_base: int, input2_base: int, output_base: int, num_words: int
) -> OpTraffic:
    """Element-wise binary reduction traffic (Fig. 9b): per word, read
    input 1, read input 2, write the output."""
    return OpTraffic(
        "REDUCE", _word_bases(input1_base, input2_base, output_base), num_words
    )


def average_traffic(
    input_base: int, average_num: int, output_base: int, num_outputs: int
) -> OpTraffic:
    """N-ary average traffic (Fig. 9c): per output word, ``average_num``
    contiguous input reads, then one write."""
    return OpTraffic(
        "AVERAGE", _word_bases(input_base, output_base), num_outputs,
        average_num=average_num,
    )
