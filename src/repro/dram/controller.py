"""FR-FCFS memory controller for one DRAM channel.

The scheduler follows the classic first-ready, first-come-first-served
policy: among the requests in the scheduling window it issues the command
that can go on the wires earliest, preferring column commands (row hits)
over row commands and older requests over younger ones.  Writes are buffered
and drained in batches between read bursts (watermark policy); like reads,
they are scheduled only from the ``window`` oldest admitted entries.
Per-rank auto-refresh is modelled with all-bank REF every tREFI.

The loop is event-driven rather than per-cycle ticked: every iteration picks
the next command and advances time directly to its issue cycle, which keeps
the Python implementation fast while preserving cycle-resolution timing.

The working queue is indexed per bank.  Within one bank all row-hit
candidates share the same earliest issue cycle (it depends only on
bank/rank/bus state), as do all row-miss candidates, so FR-FCFS age
tie-breaking reduces each bank to at most two candidates: its oldest row
hit and its oldest non-hit (its oldest entry when it is precharged).  The
candidates are filed in a few **classes** whose members share every
readiness term but their bank's: one column and one ACT class per
bankgroup, and one PRE class.  A class lists its members oldest first, so
its best candidate is its first member whose bank term has passed the
class term, and a step walks only the classes that can still beat the
best candidate found so far.  The golden
reference that re-evaluates every window entry each step lives in the test
suite (``tests/scan_oracle.py``); the parity tests assert both produce
bit-identical :class:`ControllerStats` in every configuration.

Requests enter as whole columnar traces
(:meth:`MemoryController.enqueue_batch`, the only way in).  Enqueueing
checks a trace and labels it with sequence numbers; the controller keeps
it until a drain starts.  The drain decodes its pending traces in
one vectorized pass each into a **columnar backlog** (:class:`_Backlog`:
array chunks of decoded coordinates, arrivals, and sequence numbers);
per-request Python objects are only materialized when the scheduler
admits them into its working window.  The rank and bank state is
likewise built by the first drain after a reset.  A caller that needs
per-record completion cycles passes its own array to ``enqueue_batch``.

On top of the indexed scheduler sits the **hit phase**: embedding traffic
is streaming by construction, so drains spend most of their time issuing
row-hit column commands paced only by tCCD and the data bus.  When a column
command issues while every candidate of its direction is a row hit in one
rank, the drain switches to a loop with no ACT, PRE, refresh or class
walk: each bankgroup's oldest entry is its candidate, ready at the max of
``previous + max(burst, tCCD_S)``, its bankgroup's tCCD_L floor and (while
its bank warms up) tRCD, and the earliest ready, then the oldest, wins —
exact FR-FCFS.  Wherever the oldest entry keeps winning, the phase retires
the run in closed form (:meth:`MemoryController._stretch`), backlog
records that were never materialized included.  The phase ends one
command before a non-hit or other-rank record is admitted, the next
refresh, the write level reaching ``write_high`` (read phase) or falling
to ``write_low`` with reads queued (write phase); it never runs on a staged
write window.  It is bit-identical to the per-command loop (and to the scan
reference); ``REPRO_REFERENCE=1`` turns it off.  See PERF.md.

A controller can describe itself as a :class:`ControllerConfig` — a frozen,
picklable, hashable snapshot of everything its constructor needs — which
keys the timing memo and lets :func:`repro.dram.memo.drain` rebuild the
controller once per process.  Because sequence
numbers only break ties *relative* to each other within one controller, a
drain on a rebuilt controller is bit-identical to draining the original.
"""

from collections import deque
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from ..env import reference_mode
from .bank import Rank
from .command import TraceBuffer, reserve_seq_block, seq_ceiling
from .mapping import AddressMapping, DramOrganization
from .timing import DramTiming
from .trace import _is_int

_by_seq = attrgetter("seq")
_take = list.remove  # take a candidate out of its class


def _put(members: list, entry) -> None:
    """File ``entry`` in class ``members``, keeping it in sequence order."""
    seq = entry.seq
    i = len(members)
    while i and members[i - 1].seq > seq:
        i -= 1
    members.insert(i, entry)


@dataclass
class ControllerStats:
    """Counters accumulated over one simulation run."""

    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    activates: int = 0
    precharges: int = 0
    refreshes: int = 0
    data_bus_cycles: int = 0
    finish_cycle: int = 0
    read_latency_sum: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def total_bytes(self) -> int:
        return self.accesses * 64

    @property
    def row_hit_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return self.row_hits / self.accesses

    @property
    def bus_utilization(self) -> float:
        if not self.finish_cycle:
            return 0.0
        return self.data_bus_cycles / self.finish_cycle

    @property
    def mean_read_latency(self) -> float:
        if not self.reads:
            return 0.0
        return self.read_latency_sum / self.reads

    def bandwidth(self, timing: DramTiming) -> float:
        """Achieved bandwidth in bytes/second over the run."""
        if not self.finish_cycle:
            return 0.0
        return self.total_bytes / timing.cycles_to_seconds(self.finish_cycle)


@dataclass(frozen=True)
class ControllerConfig:
    """Picklable construction recipe for a :class:`MemoryController`.

    ``timing`` is the controller's *effective* timing (refresh scaling
    already applied), so :meth:`build` always passes
    ``refresh_enabled=True`` and reconstructs identical behaviour.  The
    dataclass is frozen and hashable, so it keys the timing memo and
    :func:`repro.dram.memo.drain`'s controller cache — one construction
    per distinct configuration per process, however many traces drain.
    """

    timing: DramTiming
    organization: DramOrganization
    mapping: AddressMapping
    window: int
    write_high_watermark: int
    write_low_watermark: int
    row_policy: str

    def build(self) -> "MemoryController":
        """Construct a fresh controller equivalent to the snapshot source."""
        return MemoryController(
            self.timing,
            organization=self.organization,
            mapping=self.mapping,
            window=self.window,
            write_high_watermark=self.write_high_watermark,
            write_low_watermark=self.write_low_watermark,
            refresh_enabled=True,  # self.timing is already refresh-scaled
            row_policy=self.row_policy,
        )


class _Entry:
    """A queued request: decoded coordinates plus scheduling bookkeeping.

    ``done`` is the caller's completions array when the request's trace was
    enqueued with one (else ``None``), and ``pos`` the request's position
    in that trace: issuing the column command writes the burst-end cycle to
    ``done[pos]``.  ``qpos`` is the entry's position in the working queue,
    maintained so the indexed scheduler can swap-pop in O(1), and ``state``
    its bank's :class:`Bank`, set at admission.
    """

    __slots__ = (
        "is_write", "arrival", "rank", "bankgroup", "bank", "row", "flat", "seq",
        "needed_act", "needed_pre", "done", "pos", "qpos", "state",
    )

    def __init__(self, is_write, arrival, rank, bankgroup, bank, row, flat, seq):
        self.is_write = is_write
        self.arrival = arrival
        self.rank = rank
        self.bankgroup = bankgroup
        self.bank = bank
        self.row = row
        self.flat = flat
        self.seq = seq
        self.needed_act = False
        self.needed_pre = False
        self.done = None
        self.pos = -1
        self.qpos = -1
        self.state = None


class _BacklogChunk:
    """One direction's share of one enqueued trace, stored columnar.

    The record columns are parallel int64 numpy arrays of arrival cycles
    and decoded coordinates (the drain needs no byte address or column).
    ``done`` is the caller's completions array (or ``None``) and ``pos``
    the records' positions in the enqueued trace, set only together with
    ``done``.  ``start`` is the consumed head offset — records before it
    have been admitted or issued by a hit phase's closed form.  ``_py``
    holds plain-list mirrors of the record columns, materialized lazily the
    first time a record is popped one at a time (admission), so per-record
    pops cost list indexing instead of numpy scalar extraction.  (Columns, not one tuple per
    record: a pop costs about the same, and a chunk that hit phases mostly
    retire straight from the arrays is cheaper to mirror.)
    """

    __slots__ = (
        "arrival", "rank", "bankgroup", "bank", "row", "flat", "seq",
        "done", "pos", "start", "n", "_py",
    )

    def __init__(self, arrival, rank, bankgroup, bank, row, flat, seq, done=None, pos=None):
        self.arrival = arrival
        self.rank = rank
        self.bankgroup = bankgroup
        self.bank = bank
        self.row = row
        self.flat = flat
        self.seq = seq
        self.done = done
        self.pos = pos
        self.start = 0
        self.n = len(seq)
        self._py = None

    def materialize(self):
        if self._py is None:
            self._py = tuple(
                column.tolist()
                for column in (
                    self.arrival, self.rank, self.bankgroup, self.bank, self.row,
                    self.flat, self.seq,
                )
            )
        return self._py


class _Backlog:
    """A direction's pending requests: a FIFO of columnar chunks.

    Scheduling-wise this is the same seq-ordered FIFO the old
    ``deque[_Entry]`` was, but records stay columnar until admission
    materializes them — and a hit phase can classify and retire whole runs
    with array arithmetic, never materializing them at all.
    """

    __slots__ = ("chunks", "length", "is_write")

    def __init__(self, is_write: bool):
        self.chunks: deque[_BacklogChunk] = deque()
        self.length = 0
        self.is_write = is_write

    def __len__(self) -> int:
        return self.length

    def append_chunk(self, chunk: _BacklogChunk) -> None:
        if chunk.n:
            self.chunks.append(chunk)
            self.length += chunk.n

    def head_arrival(self) -> int:
        """Arrival cycle of the oldest pending record (backlog non-empty)."""
        chunk = self.chunks[0]
        if chunk._py is not None:
            return chunk._py[0][chunk.start]
        return int(chunk.arrival[chunk.start])

    def popleft(self) -> _Entry:
        """Materialize and remove the oldest pending record."""
        chunk = self.chunks[0]
        py = chunk._py
        if py is None:
            py = chunk.materialize()
        arrival, rank, bankgroup, bank, row, flat, seq = py
        i = chunk.start
        entry = _Entry(
            self.is_write, arrival[i], rank[i], bankgroup[i], bank[i], row[i], flat[i], seq[i]
        )
        if chunk.done is not None:
            entry.done = chunk.done
            entry.pos = chunk.pos[i]
        chunk.start = i + 1
        if chunk.start == chunk.n:
            self.chunks.popleft()
        self.length -= 1
        return entry

    def consume(self, count: int) -> None:
        """Drop the oldest ``count`` records (already issued in closed form)."""
        self.length -= count
        while count:
            chunk = self.chunks[0]
            take = min(count, chunk.n - chunk.start)
            chunk.start += take
            count -= take
            if chunk.start == chunk.n:
                self.chunks.popleft()


def _file(classes: tuple, entries: list, g: int, open_row: int, put) -> None:
    """File one bank's candidates in one direction's ``(col, act, pre)``
    classes (``put`` is :data:`_put`), or take them out (:data:`_take`).

    ``entries`` is the bank's non-empty entry list, oldest first, and ``g``
    its flat bankgroup.  With row ``open_row`` open, the bank's oldest row
    hit is a member of column class ``col[g]`` and its oldest non-hit of
    the PRE class; precharged (``open_row < 0``), its oldest entry is a
    member of ACT class ``act[g]``.  Taking them out must use the open row
    they were filed under, so it runs before the bank's row changes.
    """
    col, act, pre = classes
    if open_row < 0:
        put(act[g], entries[0])
        return
    hit = miss = False
    for x in entries:
        if x.row == open_row:
            if not hit:
                put(col[g], x)
                hit = True
                if miss:
                    return
        elif not miss:
            put(pre, x)
            miss = True
            if hit:
                return


def _refile(directions: tuple, flat: int, g: int, old_row: int, new_row: int) -> None:
    """Move bank ``flat``'s candidates in both directions (``(lists,
    classes)`` pairs) from the classes of open row ``old_row`` to those of
    ``new_row`` (-1: precharged)."""
    for lists, classes in directions:
        entries = lists[flat]
        if entries:
            _file(classes, entries, g, old_row, _take)
            _file(classes, entries, g, new_row, _put)


def _load_floors(floors: tuple, ranks: list, r: int) -> None:
    """Load rank ``r``'s readiness floors from its :class:`Rank` state.

    ``floors`` is the indexed drain's ``(rank_rd, rank_wr, rank_act, bg_rd,
    bg_wr, bg_act)``: three lists indexed by rank, three by flat bankgroup.
    """
    rank_rd, rank_wr, rank_act, bg_rd, bg_wr, bg_act = floors
    rank = ranks[r]
    lo = r * rank.bankgroups
    hi = lo + rank.bankgroups
    (
        rank_rd[r], rank_wr[r], rank_act[r],
        bg_rd[lo:hi], bg_wr[lo:hi], bg_act[lo:hi],
    ) = rank.floors()


class MemoryController:
    """One channel's FR-FCFS scheduler plus its rank/bank state."""

    def __init__(
        self,
        timing: DramTiming,
        organization: DramOrganization | None = None,
        mapping: AddressMapping | None = None,
        window: int = 32,
        write_high_watermark: int = 32,
        write_low_watermark: int = 8,
        refresh_enabled: bool = True,
        row_policy: str = "open",
    ):
        if row_policy not in ("open", "closed"):
            raise ValueError(f"unknown row policy {row_policy!r}")
        for name, value in (
            ("window", window),
            ("write_high_watermark", write_high_watermark),
            ("write_low_watermark", write_low_watermark),
        ):
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer (got {value!r})")
        if window < 1:
            # An empty scheduling window admits nothing and never drains.
            raise ValueError(f"window must be at least 1 (got {window})")
        if write_low_watermark < 0:
            raise ValueError(
                f"write_low_watermark must be non-negative (got {write_low_watermark})"
            )
        if write_low_watermark >= write_high_watermark:
            # With low == high the drain state flips after every command and
            # mixed read/write traffic to conflicting rows can ping-pong
            # ACT/PRE forever without ever issuing a column command.
            raise ValueError(
                "write_low_watermark must be below write_high_watermark "
                f"(got {write_low_watermark} >= {write_high_watermark})"
            )
        self.timing = timing.scaled_refresh(refresh_enabled)
        self.organization = organization or DramOrganization()
        self.mapping = mapping or AddressMapping(self.organization)
        self.window = int(window)
        self.row_policy = row_policy
        self.write_high = int(write_high_watermark)
        self.write_low = int(write_low_watermark)
        # Scalar timing snapshots for the per-step hot path.
        self._t_cl = self.timing.cl
        self._t_cwl = self.timing.cwl
        self._t_burst = self.timing.burst_cycles
        self._t_rtrs = self.timing.rtrs
        self._t_rtp = self.timing.rtp
        self._t_w2p = self.timing.write_to_precharge
        # A hit phase's cadence: one column command per ``pace`` cycles.
        self._pace = max(self._t_burst, self.timing.ccd_s, 1)
        # The class index of each direction (:meth:`_build_index`), built
        # by the first drain and emptied by every reset after it.
        self._index = None
        self.reset()

    def reset(self) -> None:
        """Restore the post-construction state (queues, banks, stats).

        Much cheaper than building a new controller — the organization,
        mapping (with its cached field layout), and timing are reused — and
        it builds no rank or bank state: the next drain does (:attr:`ranks`).
        """
        self._ranks: list[Rank] | None = None
        self.stats = ControllerStats()
        self._read_backlog = _Backlog(False)
        self._write_backlog = _Backlog(True)
        # The traces queued since the last drain, in enqueue order, each
        # with its first sequence number and its completions array; the
        # drain decodes them (:meth:`_decode_pending`).
        self._pending_traces: list[tuple[TraceBuffer, int, np.ndarray | None]] = []
        self._pending_records = 0
        self._read_q: list[_Entry] = []
        self._write_q: list[_Entry] = []
        # Admitted writes waiting behind the write window, oldest first.
        self._write_staged: deque[_Entry] = deque()
        if self._index is not None:
            for members in self._index:
                members.clear()
        self._draining_writes = False
        self._bus_free = 0
        self._bus_rank = -1
        self._cmd_free = 0
        self._now = 0
        # Column commands issued in hit phases by this controller's own
        # drains since the reset (telemetry; not part of the stats, which
        # reference mode must reproduce).
        self.phase_columns = 0

    @property
    def ranks(self) -> list[Rank]:
        """The channel's rank and bank state, built on first use after a
        reset, together with the flat-indexed views the drain reads."""
        if self._ranks is None:
            org = self.organization
            self._ranks = [
                Rank(self.timing, org.bankgroups, org.banks_per_group)
                for _ in range(org.ranks)
            ]
            # Flat-indexed views (key = ((rank * BG) + bg) * BPG + bank) so
            # the scheduler resolves bank/rank state without attribute chains.
            self._flat_bank = []
            self._flat_rank = []
            self._flat_bgflat = []
            for r, rank in enumerate(self._ranks):
                for bg in range(org.bankgroups):
                    for bank in range(org.banks_per_group):
                        self._flat_bank.append(rank.banks[bg][bank])
                        self._flat_rank.append(rank)
                        self._flat_bgflat.append(r * org.bankgroups + bg)
        return self._ranks

    def _build_index(self) -> None:
        """Allocate each direction's class index: every bank's queued
        entries, oldest first, and its ``(col, act, pre)`` candidate classes
        (see :func:`_file`)."""
        org = self.organization
        groups = org.ranks * org.bankgroups
        self._read_lists, self._write_lists = (
            [[] for _ in range(groups * org.banks_per_group)] for _ in range(2)
        )
        self._read_classes, self._write_classes = (
            ([[] for _ in range(groups)], [[] for _ in range(groups)], []) for _ in range(2)
        )
        self._index = [*self._read_lists, *self._write_lists]
        for col, act, pre in (self._read_classes, self._write_classes):
            self._index += [*col, *act, pre]

    # -- public API ----------------------------------------------------------

    def enqueue_batch(self, trace: TraceBuffer, completions=None) -> None:
        """Check and queue a whole columnar trace.

        ``trace`` is a :class:`TraceBuffer`; its ``cycle`` column gives each
        record's arrival cycle.  The records join the direction backlogs in
        trace order, with sequence numbers drawn from the shared counter
        here, at enqueue time, so enqueueing a trace in several pieces
        schedules exactly like enqueueing it whole, and traces queued on
        different controllers keep their enqueue order.  The trace itself
        is decoded only when a drain starts, in one vectorized pass
        (:meth:`_decode_pending`).  Per-record Python objects are only
        materialized later still, at admission time (and never for records
        a hit phase retires straight from the backlog).

        ``completions``, if given, is a caller-owned int64 array of
        ``len(trace)``: this controller's :meth:`run_to_completion` writes
        each record's burst-end cycle at the record's trace position.  A
        bad address or a ``completions`` of the wrong shape or dtype raises
        ``ValueError`` before anything is queued.
        """
        n = len(trace)
        if completions is not None and (
            not isinstance(completions, np.ndarray)
            or completions.dtype != np.int64
            or completions.shape != (n,)
        ):
            raise ValueError(f"completions must be an int64 numpy array of shape ({n},)")
        if n == 0:
            return
        addr = trace.addr
        if addr.min() < 0 or addr.max() >= self.organization.capacity_bytes:
            bad = addr[(addr < 0) | (addr >= self.organization.capacity_bytes)][0]
            raise ValueError(
                f"address {int(bad):#x} outside channel capacity "
                f"{self.organization.capacity_bytes:#x}"
            )
        self._pending_traces.append((trace, reserve_seq_block(n), completions))
        self._pending_records += n

    def _decode_pending(self) -> None:
        """Decode the traces queued since the last drain into the direction
        backlogs, in enqueue order, and forget them.  Every drain, the scan
        oracle's included, starts here."""
        org = self.organization
        for trace, seq0, completions in self._pending_traces:
            coords = self.mapping.decode_batch(trace.addr)
            seqs = seq0 + np.arange(len(trace), dtype=np.int64)
            flats = (
                coords["rank"] * org.bankgroups + coords["bankgroup"]
            ) * org.banks_per_group + coords["bank"]
            is_write = trace.is_write
            for backlog, mask in (
                (self._read_backlog, ~is_write),
                (self._write_backlog, is_write),
            ):
                if not mask.any():
                    continue
                backlog.append_chunk(
                    _BacklogChunk(
                        trace.cycle[mask],
                        coords["rank"][mask],
                        coords["bankgroup"][mask],
                        coords["bank"][mask],
                        coords["row"][mask],
                        flats[mask],
                        seqs[mask],
                        completions,
                        None if completions is None else np.flatnonzero(mask),
                    )
                )
        self._pending_traces.clear()
        self._pending_records = 0

    def snapshot_config(self) -> ControllerConfig:
        """Freeze this controller's construction parameters (see
        :class:`ControllerConfig`).  The snapshot captures the effective
        timing, so refresh scaling survives the round trip."""
        return ControllerConfig(
            timing=self.timing,
            organization=self.organization,
            mapping=self.mapping,
            window=self.window,
            write_high_watermark=self.write_high,
            write_low_watermark=self.write_low,
            row_policy=self.row_policy,
        )

    @property
    def pending(self) -> int:
        return (
            self._pending_records
            + len(self._read_backlog)
            + len(self._write_backlog)
            + len(self._read_q)
            + len(self._write_q)
            + len(self._write_staged)
        )

    def elapsed_seconds(self) -> float:
        return self.timing.cycles_to_seconds(self.stats.finish_cycle)

    def run_to_completion(self) -> ControllerStats:
        """Service every queued request and return the run statistics.

        FR-FCFS over per-bank indexed queues, restructured for throughput:

        * at most two candidates per bank with entries — within a bank every
          row-hit entry shares one earliest-issue cycle and every non-hit
          entry shares another (readiness depends only on bank/rank/bus
          state; an admitted entry's arrival is already in the past), so the
          oldest entry of each kind dominates its peers under the
          (ready, column-first, age) FR-FCFS key;
        * each direction files its candidates in **classes** that share
          every readiness term but their bank's (:func:`_file`): per
          bankgroup a column class (its bankgroup and rank column floors,
          the data bus with tRTRS, the command floor) and an ACT class (its
          bankgroup and rank ACT floors, the command floor), and one PRE
          class (the command floor).  A member is ready at the max of its
          class term and its bank's term, read live from :class:`Bank`, so
          a class's best is its oldest member whose bank term has passed the
          class term, and a step walks only the classes that can still beat
          the best candidate so far, in ranks that hold entries of the
          direction;
        * the classes follow every command: admission appends (an admitted
          entry is its direction's youngest), a column command files its
          bank's next row hit, an ACT or PRE re-files the bank in both
          directions, and a refresh or a hit phase's end files afresh;
        * rank and bankgroup readiness floors are incremental: loaded from
          :meth:`Rank.floors` on entry and after each hit phase, and raised
          by ``max`` as each ACT or column command issues;
        * candidates compare on ready cycle, then on one integer tie key:
          a column command's key is its sequence number, a row command's is
          its sequence number plus :func:`seq_ceiling` at drain start.
          Every queued number lies below the ceiling, so the key orders
          column before row commands and, within each, older before younger
          — the FR-FCFS (pref, seq) order, for any sequence numbers;
        * writes are scheduled only from the ``window`` oldest admitted
          entries; when ``write_high > window`` the younger admitted writes
          wait in a FIFO staging deque, count towards the watermarks, and
          refill the window, oldest first, before the backlog does;
        * while every candidate of the chosen direction is a row hit in one
          rank, the drain runs a **hit phase** (module docstring, PERF.md);
          the classes show that in O(1) after each column command;
        * admission, refresh, queue arbitration, candidate selection, and
          command issue (ACT and PRE included) are inlined into one loop
          with the mutable state (clock, bus, stats counters) and timing
          constants held in locals and written back once at the end.
        """
        t = self.timing
        stats = self.stats
        window = self.window
        write_high = self.write_high
        write_low = self.write_low
        closed_policy = self.row_policy == "closed"
        self._decode_pending()
        ranks = self.ranks
        flat_bank = self._flat_bank
        flat_rank = self._flat_rank
        flat_bgflat = self._flat_bgflat
        bg_count = self.organization.bankgroups
        read_backlog = self._read_backlog
        write_backlog = self._write_backlog
        read_q = self._read_q
        write_q = self._write_q
        # The class index of each direction; a drain starts with both empty.
        if self._index is None:
            self._build_index()
        read_lists = self._read_lists
        write_lists = self._write_lists
        read_classes = self._read_classes
        write_classes = self._write_classes
        read_col, read_act, read_pre = read_classes
        write_col, write_act, write_pre = write_classes
        # How many of each direction's queued entries each rank holds.
        read_live = [0] * len(ranks)
        write_live = [0] * len(ranks)
        read_index = (read_q, read_lists, read_classes, read_live)
        write_index = (write_q, write_lists, write_classes, write_live)
        directions = ((read_lists, read_classes), (write_lists, write_classes))
        # Only a write queue that can outgrow the window needs the staging
        # deque; the default configuration never enters its branches.
        staging = window < write_high
        write_cap = window if staging else write_high
        staged = self._write_staged
        t_cl = self._t_cl
        t_cwl = self._t_cwl
        t_burst = self._t_burst
        rtrs = self._t_rtrs
        t_rtp = self._t_rtp
        t_w2p = self._t_w2p
        t_rcd = t.rcd
        t_ras = t.ras
        t_rc = t.rc
        t_rp = t.rp
        big = 1 << 62
        row_key = seq_ceiling()  # added to a row command's tie key
        n_ranks = len(ranks)
        # Incremental readiness floors (see PERF.md): each earliest RD/WR/ACT
        # bound split into a rank-wide part (indexed by rank) and a
        # bankgroup part (indexed by flat bankgroup id), loaded from Rank
        # state here and after each hit phase, then raised by ``max`` as ACT
        # and column commands issue.  Issue cycles strictly increase, so a
        # max with the new command's term equals a fresh recomputation.
        rank_rd = [0] * n_ranks
        rank_wr = [0] * n_ranks
        rank_act = [0] * n_ranks
        bg_rd = [0] * (n_ranks * bg_count)
        bg_wr = [0] * (n_ranks * bg_count)
        bg_act = [0] * (n_ranks * bg_count)
        floors = (rank_rd, rank_wr, rank_act, bg_rd, bg_wr, bg_act)
        for r in range(n_ranks):
            _load_floors(floors, ranks, r)
        ccd_s = t.ccd_s
        ccd_l = t.ccd_l
        rrd_s = t.rrd_s
        rrd_l = t.rrd_l
        faw = t.faw
        wtr_same = t.write_to_read(same_bank_group=True)
        wtr_diff = t.write_to_read(same_bank_group=False)
        rd_to_wr = t.read_to_write
        rank_bgs = [(r, range(r * bg_count, (r + 1) * bg_count)) for r in range(n_ranks)]
        next_refresh = min(rank.next_refresh for rank in ranks)

        # Hit-phase state: ``heads[g]`` lists the window's entries in
        # bankgroup ``g`` of the phase rank, oldest first; ``bgf`` holds those
        # bankgroups' column floors, ``rank_floor`` the rank's floor at entry,
        # ``prev`` the last issue cycle, ``issued`` the phase's commands,
        # ``seq_run`` its latest commands in a row that went to the oldest
        # entry, and ``warm_at`` the cycle its rank's open banks pass tRCD.
        phases = not closed_policy and not reference_mode()
        pace = self._pace
        banks_per_rank = self.organization.banks
        phase = phase_write = phase_end = False
        phase_rank = prev = issued = seq_run = rank_floor = warm_at = 0
        retry = phase_cap = phase_tail = phase_gate = 0
        heads = bgf = None

        now = self._now
        cmd_free = self._cmd_free
        bus_free = self._bus_free
        bus_rank = self._bus_rank
        draining = self._draining_writes
        n_reads = stats.reads
        n_writes = stats.writes
        n_hits = stats.row_hits
        n_misses = stats.row_misses
        n_conflicts = stats.row_conflicts
        n_acts = stats.activates
        n_pres = stats.precharges
        n_refs = stats.refreshes
        bus_cycles = stats.data_bus_cycles
        finish = stats.finish_cycle
        latency_sum = stats.read_latency_sum

        pending = self.pending
        while pending or phase:
            # -- admission --------------------------------------------------
            # An admitted entry is the youngest of its direction: it joins
            # the end of its bank's list and, when it is the bank's first
            # entry of its kind, the end of its class.
            while (
                len(read_q) < window
                and read_backlog.length
                and read_backlog.head_arrival() <= now
            ):
                entry = read_backlog.popleft()
                entry.qpos = len(read_q)
                read_q.append(entry)
                flat = entry.flat
                bank = entry.state = flat_bank[flat]
                open_row = bank.open_row
                if phase and not phase_write:
                    # A read phase indexes its window by bankgroup; the bank
                    # lists are rebuilt when it ends.
                    if entry.rank == phase_rank and entry.row == open_row:
                        heads[entry.bankgroup].append(entry)
                    else:
                        phase_end = True
                    continue
                entries = read_lists[flat]
                if open_row < 0:
                    if not entries:
                        read_act[flat_bgflat[flat]].append(entry)
                elif entry.row == open_row:
                    for x in entries:
                        if x.row == open_row:
                            break
                    else:
                        read_col[flat_bgflat[flat]].append(entry)
                else:
                    for x in entries:
                        if x.row != open_row:
                            break
                    else:
                        read_pre.append(entry)
                entries.append(entry)
                read_live[entry.rank] += 1
            while len(write_q) < write_cap and (
                staged or (write_backlog.length and write_backlog.head_arrival() <= now)
            ):
                # Staged writes are older than the whole backlog: a write
                # completion's free window slot goes to the oldest of them.
                entry = staged.popleft() if staged else write_backlog.popleft()
                entry.qpos = len(write_q)
                write_q.append(entry)
                flat = entry.flat
                bank = entry.state = flat_bank[flat]
                open_row = bank.open_row
                if phase and phase_write:
                    if entry.rank == phase_rank and entry.row == open_row:
                        heads[entry.bankgroup].append(entry)
                    else:
                        phase_end = True
                    continue
                entries = write_lists[flat]
                if open_row < 0:
                    if not entries:
                        write_act[flat_bgflat[flat]].append(entry)
                elif entry.row == open_row:
                    for x in entries:
                        if x.row == open_row:
                            break
                    else:
                        write_col[flat_bgflat[flat]].append(entry)
                else:
                    for x in entries:
                        if x.row != open_row:
                            break
                    else:
                        write_pre.append(entry)
                entries.append(entry)
                write_live[entry.rank] += 1
            if staging:
                while (
                    len(write_q) + len(staged) < write_high
                    and write_backlog.length
                    and write_backlog.head_arrival() <= now
                ):
                    staged.append(write_backlog.popleft())
            # -- hit phase --------------------------------------------------
            if phase:
                if phase_write:
                    queue = write_q
                    ended = not write_q or (len(write_q) <= write_low and read_q)
                else:
                    queue = read_q
                    ended = not read_q or (
                        len(write_q) + len(staged) if staging else len(write_q)
                    ) >= write_high
                if not (ended or phase_end or now >= next_refresh):
                    floor = prev + pace
                    if floor < rank_floor:
                        floor = rank_floor
                    if (
                        floor >= warm_at
                        and seq_run >= retry
                        and (write_backlog if phase_write else read_backlog).length >= phase_cap
                    ):
                        # Once the rank's banks are warm, try to retire what
                        # follows in closed form, if at least another
                        # window's worth of records is queued.
                        done = self._stretch(heads, phase_write, phase_rank, bgf, floor, now)
                        seq_run = 0
                        # An oldest entry that is not ready yet is checked
                        # again after the next command that goes to the
                        # oldest entry (a test of the group heads); any
                        # other break waits for the window to turn over in
                        # sequence order.
                        retry = 1 if done == 0 else phase_cap
                        if done.__class__ is tuple:
                            m, prev, s_hits, s_misses, s_conflicts, s_lat = done
                            now = prev
                            issued += m
                            pending -= m
                            n_hits += s_hits
                            n_misses += s_misses
                            n_conflicts += s_conflicts
                            if phase_write:
                                n_writes += m
                            else:
                                n_reads += m
                                latency_sum += s_lat
                            continue
                    # FR-FCFS over the bankgroup heads: with only row hits
                    # in one rank, a bank's oldest entry is ready at the max
                    # of the floor, its bankgroup's floor and its bank's
                    # tRCD, so in a bankgroup whose oldest entry's bank is
                    # warm that entry wins the group.
                    best = None
                    best_ready = best_seq = oldest = big
                    for g, group in enumerate(heads):
                        if not group:
                            continue
                        entry = group[0]
                        s = entry.seq
                        if s < oldest:
                            oldest = s
                        ready = bgf[g]
                        if ready < floor:
                            ready = floor
                        if flat_bank[entry.flat].earliest_col > ready:
                            # Its bank is still warming up: a younger entry
                            # of a warm bank in the group may go first.
                            group_ready = ready
                            ready = big
                            for x in group:
                                v = flat_bank[x.flat].earliest_col
                                if v < group_ready:
                                    v = group_ready
                                if v < ready:
                                    ready = v
                                    entry = x
                            s = entry.seq
                        if ready < best_ready or (ready == best_ready and s < best_seq):
                            best_ready = ready
                            best_seq = s
                            best = entry
                    entry = best
                    when = best_ready
                    g = entry.bankgroup
                    group = heads[g]
                    if group[0] is entry:
                        del group[0]
                    else:
                        group.remove(entry)
                    seq_run = seq_run + 1 if best_seq == oldest else 0
                    i = entry.qpos
                    last = queue[-1]
                    queue[i] = last
                    last.qpos = i
                    queue.pop()
                    now = prev = when
                    bgf[g] = when + ccd_l
                    bank = flat_bank[entry.flat]
                    burst_end = when + phase_tail
                    if phase_write:
                        n_writes += 1
                    else:
                        n_reads += 1
                        latency_sum += burst_end - entry.arrival
                    if when + phase_gate > bank.earliest_pre:
                        bank.earliest_pre = when + phase_gate
                    if entry.done is not None:
                        entry.done[entry.pos] = burst_end
                    if entry.needed_pre:
                        n_conflicts += 1
                    elif entry.needed_act:
                        n_misses += 1
                    else:
                        n_hits += 1
                    issued += 1
                    pending -= 1
                    continue
                # The phase ends before this step: write its commands'
                # history back and index its window again.
                phase = phase_end = False
                r = phase_rank
                self.phase_columns += issued
                if issued:
                    cmd_free = prev + 1
                    bus_rank = r
                    bus_free = prev + phase_tail
                    if bus_free > finish:
                        finish = bus_free
                    bus_cycles += issued * t_burst
                    rank = ranks[r]
                    if phase_write:
                        rank._last_wr = prev
                        by_group = rank._last_wr_by_group
                        entry_floors = bg_wr
                    else:
                        rank._last_rd = prev
                        by_group = rank._last_rd_by_group
                        entry_floors = bg_rd
                    for g in range(bg_count):
                        # A group that issued in the phase raised its floor
                        # to its last command + tCCD_L.
                        if bgf[g] > entry_floors[r * bg_count + g]:
                            by_group[g] = bgf[g] - ccd_l
                    _load_floors(floors, ranks, r)
                self._index_window(*(write_index if phase_write else read_index))
                if not pending:
                    break
            if not read_q and not write_q:
                # Nothing admitted: jump to the next arrival.
                arrival = big
                if read_backlog.length:
                    arrival = read_backlog.head_arrival()
                if write_backlog.length:
                    w_arrival = write_backlog.head_arrival()
                    if w_arrival < arrival:
                        arrival = w_arrival
                if arrival > now:
                    now = arrival
                continue
            # -- refresh ----------------------------------------------------
            if now >= next_refresh:
                for rank in ranks:
                    if now >= rank.next_refresh:
                        rank.refresh(now)
                        n_refs += 1
                next_refresh = min(rank.next_refresh for rank in ranks)
                # The refreshed ranks' banks all closed.
                self._index_window(*read_index)
                self._index_window(*write_index)
            # -- queue arbitration (write-drain watermarks) -----------------
            write_level = len(write_q) + len(staged) if staging else len(write_q)
            if draining:
                if write_level <= write_low and read_q:
                    draining = False
            elif not read_q or write_level >= write_high:
                draining = bool(write_q) or write_backlog.length > 0
            if draining and write_q:
                is_write_q = True
            else:
                is_write_q = not read_q
            floor = cmd_free if cmd_free > now else now
            if is_write_q:
                queue = write_q
                lists = write_lists
                col, act, pre = write_classes
                other_lists = read_lists
                other_classes = read_classes
                live = write_live
                data_offset = t_cwl
                rank_col = rank_wr
                bg_col = bg_wr
            else:
                queue = read_q
                lists = read_lists
                col, act, pre = read_classes
                other_lists = write_lists
                other_classes = write_classes
                live = read_live
                data_offset = t_cl
                rank_col = rank_rd
                bg_col = bg_rd
            # -- candidate selection ------------------------------------------
            # Best candidate so far, compared on (ready, key).  A class is
            # walked only if its term can still win; within it, the first
            # member whose bank term has passed the class term is ready at
            # that term and ends the walk (younger members cannot beat it),
            # and the members before it are ready at their bank terms.
            best_ready = best_key = big
            best_entry = None
            for r, bgs in rank_bgs:
                if not live[r]:
                    continue
                term_c = bus_free - data_offset
                if bus_rank != r and bus_rank >= 0:
                    term_c += rtrs
                if term_c < floor:
                    term_c = floor
                if rank_col[r] > term_c:
                    term_c = rank_col[r]
                term_a = rank_act[r]
                if term_a < floor:
                    term_a = floor
                for g in bgs:
                    members = col[g]
                    if members:
                        term = bg_col[g]
                        if term < term_c:
                            term = term_c
                        if term < best_ready or (term == best_ready and members[0].seq < best_key):
                            for e in members:
                                ready = e.state.earliest_col
                                if ready <= term:
                                    if term < best_ready or e.seq < best_key:
                                        best_ready, best_key, best_entry = term, e.seq, e
                                    break
                                if ready < best_ready or (ready == best_ready and e.seq < best_key):
                                    best_ready, best_key, best_entry = ready, e.seq, e
                    members = act[g]
                    if members:
                        term = bg_act[g]
                        if term < term_a:
                            term = term_a
                        if term < best_ready or (
                            term == best_ready and members[0].seq + row_key < best_key
                        ):
                            for e in members:
                                ready = e.state.earliest_act
                                key = e.seq + row_key
                                if ready <= term:
                                    if term < best_ready or key < best_key:
                                        best_ready, best_key, best_entry = term, key, e
                                    break
                                if ready < best_ready or (ready == best_ready and key < best_key):
                                    best_ready, best_key, best_entry = ready, key, e
            if pre and (floor < best_ready or pre[0].seq + row_key < best_key):
                for e in pre:
                    ready = e.state.earliest_pre
                    key = e.seq + row_key
                    if ready <= floor:
                        if floor < best_ready or key < best_key:
                            best_ready, best_key, best_entry = floor, key, e
                        break
                    if ready < best_ready or (ready == best_ready and key < best_key):
                        best_ready, best_key, best_entry = ready, key, e
            # -- issue ------------------------------------------------------
            entry = best_entry
            when = best_ready
            flat = entry.flat
            bank = entry.state
            rank = flat_rank[flat]
            bg = entry.bankgroup
            r = entry.rank
            g = flat_bgflat[flat]
            if when > now:
                now = when
            cmd_free = when + 1
            row = bank.open_row
            if row < 0:  # ACT
                bank.open_row = row = entry.row
                bank.earliest_col = when + t_rcd
                v = when + t_ras
                if v > bank.earliest_pre:
                    bank.earliest_pre = v
                bank.earliest_act = when + t_rc
                window_acts = rank._act_window
                window_acts.append(when)
                rank._last_act_by_group[bg] = when
                rank._last_act = when
                rank.stats_acts += 1
                v = when + rrd_s
                if len(window_acts) == 4:
                    head = window_acts[0] + faw
                    if head > v:
                        v = head
                if v > rank_act[r]:
                    rank_act[r] = v
                v = when + rrd_l
                if v > bg_act[g]:
                    bg_act[g] = v
                n_acts += 1
                entry.needed_act = True
                # The bank's oldest entry (this one) becomes its oldest row
                # hit, its oldest non-hit a PRE candidate; the other
                # direction's entries in the bank are filed afresh.
                act[g].remove(entry)
                _put(col[g], entry)
                for x in lists[flat]:
                    if x.row != row:
                        _put(pre, x)
                        break
                entries = other_lists[flat]
                if entries:
                    _file(other_classes, entries, g, -1, _take)
                    _file(other_classes, entries, g, row, _put)
                continue
            if row != entry.row:  # PRE
                # The bank's entries compete for an ACT again.
                entries = lists[flat]
                pre.remove(entry)
                for x in entries:
                    if x.row == row:
                        col[g].remove(x)
                        break
                _put(act[g], entries[0])
                entries = other_lists[flat]
                if entries:
                    _file(other_classes, entries, g, row, _take)
                    _file(other_classes, entries, g, -1, _put)
                bank.open_row = -1
                v = when + t_rp
                if v > bank.earliest_act:
                    bank.earliest_act = v
                n_pres += 1
                entry.needed_pre = True
                continue
            # Column command: the request completes after its data burst.
            burst_end = when + data_offset + t_burst
            bus_free = burst_end
            bus_rank = entry.rank
            bus_cycles += t_burst
            if entry.done is not None:
                entry.done[entry.pos] = burst_end
            if burst_end > finish:
                finish = burst_end
            if is_write_q:
                ep = when + t_w2p  # WR gates the next PRE on this bank
                if ep > bank.earliest_pre:
                    bank.earliest_pre = ep
                rank._last_wr_by_group[bg] = when
                rank._last_wr = when
                v = when + ccd_s
                if v > rank_wr[r]:
                    rank_wr[r] = v
                v = when + wtr_diff
                if v > rank_rd[r]:
                    rank_rd[r] = v
                v = when + ccd_l
                if v > bg_wr[g]:
                    bg_wr[g] = v
                v = when + wtr_same
                if v > bg_rd[g]:
                    bg_rd[g] = v
                n_writes += 1
            else:
                ep = when + t_rtp  # RD gates the next PRE on this bank
                if ep > bank.earliest_pre:
                    bank.earliest_pre = ep
                rank._last_rd_by_group[bg] = when
                rank._last_rd = when
                v = when + ccd_s
                if v > rank_rd[r]:
                    rank_rd[r] = v
                v = when + rd_to_wr
                if v > rank_wr[r]:
                    rank_wr[r] = v
                v = when + ccd_l
                if v > bg_rd[g]:
                    bg_rd[g] = v
                n_reads += 1
                latency_sum += burst_end - entry.arrival
            if entry.needed_pre:
                n_conflicts += 1
            elif entry.needed_act:
                n_misses += 1
            else:
                n_hits += 1
            # The completed entry leaves the queue by swap-pop, and its bank
            # list and column class in order; the bank's next row hit, if
            # any, takes its place in the class.
            i = entry.qpos
            last = queue[-1]
            queue[i] = last
            last.qpos = i
            queue.pop()
            entries = lists[flat]
            entries.remove(entry)
            members = col[g]
            members.remove(entry)
            for x in entries:
                if x.row == row:
                    _put(members, x)
                    break
            live[r] -= 1
            pending -= 1
            if closed_policy:
                # Auto-precharge: the bank closes as soon as tRTP/tWR allows.
                _refile(directions, flat, g, row, -1)
                bank.precharge(bank.earliest_pre, t)
                n_pres += 1
            elif (
                phases
                and not pre
                and draining == is_write_q
                and not (staging and is_write_q)
                and live[r] == len(queue)
                and queue
                and not any(act)
            ):
                # Every candidate of this direction is a row hit in rank r:
                # a hit phase starts with the next step.
                phase = True
                phase_write = is_write_q
                phase_rank = r
                prev = when
                issued = seq_run = 0
                retry = 0
                phase_cap = write_cap if is_write_q else window
                phase_tail = data_offset + t_burst
                phase_gate = t_w2p if is_write_q else t_rtp
                rank_floor = rank_col[r]
                warm_at = max(
                    b.earliest_col
                    for b in flat_bank[r * banks_per_rank : (r + 1) * banks_per_rank]
                    if b.open_row >= 0
                )
                lo = r * bg_count
                bgf = bg_col[lo : lo + bg_count]
                heads = [[] for _ in range(bg_count)]
                for e in sorted(queue, key=_by_seq):
                    heads[e.bankgroup].append(e)

        # -- write back ----------------------------------------------------
        self._now = now
        self._cmd_free = cmd_free
        self._bus_free = bus_free
        self._bus_rank = bus_rank
        self._draining_writes = draining
        stats.reads = n_reads
        stats.writes = n_writes
        stats.row_hits = n_hits
        stats.row_misses = n_misses
        stats.row_conflicts = n_conflicts
        stats.activates = n_acts
        stats.precharges = n_pres
        stats.refreshes = n_refs
        stats.data_bus_cycles = bus_cycles
        stats.read_latency_sum = latency_sum
        stats.finish_cycle = finish if finish > now else now
        return stats

    def _index_window(self, queue: list, lists: list, classes: tuple, live: list) -> None:
        """Index one direction's window afresh: its bank lists from
        ``queue``, oldest first, its entries per rank in ``live``, and its
        classes from the lists and the banks' open rows.  Whatever they
        held is dropped first, so a hit phase, which issues without touching
        them, ends with one call, and so does a refresh, which closes banks."""
        for members in (*lists, *classes[0], *classes[1], classes[2]):
            members.clear()
        live[:] = [0] * len(live)
        for entry in sorted(queue, key=_by_seq):
            lists[entry.flat].append(entry)
            live[entry.rank] += 1
        flat_bank = self._flat_bank
        flat_bgflat = self._flat_bgflat
        for flat, entries in enumerate(lists):
            if entries:
                _file(classes, entries, flat_bgflat[flat], flat_bank[flat].open_row, _put)

    def _stretch(self, heads, is_write, r0, bgf, floor, now):
        """Issue, in closed form, the longest run of a hit phase's next
        commands that each go to the oldest window entry.

        Called at a phase step that passed its admission and end checks:
        every window entry (``heads``, per bankgroup of rank ``r0``) is a
        row hit, every open bank of ``r0`` is past tRCD (no ACT issues in a
        phase, so every record below is ready as far as its bank goes), the
        next command issues no earlier than ``floor``, and bankgroup ``g``'s
        no earlier than ``bgf[g]``.  The run is the window
        in sequence order, then the backlog's prefix of row hits in ``r0``
        that have arrived by ``now``, read in blocks that grow sixteenfold
        while the run holds (numpy work in proportion to the run).  Its
        ``i``-th record is the oldest candidate at step ``i``, and wins if
        no candidate is ready before it: always in a one-bankgroup run,
        whose commands follow ``max(floor, bgf)`` at ``max(burst, tCCD_S,
        tCCD_L)`` intervals; otherwise when it is ready at the floor,
        ``previous + max(burst, tCCD_S)``, i.e. when ``bgf``, then its
        group's previous command + tCCD_L, is reached by then.  The
        run stops before the step that admits a record it does not hold,
        with the write low watermark's entries still queued (write phase),
        and after the first command issued at or past the next refresh or
        the next admission of the other direction.

        Returns ``(m, last_when, hits, misses, conflicts, latency)`` after
        retiring the ``m`` commands from the window, backlog, ``bgf``, the
        banks' ``earliest_pre`` and the completion arrays; when no command
        qualifies, the number of leading records that held (0: the oldest
        entry is not ready at the floor).
        """
        flat_bank = self._flat_bank
        ccd_l = self.timing.ccd_l
        pace = self._pace
        read_q, write_q = self._read_q, self._write_q
        if is_write:
            queue, backlog, other = write_q, self._write_backlog, self._read_backlog
            cap = self.write_high
            keep = self.write_low if read_q else 0
            other_room = len(read_q) < self.window
        else:
            queue, backlog, other = read_q, self._read_backlog, self._write_backlog
            cap = self.window
            keep = 0
            other_room = len(write_q) + len(self._write_staged) < self.write_high
        bound = min(rank.next_refresh for rank in self._ranks)
        if other_room and other.length:
            bound = min(bound, other.head_arrival())
        groups = [group for group in heads if group]
        if len(groups) == 1:
            entries = groups[0]
        else:
            # The oldest entry first (no sort), then the whole window.
            e = min((group[0] for group in groups), key=_by_seq)
            if bgf[e.bankgroup] > floor:
                return 0
            entries = sorted((e for group in groups for e in group), key=_by_seq)
            group_floor = list(bgf)
            when = floor
            for i, e in enumerate(entries):
                g = e.bankgroup
                if group_floor[g] > when:
                    return i
                group_floor[g] = when + ccd_l
                when += pace
        q_n = len(entries)
        g0 = entries[0].bankgroup
        nflats = len(flat_bank)
        open_rows = np.fromiter((b.open_row for b in flat_bank), np.int64, nflats)
        window_flats = np.array([e.flat for e in entries], np.int64)
        window_bgs = np.array([e.bankgroup for e in entries], np.int64)
        best = None
        block = cap
        while True:
            flat_parts, bg_parts, arr_parts = [window_flats], [window_bgs], []
            absorbed = 0
            for chunk in backlog.chunks:
                end = min(chunk.n, chunk.start + block - absorbed)
                sl = slice(chunk.start, end)
                flats_c = chunk.flat[sl]
                ok = (
                    (chunk.rank[sl] == r0)
                    & (chunk.arrival[sl] <= now)
                    & (chunk.row[sl] == open_rows[flats_c])
                )
                k = end - chunk.start if ok.all() else int(np.argmax(~ok))
                if k:
                    flat_parts.append(flats_c[:k])
                    bg_parts.append(chunk.bankgroup[sl][:k])
                    arr_parts.append(chunk.arrival[sl][:k])
                    absorbed += k
                if k < end - chunk.start or absorbed == block:
                    break
            total = q_n + absorbed
            # The next record is admitted at step total - cap + 1.
            k_max = min(total - cap + 1 if absorbed < backlog.length else total, total - keep)
            flats = np.concatenate(flat_parts)
            bgs = np.concatenate(bg_parts)
            steps = np.arange(total, dtype=np.int64)
            if (bgs == g0).all():
                when = max(floor, bgf[g0]) + steps * max(pace, ccd_l)
                held = total
            else:
                when = floor + steps * pace
                order = np.argsort(bgs, kind="stable")
                same = bgs[order[1:]] == bgs[order[:-1]]
                group_floor = np.asarray(bgf, dtype=np.int64)[bgs]
                group_floor[order[1:][same]] = when[order[:-1][same]] + ccd_l
                ok = group_floor <= when
                held = total if ok.all() else int(np.argmax(~ok))
            # Command i issues at a step whose clock is when[i - 1].
            m = min(held, k_max, int(np.searchsorted(when, bound)) + 1)
            if best is None or m > best[0]:
                best = (m, when, flats, bgs, arr_parts)
            if not (held == total == m + cap - 1 and absorbed == block < backlog.length):
                break
            block *= 16
        m, when, flats, bgs, arr_parts = best
        if m < 1:
            return held
        when = when[:m]
        flats = flats[:m]
        last_when = int(when[-1])
        tail = (self._t_cwl if is_write else self._t_cl) + self._t_burst
        # -- retire the window part ----------------------------------------
        n_w = min(m, q_n)
        retired = entries[:n_w]
        for i, e in enumerate(retired):
            if e.done is not None:
                e.done[e.pos] = int(when[i]) + tail
        conflicts = sum(e.needed_pre for e in retired)
        misses = sum(e.needed_act and not e.needed_pre for e in retired)
        hits = m - conflicts - misses
        latency = int(when.sum()) + m * tail - sum(e.arrival for e in retired)
        cutoff = retired[-1].seq
        for group in heads:
            group[:] = [e for e in group if e.seq > cutoff]
        queue[:] = [e for e in queue if e.seq > cutoff]
        for i, e in enumerate(queue):
            e.qpos = i
        # -- retire the backlog part ---------------------------------------
        n_b = m - n_w
        if n_b:
            latency -= int(np.concatenate(arr_parts)[:n_b].sum())
            offset = n_w
            for chunk in backlog.chunks:
                take = min(m - offset, chunk.n - chunk.start)
                if chunk.done is not None:
                    lo = chunk.start
                    chunk.done[chunk.pos[lo : lo + take]] = when[offset : offset + take] + tail
                offset += take
                if offset == m:
                    break
            backlog.consume(n_b)
        # -- bank and bankgroup history ------------------------------------
        gate = self._t_w2p if is_write else self._t_rtp
        last_per_flat = np.full(nflats, -1, dtype=np.int64)
        np.maximum.at(last_per_flat, flats, when)
        for f in np.flatnonzero(last_per_flat >= 0).tolist():
            bank = flat_bank[f]
            ep = int(last_per_flat[f]) + gate
            if ep > bank.earliest_pre:
                bank.earliest_pre = ep
        last_per_bg = np.full(len(bgf), -1, dtype=np.int64)
        np.maximum.at(last_per_bg, bgs[:m], when)
        for g in np.flatnonzero(last_per_bg >= 0).tolist():
            bgf[g] = int(last_per_bg[g]) + ccd_l
        return (m, last_when, hits, misses, conflicts, latency)
