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
hit and its oldest non-hit.  One step therefore evaluates O(active banks)
timing expressions instead of O(window), and completed entries leave the
queues by swap-pop instead of an O(n) ``list.remove``.  The golden
reference that re-evaluates every window entry each step lives in the test
suite (``tests/scan_oracle.py``); the parity tests assert both produce
bit-identical :class:`ControllerStats` in every configuration.

Requests enter as whole columnar traces
(:meth:`MemoryController.enqueue_batch`, the only way in).  Enqueueing
checks a trace and labels it with sequence numbers; the controller keeps
it until a drain starts, so a drain that is served from elsewhere (a memo
hit, a worker) never decodes it.  The drain decodes its pending traces in
one vectorized pass each into a **columnar backlog** (:class:`_Backlog`:
array chunks of decoded coordinates, arrivals, and sequence numbers);
per-request Python objects are only materialized when the scheduler
admits them into its working window.  The rank and bank state is
likewise built by the first drain after a reset.  A caller that needs per-record completion cycles
passes its own array to ``enqueue_batch``.

On top of the indexed scheduler sits the **streak-compiled fast path**
(:meth:`MemoryController._attempt_streak`): TensorISA traffic is streaming
by construction, so drains spend most of their time issuing long runs of
row-hit column commands paced only by tCCD and the data bus.  When the
per-bank candidate state proves such a run has no competing candidate, the
whole run — including backlog records that were never materialized — is
issued in closed form with vectorized arithmetic, advancing the clock, bus
state, and statistics once for N commands.  The fast path is bit-identical
to the per-command loop (and to the scan reference); ``REPRO_REFERENCE=1``
disables it.  See PERF.md for the invariants and fallback triggers.

A controller can describe itself as a :class:`ControllerConfig` — a frozen,
picklable, hashable snapshot of everything its constructor needs — which
keys the timing memo and lets :func:`repro.dram.memo.drain` rebuild the
controller once per process, worker processes included.  Because sequence
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

#: Upper bound on backlog records absorbed into one streak.  Bounds the
#: numpy work a single (possibly failing) streak attempt can do; a longer
#: run simply compiles as several back-to-back streaks.
STREAK_ABSORB_CAP = 16384

#: Shortest run worth compiling as a streak.  The compile absorbs the
#: conforming backlog before it truncates, so even a 3-command run costs
#: 150-210 us (Fig-11 REDUCE channels) against about 10 us per per-command
#: step.  A probe whose window bounds the run below this length is refused
#: before any numpy work.  4 is the largest value that keeps every run the
#: Fig-11 AVERAGE drains compile; 8 and 16 timed the same.
STREAK_BREAK_EVEN = 4

_by_seq = attrgetter("seq")


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
    ``done[pos]``.  ``qpos`` / ``bpos`` are the entry's positions in the
    working queue and its bank list, maintained so the indexed scheduler
    can swap-pop in O(1).
    """

    __slots__ = (
        "is_write", "arrival", "rank", "bankgroup", "bank", "row", "flat", "seq",
        "needed_act", "needed_pre", "done", "pos", "qpos", "bpos",
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
        self.bpos = -1


class _BacklogChunk:
    """One direction's share of one enqueued trace, stored columnar.

    The record columns are parallel int64 numpy arrays of arrival cycles
    and decoded coordinates (the drain needs no byte address or column).
    ``done`` is the caller's completions array (or ``None``) and ``pos``
    the records' positions in the enqueued trace, set only together with
    ``done``.  ``start`` is the consumed head offset — records before it
    have been admitted or streak-issued.  ``_py`` holds plain-list mirrors
    of the record columns, materialized lazily the first time a record is
    popped one at a time (admission), so per-record pops cost list indexing
    instead of numpy scalar extraction.  (Columns, not one tuple per
    record: a pop costs about the same, and a chunk that streaks mostly
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
    materializes them — and the streak compiler can classify and consume
    whole runs with array arithmetic, never materializing them at all.
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
        """Drop the oldest ``count`` records (already issued by a streak)."""
        self.length -= count
        while count:
            chunk = self.chunks[0]
            take = min(count, chunk.n - chunk.start)
            chunk.start += take
            count -= take
            if chunk.start == chunk.n:
                self.chunks.popleft()


class _BankQueue:
    """One bank's slice of a working queue, with cached FR-FCFS candidates.

    A bank contributes at most two candidates per scheduling step: its
    oldest row-hit entry and its oldest non-hit entry (or, when the bank is
    precharged, simply its oldest entry).  Those minima only change when the
    bank's entry set or its open row changes, so they are cached here and
    recomputed lazily after an invalidation instead of rescanned every step.

    ``hit``/``miss`` are classified against the bank's open row at the time
    of the last rescan (or incremental admit), so every ACT must clear
    ``valid``.  Closing a row (PRE, refresh, closed-page auto-precharge) need
    not: a precharged bank's candidate is its oldest entry, which does not
    depend on the row, and the next ACT invalidates the split.  Swap-pop and
    streaks, which change the entry set, clear it too, so an empty queue is
    never valid.
    """

    __slots__ = (
        "entries",
        "bank",
        "rank",
        "bgflat",
        "flat",
        "valid",
        "min_all",
        "min_all_seq",
        "hit",
        "hit_seq",
        "miss",
        "miss_seq",
    )

    def __init__(self, bank, rank, bgflat, flat):
        self.entries: list[_Entry] = []
        self.bank = bank  # the Bank state object, resolved once
        self.rank = rank  # rank index
        self.bgflat = bgflat  # flat (rank, bankgroup) id
        self.flat = flat  # flat bank id
        self.valid = False
        self.min_all = None
        self.min_all_seq = 1 << 62
        self.hit = None
        self.hit_seq = 1 << 62
        self.miss = None
        self.miss_seq = 1 << 62


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
        self.window = window
        self.row_policy = row_policy
        self.write_high = write_high_watermark
        self.write_low = write_low_watermark
        # Scalar timing snapshots for the per-step hot path.
        self._t_cl = self.timing.cl
        self._t_cwl = self.timing.cwl
        self._t_burst = self.timing.burst_cycles
        self._t_rtrs = self.timing.rtrs
        self._t_rtp = self.timing.rtp
        self._t_w2p = self.timing.write_to_precharge
        # A streak's cadence (one column command per ``pace`` cycles) and
        # the fewest positions that must separate two same-bankgroup
        # commands for tCCD_L not to stretch it.
        self._streak_pace = max(self._t_burst, self.timing.ccd_s, 1)
        self._streak_gap_l = -(-self.timing.ccd_l // self._streak_pace)
        self.reset()

    def reset(self) -> None:
        """Restore pristine post-construction state (queues, banks, stats).

        Much cheaper than building a new controller — the organization,
        mapping (with its cached field layout), and timing are reused — and
        it builds no rank or bank state: the next drain does (:attr:`ranks`),
        so a reset whose drain is adopted from elsewhere (:meth:`adopt_run`)
        costs a few attribute writes.
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
        self._read_banks: dict[int, _BankQueue] = {}
        self._write_banks: dict[int, _BankQueue] = {}
        self._draining_writes = False
        self._bus_free = 0
        self._bus_rank = -1
        self._cmd_free = 0
        self._now = 0

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
        (:meth:`_decode_pending`): a drain adopted from elsewhere never
        decodes it.  Per-record Python objects are only materialized later
        still, at admission time (and never for records the streak compiler
        retires straight from the backlog).

        ``completions``, if given, is a caller-owned int64 array of
        ``len(trace)``: this controller's :meth:`run_to_completion` writes
        each record's burst-end cycle at the record's trace position.  A
        drain adopted from elsewhere (:meth:`adopt_run`, a memo hit or a
        worker-side drain) does not fill it.  A bad address or a
        ``completions`` of the wrong shape or dtype raises ``ValueError``
        before anything is queued.
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

    def adopt_run(self, stats: ControllerStats) -> None:
        """Adopt the result of a drain that ran elsewhere.

        Used after a memo hit or a worker-side drain of this controller's
        backlog: leaves the controller in the same observable state as if
        :meth:`run_to_completion` had returned ``stats`` itself — empty
        queues, final statistics, clock at the finish cycle.  Like
        :meth:`reset` it builds no bank state; a later drain or read of
        :attr:`ranks` finds every bank closed.
        """
        self.reset()
        self.stats = stats
        self._now = stats.finish_cycle

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

    @property
    def pristine(self) -> bool:
        """True until a drain has run (clock at zero, statistics empty).

        A warm controller's next drain continues from its accumulated
        clock/bank/stats state, so its result is *not* a pure function of
        ``(config, pending traces)`` — the timing memo must only serve and
        record drains of pristine controllers.
        """
        return self._now == 0 and self.stats == ControllerStats()

    def elapsed_seconds(self) -> float:
        return self.timing.cycles_to_seconds(self.stats.finish_cycle)

    def run_to_completion(self) -> ControllerStats:
        """Service every queued request and return the run statistics.

        FR-FCFS over per-bank indexed queues, restructured for throughput:

        * at most two candidates per active bank — within a bank every
          row-hit entry shares one earliest-issue cycle and every non-hit
          entry shares another (readiness depends only on bank/rank/bus
          state; an admitted entry's arrival is already in the past), so the
          oldest entry of each class dominates its peers under the
          (ready, column-first, age) FR-FCFS key;
        * a step visits only the bank queues that hold entries: each
          direction keeps a map of its non-empty queues, updated when an
          entry is admitted into an empty queue and when swap-pop or a
          streak empties one;
        * rank and bankgroup readiness floors are incremental: loaded from
          :meth:`Rank.floors` on entry and after each streak, and raised by
          ``max`` as each ACT or column command issues, so a step makes no
          call into :class:`Rank`.  Once per step each flat bankgroup's
          floor is folded with its rank's floor, the bus term and the
          command floor into one column value and one ACT value, so a
          candidate's ready cycle is the max of its bank term and one list
          lookup;
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
        read_banks = self._read_banks
        write_banks = self._write_banks
        # The non-empty bank queues of each direction: the only ones a
        # step has to visit.
        read_active = {f: q for f, q in read_banks.items() if q.entries}
        write_active = {f: q for f, q in write_banks.items() if q.entries}
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
        # state here and after each streak, then raised by ``max`` as ACT
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
        # Per-step readiness of a column command and of an ACT to each flat
        # bankgroup: its floor clamped at its rank's floor, the command
        # floor and, for columns, the data-bus term.
        col_ready = [0] * (n_ranks * bg_count)
        act_ready = [0] * (n_ranks * bg_count)
        rank_bgs = [(r, range(r * bg_count, (r + 1) * bg_count)) for r in range(n_ranks)]
        next_refresh = min(rank.next_refresh for rank in ranks)

        streaks = not closed_policy and not reference_mode()
        streak_cooldown = 0

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
        while pending:
            # -- admission --------------------------------------------------
            while (
                len(read_q) < window
                and read_backlog.length
                and read_backlog.head_arrival() <= now
            ):
                entry = read_backlog.popleft()
                entry.qpos = len(read_q)
                read_q.append(entry)
                flat = entry.flat
                blq = read_active.get(flat)
                if blq is None:
                    blq = read_banks.get(flat)
                    if blq is None:
                        read_banks[flat] = blq = _BankQueue(
                            flat_bank[flat], entry.rank, flat_bgflat[flat], flat
                        )
                    read_active[flat] = blq
                entries = blq.entries
                entry.bpos = len(entries)
                entries.append(entry)
                if blq.valid:
                    s = entry.seq
                    if s < blq.min_all_seq:
                        blq.min_all = entry
                        blq.min_all_seq = s
                    if entry.row == blq.bank.open_row:
                        if s < blq.hit_seq:
                            blq.hit = entry
                            blq.hit_seq = s
                    elif s < blq.miss_seq:
                        blq.miss = entry
                        blq.miss_seq = s
            while len(write_q) < write_cap and (
                staged or (write_backlog.length and write_backlog.head_arrival() <= now)
            ):
                # Staged writes are older than the whole backlog: a write
                # completion's free window slot goes to the oldest of them.
                entry = staged.popleft() if staged else write_backlog.popleft()
                entry.qpos = len(write_q)
                write_q.append(entry)
                flat = entry.flat
                blq = write_active.get(flat)
                if blq is None:
                    blq = write_banks.get(flat)
                    if blq is None:
                        write_banks[flat] = blq = _BankQueue(
                            flat_bank[flat], entry.rank, flat_bgflat[flat], flat
                        )
                    write_active[flat] = blq
                entries = blq.entries
                entry.bpos = len(entries)
                entries.append(entry)
                if blq.valid:
                    s = entry.seq
                    if s < blq.min_all_seq:
                        blq.min_all = entry
                        blq.min_all_seq = s
                    if entry.row == blq.bank.open_row:
                        if s < blq.hit_seq:
                            blq.hit = entry
                            blq.hit_seq = s
                    elif s < blq.miss_seq:
                        blq.miss = entry
                        blq.miss_seq = s
            if staging:
                while (
                    len(write_q) + len(staged) < write_high
                    and write_backlog.length
                    and write_backlog.head_arrival() <= now
                ):
                    staged.append(write_backlog.popleft())
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
                active = write_active
                data_offset = t_cwl
                rank_col = rank_wr
                bg_col = bg_wr
            else:
                queue = read_q
                active = read_active
                data_offset = t_cl
                rank_col = rank_rd
                bg_col = bg_rd
            # Fold the shared readiness terms once per step: every bank of a
            # bankgroup shares them, so a bank's candidate is the max of its
            # bank term and its bankgroup's folded value.
            for r, bgs in rank_bgs:
                bus_part = bus_free + (rtrs if (bus_rank >= 0 and bus_rank != r) else 0)
                bus_part -= data_offset
                if bus_part < floor:
                    bus_part = floor
                ct = rank_col[r]
                if ct < bus_part:
                    ct = bus_part
                at = rank_act[r]
                if at < floor:
                    at = floor
                for g in bgs:
                    v = bg_col[g]
                    col_ready[g] = v if v > ct else ct
                    v = bg_act[g]
                    act_ready[g] = v if v > at else at
            # Best candidate so far, compared on (ready, key).  Once the best
            # is a column command that is ready at the floor cycle, no
            # ACT/PRE and no younger row hit can beat it (every candidate's
            # ready is clamped at the floor), so the remaining banks only
            # need a cheaper older-hit check.
            best_ready = big
            best_key = big
            best_entry = None
            best_cmd = None
            floor_col = False
            for blq in active.values():
                bank = blq.bank
                open_row = bank.open_row
                if open_row < 0 and floor_col:
                    continue
                if not blq.valid:
                    # Rescan after an invalidation (bank state or entry set
                    # changed); otherwise the cached minima are current.
                    entries = blq.entries
                    e0 = entries[0]
                    min_all = e0
                    min_seq = e0.seq
                    hit = None
                    hit_seq = big
                    miss = None
                    miss_seq = big
                    for x in entries:
                        s = x.seq
                        if s < min_seq:
                            min_all = x
                            min_seq = s
                        if x.row == open_row:
                            if s < hit_seq:
                                hit = x
                                hit_seq = s
                        elif s < miss_seq:
                            miss = x
                            miss_seq = s
                    blq.min_all = min_all
                    blq.min_all_seq = min_seq
                    blq.hit = hit
                    blq.hit_seq = hit_seq
                    blq.miss = miss
                    blq.miss_seq = miss_seq
                    blq.valid = True
                if open_row < 0:
                    # Bank precharged: the oldest entry wants an ACT.
                    ready = bank.earliest_act
                    term = act_ready[blq.bgflat]
                    if term > ready:
                        ready = term
                    if ready < best_ready or (
                        ready == best_ready and blq.min_all_seq + row_key < best_key
                    ):
                        best_ready = ready
                        best_key = blq.min_all_seq + row_key
                        best_entry = blq.min_all
                        best_cmd = "act"
                    continue
                hit = blq.hit
                if hit is not None and (not floor_col or blq.hit_seq < best_key):
                    ready = bank.earliest_col
                    term = col_ready[blq.bgflat]
                    if term > ready:
                        ready = term
                    if ready < best_ready or (ready == best_ready and blq.hit_seq < best_key):
                        best_ready = ready
                        best_key = blq.hit_seq
                        best_entry = hit
                        best_cmd = "col"
                        floor_col = ready == floor
                if blq.miss is not None and not floor_col:
                    ready = bank.earliest_pre
                    if floor > ready:
                        ready = floor
                    if ready < best_ready or (
                        ready == best_ready and blq.miss_seq + row_key < best_key
                    ):
                        best_ready = ready
                        best_key = blq.miss_seq + row_key
                        best_entry = blq.miss
                        best_cmd = "pre"
            # -- issue ------------------------------------------------------
            entry = best_entry
            when = best_ready
            flat = entry.flat
            bank = flat_bank[flat]
            rank = flat_rank[flat]
            bg = entry.bankgroup
            r = entry.rank
            g = flat_bgflat[flat]
            if when > now:
                now = when
            cmd_free = when + 1
            if best_cmd == "act":
                bank.open_row = entry.row
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
                # A row opened: both directions' hit/miss splits for
                # this bank are stale.
                blq = read_active.get(flat)
                if blq is not None:
                    blq.valid = False
                blq = write_active.get(flat)
                if blq is not None:
                    blq.valid = False
                continue
            if best_cmd == "pre":
                bank.open_row = -1
                v = when + t_rp
                if v > bank.earliest_act:
                    bank.earliest_act = v
                n_pres += 1
                entry.needed_pre = True
                continue
            # -- streak fast path -------------------------------------------
            # The selected command is a column command.  When the whole
            # active window is a same-rank row-hit run with no competing
            # candidate, the upcoming commands issue in sequence order at a
            # fixed cadence — compile the run and retire it in one step.
            if (
                streaks
                and streak_cooldown == 0
                and len(queue) > 1
                and not (staging and is_write_q)
            ):
                streak = self._attempt_streak(
                    is_write_q,
                    queue,
                    active,
                    write_backlog if is_write_q else read_backlog,
                    bool(read_q) or read_backlog.length > 0,
                    write_backlog.length > 0,
                    entry,
                    when,
                    now,
                )
                if streak:
                    m, s_hits, s_misses, s_conflicts, s_lat, last_when, s_burst_end = streak
                    now = last_when
                    cmd_free = last_when + 1
                    bus_free = s_burst_end
                    bus_rank = entry.rank
                    bus_cycles += m * t_burst
                    if s_burst_end > finish:
                        finish = s_burst_end
                    n_hits += s_hits
                    n_misses += s_misses
                    n_conflicts += s_conflicts
                    if is_write_q:
                        n_writes += m
                    else:
                        n_reads += m
                        latency_sum += s_lat
                    pending -= m
                    _load_floors(floors, ranks, r)
                    continue
                if streak is None:
                    streak_cooldown = 8  # back off before probing again
            elif streak_cooldown:
                streak_cooldown -= 1
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
            # Swap-pop the completed entry out of the queue and bank list.
            i = entry.qpos
            last = queue[-1]
            queue[i] = last
            last.qpos = i
            queue.pop()
            blq = active[flat]
            blist = blq.entries
            i = entry.bpos
            last = blist[-1]
            blist[i] = last
            last.bpos = i
            blist.pop()
            blq.valid = False  # the removed entry may have been a cached min
            if not blist:
                del active[flat]
            pending -= 1
            if closed_policy:
                # Auto-precharge: the bank closes as soon as tRTP/tWR allows.
                bank.precharge(bank.earliest_pre, t)
                n_pres += 1

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

    def _attempt_streak(
        self,
        is_write_q: bool,
        queue: list,
        active: dict,
        backlog: _Backlog,
        reads_pending: bool,
        write_backlog_pending: bool,
        entry0: _Entry,
        when0: int,
        now: int,
    ):
        """Compile a run of row-hit column commands and retire it in one step.

        Called from the fused drain loop after candidate selection picked a
        column command issuing at ``when0``.  The streak invariants, checked
        here and proven equivalent to the per-command loop by the parity
        matrix in ``tests/test_perf_parity.py``:

        * **pure phase** — the run stays in one direction: a read streak
          requires an empty write backlog (so the drain watermark cannot
          trip mid-run), a write streak is capped so the queue level stays
          above ``write_low`` while reads are pending;
        * **all hits, one rank** — every entry in the active window (and
          every absorbed backlog record) is a row hit on its bank's open
          row in rank ``r0``; a miss anywhere is a competing PRE candidate
          at the command floor, and a second rank perturbs the bus terms;
        * **sequence-order issue** — with only hit candidates, every
          not-yet-issued candidate is ready no earlier than
          ``previous + max(burst, tCCD_S)``; the run is truncated at the
          first command whose own issue cycle would exceed that cadence
          (bank warm-up, tCCD_L pressure on adjacent same-bankgroup pairs),
          except in the single-bank case where no competitor exists and the
          cadence may stretch freely to ``max(burst, tCCD_L)``;
        * **window admission** — if the backlog continues with a
          non-conforming record, the run stops one command before the
          cycle at which the per-command loop would have admitted it;
        * **refresh** — the run stops before any rank's ``next_refresh``.

        Before any numpy work the probe bounds the run's length in
        O(window): by a tCCD_L same-bankgroup pair or a static push among
        the oldest queued entries, and by the length bound (window, backlog
        head, write watermark).  A run that cannot reach
        :data:`STREAK_BREAK_EVEN` commands is not compiled
        (:meth:`_compile_streak` does the numpy work).

        Returns ``False`` when the run would have at least two commands but
        fewer than the break-even (the caller issues the one selected
        command and probes again at its next column command), ``None`` when
        no streak of at least two commands is provably schedulable (the
        caller issues the one selected command and backs off for a few
        steps), else
        ``(m, hits, misses, conflicts, latency_delta, last_when,
        last_burst_end)`` after retiring the ``m`` commands: queue, bank
        lists, backlog, bank/rank timing state, and completions arrays are
        all updated, and ``active`` (the direction's non-empty bank queues)
        loses the queues the streak empties; the caller folds the returned
        deltas into its local clock/bus/stats state.
        """
        if not is_write_q and write_backlog_pending:
            return None
        flat_bank = self._flat_bank
        r0 = entry0.rank
        s0 = entry0.seq
        # Reject in O(window) before sorting: most probes fail here.
        for e in queue:
            if e.seq < s0:
                return None  # the oldest queued entry lost the selection
            if e.rank != r0 or flat_bank[e.flat].open_row != e.row:
                return None
        entries = sorted(queue, key=_by_seq)
        q_n = len(entries)
        # -- refuse a run too short to pay for its compile ------------------
        # Upper bounds on the run length the compile would find, from the
        # window alone.  A bound under two commands fails the probe, as the
        # compile would; one under break-even refuses it without back-off.
        cap = self.write_high if is_write_q else self.window
        room = min(backlog.length, STREAK_ABSORB_CAP)
        limit = q_n + room
        if room:
            chunk = backlog.chunks[0]
            i = chunk.start
            if (
                chunk.rank[i] != r0
                or chunk.arrival[i] > now
                or chunk.row[i] != flat_bank[chunk.flat[i]].open_row
            ):
                # Nothing is absorbed: the run ends before the backlog's
                # oldest record is admitted.
                limit = q_n - cap + 1
        if is_write_q and reads_pending:
            limit = min(limit, q_n + room - self.write_low)
        flat0 = entry0.flat
        if limit >= 2 and any(e.flat != flat0 for e in entries):
            # A multi-bank run ends at its first tCCD_L same-bankgroup pair
            # and before its first static push (see the compile).
            head = entries[: min(limit, STREAK_BREAK_EVEN)]
            gap_l = self._streak_gap_l
            last = [-gap_l] * self.organization.bankgroups
            for i, e in enumerate(head):
                g = e.bankgroup
                if i - last[g] < gap_l:
                    limit = i
                    break
                last[g] = i
            rank = self.ranks[r0]
            ccd_l = self.timing.ccd_l
            if is_write_q:
                floor = rank._last_rd + rank._rd_to_wr
            else:
                floor = rank._last_wr + rank._wtr_diff
            for i in range(1, min(limit, len(head))):
                e = head[i]
                g = e.bankgroup
                if is_write_q:
                    group = rank._last_wr_by_group[g] + ccd_l
                else:
                    group = max(
                        rank._last_rd_by_group[g] + ccd_l,
                        rank._last_wr_by_group[g] + rank._wtr_same,
                    )
                static = max(flat_bank[e.flat].earliest_col, group, floor)
                if static - i * self._streak_pace > when0:
                    limit = i
                    break
        if limit < STREAK_BREAK_EVEN:
            return None if limit < 2 else False
        return self._compile_streak(
            is_write_q, queue, active, backlog, reads_pending, entries, entry0, when0, now
        )

    def _compile_streak(
        self,
        is_write_q: bool,
        queue: list,
        active: dict,
        backlog: _Backlog,
        reads_pending: bool,
        entries: list,
        entry0: _Entry,
        when0: int,
        now: int,
    ):
        """The numpy half of :meth:`_attempt_streak`, reached only by a
        probe whose window passed every cheap check: absorb the backlog,
        solve the issue-cycle recurrence, truncate, and commit.  ``entries``
        is the queue in sequence order.  Returns ``None`` or the streak's
        deltas, as :meth:`_attempt_streak` documents."""
        flat_bank = self._flat_bank
        r0 = entry0.rank
        q_n = len(entries)
        cap = self.write_high if is_write_q else self.window
        # -- absorb the conforming backlog prefix ---------------------------
        nflats = len(flat_bank)
        open_rows = np.fromiter(
            (b.open_row for b in flat_bank), dtype=np.int64, count=nflats
        )
        flat_parts, bg_parts, arr_parts = [], [], []
        absorbed = 0
        for chunk in backlog.chunks:
            room = STREAK_ABSORB_CAP - absorbed
            if room <= 0:
                break
            end = min(chunk.n, chunk.start + room)
            sl = slice(chunk.start, end)
            flats_c = chunk.flat[sl]
            ok = (
                (chunk.rank[sl] == r0)
                & (chunk.arrival[sl] <= now)
                & (chunk.row[sl] == open_rows[flats_c])
            )
            if ok.all():
                k = end - chunk.start
            else:
                k = int(np.argmax(~ok))
            if k:
                flat_parts.append(flats_c[:k])
                bg_parts.append(chunk.bankgroup[sl][:k])
                arr_parts.append(chunk.arrival[sl][:k])
                absorbed += k
            if k < end - chunk.start:
                break
        total = q_n + absorbed
        if absorbed < len(backlog):
            # A non-conforming (or not-yet-scanned) record follows: it is
            # admitted into the window as soon as the issued count reaches
            # total - cap + 1, and competes from then on.
            K = total - cap + 1
        else:
            K = total
        if is_write_q and reads_pending:
            # Keep the write-queue level above the low watermark so the
            # drain state cannot flip back to reads mid-run.
            K = min(K, total - self.write_low)
        if K < 2:
            return None
        K = min(K, total)
        # -- combined per-command coordinate arrays -------------------------
        flats_q = np.fromiter((e.flat for e in entries), np.int64, count=q_n)
        bgs_q = np.fromiter((e.bankgroup for e in entries), np.int64, count=q_n)
        arr_q = np.fromiter((e.arrival for e in entries), np.int64, count=q_n)
        acts = np.zeros(total, dtype=bool)
        pres = np.zeros(total, dtype=bool)
        for i, e in enumerate(entries):
            if e.needed_act:
                acts[i] = True
            if e.needed_pre:
                pres[i] = True
        flats = np.concatenate([flats_q] + flat_parts)[:K]
        bg = np.concatenate([bgs_q] + bg_parts)[:K]
        arr = np.concatenate([arr_q] + arr_parts)[:K]
        acts = acts[:K]
        pres = pres[:K]
        # -- issue-cycle recurrence -----------------------------------------
        timing = self.timing
        t_burst = self._t_burst
        ccd_l = timing.ccd_l
        pace = self._streak_pace
        rank = self.ranks[r0]
        bgc = self.organization.bankgroups
        ec = np.fromiter(
            (b.earliest_col for b in flat_bank), dtype=np.int64, count=nflats
        )
        static = ec[flats]
        if is_write_q:
            pergroup = np.asarray(rank._last_wr_by_group, dtype=np.int64) + ccd_l
            scalar_floor = rank._last_rd + rank._rd_to_wr
        else:
            pergroup = np.maximum(
                np.asarray(rank._last_rd_by_group, dtype=np.int64) + ccd_l,
                np.asarray(rank._last_wr_by_group, dtype=np.int64) + rank._wtr_same,
            )
            scalar_floor = rank._last_wr + rank._wtr_diff
        np.maximum(static, pergroup[bg], out=static)
        np.maximum(static, scalar_floor, out=static)
        # Single-bank runs have no competing candidate at any step, so the
        # cadence may stretch to tCCD_L and statics may push freely — but
        # only if *every* queued entry (including any beyond the streak
        # prefix) lives in that one bank.
        flat0 = entry0.flat
        single_bank = all(e.flat == flat0 for e in entries) and bool(
            (flats[q_n:] == flat0).all()
        )
        if single_bank:
            step = pace if pace > ccd_l else ccd_l
            base = np.arange(K, dtype=np.int64) * step
        else:
            # tCCD_L binds between same-bankgroup commands closer than
            # ceil(ccd_l / pace) positions apart; such pairs would stretch
            # the cadence and let a younger candidate win — truncate there.
            order = np.argsort(bg, kind="stable")
            prev = np.full(K, -1, dtype=np.int64)
            sorted_bg = bg[order]
            same = sorted_bg[1:] == sorted_bg[:-1]
            prev[order[1:][same]] = order[:-1][same]
            gaps = np.arange(K, dtype=np.int64) - prev
            bad = (prev >= 0) & (gaps * pace < ccd_l)
            if bad.any():
                K = int(np.flatnonzero(bad)[0])
                if K < 2:
                    return None
                flats, bg, arr, acts, pres = (
                    flats[:K], bg[:K], arr[:K], acts[:K], pres[:K]
                )
                static = static[:K]
            base = np.arange(K, dtype=np.int64) * pace
        adj = static - base
        if when0 > adj[0]:
            adj[0] = when0  # when0 already folds every entry-0 constraint in
        run_max = np.maximum.accumulate(adj)
        when = base + run_max
        if not single_bank:
            # Multi-bank runs must stay strictly linear: any static push
            # (bank warm-up) opens a window for a younger candidate.
            push = np.flatnonzero(run_max[1:] > run_max[:-1])
            if push.size:
                K = int(push[0]) + 1
                if K < 2:
                    return None
                flats, bg, arr, acts, pres, when = (
                    flats[:K], bg[:K], arr[:K], acts[:K], pres[:K], when[:K]
                )
        # -- refresh bound --------------------------------------------------
        bound = min(r.next_refresh for r in self.ranks)
        if when[-1] >= bound:
            # Command i needs when[i-1] < bound (the per-command loop checks
            # refresh with now = the previous issue cycle).
            K = min(K, int(np.searchsorted(when, bound, side="left")) + 1)
            if K < 2:
                return None
            flats, bg, arr, acts, pres, when = (
                flats[:K], bg[:K], arr[:K], acts[:K], pres[:K], when[:K]
            )
        # -- commit ---------------------------------------------------------
        m = K
        data_offset = self._t_cwl if is_write_q else self._t_cl
        last_when = int(when[-1])
        burst_end = last_when + data_offset + t_burst
        conflicts = int(np.count_nonzero(pres))
        misses = int(np.count_nonzero(acts & ~pres))
        hits = m - conflicts - misses
        lat_delta = 0
        if not is_write_q:
            lat_delta = int(when.sum()) + m * (data_offset + t_burst) - int(arr.sum())
        last_per_bg = np.full(bgc, -1, dtype=np.int64)
        np.maximum.at(last_per_bg, bg, when)
        if is_write_q:
            per_group_last = rank._last_wr_by_group
            rank._last_wr = last_when
            gate = self._t_w2p
        else:
            per_group_last = rank._last_rd_by_group
            rank._last_rd = last_when
            gate = self._t_rtp
        for g in np.flatnonzero(last_per_bg >= 0).tolist():
            per_group_last[g] = int(last_per_bg[g])
        last_per_flat = np.full(nflats, -1, dtype=np.int64)
        np.maximum.at(last_per_flat, flats, when)
        for f in np.flatnonzero(last_per_flat >= 0).tolist():
            bank = flat_bank[f]
            ep = int(last_per_flat[f]) + gate
            if ep > bank.earliest_pre:
                bank.earliest_pre = ep
        # Completion write-back into the callers' completions arrays.
        n_from_q = q_n if m >= q_n else m
        tail = data_offset + t_burst
        for i in range(n_from_q):
            e = entries[i]
            if e.done is not None:
                e.done[e.pos] = when[i] + tail
        n_from_backlog = m - n_from_q
        if n_from_backlog:
            offset = n_from_q
            remaining = n_from_backlog
            for chunk in backlog.chunks:
                take = min(remaining, chunk.n - chunk.start)
                if chunk.done is not None:
                    lo = chunk.start
                    chunk.done[chunk.pos[lo : lo + take]] = when[offset : offset + take] + tail
                offset += take
                remaining -= take
                if not remaining:
                    break
            backlog.consume(n_from_backlog)
        # -- queue / bank-list maintenance ----------------------------------
        if n_from_q == q_n:
            queue.clear()
            for blq in active.values():
                blq.entries.clear()
                blq.valid = False
            active.clear()
        else:
            keep = entries[n_from_q:]
            issued_flats = {e.flat for e in entries[:n_from_q]}
            queue[:] = keep
            for i, e in enumerate(keep):
                e.qpos = i
            for f in issued_flats:
                blq = active[f]
                kept = [e for e in keep if e.flat == f]
                blq.entries[:] = kept
                for i, e in enumerate(kept):
                    e.bpos = i
                blq.valid = False
                if not kept:
                    del active[f]
        return (m, hits, misses, conflicts, lat_delta, last_when, burst_end)
