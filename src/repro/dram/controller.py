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
checks a trace; the controller keeps it until a drain starts.  The drain
decodes its pending traces once into one **index space** of plain-list
columns (arrival, rank, bankgroup, row, flat bank): reads take indices
``[0, nr)`` and writes ``[nr, n)``, each in enqueue order, and a queued
request is just its index.  Index order is age order within a direction,
and candidates only ever compete within one direction, so the index is the
FR-FCFS tie key.  The not-yet-admitted backlog of a direction is a pointer
into its index range, and admission walks it while ``arrival[i] <= now``.
The rank and bank state is likewise built by the first drain after a reset.
A caller that needs per-record completion cycles passes its own array to
``enqueue_batch``.

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
records that were never admitted included.  The phase ends one
command before a non-hit or other-rank record is admitted, the next
refresh, the write level reaching ``write_high`` (read phase) or falling
to ``write_low`` with reads queued (write phase); it never runs on a staged
write window.  It is bit-identical to the per-command loop (and to the scan
reference); ``REPRO_REFERENCE=1`` turns it off.  See PERF.md.

A controller can describe itself as a :class:`ControllerConfig` — a frozen,
picklable, hashable snapshot of everything its constructor needs — which
keys the timing memo and lets :func:`repro.dram.memo.drain` rebuild the
controller once per process.  A drain depends only on the controller's
state and the traces queued since the last drain, so a drain on a rebuilt
controller is bit-identical to draining the original.
"""

from bisect import insort
from dataclasses import dataclass

import numpy as np

from ..env import reference_mode
from .bank import Rank
from .command import TraceBuffer
from .mapping import AddressMapping, DramOrganization
from .timing import DramTiming
from .trace import _is_int

_put = insort  # file a candidate in its class, keeping index order
_take = list.remove  # take a candidate out of its class
#: Past every arrival and issue cycle; arrival cycles must lie below it.
_NEVER = 1 << 62


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


def _file(classes: tuple, entries: list, g: int, open_row: int, put, row: list) -> None:
    """File one bank's candidates in one direction's ``(col, act, pre)``
    classes (``put`` is :data:`_put`), or take them out (:data:`_take`).

    ``entries`` is the bank's non-empty list of queued indices, oldest
    first, ``g`` its flat bankgroup and ``row`` the drain's row column.
    With row ``open_row`` open, the bank's oldest row hit is a member of
    column class ``col[g]`` and its oldest non-hit of the PRE class;
    precharged (``open_row < 0``), its oldest entry is a member of ACT
    class ``act[g]``.  Taking them out must use the open row they were
    filed under, so it runs before the bank's row changes.
    """
    col, act, pre = classes
    if open_row < 0:
        put(act[g], entries[0])
        return
    hit = miss = False
    for x in entries:
        if row[x] == open_row:
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


def _refile(directions: tuple, flat: int, g: int, old_row: int, new_row: int, row: list) -> None:
    """Move bank ``flat``'s candidates in both directions (``(lists,
    classes)`` pairs) from the classes of open row ``old_row`` to those of
    ``new_row`` (-1: precharged)."""
    for lists, classes in directions:
        entries = lists[flat]
        if entries:
            _file(classes, entries, g, old_row, _take, row)
            _file(classes, entries, g, new_row, _put, row)


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
        # The traces queued since the last drain, in enqueue order, each
        # with its completions array; the drain decodes them (:meth:`_decode`).
        self._pending_traces: list[tuple[TraceBuffer, np.ndarray | None]] = []
        self._pending_records = 0
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
        indices, oldest first, and its ``(col, act, pre)`` candidate classes
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
        record's arrival cycle.  The records join their direction's backlog
        in trace order, after every record queued before them, so enqueueing
        a trace in several pieces schedules exactly like enqueueing it
        whole.  The trace is decoded only when a drain starts.

        ``completions``, if given, is a caller-owned int64 array of
        ``len(trace)``: this controller's :meth:`run_to_completion` writes
        each record's burst-end cycle at the record's trace position.  A
        bad address, an arrival cycle outside ``[0, 2**62)``, or a
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
        capacity = self.organization.capacity_bytes
        if addr.min() < 0 or addr.max() >= capacity:
            bad = addr[(addr < 0) | (addr >= capacity)][0]
            raise ValueError(
                f"address {int(bad):#x} outside channel capacity {capacity:#x}"
            )
        cycle = trace.cycle
        if cycle.min() < 0 or cycle.max() >= _NEVER:
            bad = cycle[(cycle < 0) | (cycle >= _NEVER)][0]
            raise ValueError(f"cycle {int(bad)} outside [0, 2**62)")
        self._pending_traces.append((trace, completions))
        self._pending_records += n

    def _decode(self) -> tuple:
        """Decode the traces queued since the last drain into the drain's
        index space, and forget them.

        Returns ``(cols, nr, targets)``: ``cols`` is an int64 array of rows
        ``(arrival, rank, bankgroup, row, flat bank)`` over every record,
        reads (indices ``[0, nr)``) then writes, each in enqueue order, and
        ``targets`` lists ``(completions, positions, first index)`` for each
        direction's share of each trace enqueued with a completions array.
        """
        org = self.organization
        parts = ([], [])  # reads, writes
        targets = ([], [])
        sizes = [0, 0]
        for trace, completions in self._pending_traces:
            c = self.mapping.decode_batch(trace.addr)
            flat = (c["rank"] * org.bankgroups + c["bankgroup"]) * org.banks_per_group + c["bank"]
            block = np.stack((trace.cycle, c["rank"], c["bankgroup"], c["row"], flat))
            is_write = trace.is_write
            for d, mask in enumerate((~is_write, is_write)):
                part = block[:, mask]
                parts[d].append(part)
                if completions is not None:
                    targets[d].append((completions, np.flatnonzero(mask), sizes[d]))
                sizes[d] += part.shape[1]
        self._pending_traces.clear()
        self._pending_records = 0
        nr = sizes[0]
        cols = np.concatenate(parts[0] + parts[1], axis=1) if parts[0] else np.zeros((5, 0), np.int64)
        targets = targets[0] + [(done, pos, nr + first) for done, pos, first in targets[1]]
        return cols, nr, targets

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
        """Records queued since the last drain (a drain services them all)."""
        return self._pending_records

    def elapsed_seconds(self) -> float:
        return self.timing.cycles_to_seconds(self.stats.finish_cycle)

    def run_to_completion(self) -> ControllerStats:
        """Service every queued request and return the run statistics.

        FR-FCFS over per-bank indexed queues, restructured for throughput:

        * a request is an index into the drain's columns (module
          docstring); each direction's admitted entries are counted, not
          listed, and its backlog is the index range past a pointer;
        * each direction files at most two candidates per bank (its oldest
          row hit and oldest non-hit) in **classes** that share every
          readiness term but their bank's (:func:`_file`), and a step walks
          only the classes that can still beat the best candidate so far,
          in ranks that hold entries of the direction;
        * rank and bankgroup readiness floors are incremental: loaded from
          :meth:`Rank.floors` on entry and after each hit phase, and raised
          by ``max`` as each ACT or column command issues;
        * candidates compare on ready cycle, then on one integer tie key:
          a column command's key is its index, a row command's is its
          index plus the drain's record count, which orders column before
          row commands and, within each, older before younger;
        * writes are scheduled only from the ``window`` oldest admitted
          entries; when ``write_high > window`` the younger admitted writes
          are staged (``[w_adm, w_fetch)``), count towards the watermarks,
          and refill the window, oldest first, before the backlog does;
        * while every candidate of the chosen direction is a row hit in one
          rank, the drain runs a **hit phase** (module docstring, PERF.md).
        """
        t = self.timing
        stats = self.stats
        window = self.window
        write_high = self.write_high
        write_low = self.write_low
        closed_policy = self.row_policy == "closed"
        cols, nr, targets = self._decode()
        n = cols.shape[1]
        arrival, rank_of, bg_of, row_of, flat_of = cols.tolist()
        arrival.append(_NEVER)  # stops the write admission walk at n
        ranks = self.ranks
        flat_bank = self._flat_bank
        flat_rank = self._flat_rank
        flat_bgflat = self._flat_bgflat
        bank_of = list(map(flat_bank.__getitem__, flat_of))
        needed_act = bytearray(n)
        needed_pre = bytearray(n)
        done = [0] * n if targets else None
        # What the helpers read: the drain's columns as arrays and lists.
        self._cols = cols
        self._columns = (arrival, rank_of, bg_of, row_of, flat_of)
        self._needed = (needed_act, needed_pre)
        self._done = done
        bg_count = self.organization.bankgroups
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
        directions = ((read_lists, read_classes), (write_lists, write_classes))
        # Admission pointers: reads [r_adm, nr) and writes [w_fetch, n) are
        # not admitted yet, writes [w_adm, w_fetch) are staged.  read_n and
        # write_n count the admitted entries in each window.
        r_adm = 0
        w_adm = w_fetch = nr
        read_n = write_n = 0
        # Only a write queue that can outgrow the window stages writes; the
        # default configuration never enters its branches.
        staging = window < write_high
        write_cap = window if staging else write_high
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
        big = _NEVER
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

        pending = n
        while pending or phase:
            # -- admission --------------------------------------------------
            # An admitted entry is the youngest of its direction: it joins
            # the end of its bank's list and, when it is the bank's first
            # entry of its kind, the end of its class.  In a phase of its
            # direction it joins its bankgroup's heads instead (the bank
            # lists are rebuilt when the phase ends), and anything but a row
            # hit in the phase rank ends the phase.
            while read_n < window and r_adm < nr and arrival[r_adm] <= now:
                i = r_adm
                r_adm += 1
                read_n += 1
                open_row = bank_of[i].open_row
                row = row_of[i]
                if phase and not phase_write:
                    heads[bg_of[i]].append(i)
                    if row != open_row or rank_of[i] != phase_rank:
                        phase_end = True
                    continue
                flat = flat_of[i]
                entries = read_lists[flat]
                if open_row < 0:
                    if not entries:
                        read_act[flat_bgflat[flat]].append(i)
                elif row == open_row:
                    for x in entries:
                        if row_of[x] == open_row:
                            break
                    else:
                        read_col[flat_bgflat[flat]].append(i)
                else:
                    for x in entries:
                        if row_of[x] != open_row:
                            break
                    else:
                        read_pre.append(i)
                entries.append(i)
                read_live[rank_of[i]] += 1
            # Staged writes are older than the whole backlog: a write
            # completion's free window slot goes to the oldest of them.
            while write_n < write_cap and (w_adm < w_fetch or arrival[w_adm] <= now):
                i = w_adm
                w_adm += 1
                if w_fetch < w_adm:
                    w_fetch = w_adm
                write_n += 1
                open_row = bank_of[i].open_row
                row = row_of[i]
                if phase and phase_write:
                    heads[bg_of[i]].append(i)
                    if row != open_row or rank_of[i] != phase_rank:
                        phase_end = True
                    continue
                flat = flat_of[i]
                entries = write_lists[flat]
                if open_row < 0:
                    if not entries:
                        write_act[flat_bgflat[flat]].append(i)
                elif row == open_row:
                    for x in entries:
                        if row_of[x] == open_row:
                            break
                    else:
                        write_col[flat_bgflat[flat]].append(i)
                else:
                    for x in entries:
                        if row_of[x] != open_row:
                            break
                    else:
                        write_pre.append(i)
                entries.append(i)
                write_live[rank_of[i]] += 1
            if staging:
                while write_n + w_fetch - w_adm < write_high and arrival[w_fetch] <= now:
                    w_fetch += 1
            # -- hit phase --------------------------------------------------
            if phase:
                if phase_write:
                    ended = not write_n or (write_n <= write_low and read_n)
                else:
                    ended = not read_n or (
                        write_n + w_fetch - w_adm if staging else write_n
                    ) >= write_high
                if not (ended or phase_end or now >= next_refresh):
                    floor = prev + pace
                    if floor < rank_floor:
                        floor = rank_floor
                    if (
                        floor >= warm_at
                        and seq_run >= retry
                        and (n - w_fetch if phase_write else nr - r_adm) >= phase_cap
                    ):
                        # Once the rank's banks are warm, try to retire what
                        # follows in closed form, if at least another
                        # window's worth of records is queued.  The run
                        # stops at the next refresh and at the next
                        # admission of the other direction.
                        bound = next_refresh
                        if phase_write:
                            fetch, end, count = w_fetch, n, write_n
                            keep = write_low if read_n else 0
                            if read_n < window and r_adm < nr and arrival[r_adm] < bound:
                                bound = arrival[r_adm]
                        else:
                            fetch, end, count = r_adm, nr, read_n
                            keep = 0
                            if (
                                (write_n + w_fetch - w_adm if staging else write_n) < write_high
                                and arrival[w_fetch] < bound
                            ):
                                bound = arrival[w_fetch]
                        done_run = self._stretch(
                            heads, phase_write, phase_rank, bgf, floor, now,
                            fetch, end, phase_cap, keep, bound,
                        )
                        seq_run = 0
                        # An oldest entry that is not ready yet is checked
                        # again after the next command that goes to the
                        # oldest entry (a test of the group heads); any
                        # other break waits for the window to turn over in
                        # index order.
                        retry = 1 if done_run == 0 else phase_cap
                        if done_run.__class__ is tuple:
                            m, prev, s_hits, s_misses, s_conflicts, s_lat = done_run
                            now = prev
                            issued += m
                            pending -= m
                            n_hits += s_hits
                            n_misses += s_misses
                            n_conflicts += s_conflicts
                            # The window goes first, then the backlog.
                            absorbed = m - count if m > count else 0
                            if phase_write:
                                write_n = count - m + absorbed
                                w_adm = w_fetch = w_fetch + absorbed
                                n_writes += m
                            else:
                                read_n = count - m + absorbed
                                r_adm += absorbed
                                n_reads += m
                                latency_sum += s_lat
                            continue
                    # FR-FCFS over the bankgroup heads: with only row hits
                    # in one rank, a bank's oldest entry is ready at the max
                    # of the floor, its bankgroup's floor and its bank's
                    # tRCD, so in a bankgroup whose oldest entry's bank is
                    # warm that entry wins the group.
                    best = oldest = best_ready = big
                    for g, group in enumerate(heads):
                        if not group:
                            continue
                        i = group[0]
                        if i < oldest:
                            oldest = i
                        ready = bgf[g]
                        if ready < floor:
                            ready = floor
                        if bank_of[i].earliest_col > ready:
                            # Its bank is still warming up: a younger entry
                            # of a warm bank in the group may go first.
                            group_ready = ready
                            ready = big
                            for x in group:
                                v = bank_of[x].earliest_col
                                if v < group_ready:
                                    v = group_ready
                                if v < ready:
                                    ready = v
                                    i = x
                        if ready < best_ready or (ready == best_ready and i < best):
                            best_ready = ready
                            best = i
                    i = best
                    when = best_ready
                    g = bg_of[i]
                    group = heads[g]
                    if group[0] == i:
                        del group[0]
                    else:
                        group.remove(i)
                    seq_run = seq_run + 1 if i == oldest else 0
                    now = prev = when
                    bgf[g] = when + ccd_l
                    bank = bank_of[i]
                    burst_end = when + phase_tail
                    if phase_write:
                        write_n -= 1
                        n_writes += 1
                    else:
                        read_n -= 1
                        n_reads += 1
                        latency_sum += burst_end - arrival[i]
                    if when + phase_gate > bank.earliest_pre:
                        bank.earliest_pre = when + phase_gate
                    if done is not None:
                        done[i] = burst_end
                    if needed_pre[i]:
                        n_conflicts += 1
                    elif needed_act[i]:
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
                queued = sorted([i for group in heads for i in group])
                if phase_write:
                    self._index_window(write_lists, write_classes, queued, write_live)
                else:
                    self._index_window(read_lists, read_classes, queued, read_live)
                if not pending:
                    break
            if not read_n and not write_n:
                # Nothing admitted (and so nothing staged): jump to the next
                # arrival.
                v = arrival[w_fetch]
                if r_adm < nr and arrival[r_adm] < v:
                    v = arrival[r_adm]
                if v > now:
                    now = v
                continue
            # -- refresh ----------------------------------------------------
            if now >= next_refresh:
                for rank in ranks:
                    if now >= rank.next_refresh:
                        rank.refresh(now)
                        n_refs += 1
                next_refresh = min(rank.next_refresh for rank in ranks)
                # The refreshed ranks' banks all closed.
                self._index_window(read_lists, read_classes)
                self._index_window(write_lists, write_classes)
            # -- queue arbitration (write-drain watermarks) -----------------
            write_level = write_n + w_fetch - w_adm if staging else write_n
            if draining:
                if write_level <= write_low and read_n:
                    draining = False
            elif not read_n or write_level >= write_high:
                draining = write_n > 0 or w_fetch < n
            if draining and write_n:
                is_write_q = True
            else:
                is_write_q = not read_n
            floor = cmd_free if cmd_free > now else now
            if is_write_q:
                lists = write_lists
                col, act, pre = write_classes
                other_lists = read_lists
                other_classes = read_classes
                live = write_live
                data_offset = t_cwl
                rank_col = rank_wr
                bg_col = bg_wr
            else:
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
            best = -1
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
                        if term < best_ready or (term == best_ready and members[0] < best_key):
                            for e in members:
                                ready = bank_of[e].earliest_col
                                if ready <= term:
                                    if term < best_ready or e < best_key:
                                        best_ready, best_key, best = term, e, e
                                    break
                                if ready < best_ready or (ready == best_ready and e < best_key):
                                    best_ready, best_key, best = ready, e, e
                    members = act[g]
                    if members:
                        term = bg_act[g]
                        if term < term_a:
                            term = term_a
                        if term < best_ready or (
                            term == best_ready and members[0] + n < best_key
                        ):
                            for e in members:
                                ready = bank_of[e].earliest_act
                                key = e + n
                                if ready <= term:
                                    if term < best_ready or key < best_key:
                                        best_ready, best_key, best = term, key, e
                                    break
                                if ready < best_ready or (ready == best_ready and key < best_key):
                                    best_ready, best_key, best = ready, key, e
            if pre and (floor < best_ready or pre[0] + n < best_key):
                for e in pre:
                    ready = bank_of[e].earliest_pre
                    key = e + n
                    if ready <= floor:
                        if floor < best_ready or key < best_key:
                            best_ready, best_key, best = floor, key, e
                        break
                    if ready < best_ready or (ready == best_ready and key < best_key):
                        best_ready, best_key, best = ready, key, e
            # -- issue ------------------------------------------------------
            i = best
            when = best_ready
            flat = flat_of[i]
            bank = bank_of[i]
            rank = flat_rank[flat]
            bg = bg_of[i]
            r = rank_of[i]
            g = flat_bgflat[flat]
            if when > now:
                now = when
            cmd_free = when + 1
            row = bank.open_row
            if row < 0:  # ACT
                bank.open_row = row = row_of[i]
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
                needed_act[i] = 1
                # The bank's oldest entry (this one) becomes its oldest row
                # hit, its oldest non-hit a PRE candidate; the other
                # direction's entries in the bank are filed afresh.
                act[g].remove(i)
                _put(col[g], i)
                for x in lists[flat]:
                    if row_of[x] != row:
                        _put(pre, x)
                        break
                entries = other_lists[flat]
                if entries:
                    _file(other_classes, entries, g, -1, _take, row_of)
                    _file(other_classes, entries, g, row, _put, row_of)
                continue
            if row != row_of[i]:  # PRE
                # The bank's entries compete for an ACT again.
                entries = lists[flat]
                pre.remove(i)
                for x in entries:
                    if row_of[x] == row:
                        col[g].remove(x)
                        break
                _put(act[g], entries[0])
                entries = other_lists[flat]
                if entries:
                    _file(other_classes, entries, g, row, _take, row_of)
                    _file(other_classes, entries, g, -1, _put, row_of)
                bank.open_row = -1
                v = when + t_rp
                if v > bank.earliest_act:
                    bank.earliest_act = v
                n_pres += 1
                needed_pre[i] = 1
                continue
            # Column command: the request completes after its data burst.
            burst_end = when + data_offset + t_burst
            bus_free = burst_end
            bus_rank = r
            bus_cycles += t_burst
            if done is not None:
                done[i] = burst_end
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
                write_n -= 1
                count = write_n
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
                latency_sum += burst_end - arrival[i]
                read_n -= 1
                count = read_n
            if needed_pre[i]:
                n_conflicts += 1
            elif needed_act[i]:
                n_misses += 1
            else:
                n_hits += 1
            # The completed entry leaves its bank list and column class in
            # order; the bank's next row hit, if any, takes its place in the
            # class.
            entries = lists[flat]
            entries.remove(i)
            members = col[g]
            members.remove(i)
            for x in entries:
                if row_of[x] == row:
                    _put(members, x)
                    break
            live[r] -= 1
            pending -= 1
            if closed_policy:
                # Auto-precharge: the bank closes as soon as tRTP/tWR allows.
                _refile(directions, flat, g, row, -1, row_of)
                bank.precharge(bank.earliest_pre, t)
                n_pres += 1
            elif (
                phases
                and not pre
                and draining == is_write_q
                and not (staging and is_write_q)
                and count
                and live[r] == count
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
                base = r * banks_per_rank
                warm_at = max(
                    b.earliest_col
                    for b in flat_bank[base : base + banks_per_rank]
                    if b.open_row >= 0
                )
                lo = r * bg_count
                bgf = bg_col[lo : lo + bg_count]
                heads = [[] for _ in range(bg_count)]
                for x in sorted([x for entries in lists[base : base + banks_per_rank] for x in entries]):
                    heads[bg_of[x]].append(x)

        # -- write back ----------------------------------------------------
        for completions, positions, first in targets:
            completions[positions] = done[first : first + len(positions)]
        self._cols = self._columns = self._needed = self._done = None
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

    def _index_window(self, lists: list, classes: tuple, queued=None, live=None) -> None:
        """File one direction's classes afresh from its bank lists and the
        banks' open rows, first rebuilding the lists and the per-rank
        counts ``live`` from ``queued`` (its queued indices, oldest first)
        when given.  Whatever the classes held is dropped, so a hit phase,
        which issues without touching the lists, ends with one call, and so
        does a refresh, which closes banks."""
        col, act, pre = classes
        for members in (*col, *act, pre):
            members.clear()
        if queued is not None:
            for entries in lists:
                entries.clear()
            live[:] = [0] * len(live)
            flat_of, rank_of = self._columns[4], self._columns[1]
            for i in queued:
                lists[flat_of[i]].append(i)
                live[rank_of[i]] += 1
        row = self._columns[3]
        flat_bank = self._flat_bank
        flat_bgflat = self._flat_bgflat
        for flat, entries in enumerate(lists):
            if entries:
                _file(classes, entries, flat_bgflat[flat], flat_bank[flat].open_row, _put, row)

    def _stretch(self, heads, is_write, r0, bgf, floor, now, fetch, end, cap, keep, bound):
        """Issue, in closed form, the longest run of a hit phase's next
        commands that each go to the oldest window entry.

        Called at a phase step that passed its admission and end checks:
        every window entry (``heads``, per bankgroup of rank ``r0``) is a
        row hit, every open bank of ``r0`` is past tRCD (no ACT issues in a
        phase, so every record below is ready as far as its bank goes), the
        next command issues no earlier than ``floor``, and bankgroup ``g``'s
        no earlier than ``bgf[g]``.  The run is the window in index order,
        then the prefix of the direction's backlog ``[fetch, end)`` that is
        row hits in ``r0`` arrived by ``now``, read in blocks that grow
        sixteenfold while the run holds (numpy work in proportion to the
        run).  Its ``i``-th record is the oldest candidate at step ``i``,
        and wins if no candidate is ready before it: always in a
        one-bankgroup run, whose commands follow ``max(floor, bgf)`` at
        ``max(burst, tCCD_S, tCCD_L)`` intervals; otherwise when it is ready
        at the floor, ``previous + max(burst, tCCD_S)``, i.e. when ``bgf``,
        then its group's previous command + tCCD_L, is reached by then.
        The run stops before the step that admits a record it does not hold
        into a window of ``cap``, with ``keep`` entries still queued, and
        after the first command issued at or past ``bound`` (the next
        refresh or admission of the other direction).

        Returns ``(m, last_when, hits, misses, conflicts, latency)`` after
        retiring the ``m`` commands from ``heads``, ``bgf``, the banks'
        ``earliest_pre`` and the completion cycles; the caller moves its
        window count and backlog pointer.  When no command qualifies it
        returns the number of leading records that held (0: the oldest
        entry is not ready at the floor).
        """
        flat_bank = self._flat_bank
        ccd_l = self.timing.ccd_l
        pace = self._pace
        bg_of = self._columns[2]
        groups = [group for group in heads if group]
        if len(groups) == 1:
            entries = groups[0]
        else:
            # The oldest entry first (no sort), then the whole window.
            if bgf[bg_of[min(group[0] for group in groups)]] > floor:
                return 0
            entries = sorted([i for group in groups for i in group])
            group_floor = list(bgf)
            when = floor
            for i, e in enumerate(entries):
                g = bg_of[e]
                if group_floor[g] > when:
                    return i
                group_floor[g] = when + ccd_l
                when += pace
        arrival, rank, bankgroup, row, flat = self._cols
        q_n = len(entries)
        window = np.array(entries, dtype=np.int64)
        g0 = bg_of[entries[0]]
        nflats = len(flat_bank)
        open_rows = np.fromiter((b.open_row for b in flat_bank), np.int64, nflats)
        window_flats = flat[window]
        window_bgs = bankgroup[window]
        remaining = end - fetch
        best = None
        block = cap
        while True:
            sl = slice(fetch, min(end, fetch + block))
            flats_c = flat[sl]
            ok = (rank[sl] == r0) & (arrival[sl] <= now) & (row[sl] == open_rows[flats_c])
            absorbed = len(ok) if ok.all() else int(np.argmax(~ok))
            total = q_n + absorbed
            # The next record is admitted at step total - cap + 1.
            k_max = min(total - cap + 1 if absorbed < remaining else total, total - keep)
            flats = np.concatenate((window_flats, flats_c[:absorbed]))
            bgs = np.concatenate((window_bgs, bankgroup[sl][:absorbed]))
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
                best = (m, when, flats, bgs)
            if not (held == total == m + cap - 1 and absorbed == block < remaining):
                break
            block *= 16
        m, when, flats, bgs = best
        if m < 1:
            return held
        when = when[:m]
        flats = flats[:m]
        last_when = int(when[-1])
        tail = (self._t_cwl if is_write else self._t_cl) + self._t_burst
        done = self._done
        # -- retire the window part ----------------------------------------
        n_w = min(m, q_n)
        retired = entries[:n_w]
        needed_act, needed_pre = self._needed
        conflicts = sum(needed_pre[e] for e in retired)
        misses = sum(needed_act[e] and not needed_pre[e] for e in retired)
        hits = m - conflicts - misses
        latency = int(when.sum()) + m * tail - int(arrival[window[:n_w]].sum())
        if done is not None:
            for k, e in enumerate(retired):
                done[e] = int(when[k]) + tail
        cutoff = retired[-1]
        for group in heads:
            group[:] = [e for e in group if e > cutoff]
        # -- retire the backlog part ---------------------------------------
        n_b = m - n_w
        if n_b:
            latency -= int(arrival[fetch : fetch + n_b].sum())
            if done is not None:
                done[fetch : fetch + n_b] = (when[n_w:] + tail).tolist()
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
