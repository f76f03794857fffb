"""The scan scheduler: the golden reference for the FR-FCFS drain.

:class:`ScanController` is a :class:`MemoryController` whose
``run_to_completion`` is the original scheduler: every step it re-evaluates
each entry in the scheduling window (the first ``window`` entries of the
active queue, in admission order) with the scalar rank constraints below,
and issues the entry with the smallest ``(ready, column-first, age)`` key.
Admission, queue arbitration and refresh are written out plainly, one
helper each.  It shares the controller's backlog, bank and rank state and
its ``enqueue_batch`` (and decodes the queued traces through the same
``_decode_pending`` hook when a drain starts), so a test can fill both
controllers the same way and compare the :class:`ControllerStats` (and
completion cycles) they return.
It also queues records one at a time (:meth:`ScanController.enqueue_record`),
with scalar decode and sequence labelling, as the reference for the
vectorized ``enqueue_batch``.

:func:`earliest_act`, :func:`earliest_read` and :func:`earliest_write` are
the scalar forms of :meth:`Rank.floors`: each gives one bankgroup's bound
straight from the rank's command history.
"""

import numpy as np

from repro.dram.bank import Rank
from repro.dram.command import reserve_seq_block
from repro.dram.controller import (
    ControllerConfig,
    ControllerStats,
    MemoryController,
    _BacklogChunk,
)


def earliest_act(rank: Rank, bankgroup: int) -> int:
    """Earliest cycle an ACT to ``bankgroup`` satisfies tRRD and tFAW."""
    bound = max(
        rank._last_act + rank._rrd_s,
        rank._last_act_by_group[bankgroup] + rank._rrd_l,
    )
    if len(rank._act_window) == 4:
        bound = max(bound, rank._act_window[0] + rank._faw)
    return bound


def earliest_read(rank: Rank, bankgroup: int) -> int:
    """Earliest RD honouring tCCD and tWTR within the rank."""
    return max(
        rank._last_rd + rank._ccd_s,
        rank._last_rd_by_group[bankgroup] + rank._ccd_l,
        rank._last_wr + rank._wtr_diff,
        rank._last_wr_by_group[bankgroup] + rank._wtr_same,
    )


def earliest_write(rank: Rank, bankgroup: int) -> int:
    """Earliest WR honouring tCCD and the RD-to-WR turnaround."""
    return max(
        rank._last_wr + rank._ccd_s,
        rank._last_wr_by_group[bankgroup] + rank._ccd_l,
        rank._last_rd + rank._rd_to_wr,
    )


class ScanController(MemoryController):
    """A controller that drains with the O(window) scan scheduler."""

    @classmethod
    def from_config(cls, config: ControllerConfig) -> "ScanController":
        """The scan twin of ``config.build()``."""
        return cls(
            config.timing,
            organization=config.organization,
            mapping=config.mapping,
            window=config.window,
            write_high_watermark=config.write_high_watermark,
            write_low_watermark=config.write_low_watermark,
            refresh_enabled=True,  # config.timing is already refresh-scaled
            row_policy=config.row_policy,
        )

    def enqueue_record(self, addr, is_write, arrival=0, completions=None, pos=-1) -> None:
        """Queue one record: the per-record reference for ``enqueue_batch``.

        Scalar :meth:`AddressMapping.decode`, one sequence number drawn with
        ``reserve_seq_block(1)`` and a one-record backlog chunk.  With
        ``completions``, the drain writes the record's burst-end cycle to
        ``completions[pos]``.  Traces queued before it with
        ``enqueue_batch`` are decoded first, so the backlog stays in enqueue
        order.
        """
        org = self.organization
        if not 0 <= addr < org.capacity_bytes:
            raise ValueError(
                f"address {addr:#x} outside channel capacity {org.capacity_bytes:#x}"
            )
        c = self.mapping.decode(addr)
        flat = (c["rank"] * org.bankgroups + c["bankgroup"]) * org.banks_per_group + c["bank"]
        seq = reserve_seq_block(1)
        self._decode_pending()
        columns = (arrival, c["rank"], c["bankgroup"], c["bank"], c["row"], flat, seq)
        chunk = _BacklogChunk(
            *(np.array([v], dtype=np.int64) for v in columns),
            completions,
            None if completions is None else np.array([pos], dtype=np.int64),
        )
        (self._write_backlog if is_write else self._read_backlog).append_chunk(chunk)

    def run_to_completion(self) -> ControllerStats:
        self._decode_pending()
        while self.pending:
            self._admit()
            if not self._read_q and not self._write_q:
                self._now = max(self._now, self._next_arrival())
                continue
            self._step_scan()
        self.stats.finish_cycle = max(self.stats.finish_cycle, self._now)
        return self.stats

    # -- admission -----------------------------------------------------------

    def _next_arrival(self) -> int:
        candidates = []
        if self._read_backlog:
            candidates.append(self._read_backlog.head_arrival())
        if self._write_backlog:
            candidates.append(self._write_backlog.head_arrival())
        return min(candidates) if candidates else self._now

    def _admit(self) -> None:
        """Move arrived backlog entries into the working queues: reads up to
        the window, writes up to the high watermark."""
        now = self._now
        backlog = self._read_backlog
        queue = self._read_q
        while len(queue) < self.window and backlog and backlog.head_arrival() <= now:
            queue.append(backlog.popleft())
        backlog = self._write_backlog
        queue = self._write_q
        while len(queue) < self.write_high and backlog and backlog.head_arrival() <= now:
            queue.append(backlog.popleft())

    # -- scheduling ----------------------------------------------------------

    def _active_queue(self) -> list:
        write_pressure = len(self._write_q) + len(self._write_backlog)
        reads_pending = bool(self._read_q)
        if self._draining_writes:
            if len(self._write_q) <= self.write_low and reads_pending:
                self._draining_writes = False
        elif not reads_pending or len(self._write_q) >= self.write_high:
            self._draining_writes = write_pressure > 0
        if self._draining_writes and self._write_q:
            return self._write_q
        return self._read_q if self._read_q else self._write_q

    def _step_scan(self) -> None:
        """Re-evaluate every entry in the window and issue the best one."""
        self._maybe_refresh()
        queue = self._active_queue()
        if not queue:
            return
        best = None
        for entry in queue[: self.window]:
            cmd, when = self._next_command(entry)
            ready = max(when, entry.arrival, self._cmd_free, self._now)
            key = (ready, 0 if cmd == "col" else 1, entry.seq)
            if best is None or key < best[0]:
                best = (key, entry, cmd, ready)
        _, entry, cmd, when = best
        self._issue(entry, cmd, when, queue)

    def _next_command(self, req) -> tuple[str, int]:
        """Return the next command for ``req`` and its earliest issue cycle."""
        rank = self.ranks[req.rank]
        bank = rank.bank(req.bankgroup, req.bank)
        if bank.open_row == req.row:
            return "col", self._column_earliest(req, rank, bank)
        if not bank.is_open:
            return "act", max(bank.earliest_act, earliest_act(rank, req.bankgroup))
        return "pre", bank.earliest_pre

    def _column_earliest(self, req, rank: Rank, bank) -> int:
        t = self.timing
        if req.is_write:
            when = max(bank.earliest_col, earliest_write(rank, req.bankgroup))
            data_offset = t.cwl
        else:
            when = max(bank.earliest_col, earliest_read(rank, req.bankgroup))
            data_offset = t.cl
        bus_ready = self._bus_free
        if self._bus_rank >= 0 and self._bus_rank != req.rank:
            bus_ready += t.rtrs
        return max(when, bus_ready - data_offset)

    def _issue(self, entry, cmd: str, when: int, queue: list) -> None:
        t = self.timing
        rank = self.ranks[entry.rank]
        bank = rank.bank(entry.bankgroup, entry.bank)
        if when > self._now:
            self._now = when
        self._cmd_free = when + 1
        if cmd == "act":
            bank.activate(entry.row, when, t)
            rank.record_act(entry.bankgroup, when)
            self.stats.activates += 1
            entry.needed_act = True
            return
        if cmd == "pre":
            bank.precharge(when, t)
            self.stats.precharges += 1
            entry.needed_pre = True
            return
        # Column command: the request completes after its data burst.
        data_offset = t.cwl if entry.is_write else t.cl
        burst_end = when + data_offset + t.burst_cycles
        self._bus_free = burst_end
        self._bus_rank = entry.rank
        self.stats.data_bus_cycles += t.burst_cycles
        if entry.done is not None:
            entry.done[entry.pos] = burst_end
        if burst_end > self.stats.finish_cycle:
            self.stats.finish_cycle = burst_end
        if entry.is_write:
            bank.write(when, t)
            rank.record_write(entry.bankgroup, when)
            self.stats.writes += 1
        else:
            bank.read(when, t)
            rank.record_read(entry.bankgroup, when)
            self.stats.reads += 1
            self.stats.read_latency_sum += burst_end - entry.arrival
        if entry.needed_pre:
            self.stats.row_conflicts += 1
        elif entry.needed_act:
            self.stats.row_misses += 1
        else:
            self.stats.row_hits += 1
        # list.remove keeps admission order, which the window slice
        # queue[:window] depends on.
        queue.remove(entry)
        if self.row_policy == "closed":
            # Auto-precharge: the bank closes as soon as tRTP/tWR allows.
            bank.precharge(bank.earliest_pre, t)
            self.stats.precharges += 1

    def _maybe_refresh(self) -> None:
        for rank in self.ranks:
            if self._now >= rank.next_refresh:
                # REF blocks only the refreshing rank (its banks' earliest_act
                # move past tRFC); other ranks keep using the shared bus.
                rank.refresh(self._now)
                self.stats.refreshes += 1
