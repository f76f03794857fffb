"""Bank and rank state machines for the DDR4 timing model.

Each :class:`Bank` tracks its open row and the earliest cycle at which each
command type may legally be issued to it.  Each :class:`Rank` tracks the
rank-wide constraints: tRRD activation spacing, the tFAW rolling window,
per-bank-group column command history (tCCD_L/S, tWTR_L/S) and the refresh
schedule.
"""

from collections import deque
from dataclasses import dataclass, field

from .timing import DramTiming


@dataclass(slots=True)
class Bank:
    """State of one DRAM bank."""

    open_row: int = -1  # -1 means precharged
    earliest_act: int = 0
    earliest_pre: int = 0
    earliest_col: int = 0  # RD/WR gated by tRCD after ACT

    @property
    def is_open(self) -> bool:
        return self.open_row >= 0

    def activate(self, row: int, cycle: int, timing: DramTiming) -> None:
        """Apply an ACT issued at ``cycle``."""
        self.open_row = row
        self.earliest_col = cycle + timing.rcd
        self.earliest_pre = max(self.earliest_pre, cycle + timing.ras)
        self.earliest_act = cycle + timing.rc

    def precharge(self, cycle: int, timing: DramTiming) -> None:
        """Apply a PRE issued at ``cycle``."""
        self.open_row = -1
        self.earliest_act = max(self.earliest_act, cycle + timing.rp)

    def read(self, cycle: int, timing: DramTiming) -> None:
        """Apply a RD issued at ``cycle`` (affects when PRE may follow)."""
        self.earliest_pre = max(self.earliest_pre, cycle + timing.rtp)

    def write(self, cycle: int, timing: DramTiming) -> None:
        """Apply a WR issued at ``cycle``."""
        self.earliest_pre = max(self.earliest_pre, cycle + timing.write_to_precharge)


class Rank:
    """State of one rank: banks plus rank-wide timing windows."""

    def __init__(self, timing: DramTiming, bankgroups: int, banks_per_group: int):
        self.timing = timing
        self.bankgroups = bankgroups
        self.banks_per_group = banks_per_group
        self.banks = [
            [Bank() for _ in range(banks_per_group)] for _ in range(bankgroups)
        ]
        self._act_window: deque = deque(maxlen=4)  # tFAW
        self._last_act_by_group = [-(1 << 30)] * bankgroups
        self._last_act = -(1 << 30)
        self._last_rd_by_group = [-(1 << 30)] * bankgroups
        self._last_wr_by_group = [-(1 << 30)] * bankgroups
        self._last_rd = -(1 << 30)
        self._last_wr = -(1 << 30)
        self.next_refresh = timing.refi
        self.stats_acts = 0
        self.stats_refreshes = 0
        # Scalar snapshots of the derived timing terms: recomputing property
        # chains (cwl + burst + tWTR, ...) per query dominates their cost.
        self._ccd_s = timing.ccd_s
        self._ccd_l = timing.ccd_l
        self._rrd_s = timing.rrd_s
        self._rrd_l = timing.rrd_l
        self._faw = timing.faw
        self._wtr_same = timing.write_to_read(same_bank_group=True)
        self._wtr_diff = timing.write_to_read(same_bank_group=False)
        self._rd_to_wr = timing.read_to_write

    def bank(self, bankgroup: int, bank: int) -> Bank:
        return self.banks[bankgroup][bank]

    def iter_banks(self):
        for group in self.banks:
            yield from group

    # -- constraint queries -------------------------------------------------

    def floors(self) -> tuple:
        """Earliest RD/WR/ACT cycles, split into rank-wide and bankgroup parts.

        Returns ``(read, write, act, group_read, group_write, group_act)``:
        three rank-wide scalars plus three per-bankgroup lists.  The earliest
        RD to bankgroup ``bg`` honouring tCCD and tWTR is
        ``max(read, group_read[bg])``; likewise WR (tCCD, RD-to-WR) and ACT
        (tRRD, tFAW).  The controller loads them when a drain starts and
        keeps them current itself, command by command.
        """
        act = self._last_act + self._rrd_s
        if len(self._act_window) == 4:
            act = max(act, self._act_window[0] + self._faw)
        ccd_l = self._ccd_l
        return (
            max(self._last_rd + self._ccd_s, self._last_wr + self._wtr_diff),
            max(self._last_wr + self._ccd_s, self._last_rd + self._rd_to_wr),
            act,
            [
                max(rd + ccd_l, wr + self._wtr_same)
                for rd, wr in zip(self._last_rd_by_group, self._last_wr_by_group)
            ],
            [wr + ccd_l for wr in self._last_wr_by_group],
            [last + self._rrd_l for last in self._last_act_by_group],
        )

    # -- state updates ------------------------------------------------------

    def record_act(self, bankgroup: int, cycle: int) -> None:
        self._act_window.append(cycle)
        self._last_act_by_group[bankgroup] = cycle
        self._last_act = cycle
        self.stats_acts += 1

    def record_read(self, bankgroup: int, cycle: int) -> None:
        self._last_rd_by_group[bankgroup] = cycle
        self._last_rd = cycle

    def record_write(self, bankgroup: int, cycle: int) -> None:
        self._last_wr_by_group[bankgroup] = cycle
        self._last_wr = cycle

    def refresh(self, cycle: int) -> int:
        """Perform an all-bank refresh starting no earlier than ``cycle``.

        Returns the cycle at which the rank becomes usable again.  Any open
        banks are precharged first (honouring their tRAS/tRTP/tWR limits),
        and REF waits for every closed bank's precharge to settle: a
        closed-page auto-precharge closes its bank at the column command
        with a PRE cycle that may lie in the future.
        """
        t = self.timing
        start = cycle
        settled = cycle
        any_open = False
        for bank in self.iter_banks():
            if bank.is_open:
                any_open = True
                start = max(start, bank.earliest_pre)
            else:
                settled = max(settled, bank.earliest_act)
        if any_open:
            start += t.rp  # precharge-all settles before REF
        start = max(start, settled)
        done = start + t.rfc
        for bank in self.iter_banks():
            bank.open_row = -1
            bank.earliest_act = max(bank.earliest_act, done)
        self.next_refresh += t.refi
        self.stats_refreshes += 1
        return done
