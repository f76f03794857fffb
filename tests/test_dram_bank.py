"""Tests for the bank and rank state machines."""

import numpy as np
import pytest

from repro.dram.bank import Bank, Rank
from repro.dram.timing import DDR4_3200

import scan_oracle

T = DDR4_3200


def earliest(rank, kind, bankgroup):
    """The earliest ``kind`` ("read", "write" or "act") command cycle for
    ``bankgroup``: the max of its rank part and bankgroup part in
    :meth:`Rank.floors`."""
    k = ("read", "write", "act").index(kind)
    floors = rank.floors()
    return max(floors[k], floors[3 + k][bankgroup])


class TestBank:
    def test_starts_precharged(self):
        bank = Bank()
        assert not bank.is_open
        assert bank.open_row == -1

    def test_activate_opens_row(self):
        bank = Bank()
        bank.activate(row=7, cycle=100, timing=T)
        assert bank.is_open
        assert bank.open_row == 7

    def test_activate_sets_trcd_window(self):
        bank = Bank()
        bank.activate(row=7, cycle=100, timing=T)
        assert bank.earliest_col == 100 + T.rcd

    def test_activate_sets_tras_window(self):
        bank = Bank()
        bank.activate(row=7, cycle=100, timing=T)
        assert bank.earliest_pre >= 100 + T.ras

    def test_activate_sets_trc_window(self):
        bank = Bank()
        bank.activate(row=7, cycle=100, timing=T)
        assert bank.earliest_act == 100 + T.rc

    def test_precharge_closes_row(self):
        bank = Bank()
        bank.activate(row=7, cycle=100, timing=T)
        bank.precharge(cycle=200, timing=T)
        assert not bank.is_open

    def test_precharge_sets_trp_window(self):
        bank = Bank()
        bank.activate(row=7, cycle=0, timing=T)
        bank.precharge(cycle=200, timing=T)
        assert bank.earliest_act >= 200 + T.rp

    def test_read_delays_precharge_by_trtp(self):
        bank = Bank()
        bank.activate(row=1, cycle=0, timing=T)
        bank.read(cycle=500, timing=T)
        assert bank.earliest_pre >= 500 + T.rtp

    def test_write_delays_precharge_by_write_recovery(self):
        bank = Bank()
        bank.activate(row=1, cycle=0, timing=T)
        bank.write(cycle=500, timing=T)
        assert bank.earliest_pre >= 500 + T.write_to_precharge


class TestRankActivationWindows:
    def test_trrd_l_within_bank_group(self):
        rank = Rank(T, 4, 4)
        rank.record_act(bankgroup=0, cycle=100)
        assert earliest(rank, "act", 0) == 100 + T.rrd_l

    def test_trrd_s_across_bank_groups(self):
        rank = Rank(T, 4, 4)
        rank.record_act(bankgroup=0, cycle=100)
        assert earliest(rank, "act", 1) == 100 + T.rrd_s

    def test_tfaw_limits_fifth_activate(self):
        rank = Rank(T, 4, 4)
        for i in range(4):
            rank.record_act(bankgroup=i, cycle=i)
        # The fifth ACT must wait until tFAW past the first.
        assert earliest(rank, "act", 0) >= 0 + T.faw

    def test_tfaw_window_slides(self):
        rank = Rank(T, 4, 4)
        for i in range(5):
            rank.record_act(bankgroup=i % 4, cycle=i * 100)
        # Window now starts at cycle 100.
        bound = earliest(rank, "act", 3)
        assert bound >= 100 + T.faw or bound >= 400


class TestRankColumnWindows:
    def test_ccd_l_same_group(self):
        rank = Rank(T, 4, 4)
        rank.record_read(bankgroup=2, cycle=50)
        assert earliest(rank, "read", 2) == 50 + T.ccd_l

    def test_ccd_s_other_group(self):
        rank = Rank(T, 4, 4)
        rank.record_read(bankgroup=2, cycle=50)
        assert earliest(rank, "read", 0) == 50 + T.ccd_s

    def test_write_to_read_turnaround(self):
        rank = Rank(T, 4, 4)
        rank.record_write(bankgroup=1, cycle=50)
        assert earliest(rank, "read", 1) == 50 + T.write_to_read(True)
        assert earliest(rank, "read", 0) == 50 + T.write_to_read(False)

    def test_read_to_write_turnaround(self):
        rank = Rank(T, 4, 4)
        rank.record_read(bankgroup=1, cycle=50)
        assert earliest(rank, "write", 0) == 50 + T.read_to_write

    def test_write_to_write_ccd(self):
        rank = Rank(T, 4, 4)
        rank.record_write(bankgroup=1, cycle=50)
        assert earliest(rank, "write", 1) == 50 + T.ccd_l
        assert earliest(rank, "write", 2) == 50 + T.ccd_s


class TestRankFloors:
    """``Rank.floors()`` splits each of the scan oracle's scalar bounds into
    a rank part and a bankgroup part whose max is the bound."""

    @pytest.mark.parametrize("seed", range(5))
    def test_parts_recombine_to_earliest(self, seed):
        rng = np.random.default_rng(seed)
        rank = Rank(T, 4, 4)
        cycle = 0
        for _ in range(int(rng.integers(0, 12))):
            cycle += int(rng.integers(1, 30))
            record = (rank.record_act, rank.record_read, rank.record_write)[
                int(rng.integers(0, 3))
            ]
            record(int(rng.integers(0, 4)), cycle)
        read, write, act, group_read, group_write, group_act = rank.floors()
        for bg in range(4):
            assert scan_oracle.earliest_read(rank, bg) == max(read, group_read[bg])
            assert scan_oracle.earliest_write(rank, bg) == max(write, group_write[bg])
            assert scan_oracle.earliest_act(rank, bg) == max(act, group_act[bg])


class TestRefresh:
    def test_refresh_closes_all_banks(self):
        rank = Rank(T, 4, 4)
        rank.bank(0, 0).activate(5, 0, T)
        rank.bank(1, 2).activate(9, 10, T)
        rank.refresh(cycle=10_000)
        assert all(not b.is_open for b in rank.iter_banks())

    def test_refresh_blocks_activates_for_trfc(self):
        rank = Rank(T, 4, 4)
        done = rank.refresh(cycle=10_000)
        assert done >= 10_000 + T.rfc
        assert all(b.earliest_act >= done for b in rank.iter_banks())

    def test_refresh_with_open_banks_waits_for_precharge(self):
        rank = Rank(T, 4, 4)
        rank.bank(0, 0).activate(5, 9_990, T)
        done = rank.refresh(cycle=10_000)
        # Must honour tRAS of the open bank plus tRP before REF.
        assert done >= 9_990 + T.ras + T.rp + T.rfc

    def test_refresh_schedules_next_interval(self):
        rank = Rank(T, 4, 4)
        first_deadline = rank.next_refresh
        rank.refresh(cycle=first_deadline)
        assert rank.next_refresh == first_deadline + T.refi

    def test_refresh_counts(self):
        rank = Rank(T, 4, 4)
        rank.refresh(cycle=rank.next_refresh)
        rank.refresh(cycle=rank.next_refresh)
        assert rank.stats_refreshes == 2
