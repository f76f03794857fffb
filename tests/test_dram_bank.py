"""Tests for the bank and rank state machines."""

import itertools

import numpy as np
import pytest

from repro.dram.bank import Bank, Rank
from repro.dram.command import TraceBuffer
from repro.dram.controller import MemoryController
from repro.dram.mapping import RANK_INTERLEAVED_ORDER, AddressMapping, DramOrganization
from repro.dram.timing import DDR4_3200

import scan_oracle
from scan_oracle import ScanController

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

    def test_refresh_waits_for_a_pending_auto_precharge(self):
        """A closed-page auto-precharge closes its bank at the column
        command, with a PRE cycle that may lie after the REF's cycle."""
        rank = Rank(T, 4, 4)
        bank = rank.bank(0, 0)
        bank.activate(5, 0, T)
        bank.read(T.rcd, T)
        pre = bank.earliest_pre
        assert pre == 52  # tRAS binds, not RD + tRTP
        bank.precharge(pre, T)
        done = rank.refresh(cycle=23)
        assert done - T.rfc >= pre + T.rp

    @pytest.mark.parametrize("row_policy", ["open", "closed"])
    def test_drain_never_refreshes_before_a_precharge_settles(self, row_policy, monkeypatch):
        """Sparse random 4-rank traffic: every REF starts at least tRP after
        the last PRE of each of its rank's banks.  The drain inlines its
        explicit PREs, so the spy sees only its auto-precharges; the scan
        oracle, which the drain matches stat for stat, shows the spy every
        PRE.  Closed page, REFs must have come while a PRE was pending."""
        last_pre = {}
        refreshes = []
        pending = []
        precharge, refresh = Bank.precharge, Rank.refresh

        def spy_precharge(bank, cycle, timing):
            last_pre[id(bank)] = cycle
            precharge(bank, cycle, timing)

        def spy_refresh(rank, cycle):
            rp = rank.timing.rp
            settle = max(last_pre.get(id(b), -rp) for b in rank.iter_banks()) + rp
            pending.append(cycle < settle)
            done = refresh(rank, cycle)
            refreshes.append((done - rank.timing.rfc, settle))
            return done

        monkeypatch.setattr(Bank, "precharge", spy_precharge)
        monkeypatch.setattr(Rank, "refresh", spy_refresh)
        org = DramOrganization(ranks=4)
        mapping = AddressMapping(org, order=RANK_INTERLEAVED_ORDER)
        for seed in range(6):
            rng = np.random.default_rng(seed)
            n = 600
            addrs = rng.integers(0, 1 << 22, size=n) * 64
            arrivals = np.sort(rng.integers(0, 8 * T.refi, size=n))
            trace = TraceBuffer(addrs, rng.random(n) < 0.3, arrivals)
            for window, build in itertools.product((8, 32), (MemoryController, ScanController)):
                mc = build(T, org, mapping, window=window, row_policy=row_policy)
                last_pre.clear()  # a new controller's banks may reuse ids
                mc.enqueue_batch(trace)
                mc.run_to_completion()
        assert len(refreshes) >= 96
        assert [(start, settle) for start, settle in refreshes if start < settle] == []
        if row_policy == "closed":
            assert any(pending)

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
