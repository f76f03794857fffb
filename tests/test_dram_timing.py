"""Tests for DDR4 timing parameters and speed grades."""

from dataclasses import fields, replace

import pytest

from repro.dram.timing import (
    DDR4_2400,
    DDR4_2666,
    DDR4_3200,
    SPEED_GRADES,
    DramTiming,
    ns_to_cycles,
)


class TestNsToCycles:
    def test_exact_multiple(self):
        assert ns_to_cycles(10.0, 0.625) == 16

    def test_rounds_up(self):
        assert ns_to_cycles(10.1, 0.625) == 17

    def test_minimum_one_cycle(self):
        assert ns_to_cycles(0.1, 0.625) == 1

    def test_zero_is_one_cycle(self):
        assert ns_to_cycles(0.0, 0.625) == 1


class TestSpeedGrades:
    def test_ddr4_3200_clock(self):
        assert DDR4_3200.clock_hz == pytest.approx(1.6e9)

    def test_ddr4_3200_tck(self):
        assert DDR4_3200.tck_ns == pytest.approx(0.625)

    def test_pc4_25600_peak_bandwidth(self):
        # Table 1: PC4-25600 gives 25.6 GB/s per DIMM.
        assert DDR4_3200.peak_bandwidth == pytest.approx(25.6e9)

    def test_ddr4_2400_peak_bandwidth(self):
        assert DDR4_2400.peak_bandwidth == pytest.approx(19.2e9)

    def test_burst_occupies_four_clocks(self):
        # BL8 at double data rate = 4 controller clocks.
        assert DDR4_3200.burst_cycles == 4

    def test_burst_moves_64_bytes(self):
        assert DDR4_3200.bytes_per_cycle * DDR4_3200.burst_cycles == 64

    def test_grades_registry(self):
        assert set(SPEED_GRADES) == {"DDR4-2400", "DDR4-2666", "DDR4-3200"}

    def test_faster_grade_has_more_cycles_for_same_ns(self):
        # tRFC is a fixed ns constraint, so faster clocks need more cycles.
        assert DDR4_3200.rfc > DDR4_2400.rfc

    def test_cas_latencies_scale_with_grade(self):
        assert DDR4_3200.cl > DDR4_2400.cl

    def test_ras_at_least_rcd(self):
        for grade in SPEED_GRADES.values():
            assert grade.ras >= grade.rcd

    def test_rc_covers_ras_plus_rp(self):
        for grade in SPEED_GRADES.values():
            assert grade.rc >= grade.ras

    def test_ccd_l_at_least_ccd_s(self):
        for grade in SPEED_GRADES.values():
            assert grade.ccd_l >= grade.ccd_s

    def test_wtr_l_at_least_wtr_s(self):
        for grade in SPEED_GRADES.values():
            assert grade.wtr_l >= grade.wtr_s


class TestDerivedConstraints:
    def test_read_to_write_positive(self):
        assert DDR4_3200.read_to_write > 0

    def test_write_to_read_same_group_longer(self):
        assert DDR4_3200.write_to_read(True) > DDR4_3200.write_to_read(False)

    def test_write_to_precharge_includes_recovery(self):
        t = DDR4_3200
        assert t.write_to_precharge == t.cwl + t.burst_cycles + t.wr

    def test_cycles_to_seconds(self):
        assert DDR4_3200.cycles_to_seconds(1_600_000_000) == pytest.approx(1.0)

    def test_cycles_to_seconds_zero(self):
        assert DDR4_3200.cycles_to_seconds(0) == 0.0

    def test_refresh_disable(self):
        quiet = DDR4_3200.scaled_refresh(False)
        assert quiet.refi > 1 << 60
        assert DDR4_3200.refi < 1 << 20  # original untouched

    def test_refresh_enable_is_identity(self):
        assert DDR4_3200.scaled_refresh(True) is DDR4_3200

    def test_refresh_interval_is_7_8_us(self):
        assert DDR4_3200.refi * DDR4_3200.tck_ns == pytest.approx(7800.0, rel=0.01)


class TestValidation:
    """``DramTiming`` rejects timings the controller's cadence arithmetic
    cannot use, naming the field."""

    CYCLE_FIELDS = [
        f.name for f in fields(DramTiming) if f.name not in ("name", "data_rate_mtps", "rtrs")
    ]

    @pytest.mark.parametrize("field", CYCLE_FIELDS)
    def test_cycle_count_below_one(self, field):
        with pytest.raises(ValueError, match=rf"DramTiming\.{field} must be at least 1"):
            replace(DDR4_3200, **{field: 0})

    def test_negative_rtrs(self):
        with pytest.raises(ValueError, match=r"DramTiming\.rtrs must be at least 0"):
            replace(DDR4_3200, rtrs=-1)
        assert replace(DDR4_3200, rtrs=0).rtrs == 0

    @pytest.mark.parametrize("bl", [1, 7, 9])
    def test_odd_burst_length(self, bl):
        with pytest.raises(ValueError, match=r"DramTiming\.bl must be even"):
            replace(DDR4_3200, bl=bl)

    def test_burst_length_two_is_the_least(self):
        assert replace(DDR4_3200, bl=2).burst_cycles == 1

    @pytest.mark.parametrize(
        "longer,shorter",
        [("ccd_l", "ccd_s"), ("rrd_l", "rrd_s"), ("wtr_l", "wtr_s"), ("rc", "ras")],
    )
    def test_long_form_below_short_form(self, longer, shorter):
        bad = getattr(DDR4_3200, shorter) - 1
        with pytest.raises(ValueError, match=rf"DramTiming\.{longer} must be at least {shorter}"):
            replace(DDR4_3200, **{longer: bad})
        equal = getattr(DDR4_3200, shorter)
        assert getattr(replace(DDR4_3200, **{longer: equal}), longer) == equal

    def test_presets_and_variants_stay_valid(self):
        for grade in SPEED_GRADES.values():
            assert replace(grade) == grade
            assert grade.scaled_refresh(False).refi > grade.refi
        assert replace(DDR4_3200, faw=48).faw == 48
