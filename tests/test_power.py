"""Tests for the DDR4 power and NMP-core area models."""

import pytest

from repro.dram.controller import MemoryController
from repro.dram.timing import DDR4_3200
from repro.dram.trace import streaming_buffer
from repro.power.dram_power import DimmPowerModel, DramDevicePower
from repro.power.nmp_area import (
    nmp_core_total,
    nmp_core_utilization,
    sram_queues,
    vector_alu,
    vector_fpu,
)
from repro.power.node_power import tensornode_power
from repro.power.targets import XCVU9P


class TestDevicePower:
    def test_background_interpolates(self):
        dev = DramDevicePower()
        idle = dev.background_w(0.0)
        active = dev.background_w(1.0)
        half = dev.background_w(0.5)
        assert idle < half < active

    def test_background_fraction_bounds(self):
        with pytest.raises(ValueError):
            DramDevicePower().background_w(1.1)

    def test_read_power_scales_with_utilisation(self):
        dev = DramDevicePower()
        assert dev.read_w(1.0) > dev.read_w(0.5) > 0

    def test_write_cheaper_than_read(self):
        dev = DramDevicePower()
        assert dev.write_w(1.0) < dev.read_w(1.0)

    def test_refresh_power_positive(self):
        assert DramDevicePower().refresh_w(DDR4_3200) > 0

    def test_activate_power_scales_with_rate(self):
        dev = DramDevicePower()
        assert dev.activate_w(2e6, DDR4_3200) > dev.activate_w(1e6, DDR4_3200)


class TestDimmPower:
    def test_idle_below_active(self):
        model = DimmPowerModel()
        assert model.idle_w() < model.active_w(0.6, 0.3, 1e6)

    def test_utilisation_bound(self):
        with pytest.raises(ValueError):
            DimmPowerModel().active_w(0.8, 0.3, 1e6)

    def test_128gb_lrdimm_near_13w(self):
        # Section 6.5: Micron's calculator gives ~13 W for a 128 GB LR-DIMM.
        model = DimmPowerModel()
        streaming = model.active_w(0.63, 0.32, 1.6e7)
        assert 10.0 < streaming < 17.0

    def test_power_from_stats(self):
        mc = MemoryController(DDR4_3200)
        mc.enqueue_batch(streaming_buffer(0, 4000))
        stats = mc.run_to_completion()
        power = DimmPowerModel().power_from_stats(stats)
        assert DimmPowerModel().idle_w() < power < 25.0

    def test_power_from_empty_stats_is_idle(self):
        mc = MemoryController(DDR4_3200)
        stats = mc.run_to_completion()
        assert DimmPowerModel().power_from_stats(stats) == DimmPowerModel().idle_w()


class TestNodePower:
    def test_node_power_near_416w(self):
        # Section 6.5: 13 W x 32 DIMMs = 416 W.
        report = tensornode_power()
        assert 350 < report.total_w < 520

    def test_within_ocp_budget(self):
        assert tensornode_power().within_budget(700.0)

    def test_idle_node_much_cheaper(self):
        active = tensornode_power(streaming=True)
        idle = tensornode_power(streaming=False)
        assert idle.total_w < active.total_w

    def test_scales_with_dimm_count(self):
        from repro.config import TensorNodeConfig

        half = tensornode_power(TensorNodeConfig(num_dimms=16))
        full = tensornode_power(TensorNodeConfig(num_dimms=32))
        assert full.total_w == pytest.approx(2 * half.total_w)


class TestNmpArea:
    def test_every_block_under_half_percent(self):
        # Table 3's message: the NMP core is a rounding error on the FPGA.
        for block in nmp_core_utilization().values():
            for value in block.values():
                assert value < 0.5

    def test_fpu_matches_paper_lut_fraction(self):
        util = nmp_core_utilization()["FPU"]
        assert util["LUT"] == pytest.approx(0.19, abs=0.03)

    def test_fpu_matches_paper_dsp_fraction(self):
        util = nmp_core_utilization()["FPU"]
        assert util["DSP"] == pytest.approx(0.20, abs=0.03)

    def test_alu_matches_paper_lut_fraction(self):
        util = nmp_core_utilization()["ALU"]
        assert util["LUT"] == pytest.approx(0.09, abs=0.02)

    def test_queues_use_bram_only(self):
        usage = sram_queues()
        assert usage.bram36 > 0
        assert usage.dsps == 0

    def test_queue_geometry_validated(self):
        with pytest.raises(ValueError):
            sram_queues(queue_bytes=32)

    def test_total_is_sum_of_blocks(self):
        total = nmp_core_total()
        parts = [sram_queues(), vector_fpu(), vector_alu()]
        assert total.luts == sum(p.luts for p in parts)
        assert total.dsps == sum(p.dsps for p in parts)

    def test_utilization_against_device(self):
        usage = vector_fpu()
        util = usage.utilization(XCVU9P)
        assert util["LUT"] == pytest.approx(100.0 * usage.luts / XCVU9P.luts)
