"""Tests for the point-to-point interconnect links."""

import pytest

from repro.interconnect.link import NVLINK2_GPU, NVLINK2_LINK, PCIE3_X16, Link


class TestLink:
    def test_transfer_time_formula(self):
        link = Link("test", 10e9, 1e-6)
        assert link.transfer_time(10_000_000) == pytest.approx(1e-6 + 1e-3)

    def test_zero_bytes_is_free(self):
        assert PCIE3_X16.transfer_time(0) == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            PCIE3_X16.transfer_time(-1)

    def test_invalid_link(self):
        with pytest.raises(ValueError):
            Link("bad", 0.0, 0.0)
        with pytest.raises(ValueError):
            Link("bad", 1e9, -1.0)

    @pytest.mark.parametrize(
        "field,args",
        [
            ("bandwidth", (float("nan"), 0.0)),
            ("bandwidth", (float("inf"), 0.0)),
            ("latency", (1e9, float("nan"))),
            ("latency", (1e9, float("inf"))),
        ],
    )
    def test_non_finite_link_rejected(self, field, args):
        with pytest.raises(ValueError, match=field):
            Link("bad", *args)

    def test_nvlink_vs_pcie_ratio(self):
        # Section 2.2: NVLink-attached GPUs move data ~9x faster than PCIe.
        ratio = NVLINK2_GPU.bandwidth / PCIE3_X16.bandwidth
        assert ratio == pytest.approx(9.375)

    def test_single_nvlink_is_25gbps(self):
        assert NVLINK2_LINK.bandwidth == pytest.approx(25e9)

    def test_effective_bandwidth_approaches_peak(self):
        eff = NVLINK2_GPU.effective_bandwidth(1 << 30)
        assert eff > 0.99 * NVLINK2_GPU.bandwidth

    def test_effective_bandwidth_small_transfer_penalised(self):
        eff = NVLINK2_GPU.effective_bandwidth(4096)
        assert eff < 0.02 * NVLINK2_GPU.bandwidth

    def test_scaled(self):
        slow = NVLINK2_GPU.scaled(25e9)
        assert slow.bandwidth == 25e9
        assert slow.latency == NVLINK2_GPU.latency

