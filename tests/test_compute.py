"""Tests for the roofline device and kernel cost models."""

import numpy as np
import pytest

from repro.compute.cpu import XEON, xeon_with_gather_efficiency
from repro.compute.device import DeviceSpec
from repro.compute.gpu import V100, v100_with_memory
from repro.compute.kernels import (
    concat_time,
    elementwise_time,
    gather_time,
    gemm_time,
    linear,
    mlp_time,
    pooling_time,
    relu,
    sigmoid,
)


def make_device(**overrides):
    defaults = dict(
        name="toy",
        peak_flops=1e12,
        mem_bandwidth=100e9,
        kernel_overhead=1e-6,
        gather_efficiency=0.5,
        stream_efficiency=1.0,
        gemm_efficiency=1.0,
    )
    defaults.update(overrides)
    return DeviceSpec(**defaults)


class TestDeviceSpec:
    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            make_device(peak_flops=0)
        with pytest.raises(ValueError):
            make_device(mem_bandwidth=-1)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("peak_flops", float("nan")),
            ("peak_flops", float("inf")),
            ("mem_bandwidth", float("nan")),
            ("mem_bandwidth", float("inf")),
            ("kernel_overhead", -1.0),
            ("kernel_overhead", float("nan")),
            ("kernel_overhead", float("inf")),
            ("gemm_ramp_flops", float("nan")),
            ("gemm_ramp_flops", -1e7),
            ("gemm_ramp_flops", float("inf")),
        ],
    )
    def test_non_finite_or_negative_field_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_device(**{field: value})

    def test_zero_kernel_overhead_accepted(self):
        assert make_device(kernel_overhead=0.0).kernel_time(0, 0) == 0.0

    def test_invalid_efficiency(self):
        with pytest.raises(ValueError):
            make_device(gather_efficiency=0.0)
        with pytest.raises(ValueError):
            make_device(stream_efficiency=1.5)

    def test_compute_bound_roofline(self):
        dev = make_device()
        # 1e9 FLOPs vs 1 KB: compute wins.
        assert dev.roofline_time(1e9, 1024) == pytest.approx(1e-3)

    def test_memory_bound_roofline(self):
        dev = make_device()
        # 1 FLOP vs 1 GB: memory wins.
        assert dev.roofline_time(1.0, 1e9) == pytest.approx(1e-2)

    def test_kernel_time_adds_overhead(self):
        dev = make_device()
        assert dev.kernel_time(0, 0) == pytest.approx(1e-6)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            make_device().roofline_time(-1, 0)

    def test_gemm_ramp_penalises_small_kernels(self):
        dev = make_device(gemm_ramp_flops=1e7)
        small = dev.gemm_flops_rate(1e6)
        large = dev.gemm_flops_rate(1e10)
        assert small < 0.2 * large

    def test_no_ramp_means_flat_rate(self):
        dev = make_device(gemm_ramp_flops=0.0)
        assert dev.gemm_flops_rate(1.0) == dev.gemm_flops_rate(1e12)

    def test_with_bandwidth(self):
        faster = make_device().with_bandwidth(200e9)
        assert faster.mem_bandwidth == 200e9


class TestDevicePresets:
    def test_v100_bandwidth(self):
        assert V100.mem_bandwidth == pytest.approx(900e9)

    def test_xeon_bandwidth_is_8_channels(self):
        assert XEON.mem_bandwidth == pytest.approx(204.8e9)

    def test_gpu_much_faster_at_gemm(self):
        flops = 1e9
        assert V100.gemm_flops_rate(flops) > 5 * XEON.gemm_flops_rate(flops)

    def test_gpu_gathers_much_faster(self):
        assert V100.effective_gather_bandwidth > 10 * XEON.effective_gather_bandwidth

    def test_v100_with_memory(self):
        node_like = v100_with_memory(819.2e9)
        assert node_like.mem_bandwidth == pytest.approx(819.2e9)
        assert node_like.peak_flops == V100.peak_flops

    def test_xeon_gather_override(self):
        slow = xeon_with_gather_efficiency(0.05)
        assert slow.effective_gather_bandwidth == pytest.approx(0.05 * 204.8e9)


class TestKernelCosts:
    def test_gemm_monotonic_in_size(self):
        assert gemm_time(V100, 64, 512, 512) < gemm_time(V100, 128, 512, 512)

    def test_gemm_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            gemm_time(V100, 0, 10, 10)

    def test_mlp_sums_layers(self):
        dims = [512, 512, 512]
        two = mlp_time(V100, 64, dims)
        three = mlp_time(V100, 64, dims + [512])
        assert three > two

    def test_mlp_trivial_stack(self):
        assert mlp_time(V100, 64, [512]) == 0.0

    def test_elementwise_scales_with_inputs(self):
        assert elementwise_time(V100, 1 << 20, 4) > elementwise_time(V100, 1 << 20, 2)

    def test_elementwise_needs_inputs(self):
        with pytest.raises(ValueError):
            elementwise_time(V100, 1024, 0)

    def test_concat_double_traffic(self):
        dev = make_device(kernel_overhead=0.0)
        assert concat_time(dev, 100e9) == pytest.approx(2.0)

    def test_gather_slower_than_stream(self):
        n = 1 << 24
        assert gather_time(XEON, n) > concat_time(XEON, n // 2)

    def test_gather_negative_rejected(self):
        with pytest.raises(ValueError):
            gather_time(XEON, -1)

    def test_pooling_time_reflects_reduction(self):
        big = pooling_time(V100, 50 << 20, 1 << 20)
        small = pooling_time(V100, 2 << 20, 1 << 20)
        assert big > small


class TestFunctionalMath:
    def test_relu(self):
        np.testing.assert_array_equal(
            relu(np.array([-1.0, 0.0, 2.0])), np.array([0.0, 0.0, 2.0])
        )

    def test_sigmoid_bounds(self):
        out = sigmoid(np.array([-100.0, 0.0, 100.0]))
        assert out[0] == pytest.approx(0.0, abs=1e-6)
        assert out[1] == pytest.approx(0.5)
        assert out[2] == pytest.approx(1.0, abs=1e-6)

    def test_linear_matches_numpy(self, rng):
        x = rng.standard_normal((4, 8)).astype(np.float32)
        w = rng.standard_normal((3, 8)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        np.testing.assert_allclose(linear(x, w, b), x @ w.T + b, rtol=1e-5)

    def test_linear_shape_check(self):
        with pytest.raises(ValueError):
            linear(np.zeros((2, 4)), np.zeros((3, 5)), np.zeros(3))
