"""Roofline device model shared by the CPU and GPU cost models.

A kernel's execution time is the max of its compute time (FLOPs over peak
FLOP/s) and its memory time (bytes over peak bandwidth), plus a fixed
per-kernel launch overhead.  This is the standard roofline abstraction; it
is all the paper's evaluation needs because the embedding-side kernels are
purely bandwidth-bound and the MLP kernels are compute-bound at large batch
(Sections 3.2 and 5).
"""

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class DeviceSpec:
    """Peak capabilities of one compute device."""

    name: str
    peak_flops: float  # FP32 FLOP/s
    mem_bandwidth: float  # bytes/s of local memory
    kernel_overhead: float  # seconds per kernel launch
    #: Fraction of peak bandwidth achieved by irregular gathers (sparse
    #: embedding lookups).  GPUs with high MLP coalescing keep this high;
    #: CPUs see a fraction of peak (Gupta et al., Section 7).
    gather_efficiency: float = 1.0
    #: Fraction of peak bandwidth achieved by regular streaming kernels.
    stream_efficiency: float = 0.95
    #: Fraction of peak FLOPs achieved by large GEMMs.
    gemm_efficiency: float = 0.85
    #: Utilisation ramp: a GEMM of ``f`` FLOPs runs at
    #: ``gemm_efficiency * f / (f + gemm_ramp_flops)`` of peak, modelling the
    #: well-known fact that small-batch GEMMs cannot fill a wide device
    #: (half of asymptotic efficiency at ``f == gemm_ramp_flops``).
    gemm_ramp_flops: float = 0.0

    def __post_init__(self):
        for name in ("peak_flops", "mem_bandwidth"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        for name in ("kernel_overhead", "gemm_ramp_flops"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        for name in ("gather_efficiency", "stream_efficiency", "gemm_efficiency"):
            value = getattr(self, name)
            if not 0 < value <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {value}")

    @property
    def effective_stream_bandwidth(self) -> float:
        return self.mem_bandwidth * self.stream_efficiency

    @property
    def effective_gather_bandwidth(self) -> float:
        return self.mem_bandwidth * self.gather_efficiency

    @property
    def effective_flops(self) -> float:
        return self.peak_flops * self.gemm_efficiency

    def gemm_flops_rate(self, flops: float) -> float:
        """Achieved FLOP/s for a GEMM of ``flops``, including the ramp."""
        if flops <= 0:
            return self.effective_flops
        utilization = flops / (flops + self.gemm_ramp_flops)
        return self.effective_flops * utilization

    def roofline_time(self, flops: float, num_bytes: float) -> float:
        """Kernel body time under the roofline (no launch overhead)."""
        if flops < 0 or num_bytes < 0:
            raise ValueError("flops and bytes must be non-negative")
        compute = flops / self.gemm_flops_rate(flops) if flops else 0.0
        memory = num_bytes / self.effective_stream_bandwidth
        return max(compute, memory)

    def kernel_time(self, flops: float, num_bytes: float) -> float:
        """Roofline time plus the launch overhead."""
        return self.kernel_overhead + self.roofline_time(flops, num_bytes)

    def with_bandwidth(self, mem_bandwidth: float) -> "DeviceSpec":
        return replace(self, mem_bandwidth=mem_bandwidth)
