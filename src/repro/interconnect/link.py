"""Point-to-point interconnect links (PCIe, NVLink).

A :class:`Link` is a simple latency + bandwidth pipe: moving ``n`` bytes
costs ``latency + n / bandwidth`` seconds.  The presets encode the paper's
Section 2.2 numbers: PCIe v3 x16 offers 16 GB/s unidirectional while an
NVLink-v2-attached GPU reaches 150 GB/s through NVSwitch — the ~9x gap that
drives the TensorNode placement argument.
"""

import math
from dataclasses import dataclass, replace

from ..config import NVLINK2_GPU_BANDWIDTH, NVLINK2_LINK_BANDWIDTH, PCIE3_X16_BANDWIDTH


@dataclass(frozen=True)
class Link:
    """A unidirectional link with fixed setup latency and peak bandwidth."""

    name: str
    bandwidth: float  # bytes / second
    latency: float  # seconds of fixed per-transfer overhead

    def __post_init__(self):
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(f"bandwidth must be finite and positive, got {self.bandwidth}")
        if not (math.isfinite(self.latency) and self.latency >= 0):
            raise ValueError(f"latency must be finite and non-negative, got {self.latency}")

    def transfer_time(self, num_bytes: int) -> float:
        """Seconds to move ``num_bytes`` over this link."""
        if num_bytes < 0:
            raise ValueError("cannot transfer a negative byte count")
        if num_bytes == 0:
            return 0.0
        return self.latency + num_bytes / self.bandwidth

    def effective_bandwidth(self, num_bytes: int) -> float:
        """Achieved bytes/second including the setup latency."""
        if num_bytes <= 0:
            return 0.0
        return num_bytes / self.transfer_time(num_bytes)

    def scaled(self, bandwidth: float) -> "Link":
        """A copy with a different peak bandwidth (Fig. 16 sweeps)."""
        return replace(self, name=f"{self.name}@{bandwidth / 1e9:.0f}GB/s", bandwidth=bandwidth)


#: PCIe v3 x16: 16 GB/s unidirectional; ~10 us cudaMemcpy setup cost.
PCIE3_X16 = Link("PCIe3-x16", PCIE3_X16_BANDWIDTH, 10e-6)

#: One NVLink v2 link: 25 GB/s per direction.
NVLINK2_LINK = Link("NVLink2-x1", NVLINK2_LINK_BANDWIDTH, 2e-6)

#: A V100's six NVLink v2 links through NVSwitch: 150 GB/s per direction.
NVLINK2_GPU = Link("NVLink2-x6", NVLINK2_GPU_BANDWIDTH, 2e-6)
