"""Shared system parameters for the five design points (Section 5 setup)."""

import math
from dataclasses import dataclass, replace
from numbers import Integral

from ..compute.cpu import XEON
from ..compute.device import DeviceSpec
from ..compute.gpu import V100
from ..config import DEFAULT_NODE_DIMMS, DIMM_PEAK_BANDWIDTH, NMP_STREAM_EFFICIENCY
from ..interconnect.link import NVLINK2_GPU, PCIE3_X16, Link


@dataclass(frozen=True)
class SystemParams:
    """Everything the latency model needs about the platform.

    Defaults reproduce the paper's evaluation machine: a DGX-1V host
    (8-channel DDR4 Xeon + V100 over PCIe3 x16) with a 32-DIMM TensorNode
    on the NVLink/NVSwitch fabric (Tables 1 and Section 5).
    """

    cpu: DeviceSpec = XEON
    gpu: DeviceSpec = V100
    host_link: Link = PCIE3_X16  # CPU <-> GPU
    node_link: Link = NVLINK2_GPU  # TensorNode <-> GPU
    node_dimms: int = DEFAULT_NODE_DIMMS
    dimm_bandwidth: float = DIMM_PEAK_BANDWIDTH
    #: Fraction of per-DIMM peak sustained by NMP streaming (calibrated
    #: against the cycle-level DRAM model; see repro.config).
    node_stream_efficiency: float = NMP_STREAM_EFFICIENCY
    #: PMEM: the same pool accessed as conventional DIMMs behind shared
    #: channels — bandwidth is per-channel, not per-DIMM (Section 4.2).
    pool_channels: int = 8
    pool_stream_efficiency: float = 0.80
    #: Fixed framework/launch overheads per inference.
    cpu_framework_overhead: float = 5e-6
    gpu_framework_overhead: float = 15e-6
    #: TensorISA dispatch cost per instruction (rides on a kernel launch).
    instruction_overhead: float = 2e-6

    def __post_init__(self):
        for name in ("node_dimms", "pool_channels"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not (math.isfinite(self.dimm_bandwidth) and self.dimm_bandwidth > 0):
            raise ValueError(
                f"dimm_bandwidth must be finite and positive, got {self.dimm_bandwidth}"
            )
        for name in ("node_stream_efficiency", "pool_stream_efficiency"):
            value = getattr(self, name)
            if not 0 < value <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        for name in ("cpu_framework_overhead", "gpu_framework_overhead", "instruction_overhead"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")

    @property
    def node_bandwidth(self) -> float:
        """Aggregate NMP bandwidth of the TensorNode (scales with DIMMs)."""
        return self.node_dimms * self.dimm_bandwidth * self.node_stream_efficiency

    @property
    def pool_bandwidth(self) -> float:
        """Internal bandwidth of a conventional (non-NMP) pooled memory."""
        return (
            self.pool_channels * self.dimm_bandwidth * self.pool_stream_efficiency
        )

    def with_node_dimms(self, node_dimms: int) -> "SystemParams":
        return replace(self, node_dimms=node_dimms)

    def with_node_link(self, link: Link) -> "SystemParams":
        return replace(self, node_link=link)


DEFAULT_PARAMS = SystemParams()
