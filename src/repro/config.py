"""Global configuration constants for the TensorDIMM reproduction.

The values here mirror the paper's evaluation setup:

* Table 1 — baseline TensorNode configuration (32x PC4-25600 TensorDIMMs,
  25.6 GB/s per DIMM, 819.2 GB/s aggregate).
* Section 2.2 / 5 — interconnect bandwidths (PCIe v3 x16 = 16 GB/s,
  NVLink v2 = 25 GB/s per link, 150 GB/s per GPU via NVSwitch).
* Section 5 — the DGX-1V style host (8 DDR4 channels) and V100 GPU
  (900 GB/s HBM2).
"""

from dataclasses import dataclass, field

#: Bytes moved by one DRAM burst (x64 DIMM, burst length 8).
ACCESS_GRANULARITY = 64

#: Bytes per embedding element (FP32 everywhere in the paper).
BYTES_PER_ELEMENT = 4

#: Scalar elements in one 64 B DRAM access (the vector ALU width).
ELEMS_PER_WORD = ACCESS_GRANULARITY // BYTES_PER_ELEMENT

#: Table 1 — DIMM count of the default TensorNode.
DEFAULT_NODE_DIMMS = 32

#: Table 1 — per-DIMM peak bandwidth (PC4-25600).
DIMM_PEAK_BANDWIDTH = 25.6e9

#: Table 1 — aggregate TensorNode peak bandwidth.
NODE_PEAK_BANDWIDTH = DEFAULT_NODE_DIMMS * DIMM_PEAK_BANDWIDTH

#: Baseline CPU memory system: 8 channels (4 per socket x 2 sockets).
CPU_MEMORY_CHANNELS = 8

#: Peak CPU memory bandwidth (8 x 25.6 GB/s, Section 4.2).
CPU_PEAK_BANDWIDTH = CPU_MEMORY_CHANNELS * DIMM_PEAK_BANDWIDTH

#: PCIe v3 x16 unidirectional bandwidth (Section 2.2).
PCIE3_X16_BANDWIDTH = 16e9

#: NVLink v2 bandwidth per link, and per-GPU aggregate through NVSwitch.
NVLINK2_LINK_BANDWIDTH = 25e9
NVLINK2_GPU_BANDWIDTH = 150e9

#: V100 local HBM2 bandwidth (Section 5).
GPU_HBM_BANDWIDTH = 900e9

#: Default embedding dimension used throughout the evaluation (Section 5).
DEFAULT_EMBEDDING_DIM = 512

#: Default batch size (Section 5, after Facebook's 1-100 deployment note).
DEFAULT_BATCH_SIZE = 64

#: NMP core vector ALU: 16 lanes at 150 MHz (Section 4.2).
NMP_ALU_LANES = 16
NMP_ALU_CLOCK_HZ = 150e6

#: SRAM queue sizing rule: bandwidth-delay product with a 20 ns estimate.
NMP_QUEUE_DELAY_S = 20e-9

#: Fraction of per-DIMM peak DRAM bandwidth sustained by streaming NMP ops.
#: Calibrated against this repo's cycle-level controller (~24.3 of
#: 25.6 GB/s with refresh on); used by the analytic timing models.
NMP_STREAM_EFFICIENCY = 0.948


@dataclass(frozen=True)
class TensorNodeConfig:
    """Configuration of a TensorNode pool (Table 1 defaults)."""

    num_dimms: int = DEFAULT_NODE_DIMMS
    dimm_bandwidth: float = DIMM_PEAK_BANDWIDTH
    dimm_capacity_bytes: int = 128 << 30  # 128 GB LR-DIMM (Section 6.5)

    @property
    def peak_bandwidth(self) -> float:
        """Aggregate peak DRAM bandwidth across all TensorDIMMs."""
        return self.num_dimms * self.dimm_bandwidth

    @property
    def capacity_bytes(self) -> int:
        """Total pool capacity."""
        return self.num_dimms * self.dimm_capacity_bytes


@dataclass(frozen=True)
class HostConfig:
    """Baseline CPU host memory system (DGX-1V style)."""

    channels: int = CPU_MEMORY_CHANNELS
    dimms_per_channel: int = 4
    channel_bandwidth: float = DIMM_PEAK_BANDWIDTH

    @property
    def peak_bandwidth(self) -> float:
        """Peak bandwidth is per-channel, not per-DIMM (Section 4.2)."""
        return self.channels * self.channel_bandwidth

    @property
    def total_dimms(self) -> int:
        return self.channels * self.dimms_per_channel


DEFAULT_NODE_CONFIG = TensorNodeConfig()
DEFAULT_HOST_CONFIG = HostConfig()
