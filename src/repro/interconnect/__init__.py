"""Interconnect substrate: point-to-point links (PCIe, NVLink)."""

from .link import NVLINK2_GPU, NVLINK2_LINK, PCIE3_X16, Link

__all__ = ["Link", "NVLINK2_GPU", "NVLINK2_LINK", "PCIE3_X16"]
