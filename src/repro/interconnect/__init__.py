"""Interconnect substrate: links (PCIe/NVLink), NVSwitch, topologies."""

from ..lazy import lazy_exports

# Lazy: the system model and TensorNode need only a link.
__getattr__, __dir__ = lazy_exports(globals(), {
    "link": ("NVLINK2_GPU", "NVLINK2_LINK", "PCIE3_X16", "Link"),
    "switch": ("Crossbar", "Transfer"),
    "topology": ("Endpoint", "Topology", "dgx_with_tensornode"),
})

__all__ = [
    "Crossbar",
    "Endpoint",
    "Link",
    "NVLINK2_GPU",
    "NVLINK2_LINK",
    "PCIE3_X16",
    "Topology",
    "Transfer",
    "dgx_with_tensornode",
]
