"""Fig. 16 — sensitivity to the pooled-memory interconnect bandwidth.

What if the memory pool hangs off a slow (PCIe-class) link instead of
NVLink?  PMEM ships every raw embedding across the link, so it collapses
(up to 68% performance loss in the paper); TDIMM ships only reduced
tensors, losing at most 15% (average 10%) even at 6x less bandwidth —
the robustness argument of Section 6.4.
"""

from dataclasses import dataclass

from ..interconnect.link import NVLINK2_GPU
from ..models.model_zoo import ALL_WORKLOADS
from ..system.design_points import evaluate_all
from ..system.params import DEFAULT_PARAMS, SystemParams
from .harness import Table, geomean

BANDWIDTHS = (25e9, 50e9, 150e9)
SCALES = (1, 2, 4, 8)
DESIGNS = ("PMEM", "TDIMM")
BATCH = 64


@dataclass
class Figure16Result:
    """Performance relative to the 150 GB/s point, keyed by
    (design, bandwidth, scale, workload)."""

    values: dict

    def average(self, design: str, bandwidth: float) -> float:
        return geomean(
            v
            for (d, b, _, _), v in self.values.items()
            if d == design and b == bandwidth
        )

    def max_loss(self, design: str) -> float:
        """Worst-case fractional performance loss at the slowest link."""
        slowest = min(b for (_, b, _, _) in self.values)
        losses = [
            1.0 - v
            for (d, b, _, _), v in self.values.items()
            if d == design and b == slowest
        ]
        return max(losses)

    def average_loss(self, design: str) -> float:
        slowest = min(b for (_, b, _, _) in self.values)
        return 1.0 - self.average(design, slowest)


def run(
    workloads=ALL_WORKLOADS,
    bandwidths=BANDWIDTHS,
    scales=SCALES,
    batch: int = BATCH,
    params: SystemParams = DEFAULT_PARAMS,
) -> Figure16Result:
    """Sweep the node<->GPU link bandwidth for PMEM and TDIMM."""
    reference_bw = max(bandwidths)
    values = {}
    for config in workloads:
        for scale in scales:
            scaled = config.scaled_embedding(scale)
            reference = {
                d: evaluate_all(
                    scaled,
                    batch,
                    params.with_node_link(NVLINK2_GPU.scaled(reference_bw)),
                )[d].total
                for d in DESIGNS
            }
            for bandwidth in bandwidths:
                link_params = params.with_node_link(NVLINK2_GPU.scaled(bandwidth))
                results = evaluate_all(scaled, batch, link_params)
                for design in DESIGNS:
                    values[(design, bandwidth, scale, config.name)] = (
                        reference[design] / results[design].total
                    )
    return Figure16Result(values=values)


def format_table(result: Figure16Result) -> str:
    bandwidths = sorted({k[1] for k in result.values})
    table = Table(
        "Fig. 16 — performance vs node link bandwidth (normalised to 150 GB/s)",
        ["design"] + [f"{b / 1e9:.0f} GB/s" for b in bandwidths],
    )
    for design in DESIGNS:
        table.add(design, *[result.average(design, b) for b in bandwidths])
    return table.render()
