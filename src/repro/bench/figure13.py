"""Fig. 13 — latency breakdown of one batch-64 inference.

For every workload and all five design points: how the latency splits into
embedding lookup, cudaMemcpy, computation, and everything else — normalised
to the slowest design per workload, as in the paper's stacked bars.
"""

from dataclasses import dataclass

from ..models.model_zoo import ALL_WORKLOADS
from ..system.design_points import DESIGN_NAMES, evaluate_all
from ..system.params import DEFAULT_PARAMS, SystemParams
from ..system.result import LatencyBreakdown
from .harness import Table

BATCH = 64


@dataclass
class Figure13Result:
    """Breakdowns keyed by (workload, design)."""

    breakdowns: dict

    def slowest(self, workload: str) -> LatencyBreakdown:
        return max(
            (b for (w, _), b in self.breakdowns.items() if w == workload),
            key=lambda b: b.total,
        )

    def normalized_stack(self, workload: str, design: str) -> dict:
        """Stage latencies normalised to the workload's slowest design."""
        reference = self.slowest(workload).total
        b = self.breakdowns[(workload, design)]
        return {
            "lookup": b.lookup / reference,
            "memcpy": b.transfer / reference,
            "computation": b.computation / reference,
            "else": b.other / reference,
            "total": b.total / reference,
        }

    def tdimm_cuts_lookup_and_copy(self, workload: str) -> bool:
        """Section 6.2's claim: TDIMM shrinks both lookup and copy stages."""
        tdimm = self.breakdowns[(workload, "TDIMM")]
        cpu_gpu = self.breakdowns[(workload, "CPU-GPU")]
        return (
            tdimm.lookup < cpu_gpu.lookup and tdimm.transfer < cpu_gpu.transfer
        )


def run(
    workloads=ALL_WORKLOADS,
    batch: int = BATCH,
    params: SystemParams = DEFAULT_PARAMS,
) -> Figure13Result:
    """Evaluate all five design points at batch 64."""
    breakdowns = {}
    for config in workloads:
        for design, result in evaluate_all(config, batch, params).items():
            breakdowns[(config.name, design)] = result
    return Figure13Result(breakdowns=breakdowns)


def format_table(result: Figure13Result) -> str:
    table = Table(
        f"Fig. 13 — latency breakdown at batch {BATCH} (normalised to slowest)",
        ["workload", "design", "lookup", "memcpy", "computation", "else", "total"],
    )
    workloads = sorted({w for w, _ in result.breakdowns})
    for workload in workloads:
        for design in DESIGN_NAMES:
            stack = result.normalized_stack(workload, design)
            table.add(
                workload,
                design,
                stack["lookup"],
                stack["memcpy"],
                stack["computation"],
                stack["else"],
                stack["total"],
            )
    return table.render()
