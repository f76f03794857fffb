"""Fig. 4 — baseline CPU-only / CPU-GPU performance vs. the GPU oracle.

Normalised performance (higher is better, GPU-only == 1.0) for batch sizes
1/8/64/128 on the four Table 2 workloads plus their average.  The paper's
headline from this figure: the baselines suffer an average 7.3-20.9x
slowdown, and CPU-only beats CPU-GPU only at small batch.
"""

from dataclasses import dataclass

from ..models.model_zoo import ALL_WORKLOADS
from ..system.design_points import normalized_performance
from ..system.params import DEFAULT_PARAMS, SystemParams
from .harness import Table, geomean

BATCHES = (1, 8, 64, 128)
DESIGNS = ("CPU-only", "CPU-GPU")


@dataclass
class Figure4Result:
    """Normalised performance keyed by (workload, batch, design)."""

    values: dict

    def average(self, design: str, batch: int) -> float:
        """Geomean across workloads (the figure's "Average" group)."""
        names = sorted({k[0] for k in self.values})
        return geomean(self.values[(name, batch, design)] for name in names)

    def slowdown_range(self) -> tuple[float, float]:
        """Min/max slowdown of the baselines vs. GPU-only."""
        slowdowns = [1.0 / v for v in self.values.values()]
        return min(slowdowns), max(slowdowns)

    def cpu_only_wins_at_small_batch(self) -> bool:
        """Fig. 4's qualitative claim about low-batch inference."""
        return self.average("CPU-only", 1) > self.average("CPU-GPU", 1)


def run(
    workloads=ALL_WORKLOADS,
    batches=BATCHES,
    params: SystemParams = DEFAULT_PARAMS,
) -> Figure4Result:
    """Evaluate the two baselines against GPU-only."""
    values = {}
    for config in workloads:
        for batch in batches:
            norm = normalized_performance(config, batch, params)
            for design in DESIGNS:
                values[(config.name, batch, design)] = norm[design]
    return Figure4Result(values=values)


def format_table(result: Figure4Result) -> str:
    batches = sorted({k[1] for k in result.values})
    names = sorted({k[0] for k in result.values})
    table = Table(
        "Fig. 4 — performance normalised to GPU-only",
        ["workload", "design"] + [f"B({b})" for b in batches],
    )
    for name in names:
        for design in DESIGNS:
            table.add(name, design, *[result.values[(name, b, design)] for b in batches])
    for design in DESIGNS:
        table.add("Average", design, *[result.average(design, b) for b in batches])
    return table.render()
