"""Fig. 14 — performance of all five design points, normalised to GPU-only.

The paper's headline: TDIMM achieves an average 84% (never below 75%) of
the unbuildable oracle, translating to 6.2x / 8.9x average speedups over
CPU-only / CPU-GPU.
"""

from dataclasses import dataclass

from ..models.model_zoo import ALL_WORKLOADS
from ..system.design_points import DESIGN_NAMES, evaluate_grid
from ..system.params import DEFAULT_PARAMS, SystemParams
from .harness import Table, geomean

BATCHES = (8, 64, 128)


@dataclass
class Figure14Result:
    """Normalised performance keyed by (workload, batch, design), plus raw
    breakdowns keyed the same way (for speedup computations)."""

    values: dict
    totals: dict

    def geomean_design(self, design: str) -> float:
        """The figure's rightmost "geometric mean" group."""
        return geomean(
            v for (_, _, d), v in self.values.items() if d == design
        )

    def tdimm_min(self) -> float:
        return min(v for (_, _, d), v in self.values.items() if d == "TDIMM")

    def speedup(self, over: str) -> float:
        """Geomean TDIMM speedup over another design point."""
        ratios = []
        for (workload, batch, design), total in self.totals.items():
            if design == "TDIMM":
                ratios.append(self.totals[(workload, batch, over)] / total)
        return geomean(ratios)


def run(
    workloads=ALL_WORKLOADS,
    batches=BATCHES,
    params: SystemParams = DEFAULT_PARAMS,
    jobs: int | None = None,
) -> Figure14Result:
    """Evaluate every design point across workloads and batch sizes.

    The grid runs in-process.  ``jobs`` accepts only ``None`` or ``1``
    (callers that still pass ``jobs=1``); any other value raises
    :class:`ValueError`.
    """
    if not (jobs is None or (type(jobs) is int and jobs == 1)):
        raise ValueError(f"jobs must be None or 1 (the grid runs in-process), got {jobs!r}")
    grid = evaluate_grid(workloads, batches, DESIGN_NAMES, params)
    values = {}
    totals = {}
    for config in workloads:
        for batch in batches:
            reference = grid[(config.name, batch, "GPU-only")]
            for design in DESIGN_NAMES:
                result = grid[(config.name, batch, design)]
                values[(config.name, batch, design)] = result.normalized_to(reference)
                totals[(config.name, batch, design)] = result.total
    return Figure14Result(values=values, totals=totals)


def format_table(result: Figure14Result) -> str:
    table = Table(
        "Fig. 14 — performance normalised to GPU-only",
        ["workload", "batch"] + list(DESIGN_NAMES),
    )
    keys = sorted({(w, b) for (w, b, _) in result.values})
    for workload, batch in keys:
        table.add(
            workload,
            batch,
            *[result.values[(workload, batch, d)] for d in DESIGN_NAMES],
        )
    table.add("geomean", "-", *[result.geomean_design(d) for d in DESIGN_NAMES])
    return table.render()
