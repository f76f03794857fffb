"""Fig. 15 — TDIMM speedups with scaled-up embeddings (1x .. 8x).

Larger embeddings make the embedding layer an ever-bigger bottleneck for
the CPU-resident baselines while the TensorNode keeps pace, so the paper's
speedups grow from 6.2x/8.9x at the default size to 15.0x/17.6x at 8x
(maximum 35x for individual points).
"""

from dataclasses import dataclass

from ..models.model_zoo import ALL_WORKLOADS
from ..system.design_points import evaluate_grid
from ..system.params import DEFAULT_PARAMS, SystemParams
from .harness import Table, geomean

SCALES = (1, 2, 4, 8)
BATCHES = (8, 64, 128)
BASELINES = ("CPU-only", "CPU-GPU")


@dataclass
class Figure15Result:
    """TDIMM speedups keyed by (baseline, scale, workload, batch)."""

    speedups: dict

    def average(self, baseline: str, scale: int) -> float:
        """The figure's per-scale bar (averaged across workloads/batches)."""
        return geomean(
            v
            for (b, s, _, _), v in self.speedups.items()
            if b == baseline and s == scale
        )

    def max_speedup(self) -> float:
        return max(self.speedups.values())

    def monotonic_in_scale(self, baseline: str) -> bool:
        """Speedup should grow with embedding scale."""
        scales = sorted({k[1] for k in self.speedups})
        averages = [self.average(baseline, s) for s in scales]
        return all(a < b for a, b in zip(averages, averages[1:]))


def run(
    workloads=ALL_WORKLOADS,
    scales=SCALES,
    batches=BATCHES,
    params: SystemParams = DEFAULT_PARAMS,
) -> Figure15Result:
    """Sweep embedding scale and measure TDIMM's speedups."""
    scaled_configs = [
        config.scaled_embedding(scale) for scale in scales for config in workloads
    ]
    grid = evaluate_grid(scaled_configs, batches, ("TDIMM",) + BASELINES, params)
    speedups = {}
    for scale in scales:
        for config in workloads:
            scaled_name = config.scaled_embedding(scale).name
            for batch in batches:
                tdimm = grid[(scaled_name, batch, "TDIMM")]
                for baseline in BASELINES:
                    speedups[(baseline, scale, config.name, batch)] = (
                        tdimm.speedup_over(grid[(scaled_name, batch, baseline)])
                    )
    return Figure15Result(speedups=speedups)


def format_table(result: Figure15Result) -> str:
    scales = sorted({k[1] for k in result.speedups})
    table = Table(
        "Fig. 15 — TDIMM speedup with scaled embeddings (avg across workloads)",
        ["baseline"] + [f"emb x{s}" for s in scales],
    )
    for baseline in BASELINES:
        table.add(baseline, *[result.average(baseline, s) for s in scales])
    return table.render()
