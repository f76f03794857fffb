"""Registry of the five evaluated design points (Section 6)."""

from ..models.recsys import RecSysConfig
from . import cpu_gpu, cpu_only, gpu_only, pmem, tdimm
from .params import DEFAULT_PARAMS, SystemParams
from .result import LatencyBreakdown

#: Evaluation order follows the paper's figures.
DESIGN_POINTS = {
    "CPU-only": cpu_only.evaluate,
    "CPU-GPU": cpu_gpu.evaluate,
    "PMEM": pmem.evaluate,
    "TDIMM": tdimm.evaluate,
    "GPU-only": gpu_only.evaluate,
}

DESIGN_NAMES = tuple(DESIGN_POINTS)


def evaluate(
    design: str,
    config: RecSysConfig,
    batch: int,
    params: SystemParams = DEFAULT_PARAMS,
) -> LatencyBreakdown:
    """Evaluate one design point on one workload/batch."""
    try:
        fn = DESIGN_POINTS[design]
    except KeyError:
        known = ", ".join(DESIGN_NAMES)
        raise KeyError(f"unknown design point {design!r}; known: {known}") from None
    return fn(config, batch, params)


def evaluate_all(
    config: RecSysConfig,
    batch: int,
    params: SystemParams = DEFAULT_PARAMS,
) -> dict[str, LatencyBreakdown]:
    """Evaluate every design point on one workload/batch."""
    return {name: fn(config, batch, params) for name, fn in DESIGN_POINTS.items()}


def evaluate_grid(
    configs,
    batches,
    designs=DESIGN_NAMES,
    params: SystemParams = DEFAULT_PARAMS,
) -> dict[tuple, LatencyBreakdown]:
    """Evaluate a whole (workload x batch x design) grid.

    Returns results keyed ``(config.name, batch, design)``; the figure
    harnesses (Fig. 14/15) are shaped like this.
    """
    return {
        (config.name, batch, design): evaluate(design, config, batch, params)
        for config in configs
        for batch in batches
        for design in designs
    }


def normalized_performance(
    config: RecSysConfig,
    batch: int,
    params: SystemParams = DEFAULT_PARAMS,
    reference: str = "GPU-only",
) -> dict[str, float]:
    """Performance of every design normalised to ``reference`` (Fig. 4/14)."""
    results = evaluate_all(config, batch, params)
    ref = results[reference]
    return {name: r.normalized_to(ref) for name, r in results.items()}
