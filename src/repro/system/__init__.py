"""End-to-end system models: the five design points of Section 6."""

from ..lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "design_points": (
        "DESIGN_NAMES",
        "DESIGN_POINTS",
        "evaluate",
        "evaluate_all",
        "normalized_performance",
    ),
    "params": ("DEFAULT_PARAMS", "SystemParams"),
    "result": ("LatencyBreakdown",),
})

__all__ = [
    "DEFAULT_PARAMS",
    "DESIGN_NAMES",
    "DESIGN_POINTS",
    "LatencyBreakdown",
    "SystemParams",
    "evaluate",
    "evaluate_all",
    "normalized_performance",
]
