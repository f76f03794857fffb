"""Experiment harness: one module per paper figure/table, plus ablations.

Each ``figureNN`` module exposes ``run(...)`` returning a structured result
and ``format_table(result)`` producing the rows the paper reports.  The
``benchmarks/`` tree wraps these in pytest-benchmark; ``examples/`` reuses
them for runnable demos.  ``paper_data`` holds the paper-reported numbers
for side-by-side comparison.
"""

from ..lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    **{
        module: (module,)
        for module in (
            "ablation",
            "figure03",
            "figure04",
            "figure11",
            "figure12",
            "figure13",
            "figure14",
            "figure15",
            "figure16",
            "paper_data",
            "table3",
        )
    },
    "harness": ("Table", "compare_line", "geomean"),
})

__all__ = [
    "Table",
    "ablation",
    "compare_line",
    "figure03",
    "figure04",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
    "figure16",
    "geomean",
    "paper_data",
    "table3",
]
