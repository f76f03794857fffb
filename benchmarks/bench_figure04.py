"""Fig. 4 — baseline (CPU-only / CPU-GPU) performance vs. the GPU oracle."""

from repro.bench import figure04


def bench_figure04_baseline_slowdowns(once):
    """Regenerate Fig. 4 across all workloads and batch sizes."""
    result = once(figure04.run)
    print()
    print(figure04.format_table(result))
