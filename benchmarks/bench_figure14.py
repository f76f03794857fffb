"""Fig. 14 — all five design points, normalised to the GPU oracle."""

from repro.bench import figure14


def bench_figure14_design_point_comparison(once):
    """Regenerate Fig. 14 across workloads x batch sizes."""
    result = once(figure14.run)
    print()
    print(figure14.format_table(result))
