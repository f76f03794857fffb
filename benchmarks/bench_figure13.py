"""Fig. 13 — latency breakdown of one batch-64 inference, 5 design points."""

from repro.bench import figure13


def bench_figure13_latency_breakdown(once):
    """Regenerate Fig. 13's per-stage latency breakdown."""
    result = once(figure13.run)
    print()
    print(figure13.format_table(result))
