"""Fig. 15 — TDIMM speedups as embeddings scale from 1x to 8x."""

from repro.bench import figure15


def bench_figure15_scaled_embeddings(once):
    """Regenerate Fig. 15's embedding-scale sweep."""
    result = once(figure15.run)
    print()
    print(figure15.format_table(result))
