"""Fig. 3 — NCF model-size growth across MLP and embedding dimensions."""

from repro.bench import figure03


def bench_figure03_model_size_grid(once):
    """Regenerate the full Fig. 3 grid."""
    result = once(figure03.run)
    print()
    print(figure03.format_table(result))
