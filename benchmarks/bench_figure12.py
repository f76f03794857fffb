"""Fig. 12 — throughput vs. DIMM count: TensorNode scales, the CPU doesn't."""

from repro.bench import figure12


def bench_figure12_dimm_scaling(once):
    """Regenerate Fig. 12 (32/64/128 DIMMs, embeddings scaled 1x/2x/4x)."""
    result = once(figure12.run, ops=("GATHER", "REDUCE"), batch=48)
    print()
    print(figure12.format_table(result))
