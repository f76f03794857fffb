"""Fig. 16 — sensitivity to the pooled memory's interconnect bandwidth."""

from repro.bench import figure16


def bench_figure16_link_sensitivity(once):
    """Regenerate Fig. 16: PMEM vs TDIMM at 25/50/150 GB/s node links."""
    result = once(figure16.run)
    print()
    print(figure16.format_table(result))
