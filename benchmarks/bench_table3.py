"""Table 3 + Section 6.5 — NMP-core FPGA area and TensorNode power."""

from repro.bench import table3


def bench_table3_area_and_power(once):
    """Regenerate Table 3 and the Section 6.5 power estimate."""
    result = once(table3.run)
    print()
    print(table3.format_table(result))
