"""Fig. 11 — bandwidth utilisation of GATHER/REDUCE/AVERAGE, cycle-level.

TensorNode (32 TensorDIMMs) vs. a conventional 8-channel CPU memory system.
Trimmed batch sweep; the full grid lives in examples/bandwidth_scaling.py.
"""

from repro.bench import figure11


def bench_figure11_bandwidth_utilization(once):
    """Regenerate Fig. 11 on a reduced batch sweep."""
    result = once(figure11.run, batches=(8, 32, 96))
    print()
    print(figure11.format_table(result))
