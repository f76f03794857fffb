"""Fig. 11 — bandwidth utilisation of GATHER/REDUCE/AVERAGE, cycle-level.

TensorNode (32 TensorDIMMs) vs. a conventional 8-channel CPU memory system.
Trimmed batch sweep; the full grid lives in examples/bandwidth_scaling.py.
"""

from repro.bench import figure11
from repro.bench.paper_data import FIG11_CPU_MAX_GBPS, FIG11_SPEEDUP


def bench_figure11_bandwidth_utilization(once):
    """Regenerate Fig. 11 on a reduced batch sweep."""
    result = once(figure11.run, batches=(8, 32, 96))
    print()
    print(figure11.format_table(result))

    # Shape 1: the TensorNode's aggregate bandwidth dwarfs the CPU's.
    # Paper: 4x on average (808 vs 192 GB/s at the top end).
    assert result.speedup() > 2.5

    # Shape 2: the CPU side saturates near its 204.8 GB/s channel limit
    # and never exceeds it; paper measures 192 GB/s max.
    assert result.max_bandwidth("CPU") <= result.cpu_peak
    assert result.max_bandwidth("CPU") > 0.5 * FIG11_CPU_MAX_GBPS * 1e9

    # Shape 3: the node approaches its aggregate peak on streaming ops.
    assert result.max_bandwidth("TensorNode") > 0.7 * result.node_peak

    # Shape 4: node bandwidth grows with batch size (the figure's x-axis
    # trend); the CPU saturates almost immediately at its channel limit.
    assert (
        result.values[("TensorNode", "GATHER", 96)]
        >= result.values[("TensorNode", "GATHER", 8)]
    )
    assert result.values[("CPU", "GATHER", 96)] > 0.5 * result.cpu_peak

    # Reproduction note (NmpCore.accumulate_mean): a faithful 150 MHz pair-per-cycle
    # ALU leaves AVERAGE partly compute-bound, unlike the paper's GPU-based
    # emulation — it still beats the CPU by a wide margin.
    assert (
        result.values[("TensorNode", "AVERAGE", 96)]
        > 2.0 * result.values[("CPU", "AVERAGE", 96)]
    )
