#!/usr/bin/env python3
"""Cycle-level bandwidth studies: Fig. 11 and Fig. 12.

Runs the DDR4 simulator underneath both memory systems:

* the TensorNode, where each TensorDIMM's NMP core streams its private
  rank (bandwidth scales with DIMM count), and
* the conventional CPU memory system, where all DIMMs time-multiplex
  8 channels (bandwidth is capped regardless of DIMM count).

This is the slow, high-fidelity path (about half a minute of simulation
on a 2-CPU host); pass ``--quick`` for a trimmed sweep.

Run:  python examples/bandwidth_scaling.py [--quick]
"""

import argparse

from repro.bench import figure11, figure12
from repro.bench.paper_data import (
    FIG11_CPU_MAX_GBPS,
    FIG11_TENSORNODE_MAX_GBPS,
    FIG12_NODE_MAX_GBPS,
)


def batch_sweep(quick: bool) -> None:
    """Fig. 11: bandwidth vs. batch size for the three tensor ops."""
    batches = (8, 32, 96) if quick else figure11.BATCHES
    result = figure11.run(batches=batches)
    print(figure11.format_table(result))
    node_max = result.max_bandwidth("TensorNode") / 1e9
    cpu_max = result.max_bandwidth("CPU") / 1e9
    print(f"\nmax bandwidth: TensorNode {node_max:.0f} GB/s "
          f"(paper {FIG11_TENSORNODE_MAX_GBPS:.0f}), "
          f"CPU {cpu_max:.0f} GB/s (paper {FIG11_CPU_MAX_GBPS:.0f})")
    print(f"average TensorNode/CPU ratio: {result.speedup():.1f}x (paper: ~4x)\n")


def dimm_sweep(quick: bool) -> None:
    """Fig. 12: bandwidth vs. DIMM count with scaled embeddings."""
    ops = ("GATHER", "REDUCE") if quick else figure12.OPS
    result = figure12.run(ops=ops, batch=48 if quick else 64)
    print(figure12.format_table(result))
    print(f"\nTensorNode max: {result.node_max() / 1e9:.0f} GB/s at 128 DIMMs "
          f"(paper: {FIG12_NODE_MAX_GBPS:.0f} GB/s = 3.1 TB/s)")
    print(f"CPU max:        {result.cpu_max() / 1e9:.0f} GB/s — flat, because "
          f"extra DIMMs sit behind the same 8 channels")
    for op in ops:
        print(f"{op}: node scales {result.node_scaling(op):.1f}x from 32 to "
              f"128 DIMMs; CPU scales {result.cpu_scaling(op):.2f}x")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="trimmed sweeps")
    args = parser.parse_args()
    batch_sweep(args.quick)
    dimm_sweep(args.quick)


if __name__ == "__main__":
    main()
