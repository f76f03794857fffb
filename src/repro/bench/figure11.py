"""Fig. 11 — memory bandwidth utilisation of the three tensor operations.

Trace-driven, cycle-level comparison of:

* **TensorNode** — 32 TensorDIMMs, each NMP core streaming its own rank
  (aggregate peak 819.2 GB/s, Table 1); and
* **CPU** — the same operations over a conventional 8-channel memory system
  (peak 204.8 GB/s) with 32 DIMMs behind the shared channels.

The paper's result: the node reaches 808 GB/s while the CPU saturates near
192 GB/s — a 4x gap that widens with more DIMMs (Fig. 12).
"""

from dataclasses import dataclass

import numpy as np

from ..config import ACCESS_GRANULARITY
from ..core.address_map import EmbeddingLayout
from ..core.isa import average, gather, reduce
from ..core.tensornode import TensorNode
from ..dram.system import DramSystem
from ..dram.trace import average_traffic, gather_traffic, reduce_traffic
from ..parallel import parallel_map
from .harness import Table, geomean

OPS = ("GATHER", "REDUCE", "AVERAGE")
BATCHES = (2, 8, 16, 32, 64, 96, 128)

#: Microbenchmark shape: 512-dim (2 KB) embeddings, Facebook-style 25-way
#: averages, tables tall enough that lookups are row-buffer-unfriendly.
EMBEDDING_DIM = 512
TABLE_ROWS = 8192
AVERAGE_NUM = 25
#: Lookups per batch element (tables x pooling across the Table 2 models).
LOOKUPS_PER_SAMPLE = 8


@dataclass
class Figure11Result:
    """Bandwidth (bytes/s) keyed by (system, op, batch)."""

    values: dict
    node_peak: float
    cpu_peak: float

    def max_bandwidth(self, system: str) -> float:
        return max(v for (s, _, _), v in self.values.items() if s == system)

    def speedup(self) -> float:
        """Average TensorNode/CPU bandwidth ratio across ops and batches."""
        ratios = []
        for (system, op, batch), value in self.values.items():
            if system == "TensorNode":
                ratios.append(value / self.values[("CPU", op, batch)])
        return geomean(ratios)


def _node_bandwidth(node_dimms: int, op: str, batch: int, embedding_dim: int) -> float:
    """One op's aggregate bandwidth on a TensorNode, cycle-simulated."""
    node = TensorNode(num_dimms=node_dimms, capacity_words_per_dimm=1 << 17)
    rng = np.random.default_rng(batch)
    lookups = batch * LOOKUPS_PER_SAMPLE
    table = node.alloc_tensor("table", TABLE_ROWS, embedding_dim)
    if op == "GATHER":
        idx = rng.integers(0, TABLE_ROWS, lookups).astype(np.int32)
        alloc = node.alloc_indices("idx", lookups)
        node.write_indices(alloc, idx)
        out = node.alloc_tensor("out", lookups, embedding_dim)
        instr = gather(
            table.base_word, alloc.base_word, out.base_word, lookups,
            table.words_per_slice,
        )
    elif op == "REDUCE":
        a = node.alloc_tensor("a", lookups, embedding_dim)
        b = node.alloc_tensor("b", lookups, embedding_dim)
        out = node.alloc_tensor("out", lookups, embedding_dim)
        instr = reduce(a.base_word, b.base_word, out.base_word, a.words_per_dimm)
    elif op == "AVERAGE":
        src = node.alloc_tensor("src", lookups * AVERAGE_NUM, embedding_dim)
        out = node.alloc_tensor("out", lookups, embedding_dim)
        instr = average(
            src.base_word, AVERAGE_NUM, out.base_word, out.words_per_dimm,
            words_per_slice=out.words_per_slice,
        )
    else:
        raise ValueError(f"unknown op {op!r}")
    stats = node.broadcast_timed(instr)
    return stats.aggregate_bandwidth


def _cpu_bandwidth(channels: int, op: str, batch: int, embedding_dim: int) -> float:
    """One op's bandwidth on the conventional channel-interleaved system."""
    system = DramSystem(channels=channels)
    rng = np.random.default_rng(batch)
    lookups = batch * LOOKUPS_PER_SAMPLE
    row_words = EmbeddingLayout(1, 1, embedding_dim).chunks
    word = ACCESS_GRANULARITY
    table_words = TABLE_ROWS * row_words
    out_base = table_words * word
    if op == "GATHER":
        idx = rng.integers(0, TABLE_ROWS, lookups)
        traffic = gather_traffic(0, row_words, idx, out_base)
    elif op == "REDUCE":
        words = lookups * row_words
        traffic = reduce_traffic(0, words * word, 2 * words * word, words)
    elif op == "AVERAGE":
        out_words = lookups * row_words
        traffic = average_traffic(0, AVERAGE_NUM, out_words * AVERAGE_NUM * word, out_words)
    else:
        raise ValueError(f"unknown op {op!r}")
    system.enqueue_traffic(traffic)
    return system.run().bandwidth


def _sweep_point(task) -> float:
    """One (system, op, batch) grid point — a process-pool work item.

    Every point builds its own node/system and seeds its RNG from the
    batch, so results are identical no matter which worker runs it.
    """
    system, width, op, batch, embedding_dim = task
    if system == "TensorNode":
        return _node_bandwidth(width, op, batch, embedding_dim)
    return _cpu_bandwidth(width, op, batch, embedding_dim)


def sweep_grid(points, jobs: int | None = None) -> dict:
    """Cycle-simulate ``(system, width, op, batch, dim)`` points, optionally
    fanned out ``jobs``-wide over the process pool (Fig. 11/12 share this)."""
    bandwidths = parallel_map(_sweep_point, points, jobs=jobs, chunksize=1)
    return dict(zip([tuple(p) for p in points], bandwidths))


def run(
    batches=BATCHES,
    ops=OPS,
    node_dimms: int = 32,
    cpu_channels: int = 8,
    embedding_dim: int = EMBEDDING_DIM,
    jobs: int | None = None,
) -> Figure11Result:
    """Sweep batch size for every op on both memory systems.

    ``jobs`` (default: ``$REPRO_JOBS``, else 1) runs the design-point grid
    N-wide; every point is an independent cycle-level simulation.
    """
    points = []
    for op in ops:
        for batch in batches:
            points.append(("TensorNode", node_dimms, op, batch, embedding_dim))
            points.append(("CPU", cpu_channels, op, batch, embedding_dim))
    grid = sweep_grid(points, jobs=jobs)
    values = {
        (system, op, batch): bw
        for (system, _, op, batch, _), bw in grid.items()
    }
    node_peak = node_dimms * 25.6e9
    cpu_peak = cpu_channels * 25.6e9
    return Figure11Result(values=values, node_peak=node_peak, cpu_peak=cpu_peak)


def format_table(result: Figure11Result) -> str:
    batches = sorted({k[2] for k in result.values})
    table = Table(
        "Fig. 11 — bandwidth utilisation (GB/s) vs batch size",
        ["system", "op"] + [str(b) for b in batches],
    )
    for system in ("TensorNode", "CPU"):
        for op in OPS:
            if (system, op, batches[0]) not in result.values:
                continue
            table.add(
                system, op, *[result.values[(system, op, b)] / 1e9 for b in batches]
            )
    return table.render()
