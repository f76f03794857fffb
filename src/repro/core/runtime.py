"""TensorDIMM runtime system (Section 4.4).

DL frameworks compile a model DAG into a stream of kernel launches; under
TensorDIMM, embedding-layer kernels carry TensorISA instructions that the
GPU runtime forwards to the TensorNode.  This module is that runtime:

* it owns the node-side memory allocation for tables and activations,
* it lowers high-level embedding ops into GATHER / AVERAGE / REDUCE
  instruction sequences (N-ary combines become chains of binary REDUCEs),
* it executes them on the node — functionally always, and optionally
  through the cycle-level DRAM model — and records per-launch timing.

The composition rules mirror how the paper's workloads use the ISA
(Fig. 2): multi-hot lookups *within* one table are pooled with AVERAGE
(e.g. YouTube's 50 watched videos), while element-wise feature interaction
*across* tables uses REDUCE (e.g. NCF's user x item product).
"""

from dataclasses import dataclass, field

import numpy as np

from ..config import ELEMS_PER_WORD, NMP_STREAM_EFFICIENCY
from .address_map import EmbeddingLayout
from .isa import Instruction, ReduceOp, average, gather, reduce, update
from .tensornode import NodeExecStats, TensorNode


@dataclass
class KernelLaunch:
    """One embedding-layer kernel: a named batch of TensorISA instructions.

    Mirrors the paper's mechanism of encoding instructions in the CUDA
    kernel context; ``seconds`` is the node-side execution time under the
    runtime's timing mode.
    """

    name: str
    instructions: list[Instruction]
    node_stats: list[NodeExecStats] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def dram_bytes(self) -> int:
        return sum(s.total_bytes for s in self.node_stats)


class TensorDimmRuntime:
    """Host-side runtime driving one TensorNode."""

    def __init__(
        self,
        node: TensorNode,
        timing_mode: str = "analytic",
        stream_efficiency: float = NMP_STREAM_EFFICIENCY,
        jobs: int | None = None,
    ):
        if timing_mode not in ("analytic", "cycle", "off"):
            raise ValueError(f"unknown timing mode {timing_mode!r}")
        self.node = node
        self.timing_mode = timing_mode
        self.stream_efficiency = stream_efficiency
        #: Worker processes for cycle-mode DRAM simulation (default:
        #: ``$REPRO_JOBS``, else sequential) — see :mod:`repro.parallel`.
        self.jobs = jobs
        self.launches: list[KernelLaunch] = []
        self._scratch_counter = 0

    # -- bookkeeping -----------------------------------------------------------

    @property
    def total_seconds(self) -> float:
        """Node-side time across every launch so far."""
        return sum(launch.seconds for launch in self.launches)

    @staticmethod
    def memo_stats() -> dict:
        """Hit/miss counters of the timing memo (cycle mode).

        The runtime's combine chains are the canonical memo consumer: an
        N-ary combine lowers to N-1 REDUCE instructions whose traces depend
        only on shape and bases, so after the first drain every repeat is a
        hit — no trace is built, no bulk array hashed (see
        :mod:`repro.dram.memo`).  Sweeps record these counters alongside
        their results.
        """
        from ..dram import memo

        return memo.TIMING_MEMO.stats()

    def _fresh_name(self, prefix: str) -> str:
        self._scratch_counter += 1
        return f"{prefix}#{self._scratch_counter}"

    @property
    def _effective_dimm_bandwidth(self) -> float:
        return self.node.timing.peak_bandwidth * self.stream_efficiency

    def _run(self, name: str, instructions: list[Instruction]) -> KernelLaunch:
        launch = KernelLaunch(name=name, instructions=instructions)
        if self.timing_mode == "cycle":
            for stats in self.node.broadcast_timed_batch(instructions, jobs=self.jobs):
                launch.node_stats.append(stats)
                launch.seconds += stats.seconds
            self.launches.append(launch)
            return launch
        for instr in instructions:
            stats = self.node.broadcast(instr)
            if self.timing_mode == "analytic":
                per_dimm = max(s.pipelined_seconds(self._effective_dimm_bandwidth)
                               for s in stats.per_dimm)
                stats.seconds = per_dimm
            launch.node_stats.append(stats)
            launch.seconds += stats.seconds
        self.launches.append(launch)
        return launch

    # -- model state ------------------------------------------------------------

    def create_table(self, name: str, weights: np.ndarray) -> EmbeddingLayout:
        """Allocate an embedding lookup table in the pool and upload it."""
        weights = np.asarray(weights, dtype=np.float32)
        if weights.ndim != 2:
            raise ValueError("embedding tables are 2-D (rows x dim)")
        layout = self.node.alloc_tensor(name, weights.shape[0], weights.shape[1])
        self.node.write_tensor(layout, weights)
        return layout

    # -- lowered tensor ops --------------------------------------------------------

    def gather(
        self, table: EmbeddingLayout, indices: np.ndarray, name: str | None = None
    ) -> tuple[EmbeddingLayout, KernelLaunch]:
        """Embedding lookup: one GATHER broadcast (Fig. 9a)."""
        indices = np.asarray(indices, dtype=np.int32).reshape(-1)
        if indices.size == 0:
            raise ValueError("gather needs at least one index")
        if indices.min() < 0 or indices.max() >= table.rows:
            raise IndexError("lookup index outside the table")
        name = name or self._fresh_name("gather")
        index_alloc = self.node.alloc_indices(f"{name}.idx", indices.size)
        self.node.write_indices(index_alloc, indices)
        out = self.node.alloc_tensor(name, indices.size, table.embedding_dim)
        instr = gather(
            table_base=table.base_word,
            index_base=index_alloc.base_word,
            output_base=out.base_word,
            num_lookups=indices.size,
            words_per_slice=table.words_per_slice,
        )
        return out, self._run(name, [instr])

    def pool_mean(
        self, gathered: EmbeddingLayout, group: int, name: str | None = None
    ) -> tuple[EmbeddingLayout, KernelLaunch]:
        """Within-table multi-hot pooling: one AVERAGE broadcast (Fig. 9c)."""
        if group < 1:
            raise ValueError("group size must be positive")
        if gathered.rows % group:
            raise ValueError(
                f"{gathered.rows} gathered rows do not split into groups of {group}"
            )
        name = name or self._fresh_name("pool")
        out_rows = gathered.rows // group
        out = self.node.alloc_tensor(name, out_rows, gathered.embedding_dim)
        instr = average(
            input_base=gathered.base_word,
            average_num=group,
            output_base=out.base_word,
            words_per_dimm=out_rows * gathered.words_per_slice,
            words_per_slice=gathered.words_per_slice,
        )
        return out, self._run(name, [instr])

    def combine(
        self,
        tensors: list[EmbeddingLayout],
        op: ReduceOp = ReduceOp.SUM,
        name: str | None = None,
    ) -> tuple[EmbeddingLayout, KernelLaunch]:
        """Cross-table element-wise combine: a chain of binary REDUCEs.

        ``((t0 op t1) op t2) op ...`` — N-ary reduction lowers to N-1
        REDUCE instructions, exactly how the runtime of Section 4.4 issues
        them (the ISA's REDUCE is binary, Fig. 8).  In cycle mode a
        re-issued chain (same shapes and bases — the steady state of a
        serving loop) is served symbolically by the timing memo: no link
        materializes or hashes a trace.
        """
        if len(tensors) < 2:
            raise ValueError("combine needs at least two tensors")
        first = tensors[0]
        for t in tensors[1:]:
            if (t.rows, t.embedding_dim) != (first.rows, first.embedding_dim):
                raise ValueError("combine requires equally-shaped tensors")
        name = name or self._fresh_name("combine")
        words = first.words_per_dimm
        instructions = []
        acc = self.node.alloc_tensor(name, first.rows, first.embedding_dim)
        instructions.append(
            reduce(first.base_word, tensors[1].base_word, acc.base_word, words, op)
        )
        for extra in tensors[2:]:
            instructions.append(
                reduce(acc.base_word, extra.base_word, acc.base_word, words, op)
            )
        return acc, self._run(name, instructions)

    # -- training extension -----------------------------------------------------------

    def embedding_backward(
        self,
        table: EmbeddingLayout,
        indices: np.ndarray,
        grad: np.ndarray,
        learning_rate: float = 1.0,
        name: str | None = None,
    ) -> KernelLaunch:
        """SGD step on an embedding table, executed near-memory (UPDATE).

        ``indices`` are the forward lookups: shape (batch,) for one-hot or
        (batch, fanin) for mean-pooled multi-hot; ``grad`` is the gradient
        of the pooled output, shape (batch, dim).  Mean pooling distributes
        ``grad / fanin`` to every member of the group (the standard
        embedding-bag backward).  Gradients are pre-scaled by the learning
        rate on the host so the UPDATE instruction carries no immediate.
        """
        indices = np.asarray(indices, dtype=np.int32)
        grad = np.asarray(grad, dtype=np.float32)
        if indices.ndim == 1:
            expanded, scale = indices, 1.0
            per_lookup = np.repeat(grad[:, None, :], 1, axis=1).reshape(-1, grad.shape[-1])
        elif indices.ndim == 2:
            fanin = indices.shape[1]
            expanded = indices.reshape(-1)
            per_lookup = np.repeat(grad[:, None, :], fanin, axis=1).reshape(
                -1, grad.shape[-1]
            ) / fanin
        else:
            raise ValueError("indices must be (batch,) or (batch, fanin)")
        if per_lookup.shape != (expanded.size, table.embedding_dim):
            raise ValueError(
                f"gradient shape {grad.shape} does not match "
                f"{indices.shape} lookups into a dim-{table.embedding_dim} table"
            )
        if expanded.min() < 0 or expanded.max() >= table.rows:
            raise IndexError("lookup index outside the table")
        name = name or self._fresh_name("update")
        scaled = (-learning_rate * per_lookup).astype(np.float32)
        grad_tensor = self.node.alloc_tensor(name, expanded.size, table.embedding_dim)
        self.node.write_tensor(grad_tensor, scaled)
        index_alloc = self.node.alloc_indices(f"{name}.idx", expanded.size)
        self.node.write_indices(index_alloc, expanded)
        instr = update(
            grad_base=grad_tensor.base_word,
            index_base=index_alloc.base_word,
            table_base=table.base_word,
            num_updates=expanded.size,
            words_per_slice=table.words_per_slice,
            op=ReduceOp.SUM,  # gradients arrive pre-negated
        )
        return self._run(name, [instr])

    # -- high-level embedding layer ---------------------------------------------------

    def embedding_forward(
        self,
        table: EmbeddingLayout,
        indices: np.ndarray,
        name: str | None = None,
    ) -> tuple[EmbeddingLayout, list[KernelLaunch]]:
        """Full embedding-layer forward for one table.

        ``indices`` has shape (batch,) for one-hot lookups or
        (batch, fanin) for multi-hot; multi-hot lookups are mean-pooled
        (GATHER then AVERAGE), returning a (batch, dim) tensor.
        """
        indices = np.asarray(indices, dtype=np.int32)
        name = name or self._fresh_name("embedding")
        launches = []
        if indices.ndim == 1:
            out, launch = self.gather(table, indices, name=f"{name}.gather")
            return out, [launch]
        if indices.ndim != 2:
            raise ValueError("indices must be (batch,) or (batch, fanin)")
        batch, fanin = indices.shape
        gathered, g_launch = self.gather(table, indices.reshape(-1), name=f"{name}.gather")
        launches.append(g_launch)
        if fanin == 1:
            return gathered, launches
        pooled, p_launch = self.pool_mean(gathered, fanin, name=f"{name}.pool")
        launches.append(p_launch)
        return pooled, launches
