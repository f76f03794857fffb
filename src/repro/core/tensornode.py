"""TensorNode: a disaggregated pool of TensorDIMMs (Section 4.3, Fig. 6c).

The node sits on the GPU-side interconnect as an NVLink endpoint.  GPUs
send TensorISA instructions (piggybacked on kernel launches, Section 4.4);
the node broadcasts each instruction to every TensorDIMM, whose NMP core
executes its own slice of the tensor operation against its private DRAM.

Because each NMP core streams only its local rank, the aggregate bandwidth
delivered to a tensor operation is ``num_dimms x per-DIMM bandwidth`` —
the memory-bandwidth scaling property measured in Fig. 11/12.

Functionally the node keeps its DIMMs' contents in one
``(capacity_words_per_dimm, num_dimms, 16)`` word array.  Under the
rank-interleaved mapping (node word ``w`` on DIMM ``w % D`` at local word
``w // D``) that array is node-linear memory, so tensor I/O is one slice
of it and each broadcast instruction runs once over all DIMMs
(:func:`~repro.core.nmp_core.execute_broadcast`).  Each DIMM's storage is
the strided column ``[:, i, :]``, so the per-DIMM API keeps working.

Timed broadcasts have one path, :meth:`TensorNode.broadcast_timed_batch`
(:meth:`~TensorNode.broadcast_timed` is its one-instruction case): each
simulated DIMM's traffic is described symbolically and drained through a
:class:`repro.parallel.DrainBatch`, in-process or on the process pool.
"""

from dataclasses import dataclass, field

import numpy as np

from ..config import ACCESS_GRANULARITY, ELEMS_PER_WORD
from ..dram.mapping import DramOrganization
from ..dram.storage import WordStorage, pack_indices
from ..dram.timing import DDR4_3200, DramTiming
from ..interconnect.link import NVLINK2_GPU, Link
from .address_map import EmbeddingLayout
from .allocator import Allocation, NodeAllocator
from .isa import Instruction
from .nmp_core import NmpExecStats, check_range, execute_broadcast
from .tensordimm import TensorDimm


@dataclass
class NodeExecStats:
    """Aggregate result of one broadcast instruction across the node.

    ``dram_per_dimm`` holds the cycle-level
    :class:`~repro.dram.controller.ControllerStats` of every DIMM that was
    actually simulated (empty for functional-only broadcasts).  It is the
    merge target of the parallel engine, and what the determinism tests
    compare bit-for-bit across worker counts.
    """

    per_dimm: list
    seconds: float = 0.0
    dram_per_dimm: list = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return sum(s.dram_bytes for s in self.per_dimm)

    @property
    def aggregate_bandwidth(self) -> float:
        """Achieved node-wide DRAM bandwidth (only valid for timed runs)."""
        if self.seconds <= 0:
            return 0.0
        return self.total_bytes / self.seconds


class TensorNode:
    """A pool of TensorDIMMs behind one interconnect endpoint."""

    def __init__(
        self,
        num_dimms: int = 32,
        capacity_words_per_dimm: int = 1 << 16,
        timing: DramTiming = DDR4_3200,
        link: Link = NVLINK2_GPU,
        organization: DramOrganization | None = None,
    ):
        if num_dimms < 1:
            raise ValueError("a TensorNode needs at least one TensorDIMM")
        if capacity_words_per_dimm <= 0:
            raise ValueError("capacity must be positive")
        self.num_dimms = num_dimms
        self.timing = timing
        self.link = link
        self._words = np.zeros(
            (capacity_words_per_dimm, num_dimms, ELEMS_PER_WORD), dtype=np.float32
        )
        self.dimms = [
            TensorDimm.on_storage(
                WordStorage.over(self._words[:, i, :]),
                dimm_id=i,
                node_dim=num_dimms,
                timing=timing,
                organization=organization,
            )
            for i in range(num_dimms)
        ]
        self._cores = [dimm.nmp for dimm in self.dimms]
        self.allocator = NodeAllocator(num_dimms, capacity_words_per_dimm)
        self.instructions_executed = 0

    # -- capacity / bandwidth ----------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return sum(d.storage.capacity_bytes for d in self.dimms)

    @property
    def peak_bandwidth(self) -> float:
        """Aggregate peak DRAM bandwidth (Table 1: 819.2 GB/s at 32 DIMMs)."""
        return self.num_dimms * self.timing.peak_bandwidth

    # -- tensor I/O (functional) ----------------------------------------------------

    def alloc_tensor(self, name: str, rows: int, embedding_dim: int) -> EmbeddingLayout:
        """Allocate an interleaved tensor in the pool."""
        return self.allocator.alloc_tensor(name, rows, embedding_dim)

    def write_tensor(self, layout: EmbeddingLayout, values: np.ndarray) -> None:
        """Store a (rows, dim) array at its node-linear words; pad words are zeroed."""
        region = self._tensor_words(layout)
        values = np.asarray(values, dtype=np.float32)
        if values.shape != (layout.rows, layout.embedding_dim):
            raise ValueError(
                f"expected shape {(layout.rows, layout.embedding_dim)}, got {values.shape}"
            )
        region[:, : layout.embedding_dim] = values
        region[:, layout.embedding_dim :] = 0.0
        self._written()

    def read_tensor(self, layout: EmbeddingLayout) -> np.ndarray:
        """Read a (rows, dim) array back from its node-linear words."""
        return self._tensor_words(layout)[:, : layout.embedding_dim].copy()

    def alloc_indices(self, name: str, count: int) -> Allocation:
        """Allocate a replicated index buffer for ``count`` int32 indices."""
        local_words = -(-count // ELEMS_PER_WORD)
        return self.allocator.alloc_replicated(name, local_words)

    def write_indices(self, allocation: Allocation, indices: np.ndarray) -> None:
        """Broadcast an index buffer to every DIMM's local copy."""
        if not allocation.replicated:
            raise ValueError("index buffers must use replicated allocations")
        packed = pack_indices(indices)
        base = allocation.base_word
        check_range(self._words, base, len(packed))
        self._words[base : base + len(packed)] = packed[:, None, :]
        self._written()

    def _tensor_words(self, layout: EmbeddingLayout) -> np.ndarray:
        """The (rows, padded dim) node-linear view of a tensor's words."""
        self._check_layout(layout)
        flat = self._words.reshape(-1, ELEMS_PER_WORD)
        check_range(flat, layout.base_word, layout.total_words)
        return flat[layout.base_word : layout.base_word + layout.total_words].reshape(
            layout.rows, -1
        )

    def _written(self) -> None:
        """Record a node-wide write: every DIMM's storage changed."""
        for dimm in self.dimms:
            dimm.storage.version += 1

    def _check_layout(self, layout: EmbeddingLayout) -> None:
        if layout.node_dim != self.num_dimms:
            raise ValueError(
                f"layout built for node_dim {layout.node_dim}, node has "
                f"{self.num_dimms} DIMMs"
            )

    # -- instruction execution ---------------------------------------------------

    def broadcast(self, instr: Instruction) -> NodeExecStats:
        """Execute one instruction functionally on every DIMM."""
        self.instructions_executed += 1
        return NodeExecStats(per_dimm=self._execute(instr))

    def _execute(self, instr: Instruction) -> list[NmpExecStats]:
        """Run ``instr`` once over every DIMM's words (one call, not D)."""
        return execute_broadcast(self._cores, self._words, instr)

    def broadcast_timed(
        self,
        instr: Instruction,
        refresh_enabled: bool = True,
        simulate_dimms: int | None = 1,
        jobs: int | None = None,
    ) -> NodeExecStats:
        """Execute one instruction and measure its node-level latency.

        Each DIMM's DRAM traffic is cycle-simulated independently; the node
        finishes when the slowest DIMM does.  Because the rank-interleaved
        layout gives every DIMM an *identical* local transaction stream, the
        default simulates ``simulate_dimms=1`` DIMM(s) cycle-level and
        reuses that service time for the rest (pass ``None`` to simulate
        every DIMM — tests use this to verify the streams really are
        identical in length); a value outside ``1..num_dimms`` raises
        ``ValueError``.  ``jobs`` is as for :meth:`broadcast_timed_batch`.
        """
        return self.broadcast_timed_batch(
            [instr], refresh_enabled, simulate_dimms, jobs
        )[0]

    def _simulated(self, simulate_dimms: int | None) -> int:
        """How many DIMMs a timed broadcast cycle-simulates."""
        if simulate_dimms is None:
            return self.num_dimms
        if not 1 <= simulate_dimms <= self.num_dimms:
            raise ValueError(
                f"simulate_dimms must be in 1..{self.num_dimms} (None for all), "
                f"got {simulate_dimms}"
            )
        return simulate_dimms

    def _timed_result(
        self, per_dimm: list[NmpExecStats], dram_per_dimm: list
    ) -> NodeExecStats:
        """Node stats of one timed instruction; the slowest simulated DIMM sets the time."""
        seconds = 0.0
        for dimm, exec_stats, dram_stats in zip(self.dimms, per_dimm, dram_per_dimm):
            seconds = max(seconds, dimm.timed_seconds(exec_stats, dram_stats))
        return NodeExecStats(
            per_dimm=per_dimm, seconds=seconds, dram_per_dimm=dram_per_dimm
        )

    def broadcast_timed_batch(
        self,
        instrs: list[Instruction],
        refresh_enabled: bool = True,
        simulate_dimms: int | None = 1,
        jobs: int | None = None,
    ) -> list[NodeExecStats]:
        """Execute an instruction sequence with cycle-level timing.

        Every (instruction, simulated DIMM) drain is an independent timing
        domain (controllers reset between instructions), described
        symbolically and handed to one :class:`repro.parallel.DrainBatch`.
        At ``jobs > 1`` (default: ``$REPRO_JOBS``, else 1) the batch ships
        the large ones to the process pool, and an identical description
        already in flight (the rank-interleaved layout gives every DIMM the
        same local stream) shares its worker call; a lone drain stays
        in-process.  The functional execution, which mutates the node's
        words, stays in this process and runs while the workers drain.
        Operation order is per instruction: describe every simulated DIMM,
        then execute node-wide.  Each trace is defined against the storage
        before its instruction runs, so functional state, exec stats and
        DRAM stats are bit-identical at every worker count.
        """
        from ..parallel import DrainBatch

        limit = self._simulated(simulate_dimms)
        batch = DrainBatch(jobs if len(instrs) * limit > 1 else 1)
        configs = [
            dimm.timed_controller_config(refresh_enabled)
            for dimm in self.dimms[:limit]
        ]
        executed = []
        for instr in instrs:
            self.instructions_executed += 1
            for dimm, config in zip(self.dimms, configs):
                batch.submit(config, dimm.nmp.describe(instr))
            executed.append(self._execute(instr))
        drained = batch.results()
        n = len(configs)
        return [
            self._timed_result(per_dimm, drained[k * n : (k + 1) * n])
            for k, per_dimm in enumerate(executed)
        ]
