"""TensorDIMM: a buffered DIMM with an NMP core (Section 4.2, Fig. 6b).

A TensorDIMM couples commodity DRAM (one rank of DDR4, modelled by
:class:`~repro.dram.controller.MemoryController` + a functional
:class:`~repro.dram.storage.WordStorage`) with the buffer-device NMP core.
It exposes both personalities the paper requires:

* **Normal buffered-DIMM mode** — plain 64 B load/store, so the module can
  serve as an ordinary LR-DIMM when not accelerating DL.
* **NMP mode** — TensorISA instructions forwarded to the NMP-local memory
  controller, executed against the DIMM's private DRAM at full local
  bandwidth.
"""

from dataclasses import dataclass

import numpy as np

from ..config import ACCESS_GRANULARITY
from ..dram.controller import ControllerConfig, ControllerStats, MemoryController
from ..dram.mapping import AddressMapping, DramOrganization
from ..dram.memo import drain
from ..dram.storage import WordStorage
from ..dram.timing import DDR4_3200, DramTiming
from .isa import Instruction
from .nmp_core import NmpCore, NmpExecStats


@dataclass
class TimedExecution:
    """Result of running one instruction through the cycle-level DRAM model."""

    exec_stats: NmpExecStats
    dram_stats: ControllerStats
    seconds: float

    @property
    def bandwidth(self) -> float:
        """Achieved local DRAM bandwidth during the instruction."""
        if self.seconds <= 0:
            return 0.0
        return self.dram_stats.total_bytes / self.seconds


class TensorDimm:
    """One TensorDIMM module: DRAM rank + buffer device with NMP core."""

    def __init__(
        self,
        dimm_id: int,
        node_dim: int,
        capacity_words: int = 1 << 16,
        timing: DramTiming = DDR4_3200,
        organization: DramOrganization | None = None,
    ):
        self._bind(WordStorage(capacity_words), dimm_id, node_dim, timing, organization)

    @classmethod
    def on_storage(
        cls,
        storage: WordStorage,
        dimm_id: int,
        node_dim: int,
        timing: DramTiming = DDR4_3200,
        organization: DramOrganization | None = None,
    ) -> "TensorDimm":
        """A TensorDIMM whose DRAM contents are ``storage``.

        A TensorNode builds its DIMMs this way, over the columns of its
        node-linear word array.
        """
        dimm = cls.__new__(cls)
        dimm._bind(storage, dimm_id, node_dim, timing, organization)
        return dimm

    def _bind(self, storage, dimm_id, node_dim, timing, organization) -> None:
        self.dimm_id = dimm_id
        self.node_dim = node_dim
        self.timing = timing
        self.organization = organization or DramOrganization(ranks=1)
        self.storage = storage
        self.nmp = NmpCore(dimm_id, node_dim, self.storage)
        self._configs: dict[bool, ControllerConfig] = {}

    @property
    def capacity_words(self) -> int:
        return self.storage.capacity_words

    @property
    def peak_bandwidth(self) -> float:
        return self.timing.peak_bandwidth

    # -- normal buffered-DIMM mode -------------------------------------------

    def load64(self, local_word: int) -> np.ndarray:
        """Plain 64 B read (non-NMP path through the buffer device)."""
        return self.storage.read_word(local_word)

    def store64(self, local_word: int, values: np.ndarray) -> None:
        """Plain 64 B write."""
        self.storage.write_word(local_word, values)

    # -- NMP mode ---------------------------------------------------------------

    def execute(self, instr: Instruction) -> NmpExecStats:
        """Execute this DIMM's slice of a broadcast instruction (functional)."""
        return self.nmp.execute(instr)

    def timed_controller_config(self, refresh_enabled: bool = True) -> ControllerConfig:
        """Configuration of the NMP-local memory controller.

        What :func:`~repro.dram.memo.drain` builds (once per process) and
        keys its memo by.  Cached: configs are frozen, so one snapshot per
        refresh setting serves the DIMM's whole lifetime.
        """
        config = self._configs.get(refresh_enabled)
        if config is None:
            config = MemoryController(
                self.timing,
                organization=self.organization,
                mapping=AddressMapping(self.organization),
                refresh_enabled=refresh_enabled,
            ).snapshot_config()
            self._configs[refresh_enabled] = config
        return config

    def execute_timed(
        self, instr: Instruction, refresh_enabled: bool = True
    ) -> TimedExecution:
        """Execute functionally *and* replay the DRAM traffic cycle-level.

        The NMP-local memory controller translates the instruction into
        RAS/CAS-level commands (Section 4.2); here the instruction's
        transaction trace is drained through the FR-FCFS controller to
        obtain its DRAM service time on this DIMM.  The instruction is
        described symbolically (:meth:`NmpCore.describe`) and handed to
        :func:`~repro.dram.memo.drain`, whose memo answers a repeated
        instruction without building its trace.
        """
        # Drain before execute(): the trace is defined against the storage
        # contents before the instruction runs.
        dram_stats = self.dram_stats(instr, refresh_enabled)
        stats = self.execute(instr)
        return TimedExecution(
            exec_stats=stats,
            dram_stats=dram_stats,
            seconds=self.timed_seconds(stats, dram_stats),
        )

    def dram_stats(self, instr: Instruction, refresh_enabled: bool = True) -> ControllerStats:
        """Cycle-level DRAM service of ``instr``'s trace on this DIMM.

        The trace is that of the storage as it is now, so call this before
        the instruction executes.
        """
        return drain(self.timed_controller_config(refresh_enabled), self.nmp.describe(instr))

    def timed_seconds(self, exec_stats: NmpExecStats, dram_stats: ControllerStats) -> float:
        """Instruction time: the slower of the DRAM drain and the ALU."""
        return max(
            self.timing.cycles_to_seconds(dram_stats.finish_cycle),
            exec_stats.alu_seconds(),
        )

    def write_slice(self, local_word: int, payload: np.ndarray) -> None:
        """Bulk-write this DIMM's slice of an interleaved tensor."""
        self.storage.write_words(local_word, payload)

    def read_slice(self, local_word: int, num_words: int) -> np.ndarray:
        """Bulk-read ``num_words`` local words (contiguous slice copy)."""
        return self.storage.read_range(local_word, num_words)

    def write_indices(self, local_word: int, indices: np.ndarray) -> None:
        """Store a replicated int32 index buffer at a local word address."""
        self.storage.write_indices(local_word, indices)
