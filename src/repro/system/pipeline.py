"""Shared inference-pipeline stage models (the Fig. 5 equations).

Every design point decomposes one batched inference into the same stages:

1. **lookup** — reading embeddings out of whichever memory holds the tables
   (plus, for TensorDIMM, the near-memory reductions),
2. **transfer** — moving embeddings to the compute device (cudaMemcpy),
3. **interaction** — tensor pooling/concat on the compute device,
4. **dnn** — the MLP stack,
5. **other** — framework/launch overheads.

This module holds the stage formulas shared by the five design points.
"""

from ..compute.device import DeviceSpec
from ..compute.kernels import concat_time, gather_time, mlp_time, pooling_time
from ..config import BYTES_PER_ELEMENT
from ..models.recsys import RecSysConfig
from .params import SystemParams


def dnn_time(device: DeviceSpec, config: RecSysConfig, batch: int) -> float:
    """MLP stack time on ``device``."""
    return mlp_time(device, batch, config.mlp_dims)


def interaction_time_raw(device: DeviceSpec, config: RecSysConfig, batch: int) -> float:
    """Feature interaction when the device holds *raw* gathered embeddings.

    The device must pool multi-hot lookups itself (streaming reduction over
    the gathered tensor), then assemble the MLP input.
    """
    gathered = config.gathered_bytes(batch)
    pooled = batch * config.num_tables * config.embedding_bytes
    time = 0.0
    if config.pooling_fanin > 1 or config.combiner in ("sum", "mul"):
        reduced = config.reduced_bytes(batch)
        time += pooling_time(device, gathered, reduced)
    mlp_input = batch * (config.interaction_width + config.dense_features)
    time += concat_time(device, mlp_input * BYTES_PER_ELEMENT)
    return time


def interaction_time_reduced(
    device: DeviceSpec, config: RecSysConfig, batch: int
) -> float:
    """Feature interaction when embeddings arrive already reduced (TDIMM)."""
    mlp_input = batch * (config.interaction_width + config.dense_features)
    return concat_time(device, mlp_input * BYTES_PER_ELEMENT)


def host_lookup_time(device: DeviceSpec, config: RecSysConfig, batch: int) -> float:
    """Embedding gather over a conventional memory system (CPU or GPU-local)."""
    return gather_time(device, config.gathered_bytes(batch))


def index_bytes(config: RecSysConfig, batch: int) -> int:
    """Size of the sparse-index payload shipped with the request."""
    return batch * config.lookups_per_sample() * BYTES_PER_ELEMENT


def tdimm_node_time(
    config: RecSysConfig, batch: int, params: SystemParams
) -> tuple[float, int]:
    """Near-memory execution time on the TensorNode and instruction count.

    Traffic: GATHER reads each looked-up row and writes the packed copy
    (Fig. 9a drains gathers back to DRAM); AVERAGE re-reads the gathered
    tensor and writes the pooled result; element-wise cross-table combines
    lower to chains of binary REDUCEs (2 reads + 1 write each).
    """
    gathered = config.gathered_bytes(batch)
    pooled = batch * config.num_tables * config.embedding_bytes
    traffic = 2 * gathered
    instructions = config.num_tables  # one GATHER per table
    if config.pooling_fanin > 1:
        traffic += gathered + pooled
        instructions += config.num_tables  # one AVERAGE per table
    if config.combiner in ("sum", "mul") and config.num_tables > 1:
        per_tensor = batch * config.embedding_bytes
        traffic += 3 * per_tensor * (config.num_tables - 1)
        instructions += config.num_tables - 1
    seconds = traffic / params.node_bandwidth
    seconds += instructions * params.instruction_overhead
    return seconds, instructions
