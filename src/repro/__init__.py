"""TensorDIMM reproduction: near-memory processing for embedding layers.

A from-scratch Python implementation of the MICRO-52 (2019) paper
"TensorDIMM: A Practical Near-Memory Processing Architecture for Embeddings
and Tensor Operations in Deep Learning" (Kwon, Lee, Rhu) — the TensorDIMM
NMP module, the TensorISA, the TensorNode disaggregated memory pool, and
every substrate its evaluation rests on (a cycle-level DDR4 simulator,
CPU/GPU roofline models, PCIe/NVLink interconnects, and the four
recommender-system workloads of Table 2).

Quickstart::

    import numpy as np
    from repro import TensorNode, TensorDimmRuntime

    node = TensorNode(num_dimms=16, capacity_words_per_dimm=1 << 14)
    runtime = TensorDimmRuntime(node)
    table = runtime.create_table("items", np.random.rand(1000, 256))
    out, launches = runtime.embedding_forward(
        table, np.random.randint(0, 1000, (32, 50))
    )
    pooled = node.read_tensor(out)   # (32, 256) mean-pooled embeddings

``python -m repro list`` names every figure and table the package
regenerates; :mod:`repro.bench.paper_data` holds the numbers the paper
states, for comparison.
"""

from .lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "config": (
        "DEFAULT_HOST_CONFIG",
        "DEFAULT_NODE_CONFIG",
        "HostConfig",
        "TensorNodeConfig",
    ),
    "core": (
        "EmbeddingLayout",
        "Instruction",
        "KernelLaunch",
        "NmpCore",
        "NodeAllocator",
        "Opcode",
        "ReduceOp",
        "TensorDimm",
        "TensorDimmRuntime",
        "TensorNode",
    ),
    "models": (
        "ALL_WORKLOADS",
        "EmbeddingTable",
        "RecommenderModel",
        "RecSysConfig",
        "workload",
    ),
    "system": ("LatencyBreakdown", "SystemParams", "evaluate", "evaluate_all"),
})

__version__ = "1.0.0"

__all__ = [
    "ALL_WORKLOADS",
    "DEFAULT_HOST_CONFIG",
    "DEFAULT_NODE_CONFIG",
    "EmbeddingLayout",
    "EmbeddingTable",
    "HostConfig",
    "Instruction",
    "KernelLaunch",
    "LatencyBreakdown",
    "NmpCore",
    "NodeAllocator",
    "Opcode",
    "RecommenderModel",
    "RecSysConfig",
    "ReduceOp",
    "SystemParams",
    "TensorDimm",
    "TensorDimmRuntime",
    "TensorNode",
    "TensorNodeConfig",
    "evaluate",
    "evaluate_all",
    "workload",
    "__version__",
]
