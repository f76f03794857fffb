"""The paper's contribution: TensorDIMM, TensorISA, TensorNode, runtime."""

from ..lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "address_map": ("EmbeddingLayout", "chunks_for_dim"),
    "allocator": ("Allocation", "NodeAllocator", "OutOfNodeMemory"),
    "isa": ("Instruction", "Opcode", "ReduceOp", "average", "gather", "reduce"),
    "nmp_core": ("NmpCore", "NmpExecStats", "required_queue_bytes"),
    "runtime": ("KernelLaunch", "TensorDimmRuntime"),
    "tensordimm": ("TensorDimm", "TimedExecution"),
    "tensornode": ("NodeExecStats", "TensorNode"),
})

__all__ = [
    "Allocation",
    "EmbeddingLayout",
    "Instruction",
    "KernelLaunch",
    "NmpCore",
    "NmpExecStats",
    "NodeAllocator",
    "NodeExecStats",
    "Opcode",
    "OutOfNodeMemory",
    "ReduceOp",
    "TensorDimm",
    "TensorDimmRuntime",
    "TensorNode",
    "TimedExecution",
    "average",
    "chunks_for_dim",
    "gather",
    "reduce",
    "required_queue_bytes",
]
