"""Outside-in layer tracing: spans and counts around the simulator's public API.

The simulator has no telemetry of its own, so the traced run measures
each layer from the outside.  :class:`Tracer` replaces the public
functions and methods listed in :data:`TARGETS` with thin wrappers, in
every ``repro`` module that binds them (``expand`` is imported by name
into ``repro.core.tensordimm``, ``evaluate_all`` into ``repro.cli``), and
restores the originals on :meth:`Tracer.uninstall`.

* A **span** wrapper records ``[name, start_ns, end_ns, parent]`` in memory.
  Only the outermost call of a name is recorded, so a method that calls
  its own batch form (``broadcast_timed_batch`` -> ``broadcast_timed``) is
  not counted twice.
* A **count** wrapper only increments a counter; it is used on the
  per-record entry points so the trace stays cheap.

A target that no longer exists (renamed or deleted by a later change)
is listed in :attr:`Tracer.missing` and reports zero.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

#: ``(module, qualified name, metric name, kind)``; a metric's layer is
#: its name minus the last component (``dram.controller.drain`` ->
#: ``dram.controller``).
TARGETS = [
    ("repro.cli", "main", "bench.cli", "span"),
    *[
        (f"repro.bench.{m}", "run", "bench.figure", "span")
        for m in (
            "figure03", "figure04", "figure11", "figure12", "figure13",
            "figure14", "figure15", "figure16", "table3",
        )
    ],
    ("repro.bench.figure11", "sweep_grid", "bench.sweep_grid", "span"),
    # The per-item callables the harnesses hand to ``parallel_map``: without
    # them a harness's own work would count as ``parallel`` self time.
    ("repro.bench.figure11", "_sweep_point", "bench.sweep_point", "span"),
    ("repro.bench.ablation", "run_all", "bench.ablations", "span"),
    ("repro.bench.ablation", "_run_study", "bench.ablation_study", "span"),
    ("repro.system.design_points", "evaluate", "system.evaluate", "span"),
    ("repro.system.design_points", "evaluate_all", "system.evaluate", "span"),
    ("repro.system.design_points", "evaluate_grid", "system.evaluate", "span"),
    ("repro.core.runtime", "TensorDimmRuntime.embedding_forward",
     "core.runtime.embedding_forward", "span"),
    ("repro.core.runtime", "TensorDimmRuntime.gather", "core.runtime.gather", "span"),
    ("repro.core.runtime", "TensorDimmRuntime.pool_mean", "core.runtime.pool_mean", "span"),
    ("repro.core.runtime", "TensorDimmRuntime.combine", "core.runtime.combine", "span"),
    ("repro.core.tensornode", "TensorNode.broadcast", "core.tensornode.broadcast", "span"),
    ("repro.core.tensornode", "TensorNode.broadcast_timed",
     "core.tensornode.broadcast", "span"),
    ("repro.core.tensornode", "TensorNode.broadcast_timed_batch",
     "core.tensornode.broadcast", "span"),
    ("repro.core.tensornode", "TensorNode.write_indices",
     "core.tensornode.write_indices", "span"),
    ("repro.core.tensornode", "TensorNode.read_tensor", "core.tensornode.read_tensor", "span"),
    ("repro.core.tensordimm", "TensorDimm.execute_timed",
     "core.tensordimm.execute_timed", "span"),
    ("repro.core.tensordimm", "TensorDimm.execute_timed_batch",
     "core.tensordimm.execute_timed", "span"),
    ("repro.core.nmp_core", "NmpCore.describe", "core.nmp_core.describe", "span"),
    ("repro.core.nmp_core", "expand", "core.nmp_core.expand", "span"),
    ("repro.core.nmp_core", "NmpCore.execute", "core.nmp_core.execute", "span"),
    ("repro.dram.system", "DramSystem.enqueue_trace", "dram.system.enqueue_trace", "span"),
    ("repro.dram.system", "DramSystem.run", "dram.system.run", "span"),
    ("repro.dram.system", "DramSystem.enqueue", "dram.system.enqueue_calls", "count"),
    ("repro.dram.controller", "MemoryController.run_to_completion",
     "dram.controller.drain", "span"),
    ("repro.dram.controller", "MemoryController.enqueue",
     "dram.controller.enqueue_calls", "count"),
    ("repro.dram.memo", "TimingMemo.lookup", "dram.memo.lookup", "span"),
    ("repro.dram.memo", "TimingMemo.store", "dram.memo.lookup", "span"),
    ("repro.dram.memo", "InstructionMemo.lookup", "dram.memo.lookup", "span"),
    ("repro.dram.memo", "InstructionMemo.store", "dram.memo.lookup", "span"),
    ("repro.dram.cache", "CacheHierarchy.gather_efficiency", "dram.cache.gather", "span"),
    ("repro.parallel", "parallel_map", "parallel.map", "span"),
]

#: Every layer, as the module names under ``repro``.
LAYERS = (
    "bench", "system", "core.runtime", "core.tensornode", "core.tensordimm",
    "core.nmp_core", "dram.system", "dram.controller", "dram.memo",
    "dram.cache", "parallel",
)


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


class Tracer:
    """In-memory spans and counters from wrapped public entry points."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        #: Summed fields of the stats every real drain returned.
        self.drained = Counter()
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._patches: list[tuple] = []
        self.missing: list[str] = []

    # -- wrapping ---------------------------------------------------------------

    def _span(self, name: str, fn, on_return=None):
        spans, stack, open_names = self.spans, self._stack, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in open_names:
                return fn(*args, **kwargs)
            span = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            open_names.add(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                open_names.discard(name)
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_drain(self, stats) -> None:
        self.drained["drains"] += 1
        self.drained["accesses"] += stats.reads + stats.writes
        self.drained["row_hits"] += stats.row_hits

    def install(self) -> None:
        hooks = {"dram.controller.drain": self._on_drain}
        for module_name, qualname, metric, kind in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = (
                    inspect.getattr_static(owner, attr, None) if owner else None
                )
                if not inspect.isfunction(original):
                    self.missing.append(f"{module_name}.{qualname}")
                    continue
                owners = [(owner, attr)]
            else:
                original = getattr(module, attr, None)
                if not inspect.isfunction(original):
                    self.missing.append(f"{module_name}.{qualname}")
                    continue
                # Rebind the function wherever a repro module imported it.
                owners = [
                    (m, key)
                    for mname, m in list(sys.modules.items())
                    if mname == "repro" or mname.startswith("repro.")
                    for key, value in list(vars(m).items())
                    if value is original
                ]
            if kind == "count":
                wrapper = self._count(metric, original)
            else:
                wrapper = self._span(metric, original, hooks.get(metric))
            for target, key in owners:
                self._patches.append((target, key, original))
                setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    # -- reduction ----------------------------------------------------------------

    def span_totals(self) -> tuple[Counter, Counter, int]:
        """Per-name inclusive seconds, per-layer self seconds, root ns."""
        inclusive: Counter = Counter()
        child_ns = [0] * len(self.spans)
        root_ns = 0
        for name, start, end, parent in self.spans:
            duration = end - start
            inclusive[name] += duration
            if parent < 0:
                root_ns += duration
            else:
                child_ns[parent] += duration
        self_by_layer: Counter = Counter()
        for (name, start, end, _), children in zip(self.spans, child_ns):
            self_by_layer[layer_of(name)] += end - start - children
        to_s = lambda c: Counter({k: v / 1e9 for k, v in c.items()})
        return to_s(inclusive), to_s(self_by_layer), root_ns
