"""The benchmark's workloads: inputs, operations, output checks.

Each workload is a closed loop of operations from one process: the
runner times one operation, checks its output, and only then issues the
next.  Operations are grouped into *passes*, the workload's fixed unit of
measured work.  See README.md for why each workload was chosen.

Only ``node_embedding`` draws its inputs from the seed.  The other two
regenerate paper artefacts, whose inputs are fixed by the artefact
definitions in ``repro.bench``; for them the seed changes nothing.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from repro import cli
from repro.bench import figure11, figure14, paper_data
from repro.core.address_map import EmbeddingLayout
from repro.core.runtime import TensorDimmRuntime
from repro.core.tensornode import TensorNode
from repro.dram.memo import INSTR_MEMO, TIMING_MEMO

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    if not REFERENCE_PATH.exists():
        return {}
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def clear_memos() -> None:
    TIMING_MEMO.clear()
    INSTR_MEMO.clear()


def point_key(point) -> str:
    return "/".join(str(p) for p in point)


def point_requests(point) -> int:
    """Cycle-simulated transactions behind one Fig-11 CPU grid point."""
    _, _, op, batch, dim = point
    words = batch * figure11.LOOKUPS_PER_SAMPLE * EmbeddingLayout(1, 1, dim).chunks
    if op == "GATHER":
        return 2 * words  # read every word, write it out
    if op == "REDUCE":
        return 3 * words  # two reads, one write
    return (figure11.AVERAGE_NUM + 1) * words  # AVERAGE_NUM reads, one write


class Workload:
    """One benchmark workload; subclasses fill in the hooks."""

    name = ""

    def __init__(self):
        self.reference = load_reference().get(self.name, {})

    def build(self, seed: int) -> None:
        """Make the inputs; timed as set-up, in a fresh interpreter."""
        self.seed = seed

    def warmup(self):
        """Operations run once per run before measuring: checked, untimed."""
        return []

    def before_pass(self) -> None:
        """Cold state for one pass (untimed)."""

    def operations(self, pass_no: int):
        """Yield ``(label, callable)`` pairs: one pass of measured work."""
        raise NotImplementedError

    def check(self, label: str, result) -> str | None:
        """Return an error message when ``result`` is wrong."""
        raise NotImplementedError

    def requests_per_pass(self) -> int:
        raise NotImplementedError

    def paper_rel_err(self) -> float:
        raise NotImplementedError

    def notes(self) -> list[str]:
        """Lines the runner prints about what was checked."""
        return []


class Fig11Cpu(Workload):
    """Fig-11 points on the 8-channel x 4-rank CPU baseline, one per op.

    Batch 2 only: a pass then takes about a second, so a run holds enough
    passes that the tail percentile always falls among the AVERAGE points.
    """

    name = "fig11_cpu"
    points = tuple(
        ("CPU", 8, op, 2, figure11.EMBEDDING_DIM) for op in figure11.OPS
    )

    def build(self, seed: int) -> None:
        super().build(seed)
        self.last = {}

    def before_pass(self):
        clear_memos()

    def operations(self, pass_no):
        for point in self.points:
            yield point_key(point), lambda p=point: figure11.sweep_grid([p], jobs=1)

    def check(self, label, result):
        self.last.update(result)
        for point, bandwidth in result.items():
            expected = self.reference.get(point_key(point))
            if expected is None:
                return f"{point_key(point)}: no reference"
            if bandwidth != expected:
                return f"{point_key(point)}: {bandwidth!r} != reference {expected!r}"
        return None

    def requests_per_pass(self) -> int:
        return sum(point_requests(p) for p in self.points)

    def paper_rel_err(self):
        gbps = max(self.last.values()) / 1e9
        return abs(gbps - paper_data.FIG11_CPU_MAX_GBPS) / paper_data.FIG11_CPU_MAX_GBPS


#: Every artefact except figures 11/12, as CLI argument lists.
COMMANDS = (
    *(("figure", n) for n in ("3", "4", "13", "14", "15", "16")),
    ("table", "3"),
    ("ablations",),
    *(("evaluate", w) for w in ("NCF", "YouTube", "Fox", "Facebook")),
)


class FastArtefacts(Workload):
    """One pass regenerates every fast artefact through ``repro.cli.main``."""

    name = "fast_artefacts"

    def build(self, seed):
        super().build(seed)
        self.requests = None

    def _run(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def warmup(self):
        # One untimed pass; it also counts the cycle-simulated transactions
        # (the stats every drain returns) for sim_req_per_s.
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            yield from self.operations(-1)
        finally:
            tracer.uninstall()
            self.requests = tracer.drained["accesses"]

    def before_pass(self):
        clear_memos()

    def operations(self, pass_no):
        for argv in COMMANDS:
            yield " ".join(argv), lambda a=argv: self._run(a)

    def check(self, label, result):
        code, text = result
        if code != 0:
            return f"{label}: exit code {code}"
        expected = self.reference.get(label)
        if expected is None:
            return f"{label}: no reference"
        if text != expected:
            return f"{label}: stdout differs from the reference"
        return None

    def requests_per_pass(self):
        return self.requests

    def paper_rel_err(self):
        ratio = figure14.run(jobs=1).geomean_design("TDIMM")
        target = paper_data.FIG14_TDIMM_VS_ORACLE_AVG
        return abs(ratio - target) / target


def launches_digest(launches) -> str:
    """Digest of every instruction's ControllerStats fields and node seconds."""
    fields = [
        [[dataclasses.astuple(d) for d in stats.dram_per_dimm], stats.seconds.hex()]
        for launch in launches
        for stats in launch.node_stats
    ]
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


class NodeEmbedding(Workload):
    """Cycle-mode embedding-layer serving on a 32-DIMM TensorNode.

    Each batch: a 64 x 25 multi-hot ``embedding_forward`` on each of four
    4096 x 512 tables, a 4-way ``combine``, a read-back of the result, and
    the batch's buffers freed in reverse order.  Batch ``k`` draws fresh
    indices from ``(seed, k)``; batch 0 is the warm-up.
    """

    name = "node_embedding"
    DIMMS = 32
    TABLES = 4
    ROWS = 4096
    DIM = 512
    BATCH = 64
    FANIN = 25
    BATCHES_PER_PASS = 8

    def build(self, seed):
        super().build(seed)
        # Release any previous build before drawing a new one.
        self.node = self.runtime = self.tables = self.weights = None
        rng = np.random.default_rng(seed)
        self.weights = [
            rng.standard_normal((self.ROWS, self.DIM), dtype=np.float32)
            for _ in range(self.TABLES)
        ]
        self.node = TensorNode(num_dimms=self.DIMMS, capacity_words_per_dimm=1 << 15)
        self.runtime = TensorDimmRuntime(self.node, timing_mode="cycle", jobs=1)
        self.tables = [
            self.runtime.create_table(f"table{i}", w) for i, w in enumerate(self.weights)
        ]
        self.digests = self.reference.get("seeds", {}).get(str(seed), [])
        self.digest_checked = self.numpy_only = 0
        self.requests = None
        self.headline_gbps = None

    def indices(self, k: int) -> list[np.ndarray]:
        rng = np.random.default_rng([self.seed, k])
        return [
            rng.integers(0, self.ROWS, (self.BATCH, self.FANIN))
            for _ in range(self.TABLES)
        ]

    def run_batch(self, k: int, indices):
        allocations = self.node.allocator.allocations
        first_new = len(allocations)
        launches = []
        pooled = []
        for t, (table, idx) in enumerate(zip(self.tables, indices)):
            out, table_launches = self.runtime.embedding_forward(
                table, idx, name=f"b{k}.t{t}"
            )
            pooled.append(out)
            launches.extend(table_launches)
        combined, launch = self.runtime.combine(pooled, name=f"b{k}.sum")
        launches.append(launch)
        result = self.node.read_tensor(combined)
        for name in reversed(list(allocations)[first_new:]):
            self.node.allocator.free(name)
        return k, indices, result, launches

    def _batch(self, k):
        indices = self.indices(k)
        return f"batch{k}", lambda: self.run_batch(k, indices)

    def warmup(self):
        clear_memos()  # once per run; batch 0 warms the memos up
        yield self._batch(0)

    def operations(self, pass_no):
        first = 1 + pass_no * self.BATCHES_PER_PASS
        for k in range(first, first + self.BATCHES_PER_PASS):
            yield self._batch(k)

    def check(self, label, result):
        k, indices, got, launches = result
        if self.requests is None:
            self.requests = sum(
                d.reads + d.writes
                for launch in launches
                for stats in launch.node_stats
                for d in stats.dram_per_dimm
            )
            # The combine's REDUCEs depend on shapes only, not on the seed.
            self.headline_gbps = max(
                stats.aggregate_bandwidth for stats in launches[-1].node_stats
            ) / 1e9
        expected = sum(w[idx].mean(axis=1) for w, idx in zip(self.weights, indices))
        if not np.allclose(got, expected, rtol=1e-5, atol=1e-5):
            err = float(np.max(np.abs(got - expected)))
            return f"{label}: combined tensor differs from NumPy (max err {err:.3g})"
        if k >= len(self.digests):
            self.numpy_only += 1
            return None
        self.digest_checked += 1
        if launches_digest(launches) != self.digests[k]:
            return f"{label}: DRAM stats or node seconds differ from the reference"
        return None

    def notes(self):
        return [
            f"batches checked against NumPy: {self.digest_checked + self.numpy_only}, "
            f"also against recorded DRAM stats: {self.digest_checked} "
            f"(seed {self.seed} has {len(self.digests)} recorded batches)"
        ]

    def requests_per_pass(self):
        return self.requests * self.BATCHES_PER_PASS

    def paper_rel_err(self):
        target = paper_data.FIG11_TENSORNODE_MAX_GBPS
        return abs(self.headline_gbps - target) / target


WORKLOADS = {w.name: w for w in (Fig11Cpu, NodeEmbedding, FastArtefacts)}
