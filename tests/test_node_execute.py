"""Node-wide functional execution against the per-DIMM oracle.

A TensorNode runs each broadcast instruction once over all of its DIMMs'
words (:func:`repro.core.nmp_core.execute_broadcast`).  These tests apply
the per-DIMM oracle (``tests/nmp_oracle.py``) DIMM by DIMM to a second node
with the same memory and require byte-identical memory, equal per-DIMM
``NmpExecStats`` (ALU cycles included) and storage versions.  Memory starts
fully random, so a kernel that touched a word it should not would show.
"""

import numpy as np
import pytest

import nmp_oracle
from nmp_oracle import gather_slices, scatter
from repro.core import TensorDimm, TensorNode
from repro.core.isa import ReduceOp, average, gather, reduce

CAPACITY = 512
DIMMS = (1, 3, 8, 32)


def _embedding_dims(dimms: int) -> list[int]:
    """Row widths giving ``words_per_slice`` 1-3, padded and unpadded."""
    return sorted({48, 16 * dimms, 32 * dimms - 8, 48 * dimms})


def _pair(dimms: int, seed: int = 0) -> list[TensorNode]:
    """Two nodes whose memory holds the same random words."""
    rng = np.random.default_rng(seed)
    fill = rng.standard_normal((dimms, CAPACITY, 16), dtype=np.float32)
    nodes = []
    for _ in range(2):
        node = TensorNode(num_dimms=dimms, capacity_words_per_dimm=CAPACITY)
        for dimm, words in zip(node.dimms, fill):
            dimm.write_slice(0, words)
        nodes.append(node)
    return nodes


def _memory(node: TensorNode) -> bytes:
    return b"".join(d.read_slice(0, d.capacity_words).tobytes() for d in node.dimms)


def _state(node: TensorNode) -> tuple:
    return (
        _memory(node),
        [d.storage.version for d in node.dimms],
    )


def _broadcast_both(node: TensorNode, ref: TensorNode, instr) -> None:
    got = node.broadcast(instr).per_dimm
    want = [nmp_oracle.execute(dimm.nmp, instr) for dimm in ref.dimms]
    assert got == want
    assert _state(node) == _state(ref)


def _write_indices_both(nodes, name: str, indices: np.ndarray, rewrite: np.ndarray):
    """Write ``indices`` to every DIMM, then ``rewrite`` over one DIMM's copy.

    The rewritten copy means a kernel that shared one index array across
    DIMMs cannot pass by accident.
    """
    allocs = []
    for node in nodes:
        alloc = node.alloc_indices(name, len(indices))
        node.write_indices(alloc, indices)
        node.dimms[len(node.dimms) // 2].write_indices(alloc.base_word, rewrite)
        allocs.append(alloc)
    assert allocs[0] == allocs[1]
    return allocs[0]


def _alloc_both(nodes, name: str, rows: int, dim: int):
    layouts = [node.alloc_tensor(name, rows, dim) for node in nodes]
    assert layouts[0] == layouts[1]
    return layouts[0]


class TestNodeExecuteMatchesOracle:
    @pytest.mark.parametrize("dimms", DIMMS)
    def test_gather_with_duplicates(self, dimms):
        for dim in _embedding_dims(dimms):
            nodes = _pair(dimms, seed=dim)
            rng = np.random.default_rng(dim)
            table = _alloc_both(nodes, "table", 12, dim)
            lookups = rng.integers(0, 12, 40)  # 40 draws from 12 rows repeat
            idx = _write_indices_both(nodes, "idx", lookups, rng.permutation(lookups))
            out = _alloc_both(nodes, "out", 40, dim)
            instr = gather(table.base_word, idx.base_word, out.base_word, 40,
                           words_per_slice=table.words_per_slice)
            _broadcast_both(*nodes, instr)

    @pytest.mark.parametrize("group", [2, 3, 7, 25])
    @pytest.mark.parametrize("dimms", DIMMS)
    def test_average(self, dimms, group):
        for dim in _embedding_dims(dimms):
            nodes = _pair(dimms, seed=group * dim)
            src = _alloc_both(nodes, "src", 3 * group, dim)
            out = _alloc_both(nodes, "out", 3, dim)
            wps = src.words_per_slice
            instr = average(src.base_word, group, out.base_word, 3 * wps,
                            words_per_slice=wps)
            _broadcast_both(*nodes, instr)

    @pytest.mark.parametrize("op", list(ReduceOp))
    @pytest.mark.parametrize("dimms", DIMMS)
    def test_reduce(self, dimms, op):
        for dim in _embedding_dims(dimms):
            nodes = _pair(dimms, seed=dim + op)
            a = _alloc_both(nodes, "a", 5, dim)
            b = _alloc_both(nodes, "b", 5, dim)
            out = _alloc_both(nodes, "out", 5, dim)
            words = a.words_per_dimm
            _broadcast_both(*nodes, reduce(a.base_word, b.base_word, out.base_word, words, op=op))
            # In place: the output overwrites the first operand.
            _broadcast_both(*nodes, reduce(out.base_word, b.base_word, out.base_word, words, op=op))

    def test_timed_broadcast_matches_oracle(self):
        node, ref = _pair(8)
        rng = np.random.default_rng(5)
        table = _alloc_both((node, ref), "table", 12, 256)
        lookups = rng.integers(0, 12, 50)
        idx = _write_indices_both((node, ref), "idx", lookups, lookups[::-1].copy())
        out = _alloc_both((node, ref), "out", 50, 256)
        pooled = _alloc_both((node, ref), "pooled", 10, 256)
        instrs = [
            gather(table.base_word, idx.base_word, out.base_word, 50,
                   words_per_slice=table.words_per_slice),
            average(out.base_word, 5, pooled.base_word, 10 * table.words_per_slice,
                    words_per_slice=table.words_per_slice),
        ]
        for instr in instrs:
            got = node.broadcast_timed(instr, simulate_dimms=3).per_dimm
            want = [nmp_oracle.execute(dimm.nmp, instr) for dimm in ref.dimms]
            assert got == want
            assert _state(node) == _state(ref)

    def test_standalone_core_matches_oracle(self):
        """A lone DIMM runs the same kernels on its private storage (k = 1)."""
        rng = np.random.default_rng(9)
        fill = rng.standard_normal((CAPACITY, 16), dtype=np.float32)
        lookups = rng.integers(0, 20, 33)
        dimms = [TensorDimm(dimm_id=1, node_dim=3, capacity_words=CAPACITY) for _ in range(2)]
        for dimm in dimms:
            dimm.write_slice(0, fill)
            dimm.write_indices(400, lookups)
        instrs = [
            gather(0, 400, 3 * 100, 33, words_per_slice=2),
            average(3 * 100, 3, 3 * 200, 22, words_per_slice=2),
            reduce(0, 3 * 50, 3 * 250, 40, op=ReduceOp.MAX),
        ]
        for instr in instrs:
            assert dimms[0].execute(instr) == nmp_oracle.execute(dimms[1].nmp, instr)
            assert dimms[0].storage.version == dimms[1].storage.version
            assert dimms[0].storage.array.tobytes() == dimms[1].storage.array.tobytes()


class TestFailBeforeWriting:
    """A bad operand on any DIMM raises before any DIMM's words change."""

    @pytest.mark.parametrize("dimms", [1, 8])
    @pytest.mark.parametrize("bad_row", [CAPACITY, -1])
    def test_gather_bad_index_on_last_dimm(self, dimms, bad_row):
        node, _ = _pair(dimms)
        table = node.alloc_tensor("table", 4, 16 * dimms)
        alloc = node.alloc_indices("idx", 20)
        node.write_indices(alloc, np.arange(20) % 4)
        bad = np.arange(20) % 4
        bad[-1] = bad_row
        node.dimms[-1].write_indices(alloc.base_word, bad)
        out = node.alloc_tensor("out", 20, 16 * dimms)
        before = _state(node)
        with pytest.raises(IndexError):
            node.broadcast(gather(table.base_word, alloc.base_word, out.base_word, 20))
        assert _state(node) == before

    def test_output_past_capacity(self):
        node, _ = _pair(4)
        before = _state(node)
        with pytest.raises(IndexError):
            node.broadcast(reduce(0, 4 * 8, 4 * (CAPACITY - 8), 16))
        assert _state(node) == before

    @pytest.mark.parametrize(
        "kwargs",
        [{"num_dimms": 0}, {"capacity_words_per_dimm": 0}, {"capacity_words_per_dimm": -4}],
    )
    def test_bad_geometry_raises_before_allocating(self, kwargs, monkeypatch):
        def refuse(*args, **kw):
            raise AssertionError("allocated before validating")

        monkeypatch.setattr(np, "zeros", refuse)
        with pytest.raises(ValueError):
            TensorNode(**kwargs)


class TestNodeWritesInvalidateCaches:
    def test_every_node_write_bumps_every_version(self, rng):
        node = TensorNode(num_dimms=4, capacity_words_per_dimm=256)
        table = node.alloc_tensor("table", 6, 100)
        alloc = node.alloc_indices("idx", 5)
        out = node.alloc_tensor("out", 5, 100)
        writes = [
            lambda: node.write_tensor(table, rng.standard_normal((6, 100))),
            lambda: node.write_indices(alloc, [0, 1, 2, 3, 4]),
            lambda: node.broadcast(gather(table.base_word, alloc.base_word, out.base_word, 5,
                                          words_per_slice=table.words_per_slice)),
        ]
        for write in writes:
            before = [d.storage.version for d in node.dimms]
            write()
            after = [d.storage.version for d in node.dimms]
            assert all(a > b for a, b in zip(after, before))

    def test_rewritten_indices_reach_describe_on_dimm_k(self):
        node = TensorNode(num_dimms=4, capacity_words_per_dimm=256)
        table = node.alloc_tensor("table", 8, 64)
        alloc = node.alloc_indices("idx", 6)
        out = node.alloc_tensor("out", 6, 64)
        instr = gather(table.base_word, alloc.base_word, out.base_word, 6)
        core = node.dimms[2].nmp
        node.write_indices(alloc, [0, 1, 2, 3, 4, 5])
        first = core.describe(instr)
        np.testing.assert_array_equal(first.rows, [0, 1, 2, 3, 4, 5])
        node.write_indices(alloc, [7, 7, 6, 5, 4, 3])
        second = core.describe(instr)
        assert second.rows_digest != first.rows_digest
        np.testing.assert_array_equal(second.rows, [7, 7, 6, 5, 4, 3])


class TestNodeLinearTensorIo:
    """write_tensor/read_tensor on the node array equal the per-DIMM scatter."""

    @pytest.mark.parametrize("dimms", DIMMS)
    def test_matches_per_dimm_scatter(self, dimms):
        for dim in _embedding_dims(dimms) + [100]:
            node, _ = _pair(dimms, seed=dim)  # dirty memory: pad words must be zeroed
            layout = node.alloc_tensor("t", 5, dim)
            values = np.random.default_rng(dim).standard_normal((5, dim), dtype=np.float32)
            node.write_tensor(layout, values)
            base_local = layout.base_word // dimms
            slices = [d.read_slice(base_local, layout.words_per_dimm) for d in node.dimms]
            for got, want in zip(slices, scatter(layout, values)):
                assert got.tobytes() == want.tobytes()
            assert node.read_tensor(layout).tobytes() == gather_slices(layout, slices).tobytes()
            assert node.read_tensor(layout).tobytes() == values.tobytes()

    def test_shape_and_range_checks(self):
        node = TensorNode(num_dimms=4, capacity_words_per_dimm=16)
        layout = node.alloc_tensor("t", 2, 100)
        with pytest.raises(ValueError):
            node.write_tensor(layout, np.zeros((2, 101), dtype=np.float32))
        past_end = type(layout)(4, 40, 100, base_word=layout.base_word)
        with pytest.raises(IndexError):
            node.write_tensor(past_end, np.zeros((40, 100), dtype=np.float32))
        with pytest.raises(IndexError):
            node.read_tensor(past_end)


def test_negative_simulate_dimms_rejected():
    node = TensorNode(num_dimms=4, capacity_words_per_dimm=64)
    instr = reduce(0, 4 * 8, 4 * 16, 8)
    with pytest.raises(ValueError):
        node.broadcast_timed(instr, simulate_dimms=-1)
    with pytest.raises(ValueError):
        node.broadcast_timed_batch([instr], simulate_dimms=-1)
    assert node.instructions_executed == 0
