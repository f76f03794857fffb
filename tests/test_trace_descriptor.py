"""NMP traffic descriptions: parity, collision, and zero-materialization.

Keying the timing memo by an NMP instruction's description rests on two
claims:

* ``describe(instr).share(0, 1)``, the instruction's trace, has the read
  stream and the write stream of ``nmp_trace(core, instr)`` — the
  reference generator in ``trace_oracles`` — across every opcode and shape
  (seeded fuzz below; ``tests/test_nmp_traffic.py`` draws the shapes with
  hypothesis), and equal descriptions have identical traces;
* a hit builds **no** trace (pinned via the ``TraceBuffer``
  construction counter), and every timed path is bit-identical with
  ``REPRO_REFERENCE`` unset and set.
"""

import numpy as np
import pytest

from repro import parallel
from repro.core.isa import Instruction, Opcode, ReduceOp, average, gather, reduce, update
from repro.core.tensordimm import TensorDimm
from repro.core.tensornode import TensorNode
from repro.dram.command import TraceBuffer
from repro.dram.system import DramSystem
from repro.dram.trace import OpTraffic, reduce_traffic
from repro.env import REFERENCE_ENV_VAR

from trace_oracles import nmp_trace, streams


ND = 2  # node_dim of the fuzzed DIMM; node-word bases must align to it


def _dimm(capacity=1 << 17):
    return TensorDimm(0, ND, capacity_words=capacity)


def _assert_identical(golden: TraceBuffer, symbolic: TraceBuffer):
    assert np.array_equal(golden.addr, symbolic.addr)
    assert np.array_equal(golden.is_write, symbolic.is_write)
    assert np.array_equal(golden.cycle, symbolic.cycle)


def _roundtrip(dimm, instr):
    golden = nmp_trace(dimm.nmp, instr)
    symbolic = dimm.nmp.describe(instr).share(0, 1)
    assert streams(symbolic) == streams(golden)
    return golden


class TestExpandParity:
    """Seeded fuzz: the description's one-channel share has trace(i)'s read
    and write streams, all opcodes."""

    @pytest.mark.parametrize("seed", range(8))
    def test_gather(self, seed):
        rng = np.random.default_rng(1000 + seed)
        dimm = _dimm()
        wps = int(rng.integers(1, 5))
        # Ragged tails on purpose: counts not divisible by the 16-index word.
        count = int(rng.integers(1, 700))
        idx = rng.integers(0, 800, size=count).astype(np.int32)
        dimm.write_indices(40000, idx)
        _roundtrip(dimm, gather(0, 40000, ND * 50000, count, words_per_slice=wps))

    @pytest.mark.parametrize("seed", range(8))
    def test_reduce(self, seed):
        rng = np.random.default_rng(2000 + seed)
        count = int(rng.integers(1, 4000))
        _roundtrip(_dimm(), reduce(0, ND * 8000, ND * 16000, count))

    @pytest.mark.parametrize("seed", range(8))
    def test_average(self, seed):
        rng = np.random.default_rng(3000 + seed)
        wps = int(rng.integers(1, 5))
        group = int(rng.integers(1, 7))
        count = wps * int(rng.integers(1, 300))
        _roundtrip(
            _dimm(),
            average(0, group, ND * 40000, count, words_per_slice=wps),
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_update_with_duplicate_rows(self, seed):
        rng = np.random.default_rng(4000 + seed)
        dimm = _dimm()
        wps = int(rng.integers(1, 4))
        count = int(rng.integers(1, 400))
        # Tiny row space forces duplicate target rows (scatter-add case).
        idx = rng.integers(0, 32, size=count).astype(np.int32)
        dimm.write_indices(45000, idx)
        _roundtrip(
            dimm,
            update(ND * 20000, 45000, 0, count, words_per_slice=wps),
        )

    def test_gather_single_lookup_and_full_word_tail(self):
        dimm = _dimm()
        for count in (1, 16, 17, 32):
            idx = np.arange(count, dtype=np.int32)
            dimm.write_indices(40000, idx)
            _roundtrip(dimm, gather(0, 40000, ND * 50000, count, words_per_slice=3))

    def test_index_driven_descriptions_carry_their_rows(self):
        dimm = _dimm()
        dimm.write_indices(40000, np.arange(10, dtype=np.int32))
        descriptor = dimm.nmp.describe(gather(0, 40000, ND * 50000, 10))
        assert descriptor.index_base == 40000
        np.testing.assert_array_equal(descriptor.rows, np.arange(10))
        with pytest.raises(ValueError, match="rows"):
            OpTraffic("GATHER", descriptor.bases, 10, index_base=40000)
        with pytest.raises(ValueError, match="rows"):  # wrong length
            OpTraffic("GATHER", descriptor.bases, 10, rows=np.arange(9))

    def test_reduce_descriptor_is_index_free(self):
        descriptor = _dimm().nmp.describe(reduce(0, ND * 8000, ND * 16000, 50))
        assert descriptor.rows is None and descriptor.index_base is None
        assert descriptor.rows_digest is None


class TestDescriptorKeys:
    """Distinct traces must map to distinct descriptor keys."""

    def test_index_contents_distinguish_gathers(self):
        dimm = _dimm()
        instr = gather(0, 40000, ND * 50000, 64, words_per_slice=2)
        dimm.write_indices(40000, np.arange(64, dtype=np.int32))
        first = dimm.nmp.describe(instr)
        dimm.write_indices(40000, np.arange(64, dtype=np.int32)[::-1].copy())
        second = dimm.nmp.describe(instr)
        assert first != second  # same shape, different index contents

    def test_shape_fields_distinguish(self):
        dimm = _dimm()
        idx = np.arange(64, dtype=np.int32)
        dimm.write_indices(40000, idx)
        base = dimm.nmp.describe(gather(0, 40000, ND * 50000, 64, words_per_slice=2))
        assert base != dimm.nmp.describe(
            gather(0, 40000, ND * 50000, 63, words_per_slice=2)
        )
        assert base != dimm.nmp.describe(
            gather(0, 40000, ND * 50000, 64, words_per_slice=3)
        )
        assert base != dimm.nmp.describe(
            gather(ND * 100, 40000, ND * 50000, 64, words_per_slice=2)
        )

    def test_opcodes_never_collide(self):
        dimm = _dimm()
        dimm.write_indices(40000, np.arange(10, dtype=np.int32))
        descriptors = [
            dimm.nmp.describe(i)
            for i in (
                gather(0, 40000, ND * 50000, 10),
                reduce(0, ND * 8000, ND * 16000, 10),
                average(0, 2, ND * 40000, 10),
                update(ND * 20000, 40000, 0, 10),
            )
        ]
        assert len(set(descriptors)) == len(descriptors)

    def test_descriptor_to_trace_is_functional(self):
        """Equal keys must stand for byte-identical traces — the soundness
        condition of keying the memo symbolically — and the description's
        share must have that trace's streams."""
        rng = np.random.default_rng(9)
        seen = {}
        for _ in range(40):
            dimm = _dimm()
            count = int(rng.integers(1, 200))
            wps = int(rng.integers(1, 4))
            idx = rng.integers(0, 100, size=count).astype(np.int32)
            dimm.write_indices(40000, idx)
            instr = gather(0, 40000, ND * 50000, count, words_per_slice=wps)
            key = dimm.nmp.describe(instr)
            trace = nmp_trace(dimm.nmp, instr)
            _assert_identical(seen.setdefault(key.key, trace), trace)
            assert streams(key.share(0, 1)) == streams(trace)

    def test_reduce_wps_normalized_out_of_key(self):
        """REDUCE traces ignore words_per_slice, so the key does too."""
        dimm = _dimm()
        plain = Instruction(Opcode.REDUCE, 0, ND * 8000, ND * 16000, 50)
        wide = Instruction(
            Opcode.REDUCE, 0, ND * 8000, ND * 16000, 50, words_per_slice=3
        )
        assert dimm.nmp.describe(plain) == dimm.nmp.describe(wide)
        _assert_identical(nmp_trace(dimm.nmp, plain), nmp_trace(dimm.nmp, wide))

    def test_subop_not_in_key(self):
        """The ALU op changes arithmetic, never DRAM traffic."""
        dimm = _dimm()
        a = reduce(0, ND * 8000, ND * 16000, 50, op=ReduceOp.SUM)
        b = reduce(0, ND * 8000, ND * 16000, 50, op=ReduceOp.MUL)
        assert dimm.nmp.describe(a) == dimm.nmp.describe(b)


class TestZeroMaterialization:
    """A memo hit builds no TraceBuffer — pinned with the process-wide
    construction counter."""

    def _counters(self):
        return TraceBuffer.constructions

    def test_execute_timed_hit_path(self, timing_memo):
        dimm = _dimm()
        idx = np.arange(128, dtype=np.int32)
        dimm.write_indices(40000, idx)
        instr = gather(0, 40000, ND * 50000, 128, words_per_slice=2)
        first = dimm.execute_timed(instr)
        assert timing_memo.hits == 0 and timing_memo.misses == 1
        before = self._counters()
        second = dimm.execute_timed(instr)
        assert self._counters() == before
        assert timing_memo.hits == 1
        assert second.dram_stats == first.dram_stats
        assert second.seconds == first.seconds

    def test_reduce_chain_hit_path(self, timing_memo):
        dimm = _dimm()
        instr = reduce(0, ND * 8000, ND * 16000, 300)
        first = dimm.execute_timed(instr)
        before = self._counters()
        for _ in range(3):
            assert dimm.execute_timed(instr).dram_stats == first.dram_stats
        assert self._counters() == before

    def test_broadcast_timed_hit_path(self, timing_memo):
        node = TensorNode(num_dimms=4, capacity_words_per_dimm=1 << 14)
        instr = reduce(0, 4 * 1024, 4 * 2048, 200)
        first = node.broadcast_timed(instr, simulate_dimms=None)
        before = self._counters()
        second = node.broadcast_timed(instr, simulate_dimms=None)
        assert self._counters() == before
        assert second.dram_per_dimm == first.dram_per_dimm
        assert second.seconds == first.seconds


class TestKillSwitch:
    """``REPRO_REFERENCE`` unset vs ``=1`` (no memo, no streak fast path)
    must be bit-identical on every timed path, in-process and pooled."""

    @pytest.fixture(autouse=True)
    def _memo_on(self, timing_memo, monkeypatch):
        self.memo = timing_memo
        monkeypatch.setattr("repro.parallel.MIN_TASK_RECORDS", 0)
        yield
        parallel.shutdown()

    def _unset_and_reference(self, monkeypatch, run):
        """``run()`` with the switch unset, then set; leaves it unset."""
        results = []
        for flag in (None, "1"):
            if flag is not None:
                monkeypatch.setenv(REFERENCE_ENV_VAR, flag)
            self.memo.clear()
            parallel.shutdown()  # pool workers read the switch at fork
            results.append(run())
        monkeypatch.delenv(REFERENCE_ENV_VAR)
        return results

    def _run_dimm(self):
        rng = np.random.default_rng(77)
        dimm = _dimm()
        idx = rng.integers(0, 500, size=200).astype(np.int32)
        dimm.write_indices(40000, idx)
        instrs = [
            gather(0, 40000, ND * 50000, 200, words_per_slice=2),
            reduce(0, ND * 8000, ND * 16000, 400),
            average(0, 4, ND * 40000, 120, words_per_slice=2),
            update(ND * 20000, 40000, 0, 150, words_per_slice=2),
        ]
        # Repeats exercise the hit path when the memo is on.
        return [dimm.execute_timed(i) for i in instrs + instrs]

    def test_execute_timed_bit_identical(self, monkeypatch):
        on, off = self._unset_and_reference(monkeypatch, self._run_dimm)
        assert self.memo.hits == 0  # the reference run never hits
        for a, b in zip(on, off):
            assert a.dram_stats == b.dram_stats
            assert a.seconds == b.seconds
            assert a.exec_stats == b.exec_stats

    def _run_node(self, jobs):
        node = TensorNode(num_dimms=4, capacity_words_per_dimm=1 << 16)
        rng = np.random.default_rng(5)
        idx = rng.integers(0, 300, size=100).astype(np.int32)
        alloc = node.alloc_indices("idx", 100)
        node.write_indices(alloc, idx)
        instr = gather(0, alloc.base_word, 4 * 9000, 100, words_per_slice=1)
        return node.broadcast_timed_batch(
            [instr, instr], simulate_dimms=None, jobs=jobs
        )

    def test_broadcast_timed_batch_bit_identical(self, monkeypatch):
        for jobs in (1, 2):
            on, off = self._unset_and_reference(
                monkeypatch, lambda: self._run_node(jobs)
            )
            for a, b in zip(on, off):
                assert a.dram_per_dimm == b.dram_per_dimm
                assert a.seconds == b.seconds

    def _run_system(self, jobs):
        system = DramSystem(channels=2)
        system.enqueue_traffic(reduce_traffic(0, 1 << 20, 1 << 21, 1200))
        return system.run(jobs=jobs)

    def test_dram_system_run_bit_identical(self, monkeypatch):
        for jobs in (1, 2):
            on, off = self._unset_and_reference(
                monkeypatch, lambda: self._run_system(jobs)
            )
            assert on.channel_stats == off.channel_stats
            assert on.elapsed_seconds == off.elapsed_seconds
