"""Property test: an NMP instruction's traffic description against the
per-instruction trace oracle.

Hypothesis draws GATHER, REDUCE and AVERAGE instructions with any
``words_per_slice``, bases, duplicate rows and index counts that leave the
last index word partly filled.  For each, ``NmpCore.describe(instr)`` must
give a one-channel share with the read stream and the write stream of
``trace_oracles.nmp_trace`` (the instruction's transactions in program
order), count its records and span its words, and the DIMM's timed drain
of the description must equal the scan oracle's drain of the interleaved
oracle trace, fed one record at a time.  CI also runs this file with
``REPRO_REFERENCE=1`` (memos and the hit phase off).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.isa import average, gather, reduce
from repro.core.tensordimm import TensorDimm

from scan_oracle import ScanController
from trace_oracles import enqueue_records, nmp_trace, streams

ND = 2  # node_dim: node-word bases are local words times ND
INDEX_BASE = 7000  # local word of the replicated index buffer


@st.composite
def instructions(draw):
    """``(dimm, instr)``: a fresh DIMM and one instruction on it; GATHER
    finds its indices already written."""
    dimm = TensorDimm(0, ND, capacity_words=1 << 13)
    op = draw(st.sampled_from(["GATHER", "REDUCE", "AVERAGE"]))
    wps = draw(st.integers(1, 4))
    first = ND * draw(st.integers(0, 400))
    second = ND * (1000 + draw(st.integers(0, 400)))
    out = ND * (3000 + draw(st.integers(0, 400)))
    if op == "REDUCE":
        return dimm, reduce(first, second, out, draw(st.integers(1, 60)))
    if op == "AVERAGE":
        rows = draw(st.integers(1, 15))
        return dimm, average(first, draw(st.integers(1, 5)), out, rows * wps, wps)
    # A row space of 12 makes duplicate rows common; counts off multiples
    # of 16 leave the last index word partly filled.
    rows = draw(st.lists(st.integers(0, 11), min_size=1, max_size=50))
    dimm.write_indices(INDEX_BASE, np.array(rows, dtype=np.int32))
    return dimm, gather(first, INDEX_BASE, out, len(rows), wps)


@settings(max_examples=80, deadline=None)
@given(instructions())
def test_description_matches_the_instruction_oracle(case):
    dimm, instr = case
    golden = nmp_trace(dimm.nmp, instr)
    traffic = dimm.nmp.describe(instr)
    share = traffic.share(0, 1)
    assert streams(share) == streams(golden)
    assert traffic.records == len(golden)
    words = golden.addr // 64
    assert traffic.word_span() == (words.min(), words.max())

    oracle = ScanController.from_config(dimm.timed_controller_config())
    enqueue_records(oracle, golden)
    assert dimm.dram_stats(instr) == oracle.run_to_completion()
