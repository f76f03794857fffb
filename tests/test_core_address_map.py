"""Tests for the rank-interleaved embedding address mapping (Fig. 7)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmp_oracle import gather_slices, scatter
from repro.core.address_map import EmbeddingLayout, chunks_for_dim


class TestChunks:
    def test_one_chunk_minimum(self):
        assert chunks_for_dim(1) == 1

    def test_exact_chunk(self):
        assert chunks_for_dim(16) == 1

    def test_paper_canonical_1kb(self):
        # Fig. 7: a 256-dim (1 KB) embedding is 16 chunks.
        assert chunks_for_dim(256) == 16

    def test_default_512_dim(self):
        assert chunks_for_dim(512) == 32

    def test_rounds_up(self):
        assert chunks_for_dim(17) == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            chunks_for_dim(0)


class TestGeometry:
    def test_canonical_case_words_per_slice_one(self):
        # 1 KB embeddings on 16 DIMMs: each DIMM owns exactly one word/row.
        layout = EmbeddingLayout(node_dim=16, rows=10, embedding_dim=256)
        assert layout.chunks == 16
        assert layout.chunks_padded == 16
        assert layout.words_per_slice == 1

    def test_wide_embedding_multiple_words(self):
        layout = EmbeddingLayout(node_dim=16, rows=10, embedding_dim=512)
        assert layout.words_per_slice == 2

    def test_padding_to_node_dim(self):
        # 100 floats = 400 B = 7 chunks, padded to 8 on an 8-DIMM node.
        layout = EmbeddingLayout(node_dim=8, rows=4, embedding_dim=100)
        assert layout.chunks == 7
        assert layout.chunks_padded == 8
        assert layout.words_per_slice == 1

    def test_total_words_includes_padding(self):
        layout = EmbeddingLayout(node_dim=8, rows=4, embedding_dim=100)
        assert layout.total_words == 32
        assert layout.words_per_dimm == 4

    def test_payload_bytes_exclude_padding(self):
        layout = EmbeddingLayout(node_dim=8, rows=4, embedding_dim=100)
        assert layout.bytes == 1600

    def test_misaligned_base_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingLayout(node_dim=8, rows=1, embedding_dim=16, base_word=3)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            EmbeddingLayout(node_dim=0, rows=1, embedding_dim=16)
        with pytest.raises(ValueError):
            EmbeddingLayout(node_dim=8, rows=0, embedding_dim=16)
        with pytest.raises(ValueError):
            EmbeddingLayout(node_dim=8, rows=1, embedding_dim=0)


class TestAddressArithmetic:
    def test_node_word_of_first_chunk(self):
        layout = EmbeddingLayout(node_dim=8, rows=4, embedding_dim=128, base_word=64)
        assert layout.node_word(0, 0) == 64

    def test_rows_stride_by_padded_chunks(self):
        layout = EmbeddingLayout(node_dim=8, rows=4, embedding_dim=128)
        assert layout.node_word(1, 0) == layout.chunks_padded

    def test_consecutive_chunks_hit_consecutive_dimms(self):
        # The heart of Fig. 7(b): chunk j of any row lives on DIMM j % N.
        layout = EmbeddingLayout(node_dim=8, rows=4, embedding_dim=128)
        dimms = [layout.dimm_of(layout.node_word(2, j)) for j in range(8)]
        assert dimms == list(range(8))

    def test_every_row_starts_on_dimm_zero(self):
        layout = EmbeddingLayout(node_dim=8, rows=5, embedding_dim=100)
        for row in range(5):
            assert layout.dimm_of(layout.node_word(row, 0)) == 0

    def test_each_dimm_owns_equal_share_of_each_row(self):
        layout = EmbeddingLayout(node_dim=8, rows=3, embedding_dim=256)
        counts = {d: 0 for d in range(8)}
        for chunk in range(layout.chunks_padded):
            counts[layout.dimm_of(layout.node_word(0, chunk))] += 1
        assert set(counts.values()) == {layout.words_per_slice}

    def test_row_slice_local_words_contiguous(self):
        layout = EmbeddingLayout(node_dim=8, rows=4, embedding_dim=256)
        words = layout.row_slice_local_words(2, dimm=3)
        assert list(words) == [layout.base_word // 8 + 2 * 2, layout.base_word // 8 + 2 * 2 + 1]

    def test_out_of_range_row(self):
        layout = EmbeddingLayout(node_dim=8, rows=4, embedding_dim=128)
        with pytest.raises(IndexError):
            layout.node_word(4, 0)

    def test_out_of_range_chunk(self):
        layout = EmbeddingLayout(node_dim=8, rows=4, embedding_dim=128)
        with pytest.raises(IndexError):
            layout.node_word(0, layout.chunks_padded)

    def test_slice_base_local(self):
        layout = EmbeddingLayout(node_dim=8, rows=4, embedding_dim=128, base_word=80)
        assert layout.slice_base_local(0) == 10
        assert layout.slice_base_local(7) == 10


class TestScatterGather:
    def test_round_trip_canonical(self, rng):
        layout = EmbeddingLayout(node_dim=16, rows=6, embedding_dim=256)
        values = rng.standard_normal((6, 256)).astype(np.float32)
        slices = scatter(layout, values)
        assert len(slices) == 16
        np.testing.assert_array_equal(gather_slices(layout, slices), values)

    def test_round_trip_with_padding(self, rng):
        layout = EmbeddingLayout(node_dim=8, rows=3, embedding_dim=100)
        values = rng.standard_normal((3, 100)).astype(np.float32)
        np.testing.assert_array_equal(gather_slices(layout, scatter(layout, values)), values)

    def test_scatter_shape_check(self):
        layout = EmbeddingLayout(node_dim=8, rows=3, embedding_dim=100)
        with pytest.raises(ValueError):
            scatter(layout, np.zeros((3, 101), dtype=np.float32))

    def test_gather_slices_count_check(self):
        layout = EmbeddingLayout(node_dim=8, rows=3, embedding_dim=100)
        with pytest.raises(ValueError):
            gather_slices(layout, [np.zeros((3, 16))] * 7)

    def test_slice_payload_shapes(self):
        layout = EmbeddingLayout(node_dim=4, rows=5, embedding_dim=512)
        slices = scatter(layout, np.zeros((5, 512), dtype=np.float32))
        for payload in slices:
            assert payload.shape == (5 * layout.words_per_slice, 16)

    @given(
        node_dim=st.sampled_from([1, 2, 4, 8, 16, 32]),
        rows=st.integers(1, 12),
        dim=st.integers(1, 300),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, node_dim, rows, dim):
        layout = EmbeddingLayout(node_dim=node_dim, rows=rows, embedding_dim=dim)
        rng = np.random.default_rng(dim * rows)
        values = rng.standard_normal((rows, dim)).astype(np.float32)
        np.testing.assert_array_equal(gather_slices(layout, scatter(layout, values)), values)

    @given(
        node_dim=st.sampled_from([2, 4, 8, 16]),
        rows=st.integers(1, 10),
        dim=st.integers(1, 200),
    )
    @settings(max_examples=60, deadline=None)
    def test_dimm_local_invariant(self, node_dim, rows, dim):
        """node word w always lives on DIMM w % N at local word w // N."""
        layout = EmbeddingLayout(node_dim=node_dim, rows=rows, embedding_dim=dim)
        for row in (0, rows - 1):
            for chunk in (0, layout.chunks_padded - 1):
                w = layout.node_word(row, chunk)
                assert layout.dimm_of(w) == w % node_dim
                assert layout.local_word(w) == w // node_dim
