"""Rank-interleaved address mapping for embeddings (Fig. 7).

The mapping's single rule: node-linear 64 B word ``w`` lives on TensorDIMM
``w % node_dim`` at DIMM-local word ``w // node_dim``.  Consecutive chunks
of an embedding vector therefore stripe across all DIMMs, every NMP core
owns an equal slice of every embedding, and aggregate bandwidth scales with
the DIMM count — the paper's key scaling property (Section 4.4).

Embedding rows whose chunk count is not a multiple of ``node_dim`` are
padded up to the next multiple so that every row starts on DIMM 0 and every
DIMM holds exactly ``words_per_slice`` words per row.  The paper's canonical
configuration (embedding bytes == 64 * node_dim, e.g. 1 KB over 16 DIMMs)
has ``words_per_slice == 1`` and zero padding.
"""

from dataclasses import dataclass

import numpy as np

from ..config import ACCESS_GRANULARITY, BYTES_PER_ELEMENT


def chunks_for_dim(embedding_dim: int) -> int:
    """64 B chunks needed for one embedding vector of ``embedding_dim`` floats."""
    if embedding_dim < 1:
        raise ValueError("embedding dimension must be positive")
    return -(-embedding_dim * BYTES_PER_ELEMENT // ACCESS_GRANULARITY)


@dataclass(frozen=True)
class EmbeddingLayout:
    """Placement of a 2-D tensor (table or activation) in node word space.

    ``rows`` is the number of embedding vectors (table entries, or batch
    elements for an activation tensor); ``embedding_dim`` the vector width
    in FP32 elements; ``base_word`` the node-linear word address of row 0,
    which must be aligned to ``node_dim``.
    """

    node_dim: int
    rows: int
    embedding_dim: int
    base_word: int = 0

    def __post_init__(self):
        if self.node_dim < 1:
            raise ValueError("node_dim must be positive")
        if self.rows < 1:
            raise ValueError("rows must be positive")
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be positive")
        if self.base_word % self.node_dim:
            raise ValueError(
                f"base word {self.base_word} not aligned to node_dim {self.node_dim}"
            )

    # -- geometry -------------------------------------------------------------

    @property
    def chunks(self) -> int:
        """Unpadded 64 B chunks per row."""
        return chunks_for_dim(self.embedding_dim)

    @property
    def chunks_padded(self) -> int:
        """Chunks per row rounded up to a multiple of node_dim."""
        return -(-self.chunks // self.node_dim) * self.node_dim

    @property
    def words_per_slice(self) -> int:
        """64 B words each DIMM owns per row."""
        return self.chunks_padded // self.node_dim

    @property
    def total_words(self) -> int:
        """Node words occupied by the whole tensor (including padding)."""
        return self.rows * self.chunks_padded

    @property
    def words_per_dimm(self) -> int:
        """DIMM-local words this tensor occupies on every DIMM."""
        return self.rows * self.words_per_slice

    @property
    def bytes(self) -> int:
        """Unpadded payload size in bytes."""
        return self.rows * self.embedding_dim * BYTES_PER_ELEMENT

    # -- address arithmetic ----------------------------------------------------

    def node_word(self, row: int, chunk: int) -> int:
        """Node-linear word address of ``chunk`` within ``row``."""
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} outside [0, {self.rows})")
        if not 0 <= chunk < self.chunks_padded:
            raise IndexError(f"chunk {chunk} outside [0, {self.chunks_padded})")
        return self.base_word + row * self.chunks_padded + chunk

    def dimm_of(self, node_word: int) -> int:
        """Which TensorDIMM owns a node word."""
        return node_word % self.node_dim

    def local_word(self, node_word: int) -> int:
        """DIMM-local word address of a node word."""
        return node_word // self.node_dim

    def row_slice_local_words(self, row: int, dimm: int) -> np.ndarray:
        """DIMM-local word addresses of ``row``'s slice on ``dimm``.

        Row ``r`` occupies node words ``base + r*chunks_padded + j``; the
        words owned by ``dimm`` are those with ``j % node_dim == dimm`` —
        since ``base`` and ``chunks_padded`` are both multiples of
        ``node_dim``, that is ``j = dimm, dimm + node_dim, ...``.
        """
        start = self.base_word + row * self.chunks_padded + dimm
        words = start + np.arange(self.words_per_slice) * self.node_dim
        return words // self.node_dim

    def slice_base_local(self, dimm: int) -> int:
        """DIMM-local word address where this tensor's slice begins."""
        return (self.base_word + dimm) // self.node_dim
