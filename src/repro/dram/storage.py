"""Functional backing store for DRAM contents.

The timing simulator is data-free; functional correctness of the NMP tensor
operations is provided by :class:`WordStorage`, a NumPy-backed array of 64 B
words (16 FP32 elements each).  Each TensorDIMM owns one instance, indexed
by DIMM-local word addresses.  A TensorNode's DIMMs share one node-linear
array instead, each :class:`WordStorage` being a strided column of it
(:meth:`WordStorage.over`).

Index buffers (int32 lookup indices) share the same words via bit-casting,
exactly as a real DIMM stores them: 16 int32 values per 64 B word.
"""

import numpy as np

from ..config import ACCESS_GRANULARITY, ELEMS_PER_WORD


class WordStorage:
    """A DIMM's DRAM contents as an array of 64 B words."""

    def __init__(self, capacity_words: int):
        if capacity_words <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_words = capacity_words
        self._data = np.zeros((capacity_words, ELEMS_PER_WORD), dtype=np.float32)
        #: Monotonic write counter: bumped on every mutation so read caches
        #: (e.g. the NMP core's per-instruction index-buffer cache) can tell
        #: whether their snapshot is still current.
        self.version = 0

    @classmethod
    def over(cls, data: np.ndarray) -> "WordStorage":
        """Storage backed by an existing ``(words, 16)`` float32 array.

        The array is shared, not copied: a TensorNode hands each DIMM the
        column ``[:, i, :]`` of its node-linear word array.
        """
        storage = cls.__new__(cls)
        storage.capacity_words = data.shape[0]
        storage._data = data
        storage.version = 0
        return storage

    @property
    def array(self) -> np.ndarray:
        """The backing ``(capacity_words, 16)`` float32 array (not a copy).

        Whoever writes through it bumps :attr:`version`.
        """
        return self._data

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_words * ACCESS_GRANULARITY

    def _check(self, word: int, count: int = 1) -> None:
        if word < 0 or word + count > self.capacity_words:
            raise IndexError(
                f"word range [{word}, {word + count}) outside capacity "
                f"{self.capacity_words}"
            )

    # -- float words ---------------------------------------------------------

    def read_word(self, word: int) -> np.ndarray:
        """Read one 64 B word as 16 FP32 values (a copy)."""
        self._check(word)
        return self._data[word].copy()

    def write_word(self, word: int, values: np.ndarray) -> None:
        """Write one 64 B word."""
        self._check(word)
        self.version += 1
        self._data[word] = np.asarray(values, dtype=np.float32).reshape(ELEMS_PER_WORD)

    def read_words(self, words: np.ndarray) -> np.ndarray:
        """Gather many words at once; returns shape (len(words), 16)."""
        words = np.asarray(words, dtype=np.int64)
        if words.size and (words.min() < 0 or words.max() >= self.capacity_words):
            raise IndexError("word index out of range")
        return self._data[words]

    def read_range(self, start: int, count: int) -> np.ndarray:
        """Read ``count`` consecutive words starting at ``start``.

        Equivalent to ``read_words(start + np.arange(count))`` but without
        materialising an index array or paying numpy's fancy-indexing
        gather — contiguous reads are a plain slice copy.
        """
        self._check(start, count)
        return self._data[start : start + count].copy()

    def write_words(self, start: int, values: np.ndarray) -> None:
        """Write consecutive words starting at ``start``."""
        values = np.asarray(values, dtype=np.float32).reshape(-1, ELEMS_PER_WORD)
        self._check(start, len(values))
        self.version += 1
        self._data[start : start + len(values)] = values

    def write_scattered(self, words: np.ndarray, values: np.ndarray) -> None:
        """Write many non-contiguous words at once."""
        words = np.asarray(words, dtype=np.int64)
        values = np.asarray(values, dtype=np.float32).reshape(-1, ELEMS_PER_WORD)
        if words.size and (words.min() < 0 or words.max() >= self.capacity_words):
            raise IndexError("word index out of range")
        self.version += 1
        self._data[words] = values

    # -- int32 views (index buffers) ------------------------------------------

    def read_indices(self, word: int, count_words: int) -> np.ndarray:
        """Read ``count_words`` words reinterpreted as int32 lookup indices."""
        self._check(word, count_words)
        return self._data[word : word + count_words].view(np.int32).reshape(-1).copy()

    def write_indices(self, word: int, indices: np.ndarray) -> None:
        """Store int32 indices, padding the tail word with zeros."""
        packed = pack_indices(indices)
        self._check(word, len(packed))
        self.version += 1
        self._data[word : word + len(packed)] = packed


def pack_indices(indices: np.ndarray) -> np.ndarray:
    """int32 indices as ``(words, 16)`` float32 words, the tail word zero-padded."""
    indices = np.asarray(indices, dtype=np.int32).reshape(-1)
    words = -(-len(indices) // ELEMS_PER_WORD)
    padded = np.zeros(words * ELEMS_PER_WORD, dtype=np.int32)
    padded[: len(indices)] = indices
    return padded.view(np.float32).reshape(words, ELEMS_PER_WORD)
