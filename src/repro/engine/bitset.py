"""Bit-packed possible-world masks: uint64 words instead of bool bytes.

A sampled world is a boolean mask over the edge axis, and the engine
stores ``theta`` of them as a ``(T, m)`` byte matrix -- one full byte
per Bernoulli outcome.  This module packs those masks 64-to-a-word:
world ``t`` becomes a row of ``ceil(m / 64)`` ``uint64`` words, with
edge ``j`` living in word ``j // 64`` at bit ``j % 64`` (LSB-first, the
same order ``np.packbits(..., bitorder="little")`` uses).  That is an
8x mask-memory reduction, and the column kernels below (popcount,
AND/OR reductions, per-edge world counts) read whole words at a time
instead of whole bytes.

Determinism contract: packing is **lossless and order-preserving** --
``unpack_rows(pack_rows(masks), m)`` returns a byte-identical copy of
``masks``, so a packed :class:`~repro.engine.worldstore.WorldStore`
replays exactly the worlds an unpacked one would (the property
``tests/test_bitset_differential.py`` pins cell by cell).  Padding bits
past ``m`` in the last word are always zero, which is what lets
popcounts and reductions run over raw words without masking.

The in-word bit order is defined by the *byte layout* (little-endian
words), so pack -> unpack round-trips on any host; the word *values*
are only meaningful relative to this module's own kernels.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

#: bits per packed word
WORD_BITS = 64

#: rows batch-unpacked per :class:`PackedMasks` row-cache fill
ROW_CACHE_BLOCK = 64

#: elementwise popcount: numpy >= 2.0 ships a ufunc; older hosts fall
#: back to a 16-bit lookup table (64 KiB, built once on first use)
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")
_POP16: Optional[np.ndarray] = None


def words_for(m: int) -> int:
    """Number of uint64 words needed for an ``m``-bit mask row."""
    if m < 0:
        raise ValueError(f"mask width must be >= 0, got {m}")
    return -(-m // WORD_BITS)


def pack_rows(masks: np.ndarray) -> np.ndarray:
    """Pack a ``(T, m)`` boolean matrix into ``(T, ceil(m/64))`` words.

    Bit ``j`` of a row lands in word ``j // 64`` at (little-endian) bit
    position ``j % 64``; padding bits beyond ``m`` are zero.  Accepts
    ``T == 0`` and ``m == 0`` (degenerate shapes round-trip).
    """
    masks = np.asarray(masks)
    if masks.ndim != 2:
        raise ValueError(
            f"expected a (T, m) mask matrix, got shape {masks.shape}"
        )
    if masks.dtype != np.bool_:
        masks = masks.astype(bool)
    t, m = masks.shape
    w = words_for(m)
    packed8 = np.packbits(masks, axis=1, bitorder="little")
    padded = np.zeros((t, w * 8), dtype=np.uint8)
    padded[:, : packed8.shape[1]] = packed8
    return padded.view(np.uint64)


def unpack_rows(words: np.ndarray, m: int) -> np.ndarray:
    """Unpack ``(T, W)`` words back into the ``(T, m)`` boolean matrix.

    The exact inverse of :func:`pack_rows`; the returned array is a
    fresh writable copy (packed storage stays immutable).
    """
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise ValueError(
            f"expected a (T, W) word matrix, got shape {words.shape}"
        )
    t, w = words.shape
    if w != words_for(m):
        raise ValueError(
            f"word matrix has {w} columns, but m={m} needs {words_for(m)}"
        )
    if m == 0:
        return np.zeros((t, 0), dtype=bool)
    as_bytes = np.ascontiguousarray(words).view(np.uint8).reshape(t, w * 8)
    bits = np.unpackbits(as_bytes, axis=1, count=m, bitorder="little")
    return bits.astype(bool)


def pack_row(mask: np.ndarray) -> np.ndarray:
    """Pack one ``(m,)`` boolean mask into a ``(W,)`` word row."""
    return pack_rows(np.asarray(mask)[None, :])[0]


def unpack_row(words: np.ndarray, m: int) -> np.ndarray:
    """Unpack one ``(W,)`` word row into its ``(m,)`` boolean mask."""
    return unpack_rows(np.asarray(words, dtype=np.uint64)[None, :], m)[0]


def popcount(words: np.ndarray) -> np.ndarray:
    """Elementwise set-bit count of a uint64 array (any shape).

    Uses ``np.bitwise_count`` when available; otherwise a 16-bit lookup
    table over the words' half-word views (identical results, pinned by
    ``tests/test_bitset.py`` against the ``np.sum`` oracle).
    """
    words = np.asarray(words, dtype=np.uint64)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).astype(np.int64)
    global _POP16
    if _POP16 is None:
        counts = np.arange(1 << 16, dtype=np.uint32)
        counts = counts - ((counts >> 1) & 0x5555)
        counts = (counts & 0x3333) + ((counts >> 2) & 0x3333)
        counts = (counts + (counts >> 4)) & 0x0F0F
        _POP16 = ((counts + (counts >> 8)) & 0x1F).astype(np.uint8)
    halves = np.ascontiguousarray(words).view(np.uint16)
    return (
        _POP16[halves]
        .reshape(words.shape + (4,))
        .sum(axis=-1, dtype=np.int64)
    )


def row_popcounts(words: np.ndarray) -> np.ndarray:
    """Alive-edge count of every packed row: ``(T, W)`` -> ``(T,)``.

    The packed twin of ``masks.sum(axis=1)`` -- it touches 8x less
    memory, which is where packing pays off in the cross-world kernels.
    """
    words = np.asarray(words, dtype=np.uint64)
    return popcount(words).sum(axis=1, dtype=np.int64)


def and_reduce(words: np.ndarray) -> np.ndarray:
    """AND all packed rows: edges present in *every* stored world."""
    words = np.asarray(words, dtype=np.uint64)
    if len(words) == 0:
        # empty world set: the AND identity is all-ones, but padding
        # bits must stay zero, so callers get an explicit empty instead
        raise ValueError("and_reduce needs at least one row")
    return np.bitwise_and.reduce(words, axis=0)


def or_reduce(words: np.ndarray) -> np.ndarray:
    """OR all packed rows: edges present in *any* stored world."""
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise ValueError(
            f"expected a (T, W) word matrix, got shape {words.shape}"
        )
    if len(words) == 0:
        return np.zeros(words.shape[1], dtype=np.uint64)
    return np.bitwise_or.reduce(words, axis=0)


def column_counts(
    words: np.ndarray, m: int, block: int = 1024
) -> np.ndarray:
    """Per-edge world counts: in how many rows is each of the ``m`` bits set?

    The packed twin of ``masks.sum(axis=0)``.  Rows are unpacked in
    bounded blocks so the transient boolean matrix never exceeds
    ``block * m`` bytes regardless of ``T``.
    """
    words = np.asarray(words, dtype=np.uint64)
    counts = np.zeros(m, dtype=np.int64)
    for lo in range(0, len(words), block):
        counts += unpack_rows(words[lo : lo + block], m).sum(
            axis=0, dtype=np.int64
        )
    return counts


def alive_edges(word_row: np.ndarray, m: int) -> np.ndarray:
    """Indices of the set bits of one packed row, ascending.

    The packed twin of ``np.flatnonzero(mask)`` -- exactly the edge
    iteration order Monte Carlo replay uses (edge-index order).
    """
    return np.flatnonzero(unpack_row(word_row, m))


class PackedMasks:
    """An immutable ``(T, m)`` world-mask matrix held as packed words.

    The drop-in replacement for the store's boolean mask matrix:
    ``packed[i]`` unpacks row ``i`` to a fresh ``(m,)`` boolean mask
    (the python-replay boundary -- :class:`~repro.engine.indexed.
    MaskWorld` and ``world_graph`` materialisations consume plain
    boolean rows), while the words stay resident at 1/8 the footprint.
    Everything else (shared-memory publication, popcount kernels,
    block spill) operates on :attr:`words` directly.

    Row access is served from a one-block cache: ``__getitem__`` batch
    unpacks the aligned :data:`ROW_CACHE_BLOCK`-row block containing
    the requested row and keeps it until a different block is touched,
    so sequential replay (the store's access pattern) costs one
    ``np.unpackbits`` per block instead of one per row, while the
    transient footprint stays bounded at ``ROW_CACHE_BLOCK * m`` bytes.
    The cache is one tuple attribute (atomic to swap in CPython) and
    rows are handed out as copies, so concurrent session threads stay
    safe and the packed storage stays effectively immutable.

    The one sanctioned mutation is :meth:`set_column` (dynamic-store
    surgery: a probability update re-draws a single edge's column in
    place).  Every mutation bumps a generation counter the row cache is
    keyed on, so a cached block can never serve pre-surgery rows.
    """

    __slots__ = ("words", "m", "_cache", "_generation")

    def __init__(self, words: np.ndarray, m: int) -> None:
        words = np.asarray(words, dtype=np.uint64)
        if words.ndim != 2:
            raise ValueError(
                f"expected (T, W) words, got shape {words.shape}"
            )
        if words.shape[1] != words_for(m):
            raise ValueError(
                f"words have {words.shape[1]} columns, but m={m} needs "
                f"{words_for(m)}"
            )
        self.words = words
        self.m = m
        #: (generation, block_lo, boolean rows) of the most recently
        #: touched block; stale the moment the generation moves on
        self._cache: Optional[Tuple[int, int, np.ndarray]] = None
        self._generation = 0

    @classmethod
    def from_bool(cls, masks: np.ndarray) -> "PackedMasks":
        """Pack a boolean ``(T, m)`` matrix."""
        masks = np.asarray(masks)
        return cls(pack_rows(masks), masks.shape[1])

    # ------------------------------------------------------------------
    # matrix protocol (the subset the replay paths use)
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        """Logical ``(T, m)`` shape (not the word shape)."""
        return (len(self.words), self.m)

    @property
    def nbytes(self) -> int:
        """Packed resident size -- ~1/8 of the boolean equivalent."""
        return self.words.nbytes

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, i: int) -> np.ndarray:
        """World ``i``'s boolean mask (the lazy replay boundary).

        Served as a fresh writable copy out of the one-block row cache
        (see the class docstring); repeated / sequential access does
        not re-unpack the same block.
        """
        i = range(len(self.words))[i]  # normalise negatives, bounds-check
        lo = i - (i % ROW_CACHE_BLOCK)
        generation = self._generation
        cached = self._cache
        if cached is None or cached[0] != generation or cached[1] != lo:
            cached = (
                generation,
                lo,
                unpack_rows(self.words[lo : lo + ROW_CACHE_BLOCK], self.m),
            )
            self._cache = cached
        return cached[2][i - lo].copy()

    def set_column(self, j: int, column: np.ndarray) -> np.ndarray:
        """Overwrite bit ``j`` of every row; return the old bool column.

        The dynamic-store surgery primitive: a probability update
        re-draws one edge's ``(T,)`` outcome column and writes it into
        the packed words in place (one word column touched).  Bumps the
        row-cache generation so subsequent ``__getitem__`` calls can
        never observe pre-surgery rows, and returns the replaced
        column so callers can diff for flipped worlds.
        """
        j = range(self.m)[j]  # normalise negatives, bounds-check
        column = np.asarray(column)
        if column.shape != (len(self.words),):
            raise ValueError(
                f"column must have shape ({len(self.words)},), "
                f"got {column.shape}"
            )
        if column.dtype != np.bool_:
            column = column.astype(bool)
        word, bitpos = divmod(j, WORD_BITS)
        bit = np.uint64(1 << bitpos)
        if not self.words.flags.writeable:
            # shm-published words are read-only views; surgery gets a
            # private copy (publication is invalidated by the caller)
            self.words = self.words.copy()
        old = (self.words[:, word] & bit) != 0
        self.words[:, word] &= np.uint64(~(1 << bitpos) & (2**64 - 1))
        self.words[:, word] |= np.where(column, bit, np.uint64(0))
        self._generation += 1
        self._cache = None
        return old

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Unpack rows ``lo:hi`` into a boolean ``(hi - lo, m)`` block."""
        return unpack_rows(self.words[lo:hi], self.m)

    def to_bool(self) -> np.ndarray:
        """Unpack the whole matrix (compat / oracle boundary only)."""
        return unpack_rows(self.words, self.m)

    def iter_bool_rows(self) -> Iterator[np.ndarray]:
        """Yield every row's boolean mask, one at a time."""
        for i in range(len(self.words)):
            yield self[i]

    def row_popcounts(self) -> np.ndarray:
        """Alive-edge count per world, straight off the words."""
        return row_popcounts(self.words)

    def __repr__(self) -> str:
        return (
            f"PackedMasks(worlds={len(self.words)}, m={self.m}, "
            f"nbytes={self.nbytes})"
        )
