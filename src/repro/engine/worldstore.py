"""Seed-keyed store of sampled possible worlds, replayable across queries.

The sampling estimators (Algorithms 1 and 5) share one expensive phase:
drawing ``theta`` possible worlds.  A :class:`WorldStore` captures one
such draw as flat arrays -- the world-mask matrix, the ``(T,)``
estimator weights, and the LP/RSS per-world edge insertion orders, as
drained by :func:`repro.engine.blocks.drain_mask_stream`.  Every query
evaluates a store: cached ones are *replayed* any number of times, by
any query (MPDS or NDS, any ``k`` / ``min_size`` / measure / engine /
worker count), without touching a sampler again, and one-off draws
live in a transient store for the length of one query.

Packed substrate
----------------
The mask matrix is held **bit-packed**
(:class:`repro.engine.bitset.PackedMasks`: uint64 words, 8x less memory
than the boolean ``(T, m)`` byte matrix) and unpacked lazily, one world
row at a time, only at the python-replay boundary --
:class:`MaskWorld` construction and ``world_graph`` materialisation.
:attr:`WorldStore.masks` materialises the boolean matrix for oracles
(``tests/test_bitset_differential.py`` pins the packed store against
the sampler's boolean drain cell by cell).

An explicit ``memory_budget`` (bytes) additionally caps the *resident*
packed mask blocks: the rows are sharded over the same fixed <=64-block
chunk grid the parallel substrate uses
(:func:`repro.engine.blocks.plan_blocks`), spilled to a private
temporary file, and streamed back in block by block as replay touches
them, with least-recently-used blocks evicted whenever residency would
exceed the budget.  Spilled blocks only change under dynamic-store
surgery, which writes through to the spill file immediately
(:meth:`_MaskPager.write_block`), so eviction never writes back.
:attr:`WorldStore.peak_mask_bytes` tracks the high-water mark the
budget is asserted against.

Byte-identity contract
----------------------
:meth:`world_stream` rebuilds, world by world, the very objects the
originating sampler would have produced for the same seed:

* vectorised engines get fresh :class:`MaskWorld` views over the stored
  mask rows (with the original insertion orders attached);
* the pure-Python engine gets :meth:`IndexedGraph.world_graph`
  materialisations replaying the exact insertion sequence of the
  originating sampler.

Since the stored arrays are drained from the sampler's *continuous* RNG
stream, estimates computed from a store are **byte-identical** for
every engine and worker count, and equal to the equivalent one-shot
``top_k_mpds`` / ``top_k_nds`` call -- the property
``tests/test_session_differential.py`` asserts cell by cell -- and
budgeting never enters the contract: a budgeted store replays the same
bytes a resident store replays.

*Dynamic* stores (``dynamic=True``, drawn by
:func:`repro.delta.draw_dynamic_store`) trade the continuous-stream
contract for maintainability: each mask column comes from a per-edge
substream, so :meth:`set_column` / :meth:`replace_contents` can
surgically apply a :class:`repro.delta.GraphDelta` while staying
byte-identical to a from-scratch dynamic draw on the mutated graph.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..sampling.base import WeightedWorld
from .bitset import PackedMasks
from .indexed import IndexedGraph, MaskWorld


class _MaskPager:
    """Spill/stream packed mask blocks under an explicit byte budget.

    Blocks follow the parallel substrate's fixed chunk grid
    (:func:`repro.engine.blocks.plan_blocks` over the world count), so
    the streaming unit is the same unit workers claim.  All blocks are
    written once to an anonymous temporary file at construction; reads
    load a block's words back and evict least-recently-used blocks
    until residency fits the budget again.  The budget must fit the
    largest single block -- streaming is per-block, not per-row.
    """

    __slots__ = (
        "m", "blocks", "budget", "path", "_file", "_offsets", "_nbytes",
        "_shape", "_resident", "resident_bytes", "peak_resident_bytes",
        "block_loads", "block_evictions",
    )

    def __init__(
        self, packed: PackedMasks, blocks: List[Tuple[int, int]], budget: int
    ) -> None:
        words = packed.words
        self.m = packed.m
        self.blocks = blocks
        largest = max(
            (stop - start) * words.shape[1] * 8 for start, stop in blocks
        )
        if budget < largest:
            raise ValueError(
                f"memory_budget={budget} bytes cannot hold the largest "
                f"mask block ({largest} bytes); raise the budget or "
                "shrink theta"
            )
        self.budget = budget
        # named (not anonymous) so an I/O failure can point at the file
        self._file = tempfile.NamedTemporaryFile(
            prefix="repro-worldstore-", suffix=".spill"
        )
        self.path = self._file.name
        self._offsets: List[int] = []
        self._nbytes: List[int] = []
        self._shape: List[Tuple[int, int]] = []
        offset = 0
        for start, stop in blocks:
            chunk = np.ascontiguousarray(words[start:stop])
            self._file.write(chunk.tobytes())
            self._offsets.append(offset)
            self._nbytes.append(chunk.nbytes)
            self._shape.append(chunk.shape)
            offset += chunk.nbytes
        #: block index -> resident words, in least-recently-used order
        self._resident: Dict[int, np.ndarray] = {}
        self.resident_bytes = 0
        self.peak_resident_bytes = 0
        self.block_loads = 0
        self.block_evictions = 0

    def block_words(self, index: int) -> np.ndarray:
        """Return block ``index``'s words, streaming them in on a miss."""
        resident = self._resident
        words = resident.pop(index, None)
        if words is not None:
            resident[index] = words  # refresh recency
            return words
        nbytes = self._nbytes[index]
        # evict before loading so the budget bounds true co-residency
        while resident and self.resident_bytes + nbytes > self.budget:
            oldest = next(iter(resident))
            self.resident_bytes -= resident.pop(oldest).nbytes
            self.block_evictions += 1
        self._file.seek(self._offsets[index])
        data = self._file.read(nbytes)
        if len(data) != nbytes:
            # a short read used to flow straight into reshape and fail
            # far from the cause; name the file and block instead
            raise IOError(
                f"short read from world-store spill file {self.path}: "
                f"block {index} expected {nbytes} bytes, "
                f"got {len(data)}"
            )
        words = np.frombuffer(data, dtype=np.uint64).reshape(
            self._shape[index]
        )
        resident[index] = words
        self.resident_bytes += nbytes
        self.peak_resident_bytes = max(
            self.peak_resident_bytes, self.resident_bytes
        )
        self.block_loads += 1
        return words

    def write_block(self, index: int, words: np.ndarray) -> None:
        """Overwrite block ``index``'s spilled words (same-shape surgery).

        Write-through: the spill file is updated immediately, so the
        no-write-back eviction invariant holds even after surgery.  The
        block's size never changes, so the residency ledger only swaps
        the resident copy (if any) and the budget stays truthful.
        """
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.shape != self._shape[index]:
            raise ValueError(
                f"block {index} surgery must preserve shape "
                f"{self._shape[index]}, got {words.shape}"
            )
        self._file.seek(self._offsets[index])
        self._file.write(words.tobytes())
        self._file.flush()
        if index in self._resident:
            self._resident[index] = words

    def block_of(self, i: int) -> int:
        """Grid block index containing world row ``i`` (equal-size grid)."""
        start, stop = self.blocks[0]
        return min(i // (stop - start), len(self.blocks) - 1)

    def row(self, i: int) -> np.ndarray:
        """World row ``i``'s packed words, streamed via its block."""
        index = self.block_of(i)
        start, _stop = self.blocks[index]
        return self.block_words(index)[i - start]

    def close(self) -> None:
        """Drop resident blocks and delete the spill file (idempotent)."""
        self._resident.clear()
        self.resident_bytes = 0
        if self._file is not None:
            self._file.close()
            self._file = None

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass


class WorldStore:
    """One draw of sampled worlds, held as replayable flat arrays.

    ``masks`` is a boolean ``(T, m)`` matrix (packed on the way in) or
    an already packed :class:`PackedMasks`.
    """

    __slots__ = (
        "indexed", "weights", "order_data", "order_indptr",
        "kind", "theta", "seed", "memory_budget", "dynamic",
        "_masks", "_pager",
    )

    def __init__(
        self,
        indexed: IndexedGraph,
        masks: Union[PackedMasks, np.ndarray],
        weights: np.ndarray,
        order_data: Optional[np.ndarray],
        order_indptr: Optional[np.ndarray],
        kind: str = "mc",
        theta: Optional[int] = None,
        seed: Optional[int] = None,
        memory_budget: Optional[int] = None,
        dynamic: bool = False,
    ) -> None:
        self.indexed = indexed
        self.weights = weights
        self.order_data = order_data
        self.order_indptr = order_indptr
        self.kind = kind
        self.theta = len(weights) if theta is None else theta
        self.seed = seed
        self.memory_budget = memory_budget
        self.dynamic = bool(dynamic)
        self._masks: Optional[PackedMasks] = None
        self._pager: Optional[_MaskPager] = None
        self._hold(masks)

    def _hold(self, masks) -> None:
        """Pack ``masks`` and keep them resident, or page them out
        when the store has a ``memory_budget``."""
        if isinstance(masks, np.ndarray):
            masks = PackedMasks.from_bool(masks)
        self._masks = masks
        if (
            self.memory_budget is not None
            and self.count > 0
            and self.indexed.m > 0
        ):
            from .blocks import plan_blocks

            self._pager = _MaskPager(
                masks, plan_blocks(self.count), self.memory_budget
            )
            # the full word matrix is dropped: from here on at most
            # `memory_budget` bytes of mask blocks are resident
            self._masks = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_vectorized(
        cls,
        sampler,
        theta: int,
        kind: str = "mc",
        seed: Optional[int] = None,
        memory_budget: Optional[int] = None,
    ) -> "WorldStore":
        """Drain a vectorised sampler's continuous stream into a store."""
        from .blocks import drain_mask_stream

        masks, weights, order_data, order_indptr = drain_mask_stream(
            sampler, theta
        )
        return cls(
            sampler.indexed, masks, weights, order_data, order_indptr,
            kind=kind, theta=theta, seed=seed, memory_budget=memory_budget,
        )

    @classmethod
    def from_sampler(
        cls,
        graph,
        sampler,
        theta: int,
        seed: Optional[int] = None,
        memory_budget: Optional[int] = None,
    ) -> "WorldStore":
        """Drain a pure-Python (or vectorised) sampler via its twin.

        ``sampler=None`` replicates ``MonteCarloSampler(graph, seed)``.
        A pure-Python sampler is adopted mid-stream, so its RNG advances
        exactly as if it had drawn the ``theta`` worlds itself.
        """
        from .estimators import vectorized_sampler

        vec = vectorized_sampler(graph, sampler, seed)
        kind = getattr(sampler, "name", None) or "mc"
        return cls.from_vectorized(
            vec, theta, kind=str(kind).lower(), seed=seed,
            memory_budget=memory_budget,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Actual number of stored worlds (RSS may differ from theta)."""
        return len(self.weights)

    @property
    def masks(self) -> np.ndarray:
        """The boolean ``(T, m)`` mask matrix (the oracle boundary).

        This *materialises* a fresh byte matrix -- use :meth:`mask_row`
        / the replay iterators on hot paths.
        """
        return self.mask_matrix().to_bool()

    def mask_matrix(self) -> PackedMasks:
        """The stored :class:`PackedMasks` (``matrix[i]`` -> boolean row).

        A budgeted store re-assembles one full matrix here -- the entry
        point shared-memory publication uses, documented as outside the
        residency budget (the segment is shared across processes, not
        store-resident).
        """
        if self._pager is not None:
            pager = self._pager
            words = np.concatenate(
                [
                    np.asarray(pager.block_words(index))
                    for index in range(len(pager.blocks))
                ]
            ) if pager.blocks else np.zeros((0, 0), dtype=np.uint64)
            return PackedMasks(words, pager.m)
        return self._masks

    @property
    def mask_nbytes(self) -> int:
        """Resident bytes of the mask words (a budgeted store counts
        its currently resident blocks)."""
        if self._pager is not None:
            return self._pager.resident_bytes
        return self._masks.nbytes

    @property
    def peak_mask_bytes(self) -> int:
        """High-water mark of resident mask bytes (what a
        ``memory_budget`` bounds; equals :attr:`mask_nbytes` for
        unbudgeted stores)."""
        if self._pager is not None:
            return self._pager.peak_resident_bytes
        return self._masks.nbytes

    @property
    def nbytes(self) -> int:
        """Approximate resident size of the stored world arrays."""
        total = self.mask_nbytes + self.weights.nbytes
        if self.order_data is not None:
            total += self.order_data.nbytes + self.order_indptr.nbytes
        return total

    def memory_units(self) -> int:
        """Resident mask storage in sampler-style abstract units (bytes).

        Extends the samplers' ``memory_units`` bookkeeping to the store
        tier: the figure a ``memory_budget`` bounds at every step.
        """
        return self.mask_nbytes

    def mask_row(self, i: int) -> np.ndarray:
        """World ``i``'s boolean edge mask (unpacked lazily)."""
        if self._pager is not None:
            from .bitset import unpack_row

            return unpack_row(self._pager.row(i), self._pager.m)
        return self._masks[i]

    def row_bytes(self, i: int) -> bytes:
        """World ``i``'s packed mask words as bytes, never unpacked.

        Two rows of one column layout hold the same edge set exactly
        when their bytes are equal (budgeted stores stream the row in
        through its block).
        """
        if self._pager is not None:
            return self._pager.row(i).tobytes()
        return self._masks.words[i].tobytes()

    def order(self, i: int) -> Optional[np.ndarray]:
        """Edge insertion order of world ``i`` (None = edge-index order)."""
        if self.order_data is None:
            return None
        return self.order_data[self.order_indptr[i]:self.order_indptr[i + 1]]

    # ------------------------------------------------------------------
    # surgery (dynamic-store maintenance; see repro.delta)
    # ------------------------------------------------------------------
    def set_column(self, j: int, column: np.ndarray) -> np.ndarray:
        """Overwrite edge ``j``'s outcome column; return flipped worlds.

        The probability-update fast path: one ``(T,)`` boolean column
        is written in place -- via single-word surgery
        (:meth:`PackedMasks.set_column`, which also invalidates its row
        cache), or block by block through the pager for a budgeted
        store (each block is loaded, patched and written through, so
        residency never exceeds the budget).  Returns the indices of
        the worlds whose bit actually changed -- the evaluation-cache
        invalidation set.
        """
        column = np.asarray(column)
        if column.dtype != np.bool_:
            column = column.astype(bool)
        if column.shape != (self.count,):
            raise ValueError(
                f"column must have shape ({self.count},), "
                f"got {column.shape}"
            )
        if self._pager is not None:
            from .bitset import WORD_BITS

            word, bitpos = divmod(range(self.indexed.m)[j], WORD_BITS)
            bit = np.uint64(1 << bitpos)
            clear = np.uint64(~(1 << bitpos) & (2**64 - 1))
            pager = self._pager
            flipped: List[np.ndarray] = []
            for index, (start, stop) in enumerate(pager.blocks):
                # spilled words come off np.frombuffer read-only views;
                # surgery needs a private writable copy
                words = np.array(pager.block_words(index))
                old = (words[:, word] & bit) != 0
                part = column[start:stop]
                changed = np.flatnonzero(old != part)
                if len(changed):
                    words[:, word] &= clear
                    words[:, word] |= np.where(part, bit, np.uint64(0))
                    pager.write_block(index, words)
                    flipped.append(changed + start)
            if not flipped:
                return np.zeros(0, dtype=np.int64)
            return np.concatenate(flipped)
        old = self._masks.set_column(j, column)
        return np.flatnonzero(old != column)

    def rebuild_orders(self) -> None:
        """Recompute the insertion-order sidecar from the mask rows.

        Dynamic stores define per-world insertion order as ascending
        edge id -- a pure function of each mask row -- so after column
        surgery the sidecar is rebuilt by streaming the rows (budgeted
        stores stay within budget).  No-op for stores without orders.
        """
        if self.order_data is None:
            return
        data: List[np.ndarray] = []
        indptr = np.zeros(self.count + 1, dtype=np.int64)
        total = 0
        for i, row in enumerate(self._iter_mask_rows()):
            alive = np.flatnonzero(row).astype(np.int64)
            data.append(alive)
            total += len(alive)
            indptr[i + 1] = total
        self.order_data = (
            np.concatenate(data) if data else np.zeros(0, dtype=np.int64)
        )
        self.order_indptr = indptr

    def replace_contents(
        self,
        masks: np.ndarray,
        order_data: Optional[np.ndarray],
        order_indptr: Optional[np.ndarray],
        indexed: IndexedGraph,
    ) -> None:
        """Swap in post-surgery contents (structural-delta rebuilds).

        Insertions and deletions change the mask width, which in-place
        word surgery cannot express; the caller rebuilds the boolean
        matrix and this method re-packs / re-pages it under the store's
        own budget, closing the previous spill file.
        """
        masks = np.asarray(masks)
        if masks.dtype != np.bool_:
            masks = masks.astype(bool)
        if masks.shape != (self.count, indexed.m):
            raise ValueError(
                f"replacement masks must have shape "
                f"({self.count}, {indexed.m}), got {masks.shape}"
            )
        if self._pager is not None:
            self._pager.close()
            self._pager = None
        self.indexed = indexed
        self.order_data = order_data
        self.order_indptr = order_indptr
        self._hold(masks)

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def _iter_mask_rows(self) -> Iterator[np.ndarray]:
        """Yield every world's boolean mask row, in stream order.

        Budgeted stores stream block by block through the pager (at
        most ``memory_budget`` bytes of packed blocks resident);
        resident stores unpack row by row.
        """
        if self._pager is not None:
            from .bitset import unpack_rows

            pager = self._pager
            for index, (start, stop) in enumerate(pager.blocks):
                rows = unpack_rows(pager.block_words(index), pager.m)
                for offset in range(stop - start):
                    yield rows[offset]
        else:
            for i in range(self.count):
                yield self._masks[i]

    def mask_worlds(
        self, subset: Optional[np.ndarray] = None
    ) -> Iterator[WeightedWorld]:
        """Yield the stored worlds as fresh :class:`MaskWorld` views.

        ``subset`` restricts replay to those world indices (ascending
        by convention) -- the seam stale-evaluation patching uses to
        re-evaluate only flipped worlds after a delta.
        """
        if subset is None:
            for i, mask in enumerate(self._iter_mask_rows()):
                yield WeightedWorld(
                    MaskWorld(self.indexed, mask, self.order(i)),
                    float(self.weights[i]),
                )
            return
        for i in subset:
            i = int(i)
            yield WeightedWorld(
                MaskWorld(self.indexed, self.mask_row(i), self.order(i)),
                float(self.weights[i]),
            )

    def graph_worlds(
        self, subset: Optional[np.ndarray] = None
    ) -> Iterator[WeightedWorld]:
        """Yield the stored worlds materialised as :class:`Graph` objects,
        replaying each world's exact insertion sequence."""
        if subset is None:
            for i, mask in enumerate(self._iter_mask_rows()):
                yield WeightedWorld(
                    self.indexed.world_graph(mask, self.order(i)),
                    float(self.weights[i]),
                )
            return
        for i in subset:
            i = int(i)
            yield WeightedWorld(
                self.indexed.world_graph(self.mask_row(i), self.order(i)),
                float(self.weights[i]),
            )

    def world_stream(
        self,
        measure,
        engine: str = "auto",
        subset: Optional[np.ndarray] = None,
    ) -> Tuple:
        """Build one query's ``(worlds, loop_measure, engine_measure)``.

        Resolves the engine for ``measure`` (stored streams are always
        replayable, so only the measure matters) and returns the world
        iterator plus the measure the estimator loop should query:
        batch-primed :class:`MaskWorld` views and an
        :class:`EngineMeasure` on the vector engines, materialised
        :class:`Graph` worlds and the plain measure (``engine_measure``
        ``None``) on the python engine.  ``subset`` replays only those
        world indices.
        """
        from .estimators import (
            VECTOR_ENGINES,
            EngineMeasure,
            primed_world_stream,
            resolve_engine,
        )

        resolved = resolve_engine(engine, None, measure)
        if resolved in VECTOR_ENGINES:
            engine_measure = EngineMeasure(measure)
            return (
                primed_world_stream(
                    self.mask_worlds(subset), engine_measure
                ),
                engine_measure,
                engine_measure,
            )
        return self.graph_worlds(subset), measure, None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the spill file of a budgeted store (idempotent; a
        resident store holds nothing beyond its arrays)."""
        if self._pager is not None:
            self._pager.close()

    def __repr__(self) -> str:
        budget = (
            f", memory_budget={self.memory_budget}"
            if self.memory_budget is not None
            else ""
        )
        dynamic = ", dynamic=True" if self.dynamic else ""
        return (
            f"WorldStore(kind={self.kind!r}, worlds={self.count}, "
            f"m={self.indexed.m}, seed={self.seed!r}{budget}{dynamic})"
        )
