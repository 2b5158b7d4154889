"""Zero-copy publication of numpy array bundles over shared memory.

The parallel substrate (:mod:`repro.core.parallel`) must hand every
worker process the same large arrays -- the uncertain graph's CSR
adjacency, endpoint/probability vectors and the sampled world masks --
without pickling them per task.  This module packs a named bundle of
arrays into **one** :class:`multiprocessing.shared_memory.SharedMemory`
segment and describes it with a tiny picklable *layout* (name ->
``(dtype, shape, offset)``), so a task ships only the segment name plus
the layout and each worker attaches once and reads the arrays in place.

Lifecycle contract
------------------
* The creating process owns the segment: it calls :func:`pack_arrays`,
  ships ``(shm.name, layout)``, and eventually ``shm.close()`` +
  ``shm.unlink()`` (POSIX keeps the mapping alive for attached readers
  until they close, so unlinking after the last task is safe).
* Attaching processes call :func:`attach_arrays` and later
  :func:`close_attachment`.  Attachment views are marked read-only --
  worlds and graph structure are immutable by contract.
* On Python < 3.13 an *attach* also registers the segment with the
  resource tracker.  The substrate's workers are spawned children that
  share the parent's tracker process, whose registry is a *set*: the
  duplicate registration coalesces with the parent's create-time one
  and the parent's ``unlink()`` clears it, so no extra bookkeeping is
  needed (and attaching must *not* unregister, or the parent's later
  unlink would trip the tracker).
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Dict, Mapping, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .bitset import PackedMasks

#: name -> (dtype string, shape tuple, byte offset into the segment)
Layout = Dict[str, Tuple[str, Tuple[int, ...], int]]

#: offsets are aligned so every array starts on a cache line
_ALIGN = 64


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def pack_arrays(
    arrays: Mapping[str, np.ndarray]
) -> Tuple[shared_memory.SharedMemory, Layout]:
    """Copy ``arrays`` into one fresh shared-memory segment.

    Returns ``(shm, layout)``; the caller owns ``shm`` (close + unlink).
    Insertion order of ``arrays`` is the physical order in the segment.
    """
    layout: Layout = {}
    offset = 0
    contiguous = {}
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        contiguous[name] = array
        offset = _aligned(offset)
        layout[name] = (array.dtype.str, array.shape, offset)
        offset += array.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
    for name, array in contiguous.items():
        dtype, shape, start = layout[name]
        view = np.ndarray(
            shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=start
        )
        view[...] = array
    return shm, layout


def attach_arrays(
    name: str, layout: Layout
) -> Tuple[shared_memory.SharedMemory, Dict[str, np.ndarray]]:
    """Attach to a published segment and map its arrays read-only.

    The returned arrays are views into the mapping: keep the returned
    ``shm`` object alive for as long as any of them is used, then call
    :func:`close_attachment`.
    """
    shm = shared_memory.SharedMemory(name=name)
    out: Dict[str, np.ndarray] = {}
    for key, (dtype, shape, start) in layout.items():
        array = np.ndarray(
            shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=start
        )
        array.flags.writeable = False
        out[key] = array
    return shm, out


def mask_payload(masks: "PackedMasks") -> Dict[str, np.ndarray]:
    """Describe a packed world-mask matrix as a publishable array bundle.

    A :class:`repro.engine.bitset.PackedMasks` publishes its uint64
    words plus the logical bit width -- 8x less shared memory than a
    boolean byte matrix.  The inverse is :func:`masks_from_payload`;
    the round trip is lossless, so workers replay byte-identical worlds.
    """
    return {
        "packed_masks": masks.words,
        "mask_bits": np.array([masks.m], dtype=np.int64),
    }


def masks_from_payload(arrays: Mapping[str, np.ndarray]) -> "PackedMasks":
    """Rebuild the mask matrix a :func:`mask_payload` bundle describes.

    Attached words are wrapped zero-copy (the
    :class:`~repro.engine.bitset.PackedMasks` view reads the shared
    segment in place and unpacks rows lazily at the replay boundary).
    """
    from .bitset import PackedMasks

    return PackedMasks(arrays["packed_masks"], int(arrays["mask_bits"][0]))


def close_attachment(shm: shared_memory.SharedMemory, *views) -> None:
    """Drop array ``views`` and unmap ``shm`` (never unlinks).

    numpy views pin the exported buffer, so they must be released before
    ``close()``; passing them here makes the ordering explicit.  A still
    -pinned buffer raises ``BufferError`` inside ``close()``, which is
    swallowed: the mapping is then reclaimed when the last view dies.
    """
    del views
    try:
        shm.close()
    except BufferError:  # pragma: no cover - depends on caller refs
        pass
