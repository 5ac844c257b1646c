"""In-process array store backend (the default for in-process work).

The handle's payload carries the six SoA arrays *by value*: attaching
in the publishing process is zero-copy (the views are the arrays), but
shipping the handle across a process boundary would pickle the full
payload — O(n) per job.  So ``ram`` serves single-process runs; the
tile pool always ships ``memmap`` handles.

Nothing is cached and nothing needs unlinking: ``detach`` is a no-op
and ``close`` just drops the owner's reference.
"""

from __future__ import annotations

import itertools
import os
from typing import Any

import numpy as np

from repro.index.circleset import CircleSet
from repro.store import sanitize as _sanitize
from repro.store.base import (
    FIELD_DTYPES,
    NLCStore,
    StoreHandle,
    StoreWriter,
    check_slice,
    coerce_chunk,
    record_attach,
    soa_arrays,
)

_RAM_SEQ = itertools.count()


class RamStore(NLCStore):
    """Owner of one in-process array set."""

    __slots__ = ("_arrays",)

    def __init__(self, arrays: tuple[np.ndarray, ...], length: int,
                 capacity: int) -> None:
        super().__init__("ram", f"ram-{os.getpid()}-{next(_RAM_SEQ)}",
                         length, capacity)
        self._arrays = arrays

    def _payload(self) -> Any:
        return self._arrays

    def close(self) -> None:
        _sanitize.store_closed(self)
        self._arrays = ()


class _RamWriter(StoreWriter):
    __slots__ = ("_chunks",)

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._chunks: list[tuple[np.ndarray, ...]] = []

    def _write(self, chunk: tuple, at: int) -> None:
        self._chunks.append(chunk)

    def _seal(self, length: int) -> NLCStore:
        if self._chunks:
            arrays = tuple(np.concatenate([c[i] for c in self._chunks])
                           for i in range(6))
        else:
            arrays = tuple(np.empty(0, dtype=dt) for dt in FIELD_DTYPES)
        self._chunks = []
        return RamStore(coerce_chunk(arrays), length, self.capacity)

    def _release(self) -> None:
        self._chunks = []


class RamBackend:
    """The ``ram`` storage backend (stateless)."""

    name = "ram"

    def publish(self, nlcs: CircleSet) -> RamStore:
        n = len(nlcs)
        return RamStore(soa_arrays(nlcs), n, n)

    def writer(self, capacity: int) -> _RamWriter:
        return _RamWriter(capacity)

    def attach(self, handle: StoreHandle) -> CircleSet:
        _, _, length, _, arrays = handle
        if arrays is None or len(arrays) != 6:
            raise ValueError("ram handle lost its payload (store closed?)")
        record_attach(length, is_slice=False)
        return CircleSet(*arrays)

    def attach_slice(self, handle: StoreHandle, lo: int,
                     hi: int) -> CircleSet:
        _, _, length, _, arrays = handle
        if arrays is None or len(arrays) != 6:
            raise ValueError("ram handle lost its payload (store closed?)")
        lo, hi = check_slice(lo, hi, length)
        record_attach(hi - lo, is_slice=True)
        return CircleSet(*(arr[lo:hi] for arr in arrays))

    def detach(self, keep: tuple[str, ...] = ()) -> None:
        return None
