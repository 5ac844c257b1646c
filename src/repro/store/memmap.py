"""Memory-mapped file store backend — the out-of-core tier and the
tile pool's cross-process store.

The SoA goes down as one file: a fixed-size JSON header (magic,
version, ``length``, ``capacity``, field dtypes) followed by the six
field regions at ``HEADER_BYTES + i * 8 * capacity``.  Publishing and
the streaming writer use plain *buffered file writes* (seek + write per
field region), never a writable mapping — dirty mapped pages would
count toward the producer's RSS, written-through page cache does not,
and keeping the build's peak RSS at O(chunk) is the entire point.

Consumers attach with ``mmap.ACCESS_READ`` and numpy ``frombuffer``
views (:func:`~repro.store.base.views_over`).  Mapped file pages enter
RSS only when touched and leave it when the mapping is dropped, so a
tile-at-a-time solve that attaches one row slice per tile — the cached
full attachment is for long-lived workers; slice attachments are
deliberately *uncached* and die with the returned ``CircleSet`` — holds
a resident footprint of O(slice) against a store of O(n).

Pool workers receive only the handle (a path and a shape) and map just
their tile's row slice.  A worker that dies mid-attach leaks nothing:
its mapping vanishes with the process, and the file is the owner's to
unlink — ``tests/store/test_backends.py`` kills a worker between map
and use to prove it.
"""

from __future__ import annotations

import itertools
import json
import mmap
import os
import tempfile
import weakref
from typing import Any, BinaryIO

import numpy as np

from repro.index.circleset import CircleSet
from repro.store import sanitize as _sanitize
from repro.store.base import (
    FIELD_DTYPES,
    NLCStore,
    StoreHandle,
    StoreWriter,
    check_slice,
    field_offset,
    record_attach,
    soa_arrays,
    store_nbytes,
    views_over,
)

#: Fixed header region: a padded JSON line, rewritten in place at
#: finalize time with the true row count.
HEADER_BYTES = 512
_MAGIC = "repro-nlc"
_VERSION = 1

_FILE_SEQ = itertools.count()


def store_dir() -> str:
    """Directory for store files: ``REPRO_STORE_DIR`` or the tmpdir."""
    return os.environ.get("REPRO_STORE_DIR") or tempfile.gettempdir()


def _new_path() -> str:
    return os.path.join(
        store_dir(), f"repro-nlc-{os.getpid()}-{next(_FILE_SEQ)}.nlc")


def _header_bytes(length: int, capacity: int) -> bytes:
    payload = json.dumps({
        "magic": _MAGIC,
        "version": _VERSION,
        "length": int(length),
        "capacity": int(capacity),
        "fields": [np.dtype(dt).str for dt in FIELD_DTYPES],
    }).encode("ascii")
    if len(payload) > HEADER_BYTES - 1:
        raise ValueError("store header overflow")
    return payload + b"\n" + b" " * (HEADER_BYTES - len(payload) - 1)


def _read_header(fh: BinaryIO) -> dict[str, Any]:
    fh.seek(0)
    raw = fh.read(HEADER_BYTES)
    if len(raw) < HEADER_BYTES:
        raise ValueError("truncated store header")
    header = json.loads(raw.split(b"\n", 1)[0].decode("ascii"))
    if header.get("magic") != _MAGIC or header.get("version") != _VERSION:
        raise ValueError(f"not a repro NLC store: {header!r}")
    return dict(header)


def _unlink_file(path: str) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:  # repro: fallback(already unlinked — close
        # races interpreter-exit finalizers with explicit close calls)
        pass


class MemmapStore(NLCStore):
    """Owner of one on-disk store file; ``close()`` unlinks it."""

    __slots__ = ("_finalizer", "__weakref__")

    def __init__(self, path: str, length: int, capacity: int) -> None:
        super().__init__("memmap", path, length, capacity)
        self._finalizer = weakref.finalize(self, _unlink_file, path)

    @property
    def path(self) -> str:
        return self.key

    @property
    def nbytes(self) -> int:
        return HEADER_BYTES + store_nbytes(self.capacity)

    def close(self) -> None:
        _sanitize.store_closed(self)
        self._finalizer()


class _MemmapWriter(StoreWriter):
    __slots__ = ("path", "_fh")

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self.path = _new_path()
        self._fh: BinaryIO | None = open(self.path, "w+b")
        self._fh.write(_header_bytes(0, capacity))
        # Reserve the full extent up front (sparse where the filesystem
        # allows): attaching maps [0, nbytes) even before rows land.
        self._fh.truncate(HEADER_BYTES + store_nbytes(capacity))

    def _write(self, chunk: tuple, at: int) -> None:
        fh = self._fh
        assert fh is not None
        for i, arr in enumerate(chunk):
            fh.seek(HEADER_BYTES + field_offset(i, self.capacity) + at * 8)
            fh.write(arr.tobytes())

    def _seal(self, length: int) -> NLCStore:
        fh = self._fh
        assert fh is not None
        fh.seek(0)
        fh.write(_header_bytes(length, self.capacity))
        fh.flush()
        fh.close()
        self._fh = None
        return MemmapStore(self.path, length, self.capacity)

    def _release(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        _unlink_file(self.path)


class MemmapBackend:
    """The ``memmap`` storage backend (one instance per process)."""

    name = "memmap"

    def __init__(self) -> None:
        #: path -> (mmap, CircleSet) cached full attachments.  Slice
        #: attachments are uncached by design: their mapping dies with
        #: the returned views, which is what lets a tile sweep keep RSS
        #: at O(slice).
        self._attached: dict[str, tuple[Any, CircleSet]] = {}

    def publish(self, nlcs: CircleSet) -> MemmapStore:
        writer = _MemmapWriter(len(nlcs))
        writer.append(soa_arrays(nlcs))
        store = writer.finalize()
        assert isinstance(store, MemmapStore)
        return store

    def writer(self, capacity: int) -> _MemmapWriter:
        return _MemmapWriter(capacity)

    def _map(self, path: str, capacity: int) -> Any:
        size = HEADER_BYTES + store_nbytes(capacity)
        with open(path, "rb") as fh:
            header = _read_header(fh)
            if header["capacity"] != capacity:
                raise ValueError(
                    f"store {path}: header capacity {header['capacity']} "
                    f"!= handle capacity {capacity}")
            # mmap dups the descriptor, so the file handle can close.
            return mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_READ)

    def attach(self, handle: StoreHandle) -> CircleSet:
        _, path, length, capacity, _ = handle
        cached = self._attached.get(path)
        if cached is not None:
            return cached[1]
        mm = self._map(path, capacity)
        nlcs = CircleSet(*views_over(mm, length, capacity,
                                     base_offset=HEADER_BYTES))
        record_attach(length, is_slice=False)
        self._attached[path] = (mm, nlcs)
        return nlcs

    def attach_slice(self, handle: StoreHandle, lo: int,
                     hi: int) -> CircleSet:
        _, path, length, capacity, _ = handle
        lo, hi = check_slice(lo, hi, length)
        mm = self._map(path, capacity)
        nlcs = CircleSet(*views_over(mm, hi - lo, capacity, lo=lo,
                                     base_offset=HEADER_BYTES))
        record_attach(hi - lo, is_slice=True)
        # No cache entry: the mapping is pinned by the numpy views and
        # unmapped (RSS released) when the caller drops the CircleSet.
        return nlcs

    def detach(self, keep: tuple[str, ...] = ()) -> None:
        for path in [p for p in self._attached if p not in keep]:
            # Dropping the reference releases the mapping once any
            # caller-held views die; mmap needs no explicit close here
            # (closing with exported views would raise BufferError).
            del self._attached[path]
