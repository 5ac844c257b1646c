"""Shared-memory store backend (the PR-5 zero-copy transport).

One ``multiprocessing.shared_memory`` segment holds the six SoA arrays
back to back (field ``i`` at ``i * 8 * capacity``).  The parent
publishes once; pool workers attach read-only views — of the whole
store or of a tile's row slice — by segment name, so tile jobs ship a
few dozen bytes instead of the NLC payload.

The entire segment lifecycle lives here: the per-process attachment
cache, the BufferError graveyard for mappings whose numpy views outlive
a detach, and the owner-side finally-unlink backstop.  A worker that
dies mid-attach leaks nothing: its mapping vanishes with the process,
and the name is the owner's to unlink —
``tests/store/test_backends.py`` kills a worker between map and use to
prove it.
"""

from __future__ import annotations

import itertools
import os
import weakref
from typing import Any

from repro.index.circleset import CircleSet
from repro.obs import metrics as _obs_metrics
from repro.store import sanitize as _sanitize
from repro.store.base import (
    NLCStore,
    StoreHandle,
    StoreWriter,
    check_slice,
    coerce_chunk,
    field_offset,
    record_attach,
    soa_arrays,
    store_nbytes,
    views_over,
)

#: Bytes of shared-memory segments mapped by fresh attaches (transport
#: counter: mode- and topology-dependent, excluded from identity checks
#: and the perf gate — see docs/observability.md).
_SHM_BYTES_MAPPED = _obs_metrics.counter("shm_bytes_mapped")

_SHM_SEQ = itertools.count()


def _new_segment(size: int) -> Any:
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(
        name=f"repro-nlc-{os.getpid()}-{next(_SHM_SEQ)}",
        create=True, size=max(1, size))


def _release_segment(seg: Any) -> None:
    """Unmap + unlink one owned segment, tolerating double release."""
    seg.close()
    try:
        seg.unlink()
    except FileNotFoundError:  # repro: fallback(already unlinked — close
        # races interpreter-exit finalizers with explicit close calls)
        pass


class ShmStore(NLCStore):
    """Owner of one shared-memory segment (see module docstring).

    ``close()`` is idempotent and safe to call with workers still
    mapped: POSIX keeps the pages alive until the last attachment
    unmaps, so unlinking early only removes the name.  A
    ``weakref.finalize`` backstop unlinks at interpreter exit if the
    owner forgets.
    """

    __slots__ = ("_seg", "_finalizer", "__weakref__")

    def __init__(self, seg: Any, length: int, capacity: int) -> None:
        super().__init__("shm", seg.name, length, capacity)
        self._seg = seg
        self._finalizer = weakref.finalize(self, _release_segment, seg)

    @property
    def nbytes(self) -> int:
        return int(self._seg.size)

    def close(self) -> None:
        """Unmap and unlink the segment (idempotent)."""
        _sanitize.store_closed(self)
        self._finalizer()


class _ShmWriter(StoreWriter):
    __slots__ = ("_seg",)

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._seg = _new_segment(store_nbytes(capacity))

    def _write(self, chunk: tuple, at: int) -> None:
        buf = self._seg.buf
        for i, arr in enumerate(chunk):
            start = field_offset(i, self.capacity) + at * 8
            buf[start:start + arr.nbytes] = arr.tobytes()

    def _seal(self, length: int) -> NLCStore:
        return ShmStore(self._seg, length, self.capacity)

    def _release(self) -> None:
        _release_segment(self._seg)


class ShmBackend:
    """The ``shm`` storage backend (one instance per process)."""

    name = "shm"

    def __init__(self) -> None:
        #: name -> mapped (not owned) SharedMemory segment.
        self._segments: dict[str, Any] = {}
        #: (name, lo, hi) -> cached CircleSet views; (name, None, None)
        #: is the full attachment.
        self._views: dict[tuple, CircleSet] = {}
        #: Segments whose unmap was deferred because numpy views were
        #: still live at detach time; retried on the next detach().
        self._pending: list[Any] = []

    def publish(self, nlcs: CircleSet) -> ShmStore:
        writer = _ShmWriter(len(nlcs))
        writer.append(soa_arrays(nlcs))
        store = writer.finalize()
        assert isinstance(store, ShmStore)
        return store

    def writer(self, capacity: int) -> _ShmWriter:
        return _ShmWriter(capacity)

    def _segment(self, name: str) -> Any:
        seg = self._segments.get(name)
        if seg is None:
            from multiprocessing import shared_memory

            seg = shared_memory.SharedMemory(name=name)
            # Note on the resource tracker: attaching registers the
            # segment again (3.13's track=False is not available here).
            # Pool workers run under forkserver/spawn contexts whose
            # tracker is the parent's, and registration is a set-add —
            # the owner's eventual unlink/unregister balances it, so no
            # deregistration dance is needed (an explicit unregister
            # here would clobber the owner's entry in the tracker).
            self._segments[name] = seg
            _SHM_BYTES_MAPPED.add(seg.size)
        return seg

    def attach(self, handle: StoreHandle) -> CircleSet:
        _, name, length, capacity, _ = handle
        cache_key = (name, None, None)
        cached = self._views.get(cache_key)
        if cached is not None:
            return cached
        seg = self._segment(name)
        nlcs = CircleSet(*views_over(seg.buf, length, capacity))
        record_attach(length, is_slice=False)
        self._views[cache_key] = nlcs
        return nlcs

    def attach_slice(self, handle: StoreHandle, lo: int,
                     hi: int) -> CircleSet:
        _, name, length, capacity, _ = handle
        lo, hi = check_slice(lo, hi, length)
        cache_key = (name, lo, hi)
        cached = self._views.get(cache_key)
        if cached is not None:
            return cached
        seg = self._segment(name)
        nlcs = CircleSet(*views_over(seg.buf, hi - lo, capacity, lo=lo))
        record_attach(hi - lo, is_slice=True)
        self._views[cache_key] = nlcs
        return nlcs

    def detach(self, keep: tuple[str, ...] = ()) -> None:
        for cache_key in [k for k in self._views if k[0] not in keep]:
            # the views die here unless a caller still holds them
            del self._views[cache_key]
        for name in [n for n in self._segments if n not in keep]:
            self._pending.append(self._segments.pop(name))
        still_exported = []
        for seg in self._pending:
            try:
                seg.close()
            except BufferError:  # repro: fallback(a caller still holds
                # the numpy views; park the segment and retry next
                # rotation — nothing leaks, /dev/shm cleanup is the
                # owner's unlink)
                still_exported.append(seg)
        self._pending[:] = still_exported
