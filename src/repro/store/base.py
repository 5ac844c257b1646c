"""Storage-backend protocol for the NLC structure-of-arrays.

One published :class:`~repro.index.circleset.CircleSet` lives in exactly
one *store*: six parallel 8-byte-element arrays laid back to back inside
a single buffer (a file, or the arrays themselves), field ``i``
starting at byte ``i * 8 * capacity``.  ``capacity`` is the row count
the buffer was sized for; ``length <= capacity`` is how many rows are
real — the gap is what lets a streaming build preallocate ``n * k``
rows and finalize with the post-filter count without a rewrite.

The lifecycle is **publish once, attach many**: the producing process
publishes (or streams) the arrays into a store and ships the tiny
picklable :attr:`NLCStore.handle`; consumers — worker processes, tiles,
Phase II jobs — attach read-only views of the whole store or of a row
slice (``attach_slice``), never the payload itself.  The owner alone
unlinks the backing resource via :meth:`NLCStore.close`.

Two backends implement the protocol (see :mod:`repro.store`):

``ram``
    in-process arrays for in-process work; the handle carries them by
    value, so crossing a process boundary would cost O(n) pickling.
``memmap``
    a single file with a JSON header, attached as ``mmap`` views — the
    store for anything that crosses a process boundary (pool tile jobs
    ship its handle) or outgrows RAM: only the pages a consumer touches
    enter RSS, and they leave it again when the attachment is dropped.
"""

from __future__ import annotations

from typing import Any, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.index.circleset import CircleSet
from repro.obs import metrics as _obs_metrics
from repro.store import sanitize as _sanitize

#: Field order and dtypes inside a store: six parallel arrays of 8-byte
#: elements (centres, radii, scores as float64; owners, levels as int64).
FIELD_DTYPES: tuple[type, ...] = (np.float64, np.float64, np.float64,
                                  np.float64, np.int64, np.int64)
FIELD_NAMES: tuple[str, ...] = ("cx", "cy", "r", "scores", "owners",
                                "levels")
N_FIELDS = len(FIELD_DTYPES)
BYTES_PER_ELEMENT = 8
BYTES_PER_ROW = N_FIELDS * BYTES_PER_ELEMENT

#: Picklable store handle: ``(backend, key, length, capacity, payload)``.
#: ``key`` is a unique hashable string (file path, or a token) — the
#: unit of attachment caching and of ``detach(keep=...)``.
#: ``payload`` is backend-private (``None`` for memmap; the arrays
#: themselves for ram).
StoreHandle = tuple[str, str, int, int, Any]

#: Slice attachments served across all backends (transport counter:
#: topology-dependent, excluded from identity checks and the perf gate).
_STORE_SLICE_VIEWS = _obs_metrics.counter("store_slice_views")
#: High-water mark of bytes mapped by a single store attachment (full or
#: slice) in this process — the figure the out-of-core tier keeps
#: bounded while ``nbytes`` grows with the instance.
_STORE_BYTES_MAPPED = _obs_metrics.gauge("nlc_store_bytes_mapped")


def store_nbytes(capacity: int) -> int:
    """Payload bytes of a store sized for ``capacity`` rows."""
    return BYTES_PER_ROW * int(capacity)


def field_offset(field: int, capacity: int) -> int:
    """Byte offset of field ``field`` inside the payload region."""
    return field * BYTES_PER_ELEMENT * int(capacity)


def views_over(buf: Any, length: int, capacity: int, lo: int = 0,
               base_offset: int = 0) -> tuple[np.ndarray, ...]:
    """The six read-only SoA views over one buffer.

    ``length`` rows starting at row ``lo`` of a buffer laid out for
    ``capacity`` rows; ``base_offset`` skips a leading header (memmap).
    """
    views = []
    for i, dtype in enumerate(FIELD_DTYPES):
        offset = (base_offset + field_offset(i, capacity)
                  + lo * BYTES_PER_ELEMENT)
        view = np.frombuffer(buf, dtype=dtype, count=length, offset=offset)
        view.flags.writeable = False
        views.append(view)
    return tuple(views)


def check_slice(lo: int, hi: int, length: int) -> tuple[int, int]:
    """Validate and normalize an ``attach_slice`` row range."""
    lo, hi = int(lo), int(hi)
    if not (0 <= lo <= hi <= length):
        raise ValueError(
            f"slice [{lo}, {hi}) out of range for store of length {length}")
    return lo, hi


def record_attach(n_rows: int, *, is_slice: bool) -> None:
    """Instrument one attachment: slice counter + mapped-bytes gauge."""
    if is_slice:
        _STORE_SLICE_VIEWS.add()
    _STORE_BYTES_MAPPED.observe_max(BYTES_PER_ROW * int(n_rows))


def soa_arrays(nlcs: CircleSet) -> tuple[np.ndarray, ...]:
    """The six arrays of a :class:`CircleSet` in store field order."""
    return (nlcs.cx, nlcs.cy, nlcs.r, nlcs.scores, nlcs.owners,
            nlcs.levels)


def coerce_chunk(arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Validate one writer chunk: six equal-length 1-D arrays, coerced
    to the store field dtypes (contiguous, no copy when already so)."""
    if len(arrays) != N_FIELDS:
        raise ValueError(
            f"chunk must carry {N_FIELDS} field arrays, got {len(arrays)}")
    out = tuple(np.ascontiguousarray(arr, dtype=dtype)
                for arr, dtype in zip(arrays, FIELD_DTYPES))
    n = out[0].shape[0]
    if any(arr.ndim != 1 or arr.shape[0] != n for arr in out):
        raise ValueError("chunk field arrays must be 1-D and equal length")
    return out


class NLCStore:
    """Owner of one published NLC store.

    The picklable :attr:`handle` is all a consumer needs; the store
    object itself never crosses a process boundary.  ``close()`` is
    idempotent and releases the backing resource (unlink the file; drop
    the arrays) — safe to call with consumers still attached
    on POSIX, where pages live until the last mapping unmaps.
    """

    __slots__ = ("backend", "key", "length", "capacity")

    def __init__(self, backend: str, key: str, length: int,
                 capacity: int) -> None:
        self.backend = backend
        self.key = key
        self.length = int(length)
        self.capacity = int(capacity)
        _sanitize.store_created(self)

    @property
    def handle(self) -> StoreHandle:
        return (self.backend, self.key, self.length, self.capacity,
                self._payload())

    @property
    def nbytes(self) -> int:
        return store_nbytes(self.capacity)

    def _payload(self) -> Any:
        return None

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "NLCStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class StoreWriter:
    """Streaming producer half of a backend: rows go in chunk by chunk,
    one :class:`NLCStore` comes out.

    ``capacity`` rows are reserved up front (a streaming NLC build
    reserves ``n_customers * k`` and finalizes with the post-zero-filter
    count).  ``append`` consumes one chunk of the six field arrays *in
    field order*; ``finalize`` seals the store at the appended length
    and hands ownership to the returned store; ``abort`` releases the
    reservation if the build dies part way.
    """

    __slots__ = ("capacity", "cursor", "_done", "_san_token")

    #: Ledger token assigned by the REPRO_SANITIZE sanitizer (only when
    #: the mode is on; the slot costs nothing otherwise).
    _san_token: int

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self.cursor = 0
        self._done = False
        _sanitize.writer_opened(self)

    def append(self, arrays: Sequence[np.ndarray]) -> None:
        if self._done:
            raise RuntimeError("writer already finalized/aborted")
        chunk = coerce_chunk(arrays)
        n = chunk[0].shape[0]
        if self.cursor + n > self.capacity:
            raise ValueError(
                f"writer overflow: {self.cursor} + {n} rows exceeds "
                f"capacity {self.capacity}")
        if n:
            self._write(chunk, self.cursor)
        self.cursor += n

    def finalize(self) -> NLCStore:
        if self._done:
            raise RuntimeError("writer already finalized/aborted")
        self._done = True
        _sanitize.writer_done(self)
        return self._seal(self.cursor)

    def abort(self) -> None:
        if not self._done:
            self._done = True
            _sanitize.writer_done(self)
            self._release()

    def _write(self, chunk: tuple[np.ndarray, ...], at: int) -> None:
        raise NotImplementedError

    def _seal(self, length: int) -> NLCStore:
        raise NotImplementedError

    def _release(self) -> None:
        raise NotImplementedError


@runtime_checkable
class NLCStoreBackend(Protocol):
    """What every storage backend provides (see module docstring)."""

    name: str

    def publish(self, nlcs: CircleSet) -> NLCStore:
        """Copy a built ``CircleSet`` into a fresh store."""
        ...

    def writer(self, capacity: int) -> StoreWriter:
        """Reserve a ``capacity``-row store for a streaming build."""
        ...

    def attach(self, handle: StoreHandle) -> CircleSet:
        """Read-only views over every row (cached per process/key)."""
        ...

    def attach_slice(self, handle: StoreHandle, lo: int,
                     hi: int) -> CircleSet:
        """Read-only views over rows ``[lo, hi)`` only."""
        ...

    def detach(self, keep: tuple[str, ...] = ()) -> None:
        """Drop this process's cached attachments not named in ``keep``
        (worker epoch turn).  Views handed out earlier become invalid —
        callers rotate stores between solves, never during one."""
        ...
