"""Pluggable NLC storage backends: ``ram`` / ``memmap``.

The façade over :mod:`repro.store.base`'s protocol.  ``ram`` serves
in-process work; ``memmap`` serves anything that crosses a process
boundary or outgrows RAM (``REPRO_STORE_DIR`` may point it at a tmpfs).
Typical flows:

Publish a built set and ship the handle::

    from repro import store

    owner = store.publish(nlcs, "memmap")    # or "ram"
    handle = owner.handle                     # tiny, picklable
    ...
    views = store.attach(handle)              # read-only CircleSet
    tile = store.attach_slice(handle, lo, hi)  # one row slice only
    ...
    store.detach()                            # drop cached attachments
    owner.close()                             # unlink the file

Stream a build without materializing the arrays::

    writer = store.writer(capacity, "memmap")
    for chunk in chunks:                      # six field arrays each
        writer.append(chunk)
    owner = writer.finalize()                 # sealed at appended rows

Backend selection honours the ``REPRO_STORE`` environment variable via
:func:`resolve_store_name`; the CLI's ``--store`` flag and the engine's
``store=`` options pass through it.  See DESIGN.md "§ Storage tier".
"""

from __future__ import annotations

import os

from repro.index.circleset import CircleSet
from repro.store import sanitize as _sanitize
from repro.store.base import (
    BYTES_PER_ROW,
    FIELD_DTYPES,
    FIELD_NAMES,
    NLCStore,
    NLCStoreBackend,
    StoreHandle,
    StoreWriter,
    store_nbytes,
)

__all__ = [
    "BYTES_PER_ROW",
    "FIELD_DTYPES",
    "FIELD_NAMES",
    "NLCStore",
    "NLCStoreBackend",
    "STORE_NAMES",
    "StoreHandle",
    "StoreWriter",
    "attach",
    "attach_slice",
    "detach",
    "get_backend",
    "publish",
    "resolve_store_name",
    "store_nbytes",
    "writer",
]

#: Every registered backend name, in documentation order.
STORE_NAMES: tuple[str, ...] = ("ram", "memmap")

_BACKENDS: dict[str, NLCStoreBackend] = {}


def get_backend(name: str) -> NLCStoreBackend:
    """The per-process singleton backend registered under ``name``."""
    backend = _BACKENDS.get(name)
    if backend is None:
        if name == "ram":
            from repro.store.ram import RamBackend

            backend = RamBackend()
        elif name == "memmap":
            from repro.store.memmap import MemmapBackend

            backend = MemmapBackend()
        else:
            raise ValueError(
                f"unknown store backend {name!r} "
                f"(choose from {', '.join(STORE_NAMES)})")
        # repro: worker-state(deliberate per-process singleton cache —
        # each process owns its backend instances and their attachment
        # caches; workers filling their own copy is the design)
        _BACKENDS[name] = backend
    return backend


def resolve_store_name(name: str | None = None) -> str:
    """Pick a backend name: explicit choice > ``REPRO_STORE`` env >
    ``ram`` — and validate it."""
    resolved = name or os.environ.get("REPRO_STORE") or "ram"
    if resolved not in STORE_NAMES:
        raise ValueError(
            f"unknown store backend {resolved!r} "
            f"(choose from {', '.join(STORE_NAMES)})")
    return resolved


def publish(nlcs: CircleSet, store: str | None = None) -> NLCStore:
    """Copy a built ``CircleSet`` into a fresh store (see module doc)."""
    return get_backend(resolve_store_name(store)).publish(nlcs)


def writer(capacity: int, store: str | None = None) -> StoreWriter:
    """Reserve a ``capacity``-row store for a streaming build."""
    return get_backend(resolve_store_name(store)).writer(capacity)


def attach(handle: StoreHandle) -> CircleSet:
    """Read-only views over every row of a published store."""
    _sanitize.attached(handle[1])
    return get_backend(handle[0]).attach(handle)


def attach_slice(handle: StoreHandle, lo: int, hi: int) -> CircleSet:
    """Read-only views over rows ``[lo, hi)`` of a published store."""
    _sanitize.attached(handle[1])
    return get_backend(handle[0]).attach_slice(handle, lo, hi)


def detach(keep: tuple[str, ...] = ()) -> None:
    """Drop every backend's cached attachments except the store keys in
    ``keep`` (worker epoch turn)."""
    _sanitize.detached(keep)
    for backend in _BACKENDS.values():
        backend.detach(keep)
