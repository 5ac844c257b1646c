"""Runtime lifecycle sanitizer: ``REPRO_SANITIZE=1``.

The static RPR104 rule proves *shape* — every acquire syntactically
paired with a release.  This module proves *behaviour*: when enabled, a
per-process ledger records every store owner created
(:func:`store_created`), every owner closed, every writer opened and
finalized/aborted, every facade attach/detach, and every pool task
entered and exited.  :func:`check` — run by the test suite's
``pytest_sessionfinish`` hook and by an ``atexit`` backstop — then
asserts the balanced-lifecycle invariants:

* every non-ram owner was closed (a memmap file whose owner was
  garbage-collected without ``close()`` survives only by the
  ``weakref.finalize`` backstop — luck, not lifecycle);
* every writer was finalized or aborted;
* no ``repro-nlc-{pid}-*`` file created by this process is still on
  disk;
* every pool task that started also finished.

Violations are reported through :mod:`repro.obs` (the
``store_sanitize_violations`` gauge), warned with the *creating call
site* of each leaked resource — the first stack frame outside
``repro/store/`` — and raised as :class:`StoreLeakError` so CI names
the leaking line instead of a generic "file leaked" message.

The mode costs one ``None``-check per hook when disabled; the
environment read here is the sanitizer's own switch and is an audited
RPR106 seam.
"""

from __future__ import annotations

import atexit
import os
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # runtime import would cycle through repro.store
    from repro.store.base import NLCStore, StoreWriter

__all__ = [
    "StoreLeakError",
    "active",
    "check",
    "disable",
    "enable",
    "reset",
]


class StoreLeakError(AssertionError):
    """A store lifecycle invariant was violated (see the message for
    the leaking call sites)."""


def _call_site() -> str:
    """``path:line in func`` of the nearest frame outside repro/store."""
    for frame in reversed(traceback.extract_stack()):
        fname = frame.filename.replace("\\", "/")
        if "/repro/store/" in fname:
            continue
        return f"{frame.filename}:{frame.lineno} in {frame.name}"
    return "<unknown site>"


@dataclass
class _Ledger:
    """Per-process lifecycle book-keeping (one instance when enabled)."""

    #: store key → (backend name, creating site, closed?)
    owners: dict[str, list] = field(default_factory=dict)
    #: writer token → [creating site, done?]
    writers: dict[int, list] = field(default_factory=dict)
    next_writer_token: int = 1
    attached_keys: set[str] = field(default_factory=set)
    attaches: int = 0
    detaches: int = 0
    tasks_started: int = 0
    tasks_finished: int = 0


_LEDGER: _Ledger | None = None
_ATEXIT_REGISTERED = False


def active() -> bool:
    """Is the sanitizer recording in this process?"""
    return _LEDGER is not None


def enable() -> None:
    """Start (or keep) recording; registers the atexit backstop once."""
    global _LEDGER, _ATEXIT_REGISTERED
    if _LEDGER is None:
        _LEDGER = _Ledger()
    if not _ATEXIT_REGISTERED:
        # Registered at enable time so it runs *before* the stores'
        # weakref.finalize backstops (atexit is LIFO, finalizers run
        # from the earlier-registered _exitfunc) — leaks are observed
        # before the backstop quietly unlinks them.
        atexit.register(_atexit_check)
        _ATEXIT_REGISTERED = True


def disable() -> None:
    """Stop recording and drop the ledger."""
    global _LEDGER
    _LEDGER = None


def reset() -> None:
    """Drop all recorded state but keep recording (test isolation)."""
    global _LEDGER
    if _LEDGER is not None:
        _LEDGER = _Ledger()


# --------------------------------------------------------------------
# Hooks — called unconditionally from repro.store; each is a no-op
# None-check when the sanitizer is off.

def store_created(store: "NLCStore") -> None:
    if _LEDGER is None:
        return
    _LEDGER.owners[store.key] = [store.backend, _call_site(), False]


def store_closed(store: "NLCStore") -> None:
    if _LEDGER is None:
        return
    entry = _LEDGER.owners.get(store.key)
    if entry is not None:
        entry[2] = True


def writer_opened(writer: "StoreWriter") -> None:
    if _LEDGER is None:
        return
    token = _LEDGER.next_writer_token
    _LEDGER.next_writer_token += 1
    writer._san_token = token  # noqa: SLF001 — slot reserved in base
    _LEDGER.writers[token] = [_call_site(), False]


def writer_done(writer: "StoreWriter") -> None:
    if _LEDGER is None:
        return
    token = getattr(writer, "_san_token", None)
    if token is not None and token in _LEDGER.writers:
        _LEDGER.writers[token][1] = True


def attached(key: str) -> None:
    if _LEDGER is None:
        return
    # repro: worker-state(the ledger is deliberately per-process — each
    # worker audits its own lifecycles; nothing here feeds results)
    _LEDGER.attaches += 1
    _LEDGER.attached_keys.add(key)


def detached(keep: tuple[str, ...] = ()) -> None:
    if _LEDGER is None:
        return
    # repro: worker-state(per-process audit ledger, as above)
    _LEDGER.detaches += 1
    _LEDGER.attached_keys.intersection_update(keep)


class task:
    """Context manager bracketing one pool task (no-op when off)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> "task":
        if _LEDGER is not None:
            _LEDGER.tasks_started += 1
        return self

    def __exit__(self, *exc: object) -> None:
        if _LEDGER is not None:
            _LEDGER.tasks_finished += 1


# --------------------------------------------------------------------
# The check.

def _orphan_files() -> Iterator[str]:
    """``repro-nlc-{pid}-*`` store files this process left on disk."""
    pid = os.getpid()
    try:
        from repro.store.memmap import store_dir

        yield from (str(p) for p in
                    sorted(Path(store_dir()).glob(f"repro-nlc-{pid}-*.nlc")))
    except Exception:  # pragma: no cover - store_dir unavailable
        # repro: fallback(orphan scan is best-effort; the owner/writer
        # ledger checks above still run without it)
        pass


def violations(*, scan_disk: bool = True) -> list[str]:
    """Current invariant violations, one human-readable line each."""
    if _LEDGER is None:
        return []
    out: list[str] = []
    for key, (backend, site, closed) in sorted(_LEDGER.owners.items()):
        if closed or backend == "ram":
            continue  # ram owners hold no OS resource
        out.append(f"store owner {key!r} ({backend}) never closed; "
                   f"created at {site}")
    unfinalized = False
    for _, (site, done) in sorted(_LEDGER.writers.items()):
        if not done:
            unfinalized = True
            out.append(f"store writer never finalized/aborted; opened "
                       f"at {site}")
    if scan_disk and not unfinalized:
        # An open writer legitimately holds its file; skip the disk
        # scan rather than double-report it as an orphan.
        known_open = {Path(key).name
                      for key, (b, _, closed) in _LEDGER.owners.items()
                      if not closed and b != "ram"}
        for path in _orphan_files():
            if Path(path).name in known_open:
                continue  # already reported with its call site above
            out.append(f"orphaned store file on disk: {path}")
    if _LEDGER.tasks_started != _LEDGER.tasks_finished:
        out.append(f"pool task imbalance: {_LEDGER.tasks_started} "
                   f"started, {_LEDGER.tasks_finished} finished")
    return out


def check(*, detach: bool = True) -> None:
    """Assert the balanced-lifecycle invariants; raise on violation.

    ``detach=True`` first drops this process's cached attachments (via
    the facade, so the drop is itself recorded): cached views must not
    be what keeps a closed store's pages alive when we look for
    leaks.
    """
    if _LEDGER is None:
        return
    if detach:
        from repro import store

        store.detach()
    found = violations()
    try:
        from repro.obs import metrics as _m

        _m.gauge("store_sanitize_violations").set(float(len(found)))
    except Exception:  # pragma: no cover - obs unavailable at exit
        # repro: fallback(gauge reporting is advisory; the raise below
        # is the load-bearing signal)
        pass
    if found:
        message = ("store sanitizer found lifecycle violations:\n  "
                   + "\n  ".join(found))
        warnings.warn(message, ResourceWarning, stacklevel=2)
        raise StoreLeakError(message)


def _atexit_check() -> None:
    try:
        check()
    except StoreLeakError as exc:
        # Raising inside atexit prints a traceback but cannot change
        # the exit status; print the report deterministically instead.
        print(f"REPRO_SANITIZE: {exc}", flush=True)


def enabled_from_env() -> bool:
    """Honour ``REPRO_SANITIZE=1`` (the audited switch for this mode)."""
    return os.environ.get("REPRO_SANITIZE", "") == "1"


if enabled_from_env():  # pragma: no cover - exercised via subprocesses
    enable()
