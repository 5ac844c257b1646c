"""Request coalescing for the query service.

The daemon answers each HTTP request from its own handler thread, but
the service is most efficient when compatible requests ride one batch:
one ``serve/batch`` span, one ``execute_requests`` run per instance
group.
:class:`BatchScheduler` sits between the two — callers
:meth:`~BatchScheduler.submit` a request and get a :class:`Ticket`;
a flush drains everything queued into **one**
:meth:`QueryService.execute` call and fulfils the tickets positionally.

Flushing is either explicit (:meth:`~BatchScheduler.flush`, which unit
tests use for determinism) or driven by the dispatcher thread
(:meth:`~BatchScheduler.start`), which wakes on the first queued
request, then sleeps ``linger`` seconds so near-simultaneous requests
coalesce before the batch goes out.

Flushes are additionally **single-flight**: requests in one drained
batch with the same canonical key (:func:`repro.serve.protocol
.request_key`) collapse to one entry of the executed batch, and the
single computed response fans out to every waiting ticket.  Under a
thundering herd of identical reads the solver runs once per flush, not
once per caller — and since the service's result cache stores that one
response, every later flush answers from cache.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.serve.protocol import ErrorResponse, request_key
from repro.serve.service import QueryService

__all__ = ["BatchScheduler", "Ticket"]


class Ticket:
    """One submitted request's pending result."""

    __slots__ = ("_event", "_response")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._response: Any = None

    def _fulfil(self, response: Any) -> None:
        self._response = response
        self._event.set()

    def result(self, timeout: float | None = None) -> Any:
        """Block until the batch carrying this request executed."""
        if not self._event.wait(timeout):
            raise TimeoutError("serve batch did not complete in time")
        return self._response


class BatchScheduler:
    """Coalesce submitted requests into single service batches."""

    def __init__(self, service: QueryService, *,
                 linger: float = 0.005) -> None:
        self.service = service
        self.linger = float(linger)
        self._lock = threading.Lock()
        self._pending: list[tuple[Any, Ticket]] = []
        self._wakeup = threading.Event()
        self._thread: threading.Thread | None = None
        self._stopping = False

    # -- submission ---------------------------------------------------- #

    def submit(self, request: Any) -> Ticket:
        """Queue one request; the ticket resolves at the next flush."""
        ticket = Ticket()
        with self._lock:
            self._pending.append((request, ticket))
        self._wakeup.set()
        return ticket

    def pending(self) -> int:
        with self._lock:
            return len(self._pending)

    def flush(self) -> int:
        """Drain the queue into one batch; returns the batch size.

        Identical requests collapse single-flight: the executed batch
        holds one entry per distinct canonical key, in first-submission
        order, and its response fans out to every ticket that submitted
        that key.  Tickets are always fulfilled — a batch-level failure
        (anything ``execute`` raises) turns into an
        :class:`ErrorResponse` per ticket rather than deadlocking
        waiters.
        """
        with self._lock:
            batch, self._pending = self._pending, []
        if not batch:
            return 0
        try:
            slot_of: dict[str, int] = {}
            requests: list[Any] = []
            slots: list[int] = []
            for index, (request, _ticket) in enumerate(batch):
                try:
                    key = request_key(request)
                # repro: fallback(an unkeyable object — not a protocol
                # request, e.g. a test stand-in — passes through without
                # coalescing; the service decides what it means)
                except Exception:
                    key = f"\x00unkeyed:{index}"
                slot = slot_of.get(key)
                if slot is None:
                    slot = slot_of[key] = len(requests)
                    requests.append(request)
                slots.append(slot)
            responses = self.service.execute(requests)
        # repro: fallback(a batch-level failure resolves every waiting
        # ticket with an ErrorResponse instead of deadlocking the
        # daemon's handler threads; the error text is preserved)
        except Exception as exc:
            for _request, ticket in batch:
                ticket._fulfil(ErrorResponse(message=repr(exc)))
            return len(batch)
        for (_request, ticket), slot in zip(batch, slots):
            ticket._fulfil(responses[slot])
        return len(batch)

    # -- dispatcher thread --------------------------------------------- #

    def start(self) -> None:
        """Start the dispatcher thread (idempotent)."""
        if self._thread is not None:
            return
        self._stopping = False
        self._thread = threading.Thread(
            target=self._run, name="serve-batcher", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop the dispatcher, flushing whatever is still queued."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        self._stopping = True
        self._wakeup.set()
        thread.join()
        self.flush()

    def _run(self) -> None:
        while True:
            self._wakeup.wait()
            if self._stopping:
                return
            # Linger briefly so requests arriving together share the
            # batch; clear-before-flush keeps the wakeup level-triggered
            # (a submit during the flush sets it again).
            if self.linger > 0.0 and not self._stopping:
                time.sleep(self.linger)
            self._wakeup.clear()
            self.flush()
