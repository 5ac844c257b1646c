"""Stdlib helpers shared by the end-to-end benchmark's processes.

Everything here is pure bookkeeping: the harness's own span tracer
(spans recorded *around* calls into the program's public functions,
never inside them), self-time arithmetic over a span tree, the
percentile helper that refuses tails the sample cannot support, the
failure ledger behind ``failed``/``attempted``, and the machine record
every report carries.  No numpy and no ``repro`` import, so the parent
process and the unit tests stay light.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

#: Fewest samples a reported percentile must have beyond it.
MIN_TAIL_SAMPLES = 10


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class Span:
    """One timed call: ``start``/``end`` are ``time.perf_counter()``
    seconds; ``parent`` is the enclosing span's ``sid`` (``None`` at a
    root); spans of one operation share ``rid``."""

    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    rid: int | None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Records :class:`Span` objects in memory; a no-op when disabled.

    Each thread keeps its own open-span stack, so two client threads
    build two independent span trees.  Spans are only written out when
    the run ends (:func:`chrome_events`).
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[tuple[int, int | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, rid: int | None = None) -> Iterator[None]:
        """Time the block as span ``name``; children inherit ``rid``."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent, parent_rid = stack[-1] if stack else (None, None)
        with self._lock:
            sid = next(self._ids)
        rid = parent_rid if rid is None else rid
        stack.append((sid, rid))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, rid))

    @contextlib.contextmanager
    def wrap(self, owner: Any, attr: str, name: str) -> Iterator[None]:
        """Temporarily replace ``owner.attr`` (a public function or
        method) with a version that runs inside span ``name``.

        This is how calls made *between* layers — e.g. the per-tile
        ``MaxFirst.run_phase1`` inside ``solve_streamed`` — get timed
        from outside the program.  A disabled tracer patches nothing.
        """
        if not self.enabled:
            yield
            return
        original = getattr(owner, attr)

        def timed(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, timed)
        try:
            yield
        finally:
            setattr(owner, attr, original)


def _covered(intervals: Iterable[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Self time per span name: each span's duration minus the part of
    its interval that its child spans cover, summed by name."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, float] = {}
    for s in spans:
        own = s.dur - _covered(children.get(s.sid, ()), s.start, s.end)
        out[s.name] = out.get(s.name, 0.0) + own
    return out


def chrome_events(spans: Iterable[Span]) -> list[dict[str, Any]]:
    """Spans as Chrome ``trace_event`` complete events (microseconds);
    the request id becomes the track so each operation gets its own
    row."""
    spans = sorted(spans, key=lambda s: s.start)
    base = spans[0].start if spans else 0.0
    return [{"ph": "X", "name": s.name, "cat": s.name.split(".", 1)[0],
             "ts": (s.start - base) * 1e6, "dur": s.dur * 1e6,
             "pid": 0, "tid": s.rid or 0,
             "args": {"sid": s.sid, "parent": s.parent}}
            for s in spans]


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #

def median(samples: Iterable[float]) -> float:
    values = list(samples)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(samples: Iterable[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile, refused (``ValueError``) when
    fewer than :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    values = sorted(samples)
    n = len(values)
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile {q} outside (0, 100)")
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"{MIN_TAIL_SAMPLES} are needed")
    return float(values[rank - 1])


class Ledger:
    """Counts attempted and failed operations, failures by cause.

    An error response, a non-200 reply, a refused connection and any
    other exception each count as one failed attempt.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self._lock = threading.Lock()

    def ok(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, cause: str) -> None:
        with self._lock:
            self.attempted += 1
            self.failures[cause] = self.failures.get(cause, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def timed_loop(seconds: float, step: Callable[[], Any]) -> tuple[int, float]:
    """Call ``step`` until the next call would end past ``seconds``.

    A call is started only while ``elapsed + last_step / 2 < seconds``,
    so runs end on average at ``seconds`` whatever the step length.
    Returns ``(steps, elapsed)``; at least one step always runs.
    """
    start = time.perf_counter()
    steps, last = 0, 0.0
    while True:
        elapsed = time.perf_counter() - start
        if steps and elapsed + last / 2 >= seconds:
            return steps, elapsed
        t0 = time.perf_counter()
        step()
        last = time.perf_counter() - t0
        steps += 1


# --------------------------------------------------------------------- #
# Process and machine facts
# --------------------------------------------------------------------- #

def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, all its threads
    (Linux ``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

def peak_rss_mb() -> float:
    """This process's peak resident set size, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live process, MiB (Linux)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM for pid {pid}")


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``root/.git`` without running
    git (which would search directories above ``root``)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(root: Path, **extra: Any) -> dict[str, Any]:
    """The facts a number depends on: cores, interpreter, platform,
    commit, plus whatever the caller adds (numpy, kernel arm, store
    backend, seed, durations)."""
    return {"cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "commit": git_commit(root),
            **extra}


def canonical(doc: Any) -> str:
    """Byte-stable JSON for identity comparisons."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
