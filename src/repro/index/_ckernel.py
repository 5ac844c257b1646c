"""Build-and-load shim for the compiled kernels (quad split, kNN, halo scan).

``_quadkernel.c`` (next to this module) is compiled on first use with the
system C compiler into a shared library cached under a private per-user
cache directory, keyed by a hash of the source and compile flags, then
loaded through :mod:`ctypes`.  The library carries every compiled entry
point — ``classify_quad_split`` for the Phase I quadrant split (the
children's classification and score sums); ``knn_tree_build`` /
``knn_tree_search`` for NLC construction (an exact kNN over a static
bucket kd-tree of the sites, built once per site set and pruned only by
box distances strictly beyond the current k-th neighbour, so it matches
the numpy scan bit for bit); and ``halo_scan`` for the out-of-core
planner (one block of rows binned against the tile grid and tested
against each cell it may meet, as the numpy pass does pair by pair) —
and is built and loaded exactly once per process;
:func:`load_quad_kernel`, :func:`load_knn_kernel` and
:func:`load_halo_kernel` hand out the configured functions.  Everything is
best-effort: an *expected* failure — no compiler, unwritable cache dir,
unsupported platform, a stale or unloadable library — emits a
:class:`RuntimeWarning` naming the fallback and degrades to ``None``,
and callers fall back to the pure-numpy batched kernels, which compute
identical results.  Unexpected exception types propagate: a silent
blanket ``except`` here once hid real kernel-load bugs behind a quiet
2–3x slowdown (rule ``RPR003`` of :mod:`repro.analysis`).

The cache lives under ``$XDG_CACHE_HOME/repro`` (``~/.cache/repro``),
falling back to a uid-suffixed temp subdirectory, created mode 0700 and
verified (owned by us, not group/other-writable, not a symlink) before
anything is loaded from it: the library path is predictable, so on a
shared machine a world-writable cache would let another local user plant
a malicious library for this process to execute.

Set ``REPRO_NO_CKERNEL=1`` to force the numpy fallback (used by tests to
cover both paths).

``-ffp-contract=off`` is mandatory: the kernels' bit-identity contract
with the numpy kernels (see the header comments in ``_quadkernel.c``)
requires every multiply and add to round separately, exactly as numpy's
ufunc loops do.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import stat
import subprocess
import sys
import tempfile
import warnings
from typing import Any, Callable, NamedTuple, cast

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "_quadkernel.c")
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math"]

# Per-entry-point memo ({symbol: ctypes fn or None}); None = not loaded
# yet.  A failed build/load memoises {symbol: None} for every entry so
# the fallback warning fires at most once per process.
_cached: dict[str, object | None] | None = None


def _uid() -> int | None:
    getuid = getattr(os, "getuid", None)  # absent on Windows
    return getuid() if getuid is not None else None


def _owned_private(path: str, want_dir: bool) -> bool:
    """True when ``path`` is ours alone: a regular file (or directory),
    not a symlink, owned by the current user, group/other-unwritable."""
    try:
        st = os.lstat(path)
    except OSError:
        return False
    if want_dir:
        if not stat.S_ISDIR(st.st_mode):
            return False
        if st.st_mode & 0o077:
            return False
    else:
        if not stat.S_ISREG(st.st_mode):
            return False
        if st.st_mode & 0o022:
            return False
    uid = _uid()
    return uid is None or st.st_uid == uid


def _cache_dir() -> str | None:
    """The per-user kernel cache directory, created 0700 and verified."""
    base = os.environ.get("XDG_CACHE_HOME")
    if not base:
        home = os.path.expanduser("~")
        base = os.path.join(home, ".cache") if home != "~" else None
    if base:
        path = os.path.join(base, "repro", "ckernel")
    else:
        uid = _uid()
        suffix = f"u{uid}" if uid is not None else "u"
        path = os.path.join(tempfile.gettempdir(),
                            f"repro-ckernel-{suffix}")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
    except OSError:
        return None
    # makedirs does not re-apply the mode to a pre-existing directory:
    # verify rather than trust (and refuse a hijacked/shared one).
    return path if _owned_private(path, want_dir=True) else None


def _build(source_path: str) -> str | None:
    """Compile the kernel if needed; return the shared-library path."""
    try:
        with open(source_path, "rb") as fh:
            src = fh.read()
    except OSError:
        return None
    cache_dir = _cache_dir()
    if cache_dir is None:
        return None
    tag = hashlib.sha256(src + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    lib_path = os.path.join(
        cache_dir,
        f"repro_quadkernel_{tag}_py{sys.version_info[0]}{sys.version_info[1]}.so")
    if _owned_private(lib_path, want_dir=False):
        return lib_path
    compiler = os.environ.get("CC") or "cc"
    # Compile to a private temp name inside the (0700, same-filesystem)
    # cache dir, then atomically publish, so concurrent builders never
    # load a half-written library.
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache_dir)
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *_CFLAGS, "-o", tmp, source_path],
            check=True, capture_output=True, timeout=120)
        os.chmod(tmp, 0o700)
        os.replace(tmp, lib_path)
    # OSError: compiler missing / cache dir vanished mid-build;
    # SubprocessError: compile failed or timed out.  Anything else is a
    # bug and must surface, not silently slow every future run.
    except (OSError, subprocess.SubprocessError) as exc:
        # repro: fallback(kernel build failure degrades to the bit-identical numpy batch kernel)
        warnings.warn(
            f"quad-split kernel build failed ({exc!r}); falling back to "
            "the pure-numpy batched kernel (identical results, slower)",
            RuntimeWarning, stacklevel=2)
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return None
    return lib_path if _owned_private(lib_path, want_dir=False) else None


class QuadSplitArgs(ctypes.Structure):
    """The fixed arguments of ``classify_quad_split`` (its
    ``quad_split_args`` struct): the disk columns, the scratch rows and
    their stride.  A classifier fills one per scratch size and passes
    it by reference, so a split marshals only what changes per call."""

    _fields_ = [
        ("cx", ctypes.c_void_p), ("cy", ctypes.c_void_p),
        ("r_in2", ctypes.c_void_p), ("r_out2", ctypes.c_void_p),
        ("scores", ctypes.c_void_p),
        ("idx_out", ctypes.c_void_p), ("mask_out", ctypes.c_void_p),
        ("sc_out", ctypes.c_void_p), ("csc_out", ctypes.c_void_p),
        ("counts", ctypes.c_void_p), ("sums", ctypes.c_void_p),
        ("stride", ctypes.c_int64),
    ]


def _configure_quad(fn) -> None:
    """ctypes signature for ``classify_quad_split``."""
    c_d = ctypes.c_double
    ptr = ctypes.c_void_p
    fn.restype = None
    fn.argtypes = [
        ctypes.POINTER(QuadSplitArgs),
        ptr, ctypes.c_int64,           # cand, n
        c_d, c_d, c_d, c_d, c_d, c_d,  # rect + split point
    ]


def _configure_knn_build(fn) -> None:
    """ctypes signature for ``knn_tree_build``."""
    c_i64 = ctypes.c_int64
    ptr = ctypes.c_void_p
    fn.restype = None
    fn.argtypes = [
        ptr, c_i64,    # points (m, 2), n_points
        c_i64,         # depth
        ptr, ptr, ptr,  # txy (m, 2), tidx (m,), boxes (nodes, 4)
    ]


def _configure_knn_search(fn) -> None:
    """ctypes signature for ``knn_tree_search``."""
    c_i64 = ctypes.c_int64
    ptr = ctypes.c_void_p
    fn.restype = ctypes.c_int
    fn.argtypes = [
        ptr, c_i64,       # queries (n, 2), n_queries
        ptr, ptr, c_i64,  # txy, tidx, n_points
        ptr, c_i64,       # boxes, depth
        c_i64,            # k
        ptr, ptr,         # dist_out (n, k), idx_out (n, k)
    ]


class HaloScanArgs(ctypes.Structure):
    """The fixed arguments of ``halo_scan`` (its ``halo_scan_args``
    struct): the grid's cut lines, the per-cell accumulators of the
    whole scan and the per-block scratch.  The planner fills one per
    plan and passes it with each block's rows."""

    _fields_ = [
        ("xs", ctypes.c_void_p), ("ys", ctypes.c_void_p),
        ("nx", ctypes.c_int64), ("ny", ctypes.c_int64),
        ("slack", ctypes.c_double), ("graze_tol", ctypes.c_double),
        ("first_row", ctypes.c_void_p), ("last_row", ctypes.c_void_p),
        ("counts", ctypes.c_void_p), ("contained", ctypes.c_void_p),
        ("block_counts", ctypes.c_void_p), ("block_bits", ctypes.c_void_p),
        ("stride", ctypes.c_int64),
    ]


def _configure_halo(fn) -> None:
    """ctypes signature for ``halo_scan``."""
    c_i64 = ctypes.c_int64
    ptr = ctypes.c_void_p
    fn.restype = ctypes.c_int
    fn.argtypes = [
        ctypes.POINTER(HaloScanArgs),
        ptr, ptr, ptr,  # cx, cy, r (n,)
        c_i64, c_i64,   # n, store row of cx[0]
    ]


_ENTRY_POINTS = {
    "classify_quad_split": _configure_quad,
    "knn_tree_build": _configure_knn_build,
    "knn_tree_search": _configure_knn_search,
    "halo_scan": _configure_halo,
}


class KnnKernel(NamedTuple):
    """The compiled kNN entry points: ``build`` prepares the site
    index, ``search`` answers a query batch against it."""

    build: Any
    search: Any


def _load_entries() -> dict[str, object | None]:
    """Build + load the library once; configure every entry point."""
    fns: dict[str, object | None] = dict.fromkeys(_ENTRY_POINTS)
    if os.environ.get("REPRO_NO_CKERNEL"):
        return fns
    lib_path = _build(_SOURCE)
    if lib_path is None:
        return fns
    try:
        lib = ctypes.CDLL(lib_path)
        loaded: dict[str, object | None] = {}
        for name, configure in _ENTRY_POINTS.items():
            fn = getattr(lib, name)
            configure(fn)
            loaded[name] = fn
    # OSError: CDLL could not load the library; AttributeError: an
    # expected symbol is missing (stale/foreign .so).  All entry points
    # degrade together — a library missing one symbol is not trusted
    # for the others either.
    except (OSError, AttributeError) as exc:
        # repro: fallback(kernel load failure degrades to the bit-identical numpy batch kernels)
        warnings.warn(
            f"compiled kernel load failed ({exc!r}); falling back to "
            "the pure-numpy batched kernels (identical results, slower)",
            RuntimeWarning, stacklevel=3)
        return fns
    return loaded


def _entries() -> dict[str, object | None]:
    global _cached
    if _cached is None:
        # repro: worker-state(per-process compiled-kernel handle cache:
        # every process loads the same .so (or the same numpy fallback)
        # from the same source hash, so a cache hit and a fresh load
        # answer identically — caching only skips dlopen/compile)
        _cached = _load_entries()
    return _cached


def load_quad_kernel():
    """The compiled ``classify_quad_split`` entry point, or ``None``.

    The result (including a failed load) is cached for the process.
    """
    return _entries()["classify_quad_split"]


def load_knn_kernel() -> KnnKernel | None:
    """The compiled ``knn_tree_build`` / ``knn_tree_search`` pair, or
    ``None``.

    The result (including a failed load) is cached for the process.
    """
    entries = _entries()
    build = entries["knn_tree_build"]
    search = entries["knn_tree_search"]
    if build is None or search is None:
        return None
    return KnnKernel(build, search)


def load_halo_kernel() -> Callable[..., int] | None:
    """The compiled ``halo_scan`` entry point, or ``None``.

    The result (including a failed load) is cached for the process.
    """
    return cast("Callable[..., int] | None", _entries()["halo_scan"])
