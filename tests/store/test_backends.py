"""Protocol conformance of the two NLC storage backends.

Every backend must round-trip a published ``CircleSet`` bit-for-bit,
serve row-slice views, stream a writer build, and release its backing
resource on ``close`` — including when a consumer process dies with the
store mapped (the worker-death regression at the bottom).
"""

import os
import pickle
from pathlib import Path

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

from repro import store as nlc_store
from repro.core.nlc import build_nlcs
from repro.core.problem import MaxBRkNNProblem
from repro.datasets.synthetic import synthetic_instance
from repro.index.circleset import CircleSet
from repro.obs import metrics as obs_metrics
from repro.store.base import BYTES_PER_ROW, soa_arrays
from repro.store.memmap import store_dir

BACKENDS = ("ram", "memmap")


def _nlcs(n=60, sites=6, k=2, seed=3):
    customers, site_pts = synthetic_instance(n, sites, "uniform",
                                             seed=seed)
    return build_nlcs(MaxBRkNNProblem(customers, site_pts, k=k))


def _empty_nlcs():
    empty_f = np.empty(0, dtype=np.float64)
    empty_i = np.empty(0, dtype=np.int64)
    return CircleSet(empty_f, empty_f, empty_f, empty_f,
                     owners=empty_i, levels=empty_i)


def _assert_rows(attached, nlcs, lo=0, hi=None):
    hi = len(nlcs) if hi is None else hi
    for got, want in zip(soa_arrays(attached), soa_arrays(nlcs)):
        np.testing.assert_array_equal(got, want[lo:hi])


def _store_files():
    """The store files this process has on disk: their names carry the
    publishing process's pid, so a pool's workers and other test runs
    never show up here."""
    return set(Path(store_dir()).glob(f"repro-nlc-{os.getpid()}-*.nlc"))


@pytest.fixture(autouse=True)
def _drop_attachments():
    yield
    nlc_store.detach()


@pytest.mark.parametrize("backend", BACKENDS)
class TestRoundtrip:
    def test_publish_attach_roundtrip(self, backend):
        nlcs = _nlcs()
        with nlc_store.publish(nlcs, backend) as owner:
            assert owner.backend == backend
            assert owner.length == len(nlcs)
            attached = nlc_store.attach(owner.handle)
            assert len(attached) == len(nlcs)
            _assert_rows(attached, nlcs)

    def test_attach_slice_rows(self, backend):
        nlcs = _nlcs()
        n = len(nlcs)
        with nlc_store.publish(nlcs, backend) as owner:
            for lo, hi in ((0, n), (0, 1), (3, n - 2), (n, n)):
                window = nlc_store.attach_slice(owner.handle, lo, hi)
                assert len(window) == hi - lo
                _assert_rows(window, nlcs, lo, hi)

    def test_slice_out_of_range_raises(self, backend):
        with nlc_store.publish(_nlcs(), backend) as owner:
            n = owner.length
            for lo, hi in ((-1, 2), (0, n + 1), (4, 2)):
                with pytest.raises(ValueError, match="slice"):
                    nlc_store.attach_slice(owner.handle, lo, hi)

    def test_empty_store(self, backend):
        with nlc_store.publish(_empty_nlcs(), backend) as owner:
            assert owner.length == 0
            assert len(nlc_store.attach(owner.handle)) == 0
            assert len(nlc_store.attach_slice(owner.handle, 0, 0)) == 0

    def test_close_is_idempotent(self, backend):
        owner = nlc_store.publish(_nlcs(), backend)
        owner.close()
        owner.close()


@pytest.mark.parametrize("backend", BACKENDS)
class TestWriter:
    def test_streaming_build_matches_publish(self, backend):
        nlcs = _nlcs()
        arrays = soa_arrays(nlcs)
        n = len(nlcs)
        writer = nlc_store.writer(n + 5, backend)  # capacity > length
        for lo in range(0, n, 7):
            writer.append([arr[lo:lo + 7] for arr in arrays])
        writer.append([arr[:0] for arr in arrays])  # empty chunk is a no-op
        with writer.finalize() as owner:
            assert owner.length == n
            assert owner.capacity == n + 5
            _assert_rows(nlc_store.attach(owner.handle), nlcs)

    def test_overflow_and_reuse_rejected(self, backend):
        arrays = soa_arrays(_nlcs())
        writer = nlc_store.writer(3, backend)
        with pytest.raises(ValueError, match="overflow"):
            writer.append(arrays)
        writer.append([arr[:2] for arr in arrays])
        owner = writer.finalize()
        owner.close()
        with pytest.raises(RuntimeError, match="finalized"):
            writer.append([arr[:1] for arr in arrays])
        with pytest.raises(RuntimeError, match="finalized"):
            writer.finalize()

    def test_malformed_chunk_rejected(self, backend):
        arrays = soa_arrays(_nlcs())
        writer = nlc_store.writer(100, backend)
        try:
            with pytest.raises(ValueError, match="6 field arrays"):
                writer.append(arrays[:4])
            with pytest.raises(ValueError, match="equal length"):
                writer.append(list(arrays[:5]) + [arrays[5][:1]])
        finally:
            writer.abort()

    def test_abort_releases_resource(self, backend):
        before = _store_files()
        writer = nlc_store.writer(10, backend)
        writer.append([arr[:4] for arr in soa_arrays(_nlcs())])
        writer.abort()
        writer.abort()  # idempotent
        assert _store_files() == before
        if backend == "memmap":
            assert not os.path.exists(writer.path)


class TestReadOnlyViews:
    @pytest.mark.parametrize("backend", ("memmap",))
    def test_attached_views_reject_writes(self, backend):
        # A stray write in a worker must fail loudly, not corrupt every
        # sibling's data.  (ram views are the publisher's own arrays.)
        with nlc_store.publish(_nlcs(), backend) as owner:
            attached = nlc_store.attach(owner.handle)
            for arr in soa_arrays(attached):
                assert not arr.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                attached.cx[0] = 99.0


class TestHandles:
    @pytest.mark.parametrize("backend", ("memmap",))
    def test_handle_is_tiny_and_picklable(self, backend):
        with nlc_store.publish(_nlcs(), backend) as owner:
            payload = pickle.dumps(owner.handle)
            # The whole point of the transport: O(1) bytes per job.
            assert len(payload) < 512
            assert owner.nbytes >= BYTES_PER_ROW * owner.length

    def test_ram_handle_carries_payload_by_value(self):
        nlcs = _nlcs()
        owner = nlc_store.publish(nlcs, "ram")
        handle = owner.handle  # taken before close: arrays ride along
        owner.close()
        _assert_rows(nlc_store.attach(handle), nlcs)
        with pytest.raises(ValueError, match="payload"):
            nlc_store.attach(owner.handle)  # taken after close: gone

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown store backend"):
            nlc_store.get_backend("tape")
        with pytest.raises(ValueError, match="unknown store backend"):
            nlc_store.resolve_store_name("tape")

    def test_shm_is_refused(self, monkeypatch):
        """``shm`` is not a backend: naming it, explicitly or through
        ``REPRO_STORE``, raises the unknown-backend error."""
        with pytest.raises(ValueError, match="unknown store backend"):
            nlc_store.publish(_nlcs(), "shm")
        monkeypatch.setenv("REPRO_STORE", "shm")
        with pytest.raises(ValueError, match="unknown store backend"):
            nlc_store.resolve_store_name()

    def test_resolve_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert nlc_store.resolve_store_name() == "ram"
        monkeypatch.setenv("REPRO_STORE", "memmap")
        assert nlc_store.resolve_store_name() == "memmap"
        assert nlc_store.resolve_store_name("ram") == "ram"  # explicit wins


class TestLifecycle:
    def test_attachment_is_cached(self):
        with nlc_store.publish(_nlcs(), "memmap") as owner:
            first = nlc_store.attach(owner.handle)
            assert nlc_store.attach(owner.handle) is first

    def test_detach_keep_preserves_named_store(self):
        nlcs = _nlcs()
        with nlc_store.publish(nlcs, "memmap") as first, \
                nlc_store.publish(nlcs, "memmap") as second:
            kept = nlc_store.attach(first.handle)
            dropped = nlc_store.attach(second.handle)
            nlc_store.detach(keep=(first.key,))
            # The kept attachment is still the cached object; the other
            # file's was dropped and re-attaching maps it afresh.
            assert nlc_store.attach(first.handle) is kept
            again = nlc_store.attach(second.handle)
            assert again is not dropped
            assert len(again) == len(nlcs)

    def test_memmap_close_unlinks_file(self):
        owner = nlc_store.publish(_nlcs(), "memmap")
        assert os.path.exists(owner.path)
        owner.close()
        assert not os.path.exists(owner.path)

    def test_memmap_slice_attachments_are_uncached(self):
        backend = nlc_store.get_backend("memmap")
        with nlc_store.publish(_nlcs(), "memmap") as owner:
            first = nlc_store.attach_slice(owner.handle, 0, 5)
            second = nlc_store.attach_slice(owner.handle, 0, 5)
            assert first is not second  # mapping dies with the views
            assert backend._attached == {}


class TestObservability:
    def test_slice_counter_and_mapped_gauge(self):
        nlcs = _nlcs()
        with nlc_store.publish(nlcs, "memmap") as owner:
            before = obs_metrics.REGISTRY.snapshot()
            nlc_store.attach(owner.handle)
            nlc_store.attach_slice(owner.handle, 2, 9)
            delta = obs_metrics.REGISTRY.delta_since(before)
            assert delta["store_slice_views"] == 1  # full attach excluded
            gauges = obs_metrics.REGISTRY.gauges_snapshot()
            assert (gauges["nlc_store_bytes_mapped"]
                    >= BYTES_PER_ROW * len(nlcs))


def _attach_and_die(job):
    """Worker entry for the death regression: map the store, then die
    the hard way (no finally blocks, no interpreter shutdown)."""
    handle, = job
    from repro import store

    attached = store.attach(handle)
    assert len(attached) == handle[2]
    os._exit(3)


class TestWorkerDeath:
    def test_worker_death_mid_attach_leaks_no_store_file(self):
        """A worker killed between map and use must leak nothing: its
        mapping vanishes with the process and the file is the owner's
        to unlink."""
        from repro.engine.pool import PersistentPool

        before = _store_files()
        owner = nlc_store.publish(_nlcs(), "memmap")
        pool = PersistentPool(max_workers=1)
        try:
            future = pool.executor().submit(_attach_and_die,
                                            (owner.handle,))
            with pytest.raises(BrokenProcessPool):
                future.result(timeout=60)
        finally:
            pool.close()
            owner.close()
        assert _store_files() == before
