"""Shared-memory transport of a ``CircleSet``: zero-copy roundtrip,
lifecycle, leak-freedom — through the ``repro.store`` façade's ``shm``
backend, the one path every caller uses."""

import glob
import pickle

import numpy as np
import pytest

from repro import store as nlc_store
from repro.core.nlc import build_nlcs
from repro.core.problem import MaxBRkNNProblem
from repro.datasets.synthetic import synthetic_instance
from repro.index.circleset import CircleSet


def _leaked_segments():
    return glob.glob("/dev/shm/repro-nlc-*")


@pytest.fixture
def nlcs():
    customers, sites = synthetic_instance(120, 8, "uniform", seed=3)
    return build_nlcs(MaxBRkNNProblem(customers, sites, k=2))


class TestRoundtrip:
    def test_arrays_bit_identical(self, nlcs):
        store = nlc_store.publish(nlcs, "shm")
        try:
            other = nlc_store.attach(store.handle)
            assert np.array_equal(other.cx, nlcs.cx)
            assert np.array_equal(other.cy, nlcs.cy)
            assert np.array_equal(other.r, nlcs.r)
            assert np.array_equal(other.scores, nlcs.scores)
            assert np.array_equal(other.owners, nlcs.owners)
            assert np.array_equal(other.levels, nlcs.levels)
        finally:
            nlc_store.detach()
            store.close()

    def test_views_are_read_only(self, nlcs):
        store = nlc_store.publish(nlcs, "shm")
        try:
            other = nlc_store.attach(store.handle)
            with pytest.raises((ValueError, RuntimeError)):
                other.cx[0] = 99.0
        finally:
            nlc_store.detach()
            store.close()

    def test_empty_set_roundtrips(self):
        empty = CircleSet(np.empty(0), np.empty(0), np.empty(0),
                          np.empty(0))
        store = nlc_store.publish(empty, "shm")
        try:
            other = nlc_store.attach(store.handle)
            assert len(other) == 0
        finally:
            nlc_store.detach()
            store.close()

    def test_attachment_is_cached(self, nlcs):
        store = nlc_store.publish(nlcs, "shm")
        try:
            first = nlc_store.attach(store.handle)
            second = nlc_store.attach(store.handle)
            assert first is second
        finally:
            nlc_store.detach()
            store.close()


class TestTransportCost:
    def test_handle_pickles_tiny(self, nlcs):
        """The whole point of the store: what crosses the process
        boundary is a name + shape, not the SoA payload."""
        store = nlc_store.publish(nlcs, "shm")
        try:
            assert len(pickle.dumps(store.handle)) < 128
            assert store.nbytes >= 6 * 8 * len(nlcs)
        finally:
            store.close()


class TestLifecycle:
    def test_close_unlinks_segment(self, nlcs):
        store = nlc_store.publish(nlcs, "shm")
        name = store.key
        assert any(name in path for path in _leaked_segments())
        store.close()
        assert not any(name in path for path in _leaked_segments())

    def test_close_is_idempotent(self, nlcs):
        store = nlc_store.publish(nlcs, "shm")
        store.close()
        store.close()

    def test_held_view_defers_close_without_error(self, nlcs):
        """A live numpy view pins the mapping; detach must park the
        attachment instead of raising BufferError, and a later detach
        (after the view dies) must finish the close."""
        store = nlc_store.publish(nlcs, "shm")
        attached = nlc_store.attach(store.handle)
        view = attached.cx  # exported buffer pointer
        del attached
        nlc_store.detach()  # view still alive: deferred, no exception
        del view
        nlc_store.detach()  # graveyard retry completes the close
        store.close()
        assert not _leaked_segments()

    def test_no_leak_after_full_cycle(self, nlcs):
        before = set(_leaked_segments())
        store = nlc_store.publish(nlcs, "shm")
        nlc_store.attach(store.handle)
        nlc_store.detach()
        store.close()
        assert set(_leaked_segments()) == before
