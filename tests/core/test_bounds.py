"""Tests for repro.core.bounds — the quadrant classification backend."""

import numpy as np
import pytest

from repro.core.bounds import VectorBackend
from repro.core.nlc import build_nlcs, nlc_space
from repro.index.circleset import CircleSet


@pytest.fixture
def nlcs(small_k2_problem) -> CircleSet:
    return build_nlcs(small_k2_problem)


class TestBackendEquivalence:
    def test_hierarchical_passing_matches_full(self, nlcs):
        """Classifying a child against its parent's I equals classifying
        it against the full NLC set — the invariant hierarchical
        candidate passing relies on."""
        vector = VectorBackend(nlcs)
        space = nlc_space(nlcs)
        parent = vector.classify(space, vector.root_candidates(), 0)
        for child_rect in space.split_center():
            via_parent = vector.classify(child_rect, parent.intersecting, 1)
            via_full = vector.classify(child_rect,
                                       vector.root_candidates(), 1)
            assert np.array_equal(via_parent.intersecting,
                                  via_full.intersecting)
            assert via_parent.max_hat == via_full.max_hat
            assert via_parent.min_hat == via_full.min_hat
