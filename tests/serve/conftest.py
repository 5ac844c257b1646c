"""Shared fixtures for the serve-layer tests."""

from __future__ import annotations

import math

import pytest
from hypothesis import strategies as st

from repro.core.problem import MaxBRkNNProblem
from repro.datasets.synthetic import synthetic_instance

#: A JSON number, weighted towards the ones ``int()``/``float()``
#: refuse: infinities, NaN and integers too large for a float.
NUMBER = (st.sampled_from([math.inf, -math.inf, math.nan, 10 ** 400])
          | st.floats()
          | st.integers(min_value=-10 ** 400, max_value=10 ** 400))

#: Any JSON value: what ``json.loads`` can hand a decoder.
JSON = st.recursive(
    st.none() | st.booleans() | NUMBER | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=3)),
    max_leaves=8)


@pytest.fixture(scope="module")
def serve_problem() -> MaxBRkNNProblem:
    """A deterministic 120-customer / 10-site instance, k=2.

    Module-scoped: the problem is immutable and every serve test only
    reads it (publishes copy the NLC arrays into a store anyway).
    """
    customers, sites = synthetic_instance(120, 10, "uniform", seed=7)
    return MaxBRkNNProblem(customers, sites, k=2)
