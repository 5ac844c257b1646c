"""Query operators over a MaxBRkNN instance.

MaxFirst answers the *optimal region* question; a site planner also asks
the surrounding reverse-nearest-neighbour questions the paper's related
work covers (Korn & Muthukrishnan's influence sets, Wong et al.'s BRkNN):

* :func:`knn_sites` — each customer's ``k`` nearest existing sites.
* :func:`brknn_of_site` — the (weighted) influence set of an existing
  site: which customers rank it among their ``k`` nearest, at what rank.
* :func:`site_influence` — the current influence of every existing site.
* :func:`impact_of_new_site` — the competitive what-if: opening a site at
  ``(x, y)`` wins customers and pushes incumbents down one rank; returns
  the newcomer's gain and each incumbent's loss.

All operators share the instance's probability/weight semantics, so a
site's influence is ``sum over customers of w(o) * prob_rank(o)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.nlc import knn_chunked
from repro.core.problem import MaxBRkNNProblem


def knn_sites(problem: MaxBRkNNProblem) -> np.ndarray:
    """Index matrix of each customer's ``k`` nearest sites.

    Returns an ``(n_customers, k)`` int array; :func:`~repro.core.nlc.knn_chunked`'s
    ``(distance, index)`` tie-break makes the result deterministic.
    """
    return knn_chunked(problem.customers, problem.sites, problem.k)[1]


@dataclass(frozen=True)
class InfluenceSet:
    """The BRkNN influence set of one site.

    ``members`` maps customer index to the site's rank (1-based) in that
    customer's nearest-site list; ``influence`` is the probability- and
    weight-adjusted total.
    """

    site: int
    members: dict[int, int]
    influence: float

    @property
    def cardinality(self) -> int:
        """Plain BRkNN set size (the unweighted notion)."""
        return len(self.members)


def brknn_of_site(problem: MaxBRkNNProblem, site_index: int,
                  ranks: np.ndarray | None = None) -> InfluenceSet:
    """The influence set of an existing site (``BRkNN(p, k, O, P)``).

    ``ranks`` optionally reuses a precomputed :func:`knn_sites` matrix.
    """
    if not 0 <= site_index < problem.n_sites:
        raise ValueError(
            f"site_index {site_index} out of range "
            f"[0, {problem.n_sites})")
    if ranks is None:
        ranks = knn_sites(problem)
    members: dict[int, int] = {}
    influence = 0.0
    rows, cols = np.nonzero(ranks == site_index)
    for customer, rank0 in zip(rows.tolist(), cols.tolist()):
        rank = rank0 + 1
        members[customer] = rank
        influence += (problem.weights[customer]
                      * problem.models[customer].probs[rank0])
    return InfluenceSet(site=site_index, members=members,
                        influence=influence)


def site_influence(problem: MaxBRkNNProblem,
                   ranks: np.ndarray | None = None) -> np.ndarray:
    """Current influence of every existing site (vectorised).

    ``result[j] = sum over customers ranking j at position i of
    w(o) * prob_i(o)`` — the denominator against which a new site's gain
    is judged.  ``ranks`` optionally reuses a precomputed
    :func:`knn_sites` matrix (the serving layer computes it once per
    published instance and passes it to every operator).
    """
    if ranks is None:
        ranks = knn_sites(problem)
    n, k = ranks.shape
    prob_rows = np.empty((n, k), dtype=np.float64)
    for i, model in enumerate(problem.models):
        prob_rows[i] = model.probs
    contributions = prob_rows * problem.weights[:, None]
    out = np.zeros(problem.n_sites, dtype=np.float64)
    np.add.at(out, ranks.reshape(-1), contributions.reshape(-1))
    return out


@dataclass(frozen=True)
class NewSiteImpact:
    """What happens if a new site opens at ``(x, y)``.

    ``gain`` is the newcomer's influence.  ``customer_ranks`` maps each
    won customer to the rank the newcomer takes.  ``incumbent_losses``
    maps existing-site index to the influence it loses: for a customer
    won at rank ``i``, each incumbent previously at rank ``j >= i``
    slides to ``j + 1`` (the old ``k``-th drops out entirely).
    """

    x: float
    y: float
    gain: float
    customer_ranks: dict[int, int]
    incumbent_losses: dict[int, float] = field(default_factory=dict)

    @property
    def customers_won(self) -> int:
        return len(self.customer_ranks)

    def total_incumbent_loss(self) -> float:
        return sum(self.incumbent_losses.values())


def impact_of_new_site(problem: MaxBRkNNProblem, x: float, y: float,
                       ranks: np.ndarray | None = None) -> NewSiteImpact:
    """Competitive what-if analysis for a candidate location.

    Strict-distance semantics (consistent with the library's region
    semantics): the newcomer takes rank ``i`` for a customer when it is
    strictly closer than the current ``i``-th site; exact ties leave the
    incumbent in place.  ``ranks`` optionally reuses a precomputed
    :func:`knn_sites` matrix.  Raises ``ValueError`` unless ``x`` and
    ``y`` are finite: a NaN place compares false against every distance
    and would rank first for every customer.
    """
    x = float(x)
    y = float(y)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"new site ({x!r}, {y!r}) must be finite")
    if ranks is None:
        ranks = knn_sites(problem)
    customers = problem.customers
    sites = problem.sites

    d_new = np.hypot(customers[:, 0] - x, customers[:, 1] - y)
    d_sites = np.hypot(customers[:, 0:1] - sites[:, 0][ranks],
                       customers[:, 1:2] - sites[:, 1][ranks])
    # Rank the newcomer takes per customer: it must be STRICTLY closer
    # than an incumbent to displace it (exact ties leave the incumbent),
    # so count incumbents at distance <= d_new; rank > k means the
    # newcomer misses the top k.
    closer = (d_sites <= d_new[:, None]).sum(axis=1)
    new_rank = closer + 1

    gain = 0.0
    customer_ranks: dict[int, int] = {}
    incumbent_losses: dict[int, float] = {}
    k = problem.k
    for customer in np.flatnonzero(new_rank <= k).tolist():
        rank = int(new_rank[customer])
        customer_ranks[customer] = rank
        weight = float(problem.weights[customer])
        probs = problem.models[customer].probs
        gain += weight * probs[rank - 1]
        # Incumbents from the newcomer's rank onward slide one down.
        for j in range(rank - 1, k):
            incumbent = int(ranks[customer, j])
            old = probs[j]
            new = probs[j + 1] if j + 1 < k else 0.0
            loss = weight * (old - new)
            # repro: float-eq(exact-zero skip is an optimisation only: a zero product means the rank shift changes nothing for this incumbent, and any nonzero loss — however tiny — must be recorded)
            if loss != 0.0:
                incumbent_losses[incumbent] = (
                    incumbent_losses.get(incumbent, 0.0) + loss)
    return NewSiteImpact(x=x, y=y, gain=gain,
                         customer_ranks=customer_ranks,
                         incumbent_losses=incumbent_losses)
