"""Top-level convenience API.

The one-call entry points a downstream user reaches for first; the full
control surface lives on the solver classes (resolved by name through
:mod:`repro.engine.registry`) and :class:`~repro.core.problem.MaxBRkNNProblem`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.probability import ProbabilityLike
from repro.core.problem import MaxBRkNNProblem
from repro.core.result import MaxBRkNNResult
from repro.geometry.point import Point

if TYPE_CHECKING:  # engine imports stay lazy at runtime (circularity)
    from repro.engine.report import RunReport


def find_optimal_regions(customers: Any, sites: Any, k: int = 1,
                         weights: Any = None,
                         probability: ProbabilityLike = None,
                         solver: str = "maxfirst",
                         **solver_options: Any) -> MaxBRkNNResult:
    """Solve a (generalized) MaxBRkNN instance.

    Parameters
    ----------
    customers, sites:
        ``(n, 2)`` / ``(m, 2)`` array-likes of planar locations.
    k:
        Customers consider their ``k`` nearest service sites.
    weights:
        Optional per-customer importance.
    probability:
        ``None`` (classic MaxBRkNN: equal probabilities), a
        :class:`~repro.core.probability.ProbabilityModel`, a probability
        sequence such as ``[0.8, 0.2]``, or one model per customer.
    solver:
        Registry name of the solver to run — ``"maxfirst"`` (default),
        ``"maxoverlap"``, ``"maxfirst-sharded"``, ``"gridsearch"`` or
        ``"reference"`` (see :func:`repro.engine.solver_names`).
    solver_options:
        Forwarded to the solver's constructor (``m_threshold``,
        ``top_t``, ``epsilon``, ... for MaxFirst).

    >>> result = find_optimal_regions([(0, 0), (1, 0)], [(4, 4), (-4, 4)])
    >>> round(result.score, 6)
    2.0

    Both customers lie far from either site, so a new site between them
    wins both.
    """
    from repro.engine.registry import create_solver

    problem = MaxBRkNNProblem(customers=customers, sites=sites, k=k,
                              weights=weights, probability=probability)
    return create_solver(solver, **solver_options).solve(problem)


def find_optimal_location(customers: Any, sites: Any, k: int = 1,
                          weights: Any = None,
                          probability: ProbabilityLike = None,
                          solver: str = "maxfirst",
                          **solver_options: Any) -> Point:
    """Like :func:`find_optimal_regions` but returns one concrete optimal
    location (a representative point of the best region)."""
    result = find_optimal_regions(customers, sites, k=k, weights=weights,
                                  probability=probability, solver=solver,
                                  **solver_options)
    return result.optimal_location()


def solve_with_report(
        customers: Any, sites: Any, k: int = 1, weights: Any = None,
        probability: ProbabilityLike = None, solver: str = "maxfirst",
        **solver_options: Any) -> tuple[MaxBRkNNResult, RunReport]:
    """Like :func:`find_optimal_regions` but through the staged engine
    pipeline: returns ``(result, report)`` where ``report`` is the
    :class:`~repro.engine.report.RunReport` with per-stage timings and
    the solver's work counters."""
    from repro.engine.registry import run_pipeline

    problem = MaxBRkNNProblem(customers=customers, sites=sites, k=k,
                              weights=weights, probability=probability)
    return run_pipeline(solver, problem, **solver_options)
