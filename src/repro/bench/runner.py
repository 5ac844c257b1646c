"""Timed execution of solvers over problem instances.

The unit of measurement follows the paper: *total processing time
including NLC construction* (Section VI).  Solvers are resolved by name
through :mod:`repro.engine.registry` and run through the staged engine
pipeline, so every timing carries the run's
:class:`~repro.engine.report.RunReport` (per-stage breakdown plus work
counters) alongside the headline wall-clock number.

MaxOverlap points whose predicted intersection-pair count exceeds the
profile budget are skipped with an explanatory marker rather than
stalling the whole sweep — the paper's own Figure 12(a) leaves
MaxOverlap's curve incomplete for the same reason.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.nlc import knn_distances
from repro.core.problem import MaxBRkNNProblem
from repro.engine.registry import run_pipeline
from repro.engine.report import RunReport


@dataclass(frozen=True)
class SolverTiming:
    """One timed solver run (or a skip marker).

    ``report`` is the engine's per-stage instrumentation record; it is
    ``None`` only for skipped runs.
    """

    solver: str
    seconds: float | None
    score: float | None
    skipped_reason: str | None = None
    report: RunReport | None = field(default=None, compare=False)

    @property
    def skipped(self) -> bool:
        return self.skipped_reason is not None


@dataclass
class ExperimentResult:
    """One experiment: named columns over a sweep.

    ``rows`` is a list of dicts with homogeneous keys (what
    ``format_table`` renders); ``meta`` records the experiment id,
    profile, and any notes (skips, substitutions); ``reports`` collects
    the per-run :class:`RunReport` dicts, each tagged with the sweep
    coordinates of the row it belongs to.
    """

    experiment: str
    rows: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    reports: list[dict] = field(default_factory=list)

    def column(self, key: str) -> list:
        return [row.get(key) for row in self.rows]

    def add_row(self, **values) -> None:
        self.rows.append(values)

    def attach_report(self, report: RunReport | None, **context) -> None:
        """Record one run's report, tagged with its sweep coordinates."""
        if report is None:
            return
        entry = dict(context)
        entry.update(report.as_dict())
        self.reports.append(entry)

    def attach_timings(self, timings, **context) -> None:
        """Attach the reports of a :func:`run_solvers` mapping (or any
        iterable of timings) in one call."""
        values = timings.values() if hasattr(timings, "values") else timings
        for timing in values:
            self.attach_report(timing.report, **context)


def time_solver(name: str, problem: MaxBRkNNProblem, *,
                pair_budget: int | None = None,
                **solver_options) -> SolverTiming:
    """Wall-clock one registry-resolved solver run (NLC time included).

    ``pair_budget`` applies to ``"maxoverlap"`` only: a predicted
    intersecting-pair count above it skips the run (see
    :func:`predict_pair_count`).
    """
    if name == "maxoverlap" and pair_budget is not None:
        predicted = predict_pair_count(problem)
        if predicted > pair_budget:
            return SolverTiming(
                solver=name, seconds=None, score=None,
                skipped_reason=(
                    f"predicted ~{predicted:.2g} intersecting NLC pairs "
                    f"exceeds budget {pair_budget:.2g}"))
    start = time.perf_counter()
    result, report = run_pipeline(name, problem, **solver_options)
    elapsed = time.perf_counter() - start
    return SolverTiming(solver=name, seconds=elapsed, score=result.score,
                        report=report)


def time_maxfirst(problem: MaxBRkNNProblem, **solver_options) -> SolverTiming:
    """Wall-clock one MaxFirst run (NLC construction included)."""
    return time_solver("maxfirst", problem, **solver_options)


def time_maxoverlap(problem: MaxBRkNNProblem,
                    pair_budget: int | None = None,
                    **solver_options) -> SolverTiming:
    """Wall-clock one MaxOverlap run, or skip if predictably too heavy.

    The skip estimate is the expected number of intersecting NLC pairs
    under a uniformity assumption: ``n^2 * pi * (2 * mean_r)^2 / (2 *
    area)``.  It is an order-of-magnitude guard, not a precise model.
    """
    return time_solver("maxoverlap", problem, pair_budget=pair_budget,
                       **solver_options)


def predict_pair_count(problem: MaxBRkNNProblem) -> float:
    """Estimate MaxOverlap's intersecting-pair count before running it.

    Samples a subset of customers to estimate the mean k-th NN distance
    (the score-carrying NLC radius), then applies the uniform-density pair
    formula.  Clustered data intersects more than the estimate; the budget
    already carries an order-of-magnitude margin.
    """
    rng = np.random.default_rng(0)
    n = problem.n_customers
    sample_size = min(n, 2_000)
    idx = rng.choice(n, size=sample_size, replace=False)
    dists = knn_distances(problem.customers[idx], problem.sites, problem.k)
    mean_r = float(dists[:, -1].mean())
    bounds = problem.data_bounds()
    area = max(bounds.area, 1e-30)
    per_object = problem.k  # k circles per object carry candidate pairs
    n_circles = n * per_object
    return (n_circles * n_circles * math.pi * (2.0 * mean_r) ** 2
            / (2.0 * area))


def run_solvers(problem: MaxBRkNNProblem, pair_budget: int | None = None,
                solvers: tuple[str, ...] = ("maxfirst", "maxoverlap"),
                solver_options: dict[str, dict] | None = None
                ) -> dict[str, SolverTiming]:
    """Run the named solvers on one instance; MaxOverlap honours the budget.

    ``solver_options`` maps solver name to constructor options for any
    registered solver.
    """
    options = solver_options or {}
    return {
        name: time_solver(name, problem, pair_budget=pair_budget,
                          **options.get(name, {}))
        for name in solvers
    }
