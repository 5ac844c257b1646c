"""One function per paper figure/table: the experiment definitions.

Every function returns an :class:`~repro.bench.runner.ExperimentResult`
whose rows are exactly the series the corresponding figure plots.  The
pytest-benchmark wrappers in ``benchmarks/`` call these and print the
tables; EXPERIMENTS.md records paper-vs-measured shapes.

All experiments honour the scale profile (``REPRO_SCALE``) and a seed, so
runs are reproducible.
"""

from __future__ import annotations

from repro.bench.config import ScaleProfile, get_profile
from repro.bench.runner import (ExperimentResult, run_solvers,
                                time_maxfirst, time_maxoverlap,
                                time_solver)
from repro.core.probability import ProbabilityModel
from repro.core.problem import MaxBRkNNProblem
from repro.datasets.realworld import make_ne, make_ux, split_sites
from repro.datasets.synthetic import synthetic_instance


def _problem(n_customers: int, n_sites: int, k: int, distribution: str,
             seed: int, probability=None) -> MaxBRkNNProblem:
    customers, sites = synthetic_instance(n_customers, n_sites,
                                          distribution, seed=seed)
    return MaxBRkNNProblem(customers, sites, k=k, probability=probability)


# ---------------------------------------------------------------------- #
# Figure 8 — effect of the intersection-point threshold m
# ---------------------------------------------------------------------- #

def fig08_effect_of_m(profile: ScaleProfile | None = None,
                      seed: int | None = None) -> ExperimentResult:
    """MaxFirst runtime as ``m`` varies (paper: flat line — insensitive)."""
    profile = profile or get_profile()
    seed = profile.seeds[0] if seed is None else seed
    out = ExperimentResult("fig08_effect_of_m",
                           meta={"profile": profile.name,
                                 "distribution": "uniform",
                                 "n_customers": profile.n_customers,
                                 "n_sites": profile.n_sites})
    problem = _problem(profile.n_customers, profile.n_sites, profile.k,
                       "uniform", seed)
    for m in profile.m_sweep:
        timing = time_maxfirst(problem, m_threshold=m)
        out.add_row(m=m, maxfirst_s=timing.seconds, score=timing.score)
        out.attach_report(timing.report, m=m)
    return out


# ---------------------------------------------------------------------- #
# Figure 10 — effect of |O| (uniform: a; normal: b)
# ---------------------------------------------------------------------- #

def fig10_effect_of_customers(distribution: str,
                              profile: ScaleProfile | None = None,
                              seed: int | None = None) -> ExperimentResult:
    """Both solvers as the customer count grows (log-scale in the paper).

    The paper's headline: MaxFirst grows slowly, MaxOverlap quadratically;
    the gap reaches 2-3 orders of magnitude.
    """
    profile = profile or get_profile()
    seed = profile.seeds[0] if seed is None else seed
    out = ExperimentResult(
        f"fig10_effect_of_customers_{distribution}",
        meta={"profile": profile.name, "distribution": distribution,
              "n_sites": profile.n_sites, "k": profile.k})
    for n in profile.customers_sweep:
        problem = _problem(n, profile.n_sites, profile.k, distribution,
                           seed)
        timings = run_solvers(problem,
                              pair_budget=profile.maxoverlap_pair_budget)
        out.add_row(
            n_customers=n,
            maxfirst_s=timings["maxfirst"].seconds,
            maxoverlap_s=timings["maxoverlap"].seconds,
            maxfirst_score=timings["maxfirst"].score,
            maxoverlap_score=timings["maxoverlap"].score,
            maxoverlap_skip=timings["maxoverlap"].skipped_reason,
        )
        out.attach_timings(timings, n_customers=n)
    return out


# ---------------------------------------------------------------------- #
# Figure 11 — effect of |P| (uniform: a; normal: b)
# ---------------------------------------------------------------------- #

def fig11_effect_of_sites(distribution: str,
                          profile: ScaleProfile | None = None,
                          seed: int | None = None) -> ExperimentResult:
    """Both solvers as the site count grows.

    The paper: both get *faster* with more sites (smaller NLCs), the drop
    being steeper under the uniform distribution.
    """
    profile = profile or get_profile()
    seed = profile.seeds[0] if seed is None else seed
    out = ExperimentResult(
        f"fig11_effect_of_sites_{distribution}",
        meta={"profile": profile.name, "distribution": distribution,
              "n_customers": profile.n_customers, "k": profile.k})
    for n_sites in profile.sites_sweep:
        problem = _problem(profile.n_customers, n_sites, profile.k,
                           distribution, seed)
        timings = run_solvers(problem,
                              pair_budget=profile.maxoverlap_pair_budget)
        out.add_row(
            n_sites=n_sites,
            maxfirst_s=timings["maxfirst"].seconds,
            maxoverlap_s=timings["maxoverlap"].seconds,
            maxfirst_score=timings["maxfirst"].score,
            maxoverlap_score=timings["maxoverlap"].score,
            maxoverlap_skip=timings["maxoverlap"].skipped_reason,
        )
        out.attach_timings(timings, n_sites=n_sites)
    return out


# ---------------------------------------------------------------------- #
# Figure 12(a) — effect of k (equal probabilities, both solvers)
# ---------------------------------------------------------------------- #

def fig12a_effect_of_k(profile: ScaleProfile | None = None,
                       seed: int | None = None) -> ExperimentResult:
    """Both solvers as ``k`` grows under the uniform probability model.

    The paper: MaxOverlap deteriorates so fast its curve is left
    incomplete ("needs days"); the pair budget reproduces that skip.
    """
    profile = profile or get_profile()
    seed = profile.seeds[0] if seed is None else seed
    out = ExperimentResult(
        "fig12a_effect_of_k",
        meta={"profile": profile.name, "distribution": "uniform",
              "n_customers": profile.n_customers,
              "n_sites": profile.n_sites})
    for k in profile.k_sweep:
        problem = _problem(profile.n_customers, profile.n_sites, k,
                           "uniform", seed)
        timings = run_solvers(problem,
                              pair_budget=profile.maxoverlap_pair_budget)
        out.add_row(
            k=k,
            maxfirst_s=timings["maxfirst"].seconds,
            maxoverlap_s=timings["maxoverlap"].seconds,
            maxfirst_score=timings["maxfirst"].score,
            maxoverlap_score=timings["maxoverlap"].score,
            maxoverlap_skip=timings["maxoverlap"].skipped_reason,
        )
        out.attach_timings(timings, k=k)
    return out


# ---------------------------------------------------------------------- #
# Figure 12(b) — effect of the probability model series (MaxFirst only)
# ---------------------------------------------------------------------- #

def fig12b_probability_models(profile: ScaleProfile | None = None,
                              seed: int | None = None) -> ExperimentResult:
    """MaxFirst under the M1 (linear) and M2 (harmonic) model series.

    The paper: the two curves nearly coincide — runtime is driven by
    ``k``, not by the probability values.
    """
    profile = profile or get_profile()
    seed = profile.seeds[0] if seed is None else seed
    out = ExperimentResult(
        "fig12b_probability_models",
        meta={"profile": profile.name, "distribution": "uniform",
              "n_customers": profile.n_customers,
              "n_sites": profile.n_sites})
    for k in profile.prob_k_sweep:
        problem_m1 = _problem(profile.n_customers, profile.n_sites, k,
                              "uniform", seed,
                              probability=ProbabilityModel.linear(k))
        problem_m2 = _problem(profile.n_customers, profile.n_sites, k,
                              "uniform", seed,
                              probability=ProbabilityModel.harmonic(k))
        t1 = time_maxfirst(problem_m1)
        t2 = time_maxfirst(problem_m2)
        out.add_row(k=k, m1_s=t1.seconds, m2_s=t2.seconds,
                    m1_score=t1.score, m2_score=t2.score)
        out.attach_report(t1.report, k=k, model="m1")
        out.attach_report(t2.report, k=k, model="m2")
    return out


# ---------------------------------------------------------------------- #
# Figure 13 — pruning effectiveness counters
# ---------------------------------------------------------------------- #

def fig13_pruning(distribution: str,
                  profile: ScaleProfile | None = None,
                  seed: int | None = None) -> ExperimentResult:
    """Quadrants generated / split / pruned on the default instance.

    The paper: splits stay at a few percent of ``|O|`` and Theorem 2 does
    most of the pruning, under both distributions.
    """
    profile = profile or get_profile()
    seed = profile.seeds[0] if seed is None else seed
    out = ExperimentResult(
        f"fig13_pruning_{distribution}",
        meta={"profile": profile.name, "distribution": distribution,
              "n_customers": profile.n_customers,
              "n_sites": profile.n_sites, "k": profile.k})
    problem = _problem(profile.n_customers, profile.n_sites, profile.k,
                       distribution, seed)
    timing = time_solver("maxfirst", problem)
    counters = timing.report.counters
    out.add_row(
        distribution=distribution,
        total=counters["generated"],
        splits=counters["splits"],
        pruned1=counters["pruned_theorem2"],
        pruned2=counters["pruned_theorem3"],
        splits_per_customer=counters["splits"] / problem.n_customers,
        score=timing.score,
    )
    out.attach_report(timing.report, distribution=distribution)
    return out


# ---------------------------------------------------------------------- #
# Figure 14 — real-world datasets, |P|/|O| ratio sweep
# ---------------------------------------------------------------------- #

def fig14_real_world(dataset: str,
                     profile: ScaleProfile | None = None,
                     seed: int | None = None) -> ExperimentResult:
    """Both solvers on the UX/NE substitutes as the site ratio shrinks.

    The paper: shrinking |P|/|O| from 1/50 to 1/500 costs MaxOverlap
    ~100x but MaxFirst only ~3x.
    """
    profile = profile or get_profile()
    seed = profile.seeds[0] if seed is None else seed
    if dataset == "ux":
        points = make_ux(profile.ux_points)
    elif dataset == "ne":
        points = make_ne(profile.ne_points)
    else:
        raise ValueError(f"unknown dataset {dataset!r}; expected ux or ne")
    out = ExperimentResult(
        f"fig14_real_world_{dataset}",
        meta={"profile": profile.name, "dataset": dataset,
              "n_points": int(points.shape[0]), "k": profile.k,
              "substitution": "synthetic stand-in (DESIGN.md §4)"})
    for denom in profile.ratio_denominators:
        n_sites = max(profile.k, points.shape[0] // denom)
        customers, sites = split_sites(points, n_sites, seed=seed)
        problem = MaxBRkNNProblem(customers, sites, k=profile.k)
        timings = run_solvers(problem,
                              pair_budget=profile.maxoverlap_pair_budget)
        out.add_row(
            ratio=f"1/{denom}",
            n_sites=n_sites,
            maxfirst_s=timings["maxfirst"].seconds,
            maxoverlap_s=timings["maxoverlap"].seconds,
            maxfirst_score=timings["maxfirst"].score,
            maxoverlap_score=timings["maxoverlap"].score,
            maxoverlap_skip=timings["maxoverlap"].skipped_reason,
        )
        out.attach_timings(timings, ratio=f"1/{denom}")
    return out
