"""Smoke tests for the figure experiment definitions (micro profile).

Each experiment runs end to end on a sub-tiny profile and must produce
the rows its figure plots, with agreeing solver scores where both run.
"""

import pytest

from repro.bench import figures
from repro.bench.config import ScaleProfile


@pytest.fixture(scope="module")
def micro() -> ScaleProfile:
    return ScaleProfile(
        name="micro",
        n_customers=150, n_sites=12, k=1,
        customers_sweep=(80, 160),
        sites_sweep=(8, 16),
        k_sweep=(1, 2),
        m_sweep=(2, 4),
        prob_k_sweep=(1, 2),
        ux_points=400, ne_points=400,
        ratio_denominators=(10, 20),
        maxoverlap_pair_budget=10**9,
    )


def assert_agreement(rows):
    for row in rows:
        if row.get("maxoverlap_score") is not None:
            assert row["maxoverlap_score"] == pytest.approx(
                row["maxfirst_score"], rel=1e-6)


class TestFigureExperiments:
    def test_fig08(self, micro):
        result = figures.fig08_effect_of_m(micro)
        assert [row["m"] for row in result.rows] == list(micro.m_sweep)
        scores = {row["score"] for row in result.rows}
        assert len(scores) == 1  # m never changes the answer

    @pytest.mark.parametrize("distribution", ["uniform", "normal"])
    def test_fig10(self, micro, distribution):
        result = figures.fig10_effect_of_customers(distribution, micro)
        assert [row["n_customers"] for row in result.rows] == list(
            micro.customers_sweep)
        assert_agreement(result.rows)

    @pytest.mark.parametrize("distribution", ["uniform", "normal"])
    def test_fig11(self, micro, distribution):
        result = figures.fig11_effect_of_sites(distribution, micro)
        assert [row["n_sites"] for row in result.rows] == list(
            micro.sites_sweep)
        assert_agreement(result.rows)

    def test_fig12a(self, micro):
        result = figures.fig12a_effect_of_k(micro)
        assert [row["k"] for row in result.rows] == list(micro.k_sweep)
        assert_agreement(result.rows)

    def test_fig12b(self, micro):
        result = figures.fig12b_probability_models(micro)
        for row in result.rows:
            assert row["m1_s"] > 0
            assert row["m2_s"] > 0
        # k=1: M1 and M2 both reduce to {1.0} — identical optima.
        first = result.rows[0]
        assert first["m1_score"] == pytest.approx(first["m2_score"])

    @pytest.mark.parametrize("distribution", ["uniform", "normal"])
    def test_fig13(self, micro, distribution):
        result = figures.fig13_pruning(distribution, micro)
        row = result.rows[0]
        assert row["total"] >= row["splits"]
        assert row["pruned1"] > 0
        assert row["splits_per_customer"] > 0

    @pytest.mark.parametrize("dataset", ["ux", "ne"])
    def test_fig14(self, micro, dataset):
        result = figures.fig14_real_world(dataset, micro)
        assert len(result.rows) == len(micro.ratio_denominators)
        assert_agreement(result.rows)
        assert result.meta["substitution"]

    def test_fig14_unknown_dataset(self, micro):
        with pytest.raises(ValueError):
            figures.fig14_real_world("tiger", micro)
