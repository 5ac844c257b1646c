"""Tests for repro.core.probability."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.probability import ProbabilityModel, resolve_models


class TestValidation:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ProbabilityModel(())

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            ProbabilityModel.of(1.2, -0.2)

    def test_sum_must_be_one(self):
        with pytest.raises(ValueError):
            ProbabilityModel.of(0.5, 0.4)

    def test_increasing_raises(self):
        # Increasing rank probabilities produce negative NLC scores,
        # which invalidates Theorem 1's upper bound.
        with pytest.raises(ValueError):
            ProbabilityModel.of(0.2, 0.8)

    @pytest.mark.parametrize("probs", [(math.nan,), (0.5, math.nan),
                                       (math.inf,), (1.0, -math.inf)])
    def test_non_finite_raises(self, probs):
        # NaN fails every comparison, so the sum and ordering checks
        # alone would let (nan,) through.
        with pytest.raises(ValueError, match="non-finite"):
            ProbabilityModel(probs)

    def test_valid_single(self):
        model = ProbabilityModel.of(1.0)
        assert model.k == 1
        assert model.scores() == (1.0,)


class TestNamedConstructors:
    def test_uniform(self):
        model = ProbabilityModel.uniform(4)
        assert model.probs == (0.25,) * 4
        assert model.is_uniform()

    def test_uniform_invalid_k(self):
        with pytest.raises(ValueError):
            ProbabilityModel.uniform(0)

    def test_linear_matches_paper_m1(self):
        # M1 of size k: {k/D, (k-1)/D, ..., 1/D}, D = k(k+1)/2.
        model = ProbabilityModel.linear(3)
        assert model.probs == pytest.approx((3 / 6, 2 / 6, 1 / 6))

    def test_harmonic_matches_paper_m2(self):
        # M2 of size k: {1/C, 1/2C, ..., 1/kC}, C = H_k.
        model = ProbabilityModel.harmonic(3)
        c = 1 + 0.5 + 1 / 3
        assert model.probs == pytest.approx((1 / c, 0.5 / c, (1 / 3) / c))

    def test_harmonic_k1_is_uniform(self):
        assert ProbabilityModel.harmonic(1).probs == (1.0,)

    def test_normalized(self):
        model = ProbabilityModel.normalized([3.0, 2.0, 1.0])
        assert model.probs == pytest.approx((0.5, 1 / 3, 1 / 6))

    def test_normalized_zero_sum_raises(self):
        with pytest.raises(ValueError):
            ProbabilityModel.normalized([0.0, 0.0])

    def test_from_sequence(self):
        assert ProbabilityModel.from_sequence([0.8, 0.2]).k == 2


class TestScores:
    def test_definition2_example_from_paper(self):
        # Paper: k=2, model {0.8, 0.2}, weight 1 -> scores 0.6 and 0.2.
        scores = ProbabilityModel.of(0.8, 0.2).scores()
        assert scores == pytest.approx((0.6, 0.2))

    def test_weighting(self):
        scores = ProbabilityModel.of(0.8, 0.2).scores(weight=5.0)
        assert scores == pytest.approx((3.0, 1.0))

    def test_negative_weight_raises(self):
        with pytest.raises(ValueError):
            ProbabilityModel.of(1.0).scores(weight=-1.0)

    def test_uniform_model_only_last_circle_scores(self):
        scores = ProbabilityModel.uniform(4).scores()
        assert scores[:3] == pytest.approx((0.0, 0.0, 0.0))
        assert scores[3] == pytest.approx(0.25)

    @given(st.integers(min_value=1, max_value=12))
    def test_telescoping_property(self, k):
        """sum(scores[i:]) == prob_i — the property Definition 2 needs."""
        for model in (ProbabilityModel.uniform(k),
                      ProbabilityModel.linear(k),
                      ProbabilityModel.harmonic(k)):
            scores = model.scores()
            for i in range(k):
                assert math.fsum(scores[i:]) == pytest.approx(
                    model.probs[i])

    @given(st.integers(min_value=1, max_value=12))
    def test_scores_nonnegative_and_sum_to_prob1(self, k):
        for model in (ProbabilityModel.linear(k),
                      ProbabilityModel.harmonic(k)):
            scores = model.scores()
            assert all(s >= -1e-15 for s in scores)
            assert math.fsum(scores) == pytest.approx(model.probs[0])


class TestTruncated:
    def test_truncate(self):
        model = ProbabilityModel.harmonic(5).truncated(2)
        assert model.k == 2
        assert math.fsum(model.probs) == pytest.approx(1.0)

    def test_truncate_invalid(self):
        with pytest.raises(ValueError):
            ProbabilityModel.uniform(2).truncated(3)


class TestResolveModels:
    def test_none_gives_uniform(self):
        models = resolve_models(None, 3, 5)
        assert len(models) == 5
        assert all(m.is_uniform() and m.k == 3 for m in models)

    def test_single_model_broadcast(self):
        m = ProbabilityModel.of(0.8, 0.2)
        models = resolve_models(m, 2, 4)
        assert models == [m] * 4

    def test_sequence_parsed(self):
        models = resolve_models([0.8, 0.2], 2, 3)
        assert models[0].probs == (0.8, 0.2)

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            resolve_models([0.8, 0.2], 3, 2)

    def test_per_object_models(self):
        per = [ProbabilityModel.of(0.8, 0.2), ProbabilityModel.uniform(2)]
        models = resolve_models(per, 2, 2)
        assert models == per

    def test_per_object_wrong_count(self):
        per = [ProbabilityModel.uniform(2)]
        with pytest.raises(ValueError):
            resolve_models(per, 2, 3)
