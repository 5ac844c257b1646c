"""Probability models for the generalized MaxBRkNN problem.

A probability model ``{prob_1, ..., prob_k}`` captures how likely a
customer is to patronise its ``i``-th nearest service site (Section III of
the paper).  The model must be a probability distribution and must be
non-increasing in ``i``: Definition 2 turns it into per-NLC scores
``score(c_i) = w(o) * (prob_i - prob_{i+1})`` and Theorem 1's upper bound
is only an upper bound when those scores are non-negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union, cast

_SUM_TOL = 1e-9

#: Everything :func:`resolve_models` accepts as the user-facing
#: ``probability`` argument.
ProbabilityLike = Union[
    None, "ProbabilityModel", Sequence[float], Sequence["ProbabilityModel"]]


@dataclass(frozen=True)
class ProbabilityModel:
    """An immutable, validated probability model.

    Use the named constructors for the models from the paper:

    * :meth:`uniform` — equal probabilities (the MaxOverlap-compatible
      setting used in Sections VI-A/B/C);
    * :meth:`linear` — the paper's **M1** series
      ``{k/D, (k-1)/D, ..., 1/D}``, ``D = k(k+1)/2``;
    * :meth:`harmonic` — the paper's **M2** series (and experimental
      default) ``{1/C, 1/(2C), ..., 1/(kC)}``, ``C = H_k``.

    >>> ProbabilityModel.uniform(2).probs
    (0.5, 0.5)
    >>> ProbabilityModel.of(0.8, 0.2).scores()
    (0.6000000000000001, 0.2)
    """

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.probs:
            raise ValueError("probability model must have at least one entry")
        # NaN would pass every comparison below (each one is False).
        if not all(math.isfinite(p) for p in self.probs):
            raise ValueError(f"non-finite probability in {self.probs}")
        if any(p < 0.0 for p in self.probs):
            raise ValueError(f"negative probability in {self.probs}")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(
                f"probabilities must sum to 1 (got {total!r}); "
                "use ProbabilityModel.normalized(...) to auto-normalise")
        for i in range(len(self.probs) - 1):
            if self.probs[i] < self.probs[i + 1] - _SUM_TOL:
                raise ValueError(
                    "probabilities must be non-increasing in rank "
                    f"(prob_{i + 1}={self.probs[i]} < "
                    f"prob_{i + 2}={self.probs[i + 1]}): increasing models "
                    "produce negative NLC scores, which breaks Theorem 1")

    @property
    def k(self) -> int:
        """Number of ranks the model covers."""
        return len(self.probs)

    @classmethod
    def of(cls, *probs: float) -> "ProbabilityModel":
        """Model from explicit probabilities, e.g. ``of(0.8, 0.2)``."""
        return cls(tuple(float(p) for p in probs))

    @classmethod
    def from_sequence(cls, probs: Iterable[float]) -> "ProbabilityModel":
        """Model from any iterable of probabilities."""
        return cls(tuple(float(p) for p in probs))

    @classmethod
    def normalized(cls, weights: Iterable[float]) -> "ProbabilityModel":
        """Model proportional to ``weights`` (auto-normalised)."""
        ws = [float(w) for w in weights]
        total = math.fsum(ws)
        if total <= 0:
            raise ValueError("weights must have positive sum")
        return cls(tuple(w / total for w in ws))

    @classmethod
    def uniform(cls, k: int) -> "ProbabilityModel":
        """Equal probabilities ``{1/k, ..., 1/k}`` — the classic MaxBRkNN
        semantics and the only setting MaxOverlap supports."""
        _check_k(k)
        return cls(tuple(1.0 / k for _ in range(k)))

    @classmethod
    def linear(cls, k: int) -> "ProbabilityModel":
        """The paper's M1 series: probabilities decay linearly with rank."""
        _check_k(k)
        d = k * (k + 1) / 2.0
        return cls(tuple((k - i) / d for i in range(k)))

    @classmethod
    def harmonic(cls, k: int) -> "ProbabilityModel":
        """The paper's M2 series (experimental default): probability of the
        ``i``-th nearest site inversely proportional to ``i``."""
        _check_k(k)
        c = math.fsum(1.0 / i for i in range(1, k + 1))
        return cls(tuple(1.0 / (i * c) for i in range(1, k + 1)))

    def scores(self, weight: float = 1.0) -> tuple[float, ...]:
        """Definition 2 scores of the ``k`` NLCs of an object with
        ``weight``: ``score(c_i) = w * (prob_i - prob_{i+1})`` and
        ``score(c_k) = w * prob_k``.

        The telescoping property ``sum(scores[i:]) == w * prob_i`` is what
        lets a location accumulate its exact influence from the disks
        containing it.
        """
        if weight < 0:
            raise ValueError("weight must be non-negative")
        out = []
        for i in range(self.k - 1):
            out.append(weight * (self.probs[i] - self.probs[i + 1]))
        out.append(weight * self.probs[-1])
        return tuple(out)

    def is_uniform(self, tol: float = 1e-12) -> bool:
        """True when all ranks are equally likely (MaxOverlap-compatible)."""
        return all(abs(p - self.probs[0]) <= tol for p in self.probs)

    def truncated(self, k: int) -> "ProbabilityModel":
        """The model restricted to the first ``k`` ranks, renormalised."""
        if not 1 <= k <= self.k:
            raise ValueError(f"cannot truncate model of size {self.k} to {k}")
        return ProbabilityModel.normalized(self.probs[:k])


def resolve_models(probability: ProbabilityLike, k: int,
                   n_objects: int) -> list[ProbabilityModel]:
    """Normalise the user-facing ``probability`` argument.

    Accepts ``None`` (uniform — classic MaxBRkNN), a single
    :class:`ProbabilityModel`, a plain probability sequence, or one model
    per customer object (the heterogeneous extension the paper sketches:
    "Different objects can have different probability models").
    Returns a list of ``n_objects`` models, every one of size ``k``.
    """
    if probability is None:
        model = ProbabilityModel.uniform(k)
        return [model] * n_objects
    if isinstance(probability, ProbabilityModel):
        _check_model_size(probability, k)
        return [probability] * n_objects
    entries = list(probability)
    if entries and isinstance(entries[0], ProbabilityModel):
        models = cast("list[ProbabilityModel]", entries)
        if len(models) != n_objects:
            raise ValueError(
                f"per-object models: expected {n_objects} entries, "
                f"got {len(models)}")
        for per_object in models:
            _check_model_size(per_object, k)
        return models
    model = ProbabilityModel.from_sequence(cast("Sequence[float]", entries))
    _check_model_size(model, k)
    return [model] * n_objects


def _check_model_size(model: ProbabilityModel, k: int) -> None:
    if model.k != k:
        raise ValueError(
            f"probability model has {model.k} entries but k={k}")


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
