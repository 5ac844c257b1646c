"""Published instances: the registry behind the query service.

Publishing an instance is the expensive, once-per-dataset step; every
request after it runs against what publish produced:

* the NLC SoA, copied **once** into a :mod:`repro.store` backend —
  requests read the read-only views attached over it, so no request
  ever copies NLC bytes;
* the site index (:func:`repro.core.nlc.build_knn_tree`), built once
  and fed to the NLC build, then dropped: nothing after publish reads
  it, and small long-lived arrays kept beside the build's transient
  ones measurably raise the daemon's peak RSS;
* the customer→site rank matrix (:func:`repro.core.queries.knn_sites`),
  the shared precomputation of every query operator;
* the Theorem-2/3 registry: after the first *exact* solve completes,
  the certified optimum seeds ``MaxMin`` of every later solve on the
  instance, and its found regions (:data:`~repro.core.region
  .FoundRegion`) seed its Theorem 3 registry — the cross-request
  analogue of cross-tile seeding in the sharded engine, sound for the
  same reason (the seeding solve's regions are merged back into every
  seeded solve's answer).

The registry is keyed by the store handle's key string, so an instance
id doubles as the attachment key retiring a sibling instance keeps.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Iterator

import numpy as np

from repro.core.nlc import build_knn_tree, build_nlcs, nlc_space
from repro.core.problem import MaxBRkNNProblem
from repro.core.queries import knn_sites
from repro.core.region import FoundRegion
from repro.geometry.rect import Rect
from repro.index.circleset import CircleSet

__all__ = ["InstanceRegistry", "ServedInstance"]


class ServedInstance:
    """One published instance and everything requests share.

    Construction is the publish step; it is done by
    :meth:`InstanceRegistry.publish`, never directly.
    """

    def __init__(self, instance_id: str, problem: MaxBRkNNProblem,
                 owner: Any, nlcs: CircleSet, space: Rect,
                 store: str) -> None:
        self.instance_id = instance_id
        self.problem = problem
        self.owner = owner          # NLCStore; None for a 0-NLC instance
        self.nlcs = nlcs            # attached read-only views
        self.space = space
        self.store = store
        self.ranks: np.ndarray = knn_sites(problem)
        # Theorem-2/3 registry, populated by the first completed exact
        # solve (service layer).  Guarded by a lock: the HTTP front end
        # serves batches from worker threads.
        self._lock = threading.Lock()
        self.certified_bound: float | None = None
        self.seed_entries: tuple[FoundRegion, ...] = ()
        # Cache epoch: the result cache stamps every stored entry with
        # the epoch current at solve time, so bumping it (future
        # dynamics — site churn, customer updates) atomically hides
        # every cached answer for this instance without touching the
        # cache itself.
        self._epoch = 0

    @property
    def epoch(self) -> int:
        """Current cache epoch (monotonic; see :meth:`bump_epoch`)."""
        with self._lock:
            return self._epoch

    def bump_epoch(self) -> int:
        """Invalidate every cached result of this instance by moving to
        a fresh epoch; returns the new epoch.  The hook dynamic updates
        (ROADMAP item 3) will call after mutating the instance."""
        with self._lock:
            self._epoch += 1
            return self._epoch

    def certificate(self) -> tuple[float, tuple[FoundRegion, ...]]:
        """The current Theorem-2/3 registry: ``(bound, seed_entries)``.

        ``bound`` is 0.0 until an exact solve completes — seeding a zero
        bound is a no-op, so callers can always pass the pair through.
        """
        with self._lock:
            return (self.certified_bound or 0.0, self.seed_entries)

    def record_certificate(self, bound: float,
                           entries: tuple[FoundRegion, ...]) -> None:
        """Install an exact solve's certificate (first writer wins — the
        instance is immutable, so every exact solve proves the same
        optimum and the first one to finish is as good as any)."""
        with self._lock:
            if self.certified_bound is None:
                self.certified_bound = float(bound)
                self.seed_entries = tuple(entries)

    def close(self, *, keep: tuple[str, ...] = ()) -> None:
        """Release the store (idempotent): drop this process's attached
        views (``keep`` preserves sibling instances' attachments), then
        close the owner.  The instance is unusable afterwards."""
        from repro import store as nlc_store

        owner, self.owner = self.owner, None
        if owner is not None:
            # Drop the view references first so the mapping has no
            # exported buffers left when the backend closes it.
            self.nlcs = None  # type: ignore[assignment]
            nlc_store.detach(keep=keep)
            owner.close()


class InstanceRegistry:
    """Published instances by id; the service's source of truth.

    ``store`` picks the NLC backend for every publish
    (:func:`repro.store.resolve_store_name` semantics: explicit >
    ``REPRO_STORE`` env > ``ram``).
    """

    def __init__(self, store: str | None = None) -> None:
        self._store = store
        self._instances: dict[str, ServedInstance] = {}
        self._lock = threading.Lock()
        self._fallback_ids = itertools.count(1)

    def publish(self, problem: MaxBRkNNProblem, *,
                store: str | None = None) -> ServedInstance:
        """Publish ``problem``: build its NLC set once, copy it into the
        storage backend, and precompute the shared query state."""
        from repro import store as nlc_store

        backend = nlc_store.resolve_store_name(store or self._store)
        tree = build_knn_tree(problem.sites)
        nlcs = build_nlcs(problem, tree=tree)
        if len(nlcs) == 0:
            # Degenerate (all-zero-weight) instance: nothing to store,
            # but the query operators still answer — register it with a
            # synthetic id and no owner.
            instance = ServedInstance(
                instance_id=f"inst-{next(self._fallback_ids)}",
                problem=problem, owner=None, nlcs=nlcs,
                space=problem.data_bounds(), store=backend)
        else:
            owner = nlc_store.publish(nlcs, backend)
            attached = nlc_store.attach(owner.handle)
            instance = ServedInstance(
                instance_id=str(owner.handle[1]), problem=problem,
                owner=owner, nlcs=attached, space=nlc_space(attached),
                store=backend)
        with self._lock:
            self._instances[instance.instance_id] = instance
        return instance

    def get(self, instance_id: str) -> ServedInstance:
        with self._lock:
            instance = self._instances.get(instance_id)
        if instance is None:
            raise ValueError(f"unknown instance {instance_id!r} "
                             "(publish it first)")
        return instance

    def ids(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._instances))

    def __iter__(self) -> Iterator[ServedInstance]:
        with self._lock:
            instances = list(self._instances.values())
        return iter(instances)

    def __len__(self) -> int:
        with self._lock:
            return len(self._instances)

    def retire(self, instance_id: str) -> None:
        """Drop one instance and release its store (keeping the
        attachments of every instance still registered)."""
        with self._lock:
            instance = self._instances.pop(instance_id, None)
            keep = tuple(self._instances)
        if instance is not None:
            instance.close(keep=keep)

    def close(self) -> None:
        """Release every instance (idempotent)."""
        with self._lock:
            instances = list(self._instances.values())
            self._instances.clear()
        for instance in instances:
            instance.close()
