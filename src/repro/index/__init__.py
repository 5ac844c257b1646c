"""Spatial index substrates, implemented from scratch.

The paper's MaxFirst uses an R-tree over the NLCs to answer the range
queries that compute ``Q.I`` (and an R-tree / nearest-neighbour index over
the service sites to build the NLCs in the first place; that site index is
:class:`repro.core.nlc.SiteTree`, searched by the compiled kNN kernel).
This package provides:

* :class:`~repro.index.rtree.RTree` — STR bulk-loaded R-tree answering
  rectangle range queries: the NLC index of ``backend="rtree"``.
* :class:`~repro.index.circleset.CircleSet` — a structure-of-arrays store
  of NLC disks with vectorised rectangle predicates; the performance
  substrate that makes pure-Python MaxFirst practical.
"""

from repro.index.circleset import CircleSet
from repro.index.rtree import RTree

__all__ = ["CircleSet", "RTree"]
