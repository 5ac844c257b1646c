"""Spatial index substrates, implemented from scratch.

The paper's MaxFirst uses an R-tree over the NLCs to answer the range
queries that compute ``Q.I``; here hierarchical candidate passing over a
:class:`~repro.index.circleset.CircleSet` answers them without an index
(:class:`repro.core.bounds.VectorBackend`).  The site index that builds
the NLCs in the first place is :class:`repro.core.nlc.SiteTree`,
searched by the compiled kNN kernel.  This package provides:

* :class:`~repro.index.circleset.CircleSet` — a structure-of-arrays store
  of NLC disks with vectorised rectangle predicates; the performance
  substrate that makes pure-Python MaxFirst practical.
"""

from repro.index.circleset import CircleSet

__all__ = ["CircleSet"]
