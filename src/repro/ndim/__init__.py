"""n-dimensional CPM (footnote 3 of the paper).

"We focus on two-dimensional Euclidean spaces, but the proposed techniques
can be applied to higher dimensionality and other distance metrics."

This subpackage instantiates the *higher dimensionality* half of that
claim.  The conceptual partitioning generalizes from the 2D pinwheel to
``2d`` directions per level — for each axis ``a`` a positive and a
negative *slab*.  The level-``l`` slab of axis ``a`` is the box of cells
whose offset along ``a`` is exactly ``±(l+1)``, spanning offsets ``±l``
on axes before ``a`` and ``±(l+1)`` on axes after it.  Assigning every
shell cell to its *first* axis with maximal offset makes the slabs tile
each shell exactly once, and — because every slab spans the query's
projection on all other axes — its minimum distance is the pure
perpendicular gap, so Lemma 3.1's ``+δ`` recurrence holds verbatim:
``mindist(DIR_{l+1}, q) = mindist(DIR_l, q) + δ``.

Modules:

* :mod:`repro.ndim.grid` — the d-dimensional regular grid;
* :mod:`repro.ndim.partition` — the slab partition;
* :mod:`repro.ndim.cpm` — a correctness-focused d-dimensional CPM monitor
  (search, re-computation, batched update handling with the
  incomers / out_count merge).

The 2D package remains the optimized implementation used by the paper's
experiments; this one trades constant factors for dimensional generality
and is validated against brute force in 3 and 4 dimensions.
"""

from repro.ndim.cpm import NdCPMMonitor
from repro.ndim.grid import NdGrid
from repro.ndim.partition import NdConceptualPartition

__all__ = ["NdCPMMonitor", "NdConceptualPartition", "NdGrid"]
