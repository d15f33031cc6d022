"""n-dimensional CPM: the footnote-3 demo behind ``drone_airspace.py``.

"We focus on two-dimensional Euclidean spaces, but the proposed techniques
can be applied to higher dimensionality and other distance metrics."

This package instantiates the *higher dimensionality* half of that
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

* :mod:`ndim.grid` — the d-dimensional regular grid;
* :mod:`ndim.partition` — the slab partition;
* :mod:`ndim.cpm` — a correctness-focused d-dimensional CPM monitor
  (search, re-computation, batched update handling with the
  incomers / out_count merge).

It is an example, not part of the ``repro`` library: it imports nothing
from ``repro`` and runs scalar Python only (no numpy path).  The
library's 2-D engine (``repro.core.cpm``) is the optimized implementation
used by the paper's experiments; this one trades constant factors for
dimensional generality and is validated against brute force in 3 and 4
dimensions.  Scripts in ``examples/`` import it as ``from ndim import
NdCPMMonitor`` (a script's own directory is on ``sys.path``).
"""

from ndim.cpm import NdCPMMonitor
from ndim.grid import NdGrid
from ndim.partition import NdConceptualPartition

__all__ = ["NdCPMMonitor", "NdConceptualPartition", "NdGrid"]
