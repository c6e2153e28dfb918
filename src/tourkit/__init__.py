"""Exact desk-scale toolkit for extremal problems on tournaments.

Subpackages by concern:

* :mod:`tourkit.digraphs` -- oriented graphs, tournaments, densities,
  embedding counts, reversal distance, transitive extraction;
* :mod:`tourkit.coloring` -- acyclic k-coloring, the NAE-based
  tournament 2-coloring solver, the easy/hard classifier;
* :mod:`tourkit.orderedhom` -- backedge graphs, order-preserving
  homomorphisms, ordered cores and the maximal-core selection;
* :mod:`tourkit.forcing` -- the k-partite forcing construction, tuple
  collections, completion certification, exhaustive forcing checks;
* :mod:`tourkit.regularity` -- binary-matrix homogeneity audits, ordered
  submatrix counting, the conditional partitioner and the decomposition
  pipeline;
* :mod:`tourkit.lowerbound` -- progression-free sets, clique-decomposable
  base graphs, the blow-up instance and its two audits;
* :mod:`tourkit.hardness` -- the 7-vertex gadget, the triangle-free-cut
  reduction and the colorability lift;
* :mod:`tourkit.formats` -- text formats with line-numbered errors;
* :mod:`tourkit.cli` -- the batch command-line front door.

The top-level names are the demos' entry points. Regularity names come
from :mod:`tourkit.regularity`. The package needs nothing beyond the
standard library: every module, regularity's matrices included, works
on Python ints used as bit masks.
"""

from .digraphs import (
    count_embeddings,
    density,
    distance_to_h_free,
    embedding_stats,
    transitive_subtournament,
)
from .coloring import (
    chromatic_number,
    classify,
    nae_two_coloring,
    smallest_non_two_colorable_tournament,
)
from .errors import AuditError, BudgetExceeded
from .forcing import (
    build_forcing,
    certify_completion,
    disjoint_tuples,
    forces_exhaustive,
    forcing_parameters,
    search_min_forcing,
)
from .hardness import (
    check_reduction,
    has_triangle_free_cut,
    lift,
    reduce_graph,
    verify_gadget,
)
from .lowerbound import (
    audit_copy_localization,
    behrend,
    blowup_tournament,
    farness_certificate,
    rs_graph,
)
from .orderedhom import (
    backedge_graph,
    core_family,
    find_oph,
    odd_cycle_certificate,
    ordered_core,
    select_k,
)

__version__ = "0.1.0"
