"""Exact tools for 2k-uniform hypergraphs avoiding expanded cliques.

The package is organized around a handful of small modules:

- :mod:`turanhg.core` - hypergraph containers, bitmask helpers, file I/O
- :mod:`turanhg.krawtchouk` - binary Krawtchouk polynomials and the
  edge-maximizing bipartition shift
- :mod:`turanhg.construct` - bipartition shifts, the parity bipartition
  construction and the GF(2)^p labelled construction, with closed-form
  counts
- :mod:`turanhg.freeness` - expanded-clique search via an auxiliary graph
- :mod:`turanhg.algebra` - edge colorings of complete graphs and the group
  structure forced by the 4-set color condition
- :mod:`turanhg.shadow` - shadows and the real-exponent binomial bound
- :mod:`turanhg.stability` - tuple censuses, local search and the
  minimum-degree partition procedure for graphs
- :mod:`turanhg.search` - exact extremal values by branch and bound
"""

from .algebra import (
    ColorGroup,
    ColoringReport,
    EdgeColoring,
    GroupError,
    build_group,
    edge_coloring,
    enumerate_one_factorizations,
    generate_gf2_coloring,
    read_coloring,
    verify_coloring,
    write_coloring,
)
from .construct import (
    Bipartition,
    GF2Labeling,
    Shift,
    build_parity,
    build_sidorenko,
    label_xor,
    parity_degree,
    parity_edge_count,
    sidorenko_edge_count,
)
from .core import (
    FormatError,
    Hypergraph,
    SetFamily,
    binom_exact,
    binom_real,
    enumerate_ksubsets,
    hypergraph,
    indices_of,
    mask_of,
    read_hypergraph,
    set_family,
    vertex_degrees,
    write_hypergraph,
)
from .freeness import AuxGraph, auxiliary_graph, find_clique, find_expansion, is_maximal_free
from .krawtchouk import OptimalShiftReport, genfunc_row, kraw_eval, optimal_shift
from .search import (
    ConflictSystem,
    SearchResult,
    conflict_triples,
    exact_turan,
    lower_bound_construction,
)
from .shadow import ShadowReport, check_lovasz_bound, lovasz_x, read_family, shadow_of, write_family
from .stability import (
    SimonovitsReport,
    SimpleGraph,
    TupleCensus,
    bad_edge_count,
    classify_tuples,
    improve_partition,
    read_bipartition,
    read_graph,
    simonovits_partition,
    simple_graph,
    turan_graph,
    turan_graph_count,
    write_bipartition,
    write_graph,
)

__version__ = "0.1.0"

__all__ = [
    "AuxGraph",
    "Bipartition",
    "ColorGroup",
    "ColoringReport",
    "ConflictSystem",
    "EdgeColoring",
    "FormatError",
    "GF2Labeling",
    "GroupError",
    "Hypergraph",
    "OptimalShiftReport",
    "SearchResult",
    "SetFamily",
    "ShadowReport",
    "Shift",
    "SimonovitsReport",
    "SimpleGraph",
    "TupleCensus",
    "auxiliary_graph",
    "bad_edge_count",
    "binom_exact",
    "binom_real",
    "build_group",
    "build_parity",
    "build_sidorenko",
    "check_lovasz_bound",
    "classify_tuples",
    "conflict_triples",
    "edge_coloring",
    "enumerate_ksubsets",
    "enumerate_one_factorizations",
    "exact_turan",
    "find_clique",
    "find_expansion",
    "generate_gf2_coloring",
    "genfunc_row",
    "hypergraph",
    "improve_partition",
    "indices_of",
    "is_maximal_free",
    "kraw_eval",
    "label_xor",
    "lovasz_x",
    "lower_bound_construction",
    "mask_of",
    "optimal_shift",
    "parity_degree",
    "parity_edge_count",
    "read_bipartition",
    "read_coloring",
    "read_family",
    "read_graph",
    "read_hypergraph",
    "set_family",
    "shadow_of",
    "sidorenko_edge_count",
    "simonovits_partition",
    "simple_graph",
    "turan_graph",
    "turan_graph_count",
    "vertex_degrees",
    "write_bipartition",
    "write_coloring",
    "write_family",
    "write_graph",
    "write_hypergraph",
]
