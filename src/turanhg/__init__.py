"""Exact tools for 2k-uniform hypergraphs avoiding expanded cliques.

The package re-exports nothing: every name is imported from its module
(``from turanhg import construct``), one of these:

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
