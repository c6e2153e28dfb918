#!/usr/bin/env python3
"""Backedge graphs, ordered cores, and the maximal core of a pattern.

Every vertex labeling of an oriented graph induces an undirected graph of
its backward-pointing edges. Taking the ordered core of each (the
smallest induced subgraph receiving a monotone edge-preserving map) and
ordering the family by monotone homomorphisms singles out a maximal
element; for a hard pattern that element carries an odd cycle, which is
what the lower-bound construction threads its copies through.

Run:  python demos/orderedhom_demo.py   (the h=7 sweep takes under a second)
"""

from tourkit import (
    backedge_graph,
    core_family,
    find_oph,
    odd_cycle_certificate,
    ordered_core,
    select_k,
    smallest_non_two_colorable_tournament,
)
from tourkit.digraphs import c3_pattern, transitive_tournament
from tourkit.orderedhom import LabeledGraph

print("== backedge graphs ==")
print("triangle 1->2->3->1 labeled naturally:",
      sorted(backedge_graph(c3_pattern(), (1, 2, 3)).edges))
print("transitive tournament along its order:",
      sorted(backedge_graph(transitive_tournament(4), (1, 2, 3, 4)).edges))

print("\n== ordered cores ==")
g = LabeledGraph([1, 2, 3], [(1, 3), (2, 3)])
print(f"core of the path {sorted(g.edges)}: {ordered_core(g)}")
h = LabeledGraph([1, 2, 3], [(1, 2), (2, 3)])
print(f"core of the path {sorted(h.edges)}: itself "
      f"({ordered_core(h) == h})")
print("witness map into the single edge:",
      find_oph(g, LabeledGraph([2, 3], [(2, 3)])).as_dict())

print("\n== the family and its maximal element ==")
family = core_family(c3_pattern())
print(f"directed triangle: {len(family)} core classes up to "
      "order-isomorphism")
print("maximal element:", select_k(family))

hard = smallest_non_two_colorable_tournament()
family = core_family(hard)
kernel = select_k(family)
print(f"\nsmallest hard tournament: {len(family)} classes")
print("maximal core:", kernel)
cycle = odd_cycle_certificate(kernel)
print(f"odd cycle inside it: {cycle} (length {len(cycle)})")
