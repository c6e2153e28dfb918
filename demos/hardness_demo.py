#!/usr/bin/env python3
"""Why deciding tournament 2-colorability is hard: the reduction in action.

The 7-vertex gadget pins its two endpoints to the same color in every
proper 2-coloring. Wiring three gadgets between a transitive spine and
one cyclic triple per triangle of an input graph makes the tournament
2-colorable exactly when the graph has a triangle-free cut. The lift
(two copies plus an apex) pushes hardness from 2 colors to any k.

Run:  python demos/hardness_demo.py
"""

import itertools

from tourkit import (
    chromatic_number,
    check_reduction,
    has_triangle_free_cut,
    lift,
    nae_two_coloring,
    reduce_graph,
    verify_gadget,
)
from tourkit.digraphs import cyclic_triangle
from tourkit.orderedhom import LabeledGraph

print("== the gadget ==")
report = verify_gadget()
print(f"proper 2-colorings among 128 assignments: {report.proper_colorings}")
# verify_gadget raises AuditError on a proper coloring that separates them
print("endpoints share a color in every one: True")
from tourkit.hardness import GADGET_NAMES

w = report.witness
print("witness coloring:",
      {name: w.color(i + 1) for i, name in enumerate(GADGET_NAMES)})

print("\n== the reduction ==")
k4 = LabeledGraph(range(1, 5), itertools.combinations(range(1, 5), 2))
out = reduce_graph(k4)
print(f"K4 -> tournament on {out.tournament.n} vertices "
      f"({out.n} spine + {3 * out.m} triple + {15 * out.m} block)")
chk = check_reduction(k4)
# check_reduction raises AuditError when the lifted cut is not triangle-free
print(f"K4 has a triangle-free cut: {chk.cut is not None}; "
      f"tournament 2-colorable: {chk.tournament_coloring is not None}; "
      f"lifted cut valid: {chk.tournament_coloring is not None}")

k5 = LabeledGraph(range(1, 6), itertools.combinations(range(1, 6), 2))
print(f"K5 has a triangle-free cut: {has_triangle_free_cut(k5) is not None}")
print("its reduction is 2-colorable:",
      nae_two_coloring(reduce_graph(k5).tournament) is not None)

print("\n== the lift ==")
t = cyclic_triangle()
lifted = lift(t, 3)
print(f"lift of the directed triangle: {lifted.n} vertices, "
      f"chromatic number {chromatic_number(lifted)} "
      f"(the input needs {chromatic_number(t)})")
