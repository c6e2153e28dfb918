#!/usr/bin/env python3
"""Homogeneity audits and the two-stage decomposition pipeline.

The conditional partitioner either certifies a block partition in which
almost all blocks are nearly constant, or exhibits many copies of a
given submatrix pattern. Everything it emits is re-auditable from raw
entries with exact rational thresholds.

Run:  python demos/regularity_demo.py
"""

import random
from fractions import Fraction

from tourkit.digraphs import random_tournament, transitive_tournament
from tourkit.regularity import (
    AfnCopies,
    AfnPartition,
    BinaryMatrix,
    afn_partition,
    audit_bipartition,
    count_matrix_copies,
    default_bipartite_pattern,
    strong_decomposition,
)

rng = random.Random(11)

print("== block audits ==")
a = BinaryMatrix.from_tournament(transitive_tournament(12))
audit = audit_bipartition(
    a, [list(range(1, 7)), list(range(7, 13))],
    [list(range(1, 7)), list(range(7, 13))], Fraction(1, 4)
)
print(f"transitive tournament, 2x2 interval blocks: bad weight "
      f"{audit.bad_weight}, homogeneous: {audit.homogeneous}")

print("\n== the dichotomy ==")
b = [[1, 1], [1, 1]]
out = afn_partition(a, b, Fraction(1, 4))
print("transitive matrix ->", type(out).__name__,
      f"({len(out.audit.row_parts)} x {len(out.audit.col_parts)} classes)"
      if isinstance(out, AfnPartition) else "")
rand = BinaryMatrix.random(30, rng)
out = afn_partition(rand, b, Fraction(1, 20), size_budget=5)
if isinstance(out, AfnCopies):
    print(f"random matrix under a tight budget -> copy branch: "
          f"{out.count} copies of the all-ones 2x2 "
          f"(exact recount: {count_matrix_copies(rand, b)})")

print("\n== the pipeline ==")
t = random_tournament(60, rng)
result = strong_decomposition(
    t, default_bipartite_pattern(2), Fraction(1, 4), seed=3
)
print(f"random 60-vertex tournament: {type(result).__name__}")
if not isinstance(result, AfnCopies):
    print(f"  {result.q} parts, {result.item1_failures} pair failures "
          f"(allowed {result.item1_bound}), attempts {result.attempts}")
    print(f"  representative sizes: {set(result.representative_sizes)}")
