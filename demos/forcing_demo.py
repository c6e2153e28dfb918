#!/usr/bin/env python3
"""Bipartite tournaments that force a pattern into every completion.

A k-partite tournament fixes the edges between its parts and leaves the
parts empty; completing it means filling the parts with arbitrary
tournaments. The directed 4-cycle across two parts of size two already
forces the directed triangle: any completion keeps the cycle, and a
tournament without directed triangles would have to be transitive.

Run:  python demos/forcing_demo.py
"""

from tourkit import (
    build_forcing,
    certify_completion,
    disjoint_tuples,
    forces_exhaustive,
    forcing_parameters,
    search_min_forcing,
)
from tourkit.digraphs import OrientedGraph, c3_pattern

h = c3_pattern()

print("== tuple collections ==")
coll = disjoint_tuples(8, 4)
print(f"[8]^4 greedy collection: {len(coll.tuples)} tuples "
      f"(bound 8^2/4^2 = 4), pairwise agreement <= 1: {coll.verify()}")

print("\n== minimal forcing construction for the directed triangle ==")
found = search_min_forcing(h, 3)
print(f"parts of size {found.m}; cross edges: {sorted(found.edges)}")
print("forces exhaustively:", forces_exhaustive(found, h))

print("\n== per-completion certificates ==")
classes = [[1, 2], [3]]
for idx, completion in enumerate(found.completions(), start=1):
    cert = certify_completion(found, completion, h, classes)
    print(f"completion {idx}: {cert.count} certified copies "
          f"(target gamma*m^2 = {cert.target})")

print("\n== the seeded construction ==")
params = forcing_parameters(3)
print(f"copy-density target gamma(3) = {params.gamma}")
f1 = build_forcing(h, classes, OrientedGraph(2, []), 6, seed=2024)
f2 = build_forcing(h, classes, OrientedGraph(2, []), 6, seed=2024)
print("same seed reproduces the construction bit for bit:",
      f1 == f2)
