#!/usr/bin/env python3
"""The hard-instance generator end to end.

Pipeline: maximal ordered core of the pattern -> part coloring and
forced part pairs -> progression-free difference set -> base graph whose
edges decompose into transversal cliques -> block blow-up with one
forcing construction per clique. Two audits close the loop: every
pattern copy threads a patterned cycle of the base graph, and the
certified copy family is pairwise disjoint on cut-edges, so each
reversed cut-edge costs at most one copy.

Run:  python demos/lowerbound_demo.py   (takes a few seconds; instances
      here are micro-scale on purpose)
"""

import itertools

from tourkit import (
    audit_copy_localization,
    behrend,
    blowup_tournament,
    farness_certificate,
    rs_graph,
    smallest_non_two_colorable_tournament,
)
from tourkit.forcing import build_forcing, certify_completion
from tourkit.lowerbound import derive_part_structure

print("== progression-free difference sets ==")
for n in (14, 30):
    s = behrend(n)
    print(f"n_max={n}: size {len(s)} members {s.members}")

print("\n== the base graph ==")
g = rs_graph(3, (1, 2, 3), 20)
print(f"k=3, part length 20: {len(g.cliques)} edge-disjoint transversal "
      f"triangles, {g.patterned_cycles} patterned cycles "
      f"(bound {g.r ** 2})")

print("\n== part structure of the smallest hard pattern ==")
hard = smallest_non_two_colorable_tournament()
kernel, witness, classes, d, cycle, part_cycle = derive_part_structure(hard)
print("maximal core:", kernel)
print("classes:", classes)
print("forced part pairs:", sorted(d.edges))
print("kernel cycle:", cycle, "-> parts", part_cycle)

print("\n== a seed whose construction certifies a copy ==")
cls = [list(c) for c in classes]
seed = 0
while True:
    f = build_forcing(hard, cls, d, 2, seed)
    inner = [
        (a, b)
        for part in range(1, f.k + 1)
        for a, b in itertools.combinations(f.part_vertices(part), 2)
    ]
    if certify_completion(f, f.completion(inner), hard, cls).count >= 1:
        break
    seed += 1
print("seed:", seed)

print("\n== the blow-up and its audits ==")
b = blowup_tournament(hard, 100, seed=seed, n_max=10)
print(f"tournament on {b.n} vertices, base order {b.base.r}, "
      f"{len(b.base.cliques)} cliques, block size {b.m}")
cert = farness_certificate(b, b.tournament)
print(f"certified cut-disjoint family: {cert.count} copies")
mutated = b.tournament.flip_pairs(
    [next(
        (emb.apply(u), emb.apply(v))
        for (u, v) in b.pattern.edges
        if b.is_cut_pair(emb.apply(u), emb.apply(v))
    ) for _, emb in cert.family[:3]]
)
after = farness_certificate(b, mutated)
print(f"after reversing 3 cut-edges: {after.survivors_verified} of "
      f"{after.count} copies survive (certified >= {after.certified_surviving})")

small = blowup_tournament(hard, 50, seed=seed, n_max=5)
report = audit_copy_localization(small)
print(f"\nlocalization on the 50-vertex instance: {report.total_copies} "
      f"copies, {len(report.violations)} violations, "
      f"{report.special_tuples} patterned tuples")
