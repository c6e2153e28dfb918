"""The 7-vertex gadget, the triangle-free-cut reduction, and the
colorability lift.

The reduction turns an undirected graph G into a tournament T(G) that is
2-colorable exactly when G has a vertex 2-coloring without a
monochromatic triangle. Per triangle of G it spends one cyclic triple of
fresh vertices plus three gadget copies whose endpoints are forced to
share a color in every proper 2-coloring; everything else is oriented
forward so no other cyclic triangle can go monochromatic.

The gadget's edge list is hard-coded, which makes it the riskiest
constant in this module; the constructor therefore re-validates every
property the hardness argument leans on (the two cyclic triples through
w, the eight joining triples, the endpoint neighbourhoods) before the
gadget is ever used.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from . import nae
from .coloring import Coloring, nae_two_coloring, verify_coloring
from .digraphs import Tournament, _bits, _span, cyclic_triangle
from .errors import AuditError
from .orderedhom import LabeledGraph

__all__ = [
    "GADGET_NAMES",
    "Gadget",
    "GadgetReport",
    "ReductionOutput",
    "ReductionCheck",
    "gadget",
    "verify_gadget",
    "graph_triangles",
    "reduce_graph",
    "has_triangle_free_cut",
    "check_reduction",
    "lift",
]

GADGET_NAMES = ("u", "v", "w", "a", "b", "c", "d")

# (x, y) means x -> y
_GADGET_EDGES = (
    ("u", "v"), ("u", "w"), ("w", "v"), ("u", "d"), ("u", "c"),
    ("v", "d"), ("v", "c"), ("b", "u"), ("a", "u"), ("b", "v"),
    ("a", "v"), ("c", "d"), ("a", "b"), ("d", "b"), ("d", "a"),
    ("c", "a"), ("c", "b"), ("w", "c"), ("d", "w"), ("w", "a"),
    ("b", "w"),
)


@dataclass(frozen=True)
class Gadget:
    """The fixed 7-vertex tournament with named vertices u,v,w,a,b,c,d
    mapped to 1..7 in that order."""

    tournament: Tournament

    def vertex(self, name: str) -> int:
        return GADGET_NAMES.index(name) + 1

    def name(self, vertex: int) -> str:
        return GADGET_NAMES[vertex - 1]

    def has_edge(self, x: str, y: str) -> bool:
        return self.tournament.has_edge(self.vertex(x), self.vertex(y))


def gadget() -> Gadget:
    """The gadget, re-validated against the properties the reduction uses."""
    index = {name: i + 1 for i, name in enumerate(GADGET_NAMES)}
    t = Tournament(7, ((index[x], index[y]) for x, y in _GADGET_EDGES))
    g = Gadget(t)

    def cyclic(x: str, y: str, z: str) -> bool:
        return (
            (g.has_edge(x, y) and g.has_edge(y, z) and g.has_edge(z, x))
            or (g.has_edge(x, z) and g.has_edge(z, y) and g.has_edge(y, x))
        )

    if len(t.edges) != 21:
        raise AuditError("gadget must have exactly 21 edges")
    if not cyclic("a", "b", "w") or not cyclic("c", "d", "w"):
        raise AuditError("gadget triples through w must be cyclic")
    for x in ("a", "b"):
        for y in ("c", "d"):
            if not cyclic("u", x, y) or not cyclic("v", x, y):
                raise AuditError(f"joining triple through {x},{y} not cyclic")
    in_u = {g.name(p) for p in t.vertices if t.has_edge(p, index["u"])}
    out_v = {g.name(p) for p in t.vertices if t.has_edge(index["v"], p)}
    if in_u != {"a", "b"} or out_v != {"c", "d"}:
        raise AuditError("endpoint neighbourhoods are wrong")
    return g


@dataclass(frozen=True)
class GadgetReport:
    """Outcome of the 128-assignment sweep."""

    proper_colorings: int
    witness: Coloring  # u,v,w one color, a,b,c,d the other

    @property
    def ok(self) -> bool:
        return self.proper_colorings > 0


def verify_gadget() -> GadgetReport:
    """Sweep all 2^7 vertex 2-colorings of the gadget.

    Asserts that some proper coloring puts u,v,w on one side with all of
    N-(u) and N+(v) opposite, and that every proper coloring gives u and
    v equal colors. Violations raise with the offending assignment.
    """
    g = gadget()
    t = g.tournament
    u, v = g.vertex("u"), g.vertex("v")
    proper = 0
    for code in range(1 << 7):
        coloring = Coloring(tuple(1 + ((code >> i) & 1) for i in range(7)), 2)
        if not verify_coloring(t, coloring):
            continue
        proper += 1
        if coloring.color(u) != coloring.color(v):
            raise AuditError(
                f"proper coloring {code:07b} separates the endpoints"
            )
    target = Coloring((1, 1, 1, 2, 2, 2, 2), 2)
    if not verify_coloring(t, target):
        raise AuditError("the u,v,w / a,b,c,d split is not proper")
    for name in ("a", "b", "c", "d"):
        if target.color(g.vertex(name)) == target.color(u):
            raise AuditError("witness does not separate the neighbourhoods")
    return GadgetReport(proper_colorings=proper, witness=target)


# -- the reduction -------------------------------------------------------


def graph_triangles(g: LabeledGraph) -> list[tuple[int, int, int]]:
    """Triangles of an undirected graph, lexicographic on sorted triples."""
    out = []
    adj = g._adj
    for a in g.vertices:
        for b in _bits(adj[a] & -(2 << a)):
            for c in _bits(adj[a] & adj[b] & -(2 << b)):
                out.append((a, b, c))
    return out


@dataclass(frozen=True)
class ReductionOutput:
    """The tournament T(G) with its vertex roles.

    Layout on 1..n+18m: the n spine vertices come first; then per
    triangle a cyclic triple of size 3; then per triangle three 5-vertex
    gadget blocks in the order of the triangle's sorted vertices, each
    block listing (w, a, b, c, d).
    """

    graph: LabeledGraph
    triangles: tuple[tuple[int, int, int], ...]
    tournament: Tournament

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return len(self.triangles)

    def y_vertex(self, i: int) -> int:
        """Spine vertex of the i-th smallest graph label (1-based)."""
        if not 1 <= i <= self.n:
            raise ValueError("spine index out of range")
        return i

    def z_vertex(self, t: int, r: int) -> int:
        """r-th vertex (1..3) of triangle t's cyclic triple (1-based t)."""
        if not (1 <= t <= self.m and 1 <= r <= 3):
            raise ValueError("triple index out of range")
        return self.n + 3 * (t - 1) + r

    def k_block(self, t: int, r: int) -> tuple[int, ...]:
        """Gadget block (w,a,b,c,d) for triangle t and its r-th vertex."""
        if not (1 <= t <= self.m and 1 <= r <= 3):
            raise ValueError("block index out of range")
        base = self.n + 3 * self.m + 15 * (t - 1) + 5 * (r - 1)
        return tuple(range(base + 1, base + 6))

    def role_lines(self) -> list[str]:
        lines = [f"spine: {self.n}", f"triangles: {self.m}"]
        labels = self.graph.vertices
        for t, tri in enumerate(self.triangles, start=1):
            lines.append(f"triangle {t}: {tri[0]} {tri[1]} {tri[2]}")
            for r in range(1, 4):
                block = " ".join(str(v) for v in self.k_block(t, r))
                lines.append(
                    f"gadget {t}.{r}: u={labels.index(tri[r-1]) + 1} "
                    f"v={self.z_vertex(t, r)} block={block}"
                )
        return lines


def reduce_graph(g: LabeledGraph) -> ReductionOutput:
    """Assemble the tournament T(G).

    Deterministic: triangles are enumerated lexicographically, the spine
    follows the sorted graph labels, and all unscripted cross pairs point
    spine -> triples, spine -> blocks, blocks -> triples.
    """
    n = g.n
    triangles = tuple(graph_triangles(g))
    m = len(triangles)
    size = n + 18 * m
    z0 = n + 1  # first triple vertex; triple t starts at z0 + 3(t-1)
    k0 = n + 3 * m + 1  # first block vertex; block b starts at k0 + 5b
    ys, zs, ks = _span(1, n), _span(z0, k0 - 1), _span(k0, size)
    out = [0] * (size + 1)
    inn = [0] * (size + 1)

    # the spine, the triples and the blocks each in label order: a vertex,
    # a triple or a block beats every later one of its kind
    for lo, hi, group in ((1, n, 1), (z0, k0 - 1, 3), (k0, size, 5)):
        for x in range(lo, hi + 1):
            start = x - (x - lo) % group
            out[x] |= _span(start + group, hi)
            inn[x] |= _span(lo, start - 1)
    # block b = 3(t-1) + (r-1) is the gadget of triangle t's r-th vertex:
    # its u is that vertex's spine position and its v the triple vertex
    # z0 + b; the pairs of u or v with the block take the gadget's edges
    us = [u for clause in _cut_clauses(g, triangles) for u in clause]
    own = [0] * (n + 1)  # own[y]: the blocks whose u is y
    for b, u in enumerate(us):
        block = _span(k0 + 5 * b, k0 + 5 * b + 4)
        own[u] |= block
        for x in _bits(block):
            out[x] |= zs ^ (1 << (z0 + b))
            inn[x] |= ys ^ (1 << u)
        inn[z0 + b] |= ys | (ks ^ block)
    for y in range(1, n + 1):
        out[y] |= zs | (ks & ~own[y])
    # each triple is a cyclic triangle
    c3 = cyclic_triangle()
    for z, x in itertools.product(range(z0, k0, 3), range(3)):
        out[z + x] |= c3.out[x + 1] << (z - 1)
        inn[z + x] |= c3.inn[x + 1] << (z - 1)
    # the gadget's own edges, shifted onto each block: gadget vertices
    # 1..7 are u, v, then the block in order (w, a, b, c, d)
    gt = gadget().tournament
    inside = _span(3, 7)
    for b, u in enumerate(us):
        v, shift = z0 + b, k0 + 5 * b - 3
        for masks, g_masks in ((out, gt.out), (inn, gt.inn)):
            for x in range(3, 8):
                hit = g_masks[x]
                masks[x + shift] |= (
                    (hit & inside) << shift | (hit >> 1 & 1) << u | (hit >> 2 & 1) << v
                )
            masks[u] |= (g_masks[1] & inside) << shift
            masks[v] |= (g_masks[2] & inside) << shift

    t = Tournament._from_masks(size, out, inn)
    return ReductionOutput(graph=g, triangles=triangles, tournament=t)


def _cut_clauses(g: LabeledGraph, triangles: Iterable) -> list[tuple[int, int, int]]:
    """Each triangle on vertex positions, which follow the sorted labels."""
    pos = {lab: i + 1 for i, lab in enumerate(g.vertices)}
    return [(pos[a], pos[b], pos[c]) for a, b, c in triangles]


def _triangle_free(coloring: Coloring, clauses: Iterable) -> bool:
    """Whether no triangle, as a clause on positions, is monochromatic."""
    return all(len({coloring.color(x) for x in clause}) > 1 for clause in clauses)


def has_triangle_free_cut(
    g: LabeledGraph, budget: Optional[int] = None
) -> Optional[Coloring]:
    """A 2-coloring of the graph with no monochromatic triangle, or None.

    One NAE constraint per triangle; positions follow the sorted labels.
    """
    clauses = _cut_clauses(g, graph_triangles(g))
    solution = nae.solve_nae(g.n, clauses, budget=budget)
    if solution is None:
        return None
    coloring = Coloring(tuple(x + 1 for x in solution), 2)
    if not _triangle_free(coloring, clauses):
        raise AuditError("solver returned a monochromatic triangle")
    return coloring


@dataclass(frozen=True)
class ReductionCheck:
    """Agreement verdict between the cut problem and the tournament side."""

    reduction: ReductionOutput
    cut: Optional[Coloring]
    tournament_coloring: Optional[Coloring]

    @property
    def agree(self) -> bool:
        return (self.cut is not None) == (self.tournament_coloring is not None)


def check_reduction(
    g: LabeledGraph, budget: Optional[int] = None
) -> ReductionCheck:
    """Solve both sides and, when the tournament side is colorable, lift
    the coloring back to a cut of the graph and validate it: a lift that
    leaves a triangle monochromatic raises AuditError."""
    reduction = reduce_graph(g)
    cut = has_triangle_free_cut(g, budget=budget)
    tcol = nae_two_coloring(reduction.tournament, budget=budget)
    if tcol is not None:
        lifted = Coloring(
            tuple(tcol.color(reduction.y_vertex(i)) for i in range(1, g.n + 1)),
            2,
        )
        if not _triangle_free(lifted, _cut_clauses(g, reduction.triangles)):
            raise AuditError("lifted coloring is not a triangle-free cut")
    return ReductionCheck(reduction=reduction, cut=cut, tournament_coloring=tcol)


def lift(t: Tournament, k: int) -> Tournament:
    """Two disjoint copies of the tournament plus one apex: copies point
    first -> second, the second copy beats the apex, the apex beats the
    first copy.

    Contract: the input is (k-1)-colorable iff the output is k-colorable,
    for k >= 3.
    """
    if k < 3:
        raise ValueError("the lift is meaningful for k >= 3")
    if not isinstance(t, Tournament):
        raise ValueError("the lift takes a tournament")
    n = t.n
    apex = 2 * n + 1
    first, second = _span(1, n), _span(n + 1, 2 * n)
    out = [0] * (apex + 1)
    inn = [0] * (apex + 1)
    for x in t.vertices:
        out[x] = t.out[x] | second
        inn[x] = t.inn[x] | 1 << apex
        out[n + x] = t.out[x] << n | 1 << apex
        inn[n + x] = t.inn[x] << n | first
    out[apex], inn[apex] = first, second
    return Tournament._from_masks(apex, out, inn)
