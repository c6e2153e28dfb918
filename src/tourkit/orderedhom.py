"""Backedge graphs, order-preserving homomorphisms and ordered cores.

Labeled graphs here are undirected simple graphs whose vertices are
natural numbers; the order of the labels carries meaning. An
order-preserving homomorphism (OPH) is a map that is monotone on labels
and sends edges to edges. The ordered core of a graph is a smallest
induced subgraph (by vertex count, inheriting labels) receiving an OPH
from the whole graph.

Sweeping all h! labelings of an oriented pattern and taking the core of
each labeling's backedge graph yields a finite family; a maximal element
of that family under the OPH order is the object the lower-bound
construction is built around.

The searches run on neighbour masks indexed by label (bit w of
``adj[v]`` set for each neighbour w of v), the form ``LabeledGraph``
keeps. The labeling sweep in ``core_family`` never builds a
``LabeledGraph`` for a backedge graph: it builds the masks straight from
the labeling, finds the core's labels on them with the search behind
``ordered_core``, and reads the core's canonical key off them as well.
Only a core whose class is new becomes a ``LabeledGraph``, one per member
of the family.

Three facts keep the searches fast with the same output:

* A smallest subset S receiving an OPH f from g also receives a
  retraction, an OPH fixing every vertex of S: otherwise f after f maps g
  into the smaller set f(S). So ``ordered_core`` pins S's own vertices
  and searches only where the others go.
* The interval chromatic number (fewest runs of consecutive labels, each
  an independent set) is a lower bound on the core's size, since the
  preimages of an OPH's image vertices are such runs. ``ordered_core``
  starts its size loop there.
* OPHs compose and, between distinct cores of the family, never go both
  ways. So one sweep that keeps an antichain of the members receiving no
  map finds every maximal member, and ``select_k`` re-checks the member
  it picks against the whole family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .digraphs import OrientedGraph, _BadPair, _bits, _search
from .errors import AuditError

# neighbour masks indexed by label: a list, or a LabeledGraph's dict
Masks = Sequence[int] | Mapping[int, int]

__all__ = [
    "LabeledGraph",
    "OphMap",
    "CoreFamily",
    "backedge_graph",
    "find_oph",
    "enumerate_ophs",
    "ordered_core",
    "is_ordered_core",
    "core_family",
    "select_k",
    "odd_cycle_certificate",
    "order_isomorphic",
]


class LabeledGraph:
    """Undirected simple graph on a finite label set from the naturals;
    ``edges``, the pairs (i, j) with i < j, is derived from its masks."""

    __slots__ = ("vertices", "edges", "_adj")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]]):
        """The first bad pair in list order, a loop, an unknown label or a
        repeat (j i repeats i j), raises a ValueError that names it."""
        vs = tuple(sorted(set(int(v) for v in vertices)))
        if vs and vs[0] < 1:
            raise ValueError("labels must be positive integers")
        adj = dict.fromkeys(vs, 0)  # adj[v]: bit w set for each neighbour w
        for index, (a, b) in enumerate(edges):
            a, b = int(a), int(b)
            if a == b:
                error = f"self-loop at {a}"
            elif a not in adj or b not in adj:
                error = f"edge ({a},{b}) uses an unknown label"
            elif adj[a] >> b & 1:
                error = f"edge ({a},{b}) given twice"
            else:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
                continue
            raise _BadPair(index, error)
        edges = frozenset((a, b) for a in vs for b in _bits(adj[a]) if a < b)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_adj", adj)

    def __setattr__(self, name, value):
        raise AttributeError("LabeledGraph is immutable")

    @property
    def n(self) -> int:
        return len(self.vertices)

    def has_edge(self, a: int, b: int) -> bool:
        return bool(self._adj.get(a, 0) >> b & 1)

    def induced(self, labels: Iterable[int]) -> "LabeledGraph":
        keep = set(labels)
        if not keep <= set(self.vertices):
            raise ValueError("labels not contained in the vertex set")
        return LabeledGraph(
            keep, (e for e in self.edges if e[0] in keep and e[1] in keep)
        )

    def canonical_key(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """Edge list after the order-preserving relabeling onto 1..n."""
        return _key(self._adj, self.vertices)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabeledGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"LabeledGraph({list(self.vertices)}, {sorted(self.edges)})"


def _key(
    adj: Masks, labels: Sequence[int]
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The canonical key of the graph with neighbour masks ``adj`` on the
    ascending ``labels``: its size and its sorted edge list after the
    order-preserving relabeling onto 1..n."""
    size = len(labels)
    # the tuple is built from a list: a tuple built from a generator grows
    # by reallocation, and once per backedge code in ``core_family`` that
    # fragments the heap enough to raise the peak RSS
    return (
        size,
        tuple([
            (i + 1, j + 1)
            for i in range(size)
            for j in range(i + 1, size)
            if adj[labels[i]] >> labels[j] & 1
        ]),
    )


@dataclass(frozen=True)
class OphMap:
    """A monotone, edge-preserving vertex map between labeled graphs."""

    mapping: tuple[tuple[int, int], ...]  # sorted (source, image) pairs

    def as_dict(self) -> dict[int, int]:
        return dict(self.mapping)

    def is_valid(self, source: LabeledGraph, target: LabeledGraph) -> bool:
        d = self.as_dict()
        if set(d) != set(source.vertices):
            return False
        if not set(d.values()) <= set(target.vertices):
            return False
        vs = source.vertices
        for i in range(len(vs) - 1):
            if d[vs[i]] > d[vs[i + 1]]:
                return False
        return all(target.has_edge(d[a], d[b]) for a, b in source.edges)


def backedge_graph(h: OrientedGraph, labeling: Sequence[int]) -> LabeledGraph:
    """Undirected graph of the edges pointing against the labeling.

    ``labeling[v-1]`` is the label given to vertex v; it must be a
    bijection onto 1..h. Label pair {i, j}, i < j, is an edge exactly when
    the edge between the correspondingly labeled vertices points from j's
    vertex to i's vertex.
    """
    if sorted(labeling) != list(range(1, h.n + 1)):
        raise ValueError("labeling must be a bijection onto 1..h")
    edges = []
    for u, v in h.edges:
        a, b = labeling[u - 1], labeling[v - 1]
        if a > b:
            edges.append((b, a))
    return LabeledGraph(range(1, h.n + 1), edges)


def _oph_checks(
    gvs: Sequence[int], gadj: Masks, tadj: Masks, top: int
) -> list[list[tuple]]:
    """``_search`` checks for the OPHs from the graph with ascending labels
    ``gvs`` and neighbour masks ``gadj`` into a target with neighbour
    masks ``tadj`` and labels up to ``top``. Level i places the i-th vertex
    in label order, at slot i. Its image is at or above the previous one
    and adjacent to the images of its earlier neighbours."""
    at_least = [-(1 << w) for w in range(top + 1)]  # the labels from w up
    checks: list[list[tuple]] = [[]]
    for i in range(1, len(gvs)):
        row = gadj[gvs[i]]
        checks.append(
            [(i - 1, at_least)] + [(j, tadj) for j in range(i) if row >> gvs[j] & 1]
        )
    return checks


def _maps(
    g: LabeledGraph, target: LabeledGraph
) -> Iterator[tuple[list[int], int, int]]:
    """The ``_search`` engine over the OPHs from g, which must have a
    vertex, to target, every target label allowed: ``img[i]`` is the image
    of the i-th vertex of g in label order."""
    full = sum(1 << w for w in target.vertices)
    top = max(target.vertices, default=0)
    checks = _oph_checks(g.vertices, g._adj, target._adj, top)
    return _search(range(g.n), [full] * g.n, checks)


def find_oph(g: LabeledGraph, target: LabeledGraph) -> Optional[OphMap]:
    """First order-preserving homomorphism from g to target, or None."""
    return next(enumerate_ophs(g, target), None)


def enumerate_ophs(g: LabeledGraph, target: LabeledGraph) -> Iterator[OphMap]:
    """All order-preserving homomorphisms, in search order."""
    if not g.n:
        yield OphMap(())
        return
    for img, slot, cand in _maps(g, target):
        for w in _bits(cand):
            img[slot] = w
            yield OphMap(tuple(zip(g.vertices, img)))


def order_isomorphic(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    """Order-preserving isomorphism test.

    Between fixed label sets the monotone bijection is unique, so the test
    reduces to comparing edge sets after that relabeling.
    """
    return g1.canonical_key() == g2.canonical_key()


def _interval_runs(adj: Masks, labels: Sequence[int]) -> int:
    """The interval chromatic number of Pach and Tardos (2006) of the graph
    with neighbour masks ``adj`` on the ascending ``labels``: the fewest
    runs of consecutive labels, each an independent set, that cover them.

    The greedy scan that extends each run while it stays independent is
    optimal.
    """
    runs = run = 0
    for v in labels:
        if not run or adj[v] & run:
            runs += 1
            run = 0
        run |= 1 << v
    return runs


def _retraction_domains(
    bits: Sequence[int], bad: Sequence[Sequence[int]], subset: Sequence[int]
) -> Optional[list[int]]:
    """Per-slot image masks for a retraction onto the vertex slots
    ``subset`` (ascending), or None when some vertex has no image.

    A chosen vertex maps to itself. Any other vertex lies between two
    consecutive chosen ones, or before the first or after the last, so by
    monotonicity its image is one of those at most two. Slot i may map to
    slot j only if the chosen mask misses ``bad[i][j]``: the neighbours
    of i that are not neighbours of j (j itself among them when i and j
    are adjacent). ``bits[i]`` is slot i's label bit. Both tables carry a
    sentinel at index n (also reached as index -1): no bit, and a bad
    mask that meets every nonempty chosen set.
    """
    n = len(bits) - 1
    chosen = 0
    for j in subset:
        chosen |= bits[j]
    domains = bits[:n]
    a = -1
    for b in (*subset, n):
        for i in range(a + 1, b):
            bad_i = bad[i]
            dom = (0 if chosen & bad_i[a] else bits[a]) | (
                0 if chosen & bad_i[b] else bits[b]
            )
            if not dom:
                return None
            domains[i] = dom
        a = b
    return domains


def ordered_core(g: LabeledGraph) -> LabeledGraph:
    """Minimum-vertex induced subgraph receiving an OPH from the graph.

    The core's vertex set is the first subset S, by increasing size and
    then in lexicographic label order, such that g has an OPH onto g[S].

    Only retractions are searched: OPHs that fix every vertex of S. This
    finds the same first S. Let S be a smallest subset admitting an OPH
    f: g -> g[S]. If f(S) != S, then f after f maps g into g[f(S)], a
    smaller subset, against the minimality of S. So f restricted to S is
    a monotone bijection of S onto itself, which is the identity. Every S
    of the smallest size that admits an OPH therefore admits a
    retraction, and no smaller S admits either.

    The sizes start at the interval chromatic number of g: the preimages
    of an OPH's image vertices are runs of consecutive labels, each an
    independent set, so no smaller subset can receive one.
    """
    return g.induced(_core_labels(g._adj, g.vertices))


def _core_labels(adj: Masks, labels: Sequence[int]) -> tuple[int, ...]:
    """The labels of ``ordered_core`` of the graph with neighbour masks
    ``adj`` on the ascending ``labels``."""
    n = len(labels)
    if not n:
        return ()
    rows = [adj[v] for v in labels]
    bits = [1 << v for v in labels] + [0]
    bad = [[a & ~b for b in rows] + [-1] for a in rows]
    checks = _oph_checks(labels, adj, adj, labels[-1])
    for size in range(_interval_runs(adj, labels), n + 1):
        for subset in itertools.combinations(range(n), size):
            domains = _retraction_domains(bits, bad, subset)
            if domains is not None and next(
                _search(range(n), domains, checks), None
            ) is not None:
                return tuple([labels[i] for i in subset])
    raise AuditError("no retraction onto the whole graph")


def is_ordered_core(g: LabeledGraph) -> bool:
    """No OPH from g to a proper induced subgraph of itself."""
    return ordered_core(g) == g


@dataclass(frozen=True)
class CoreFamily:
    """Ordered cores of the backedge graphs over all labelings of a pattern.

    Members are deduplicated up to order-preserving isomorphism; the
    representative kept for each class is the one produced by the first
    labeling in lexicographic order, recorded in ``witnesses``.
    """

    members: tuple[LabeledGraph, ...]
    witnesses: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.members)


def core_family(h: OrientedGraph) -> CoreFamily:
    """Sweep all h! labelings, take each backedge graph's ordered core,
    deduplicate up to order-preserving isomorphism.

    Each labeling is first reduced to a bit code of its backedge graph,
    read straight off the labeling; a later labeling with a code already
    seen can only repeat a class, so it is skipped. For a new code the
    backedge graph is built as a list of neighbour masks indexed by
    label, its core found on those masks, and the core's canonical key
    read off them too, by the ``_key`` behind ``LabeledGraph.canonical_key``.
    A ``LabeledGraph`` is built only for a core whose key is new: one per
    member of the family.
    """
    m = h.n + 1
    labels = tuple(range(1, m))
    # pair_bit[a][b]: the code bit of backedge {b, a} when label a > b
    pair_bit = [
        [1 << (a * m + b) if a > b else 0 for b in range(m)] for a in range(m)
    ]
    arcs = [(u - 1, v - 1) for u, v in h.edges]
    seen_codes: set[int] = set()
    seen_keys: set = set()
    members: list[LabeledGraph] = []
    witnesses: list[tuple[int, ...]] = []
    for labeling in itertools.permutations(labels):
        code = 0
        for u, v in arcs:
            code |= pair_bit[labeling[u]][labeling[v]]
        if code in seen_codes:
            continue
        seen_codes.add(code)
        adj = [0] * m  # the backedge graph, as backedge_graph builds it
        for u, v in arcs:
            a, b = labeling[u], labeling[v]
            if a > b:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        core = _core_labels(adj, labels)
        key = _key(adj, core)
        if key not in seen_keys:
            seen_keys.add(key)
            members.append(
                LabeledGraph(core, ((core[i - 1], core[j - 1]) for i, j in key[1]))
            )
            witnesses.append(labeling)
    return CoreFamily(tuple(members), tuple(witnesses))


def _maximal_indices(family: CoreFamily) -> list[int]:
    """Members receiving no OPH from any other member, ascending.

    One maximal-element sweep (Daskalakis et al., "Sorting and selection
    in posets", SICOMP 2011) keeps the antichain M of members seen so far
    that receive no OPH from another seen member. A new member x is
    dropped if some m in M maps into it; otherwise the members of M that x
    maps into are dropped and x joins M. Checking M alone suffices: OPHs
    compose, so a map into x from a dropped member follows from a map out
    of some member of M, as long as the order is antisymmetric on the
    family (distinct cores that map both ways are order-isomorphic, and
    the family keeps one core per isomorphism class). ``select_k``
    re-checks its choice against every member, so a failure of
    antisymmetry surfaces as an AuditError rather than a wrong kernel.
    """
    members = family.members

    def maps(a: int, b: int) -> bool:
        return next(_maps(members[a], members[b]), None) is not None

    antichain: list[int] = []
    for x in range(len(members)):
        if any(maps(m, x) for m in antichain):
            continue
        antichain = [m for m in antichain if not maps(x, m)]
        antichain.append(x)
    return antichain


def select_k(family: CoreFamily) -> LabeledGraph:
    """A maximal member of the core family under the OPH partial order.

    Among maximal classes the member with the lexicographically least
    canonical edge list (then fewest vertices) is returned, so repeated
    runs pick the same representative. Maximality is re-verified directly;
    a violation raises AuditError.
    """
    if not family.members:
        raise ValueError("empty core family")
    maximal = _maximal_indices(family)
    if not maximal:
        raise AuditError("poset has no maximal element; antisymmetry violated")
    best = min(
        maximal,
        key=lambda i: (
            family.members[i].canonical_key()[1],
            family.members[i].n,
        ),
    )
    k = family.members[best]
    for j, c in enumerate(family.members):
        if j != best and find_oph(c, k) is not None:
            raise AuditError("selected member is not maximal")
    return k


def odd_cycle_certificate(g: LabeledGraph) -> list[int]:
    """An odd cycle (as a vertex sequence) in a non-bipartite graph.

    Raises ValueError when the graph is 2-colorable.
    """
    coloring, cycle = _bipartition_or_odd_cycle(g)
    if coloring is not None:
        raise ValueError("graph is 2-colorable; no odd cycle exists")
    assert cycle is not None
    if len(cycle) % 2 == 0 or len(cycle) < 3:
        raise AuditError("certificate construction failed")
    for i, v in enumerate(cycle):
        if not g.has_edge(v, cycle[(i + 1) % len(cycle)]):
            raise AuditError("certificate is not a cycle")
    return cycle


def _bipartition_or_odd_cycle(
    g: LabeledGraph,
) -> tuple[Optional[dict[int, int]], Optional[list[int]]]:
    color: dict[int, int] = {}
    parent: dict[int, Optional[int]] = {}
    for root in g.vertices:
        if root in color:
            continue
        color[root] = 0
        parent[root] = None
        queue = [root]
        while queue:
            u = queue.pop(0)
            for w in _bits(g._adj[u]):
                if w not in color:
                    color[w] = color[u] ^ 1
                    parent[w] = u
                    queue.append(w)
                elif color[w] == color[u]:
                    return None, _splice_cycle(u, w, parent)
    return color, None


def _splice_cycle(
    u: int, w: int, parent: dict[int, Optional[int]]
) -> list[int]:
    path_u: list[int] = []
    x: Optional[int] = u
    while x is not None:
        path_u.append(x)
        x = parent[x]
    anc = set(path_u)
    path_w: list[int] = []
    x = w
    while x not in anc:
        path_w.append(x)
        x = parent[x]
    lca = x
    cycle = path_u[: path_u.index(lca) + 1] + list(reversed(path_w))
    return cycle
