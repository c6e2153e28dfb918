"""Mask-built graphs against edge-list oracles.

The library builds graphs on their ``out``/``inn`` masks and peels colour
classes on masks. Here every builder is compared with
``OrientedGraph(n, edges)`` / ``Tournament(n, edges)`` on an edge list
computed pair by pair, and the peel with sink removal over a set of pairs.
"""

import itertools
import random

import pytest

from tourkit.coloring import Coloring, verify_coloring
from tourkit.digraphs import (
    OrientedGraph,
    Tournament,
    c3_pattern,
    random_tournament,
    transitive_tournament,
)
from tourkit.errors import AuditError
from tourkit.forcing import KPartiteTournament, _forward_order
from tourkit.hardness import GADGET_NAMES, _GADGET_EDGES, lift, reduce_graph
from tourkit.orderedhom import LabeledGraph

from conftest import oracle_acyclic, random_labeled_graph, random_oriented_graph


def assert_same_graph(g, ref):
    assert type(g) is type(ref)
    assert (g.n, g.out, g.inn) == (ref.n, ref.out, ref.inn)
    assert g.edges == ref.edges


def oracle_topological_order(vertices, edges):
    """Take the smallest vertex with no in-edge from the ones left, until
    none is left (the order) or none qualifies (a cycle: None)."""
    left = set(vertices)
    order = []
    while left:
        sources = [v for v in left if not any(b == v and a in left for a, b in edges)]
        if not sources:
            return None
        order.append(min(sources))
        left.remove(order[-1])
    return order


def random_dag(n, rng):
    """An acyclic oriented graph: pairs oriented along a random vertex
    order, each kept with probability 2/3."""
    rank = list(range(1, n + 1))
    rng.shuffle(rank)
    return OrientedGraph(
        n,
        [
            (u, v) if rank[u - 1] < rank[v - 1] else (v, u)
            for u, v in itertools.combinations(range(1, n + 1), 2)
            if rng.randrange(3)
        ],
    )


def sample_graphs(rng):
    for n in range(9):
        for _ in range(4):
            yield random_oriented_graph(n, rng)
            yield random_dag(n, rng)
            yield random_tournament(n, rng)
    yield transitive_tournament(7).relabel([7, 6, 5, 4, 3, 2, 1])


class TestPeel:
    def test_topological_order(self, rng):
        for g in sample_graphs(rng):
            expected = oracle_topological_order(g.vertices, g.edges)
            assert g.topological_order() == expected
            assert g.is_acyclic() == oracle_acyclic(g.vertices, g.edges)
            assert (expected is not None) == oracle_acyclic(g.vertices, g.edges)

    def test_verify_coloring(self, rng):
        for g in sample_graphs(rng):
            for k in (1, 2, 3):
                coloring = Coloring(
                    tuple(rng.randrange(1, k + 1) for _ in g.vertices), k
                )
                expected = all(
                    oracle_acyclic(cls, g.edges) for cls in coloring.classes()
                )
                assert verify_coloring(g, coloring) == expected

    def test_forward_order(self, rng):
        for g in sample_graphs(rng):
            cls = [v for v in g.vertices if rng.randrange(2)]
            expected = oracle_topological_order(cls, g.edges)
            if expected is None:
                with pytest.raises(ValueError):
                    _forward_order(g, cls)
            else:
                assert _forward_order(g, cls) == expected


class TestBuilders:
    def test_induced(self, rng):
        for g in sample_graphs(rng):
            vs = [v for v in g.vertices if rng.randrange(3)]
            pos = {v: i + 1 for i, v in enumerate(vs)}
            ref = OrientedGraph(
                len(vs),
                [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos],
            )
            assert_same_graph(g.induced(reversed(vs)), ref)

    def test_induced_rejects_foreign_vertices(self):
        for vs in ([0, 1], [1, 4], [-1]):
            with pytest.raises(ValueError):
                c3_pattern().induced(vs)

    def test_relabel(self, rng):
        for g in sample_graphs(rng):
            perm = list(g.vertices)
            rng.shuffle(perm)
            ref = type(g)(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])
            assert_same_graph(g.relabel(perm), ref)

    def test_subtournament(self, rng):
        t = random_tournament(9, rng)
        vs = [2, 3, 5, 8]
        ref = Tournament(4, t.induced(vs).edges)
        assert_same_graph(t.subtournament(vs), ref)

    def test_flip_pairs(self, rng):
        for n in range(2, 10):
            t = random_tournament(n, rng)
            pairs = [
                tuple(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randrange(6))
            ]
            edges = set(t.edges)
            for a, b in pairs:
                (a, b) = (a, b) if (a, b) in edges else (b, a)
                edges.remove((a, b))
                edges.add((b, a))
            assert_same_graph(t.flip_pairs(pairs), Tournament(n, edges))

    @pytest.mark.parametrize("pair", [(1, 1), (0, 2), (2, 0), (-1, 2), (1, 4), (5, 6)])
    def test_flip_pairs_rejects_a_non_pair(self, pair):
        with pytest.raises(ValueError, match="not a vertex pair"):
            random_tournament(3, random.Random(1)).flip_pairs([pair])

    def test_lift(self, rng):
        for n in range(7):
            t = random_tournament(n, rng)
            edges = [e for u, v in t.edges for e in ((u, v), (n + u, n + v))]
            apex = 2 * n + 1
            edges += [(x, n + y) for x in t.vertices for y in t.vertices]
            edges += [(n + y, apex) for y in t.vertices]
            edges += [(apex, x) for x in t.vertices]
            assert_same_graph(lift(t, 3), Tournament(apex, edges))

    def test_completion(self, rng):
        for k, m in ((2, 1), (2, 3), (3, 2), (4, 2)):
            n = k * m
            cross = [
                (u, v) if rng.randrange(2) else (v, u)
                for u, v in itertools.combinations(range(1, n + 1), 2)
                if (u - 1) // m != (v - 1) // m
            ]
            f = KPartiteTournament(k, m, cross)
            inner = [
                (u, v) if rng.randrange(2) else (v, u)
                for u, v in f.inner_pairs()
            ]
            assert_same_graph(f.completion(inner), Tournament(n, cross + inner))

    def test_completion_rejects_bad_inner_edges(self):
        f = KPartiteTournament(2, 2, [(1, 3), (1, 4), (2, 3), (2, 4)])
        for inner in ([(1, 2)], [(1, 2), (3, 4), (1, 3)], [(1, 2), (2, 1), (3, 4)],
                      [(1, 2), (3, 5)], [(1, 1), (3, 4)]):
            with pytest.raises(ValueError):
                f.completion(inner)

    def test_reduce_graph(self, rng):
        graphs = [LabeledGraph(range(1, 5), itertools.combinations(range(1, 5), 2))]
        for _ in range(12):
            labels = rng.sample(range(1, 20), rng.randrange(3, 8))
            graphs.append(random_labeled_graph(sorted(labels), 0.6, rng))
        for g in graphs:
            assert_same_graph(reduce_graph(g).tournament, oracle_reduction(g))

    @pytest.mark.parametrize("fixture", ["micro_blowup", "farness_blowup"])
    def test_blowup_tournament(self, fixture, request):
        b = request.getfixturevalue(fixture)
        assert_same_graph(b.tournament, oracle_blowup(b))


def oracle_reduction(g):
    """T(G) pair by pair, following the layout that ReductionOutput
    documents: spine, cyclic triples, then the gadget blocks."""
    n = g.n
    pos = {lab: i + 1 for i, lab in enumerate(g.vertices)}
    triangles = [
        c
        for c in itertools.combinations(g.vertices, 3)
        if all(g.has_edge(a, b) for a, b in itertools.combinations(c, 2))
    ]
    m = len(triangles)
    ys = range(1, n + 1)
    zs = range(n + 1, n + 3 * m + 1)
    ks = range(n + 3 * m + 1, n + 18 * m + 1)
    edges = set(itertools.combinations(ys, 2))
    edges |= {(y, z) for y in ys for z in zs}
    block_of = {k: (k - ks.start) // 5 for k in ks}
    # triples, earlier beats later, each one cyclic
    for a, b in itertools.combinations(zs, 2):
        same = (a - zs.start) // 3 == (b - zs.start) // 3
        edges.add((b, a) if same and b - a == 2 else (a, b))
    # blocks, earlier beats later
    edges |= {
        (a, b) for a, b in itertools.combinations(ks, 2) if block_of[a] != block_of[b]
    }
    gadget_pairs = set()
    for b in range(3 * m):
        base = ks.start + 5 * b
        place = dict(zip(GADGET_NAMES, (pos[triangles[b // 3][b % 3]], zs.start + b)))
        place.update(zip(GADGET_NAMES[2:], range(base, base + 5)))
        for x, y in _GADGET_EDGES:
            edges.add((place[x], place[y]))
            gadget_pairs.add(frozenset((place[x], place[y])))
    edges |= {(y, k) for y in ys for k in ks if frozenset((y, k)) not in gadget_pairs}
    edges |= {(k, z) for z in zs for k in ks if frozenset((k, z)) not in gadget_pairs}
    return Tournament(n + 18 * m, edges)


def oracle_blowup(b):
    """The blow-up's tournament pair by pair from its base graph, block
    size and forcing construction."""
    base, m, f = b.base, b.m, b.forcing

    def block(x):
        return range((x - 1) * m + 1, x * m + 1)

    edges = []
    for part in range(1, base.k + 1):
        vs = sorted(v for x in base.part_vertices(part) for v in block(x))
        edges += itertools.combinations(vs, 2)
    for i, j in itertools.combinations(range(1, base.k + 1), 2):
        for x in base.part_vertices(i):
            for y in base.part_vertices(j):
                if not base.has_edge(x, y):
                    edges += [(u, v) for u in block(x) for v in block(y)]
    for clique in base.cliques:
        for u, v in f.cross_edges():
            edges.append(
                (
                    block(clique[f.part_of(u) - 1])[(u - 1) % m],
                    block(clique[f.part_of(v) - 1])[(v - 1) % m],
                )
            )
    return Tournament(base.r * m, edges)


class TestFromMasks:
    def test_rejects_a_pair_in_both_directions(self):
        # 1 -> 2 and 2 -> 1
        with pytest.raises(AuditError, match="both directions"):
            OrientedGraph._from_masks(2, [0, 0b100, 0b010], [0, 0b100, 0b010])

    def test_rejects_a_missing_pair_in_a_tournament(self):
        # the path 1 -> 2 -> 3 leaves the pair {1, 3} out
        out, inn = [0, 0b100, 0b1000, 0], [0, 0, 0b10, 0b100]
        with pytest.raises(AuditError, match="not a tournament"):
            Tournament._from_masks(3, out, inn)
        path = OrientedGraph._from_masks(3, out, inn)
        assert path == OrientedGraph(3, [(1, 2), (2, 3)])

    def test_rejects_a_loop_and_a_foreign_vertex(self):
        with pytest.raises(AuditError):
            OrientedGraph._from_masks(2, [0, 0b10, 0], [0, 0b10, 0])
        with pytest.raises(AuditError):
            OrientedGraph._from_masks(2, [0, 0b1000, 0], [0, 0, 0])

    def test_edges_are_derived_and_equality_reads_the_masks(self, rng):
        for g in sample_graphs(rng):
            built = type(g)._from_masks(g.n, g.out, g.inn)
            assert built.edges == g.edges
            assert built == g and hash(built) == hash(g)
        assert OrientedGraph(2, [(1, 2)]) != OrientedGraph(2, [(2, 1)])
        assert OrientedGraph(2, []) != OrientedGraph(3, [])
