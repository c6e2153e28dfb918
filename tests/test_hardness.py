"""Gadget verification, the reduction, and the colorability lift."""

import itertools

import pytest

from tourkit import hardness
from tourkit.coloring import (
    Coloring,
    acyclic_k_coloring,
    nae_two_coloring,
    verify_coloring,
)
from tourkit.digraphs import (
    Tournament,
    cyclic_triangle,
    enumerate_tournaments,
    transitive_tournament,
)
from tourkit.errors import AuditError
from tourkit.hardness import (
    GADGET_NAMES,
    check_reduction,
    gadget,
    graph_triangles,
    has_triangle_free_cut,
    lift,
    reduce_graph,
    verify_gadget,
)
from tourkit.orderedhom import LabeledGraph

from conftest import random_labeled_graph


def complete_graph(n):
    return LabeledGraph(range(1, n + 1), itertools.combinations(range(1, n + 1), 2))


def spine_cut_is_triangle_free(g, chk):
    """Recheck the lifted cut: no triangle of the graph (on 1..n) has one
    colour on its spine vertices under the tournament coloring."""
    color = chk.tournament_coloring.color
    spine = [color(chk.reduction.y_vertex(i)) for i in range(1, g.n + 1)]
    return all(
        len({spine[a - 1], spine[b - 1], spine[c - 1]}) > 1
        for a, b, c in itertools.combinations(range(1, g.n + 1), 3)
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
    )


class TestGadget:
    def test_complete_on_seven(self):
        g = gadget()
        assert g.tournament.n == 7
        assert len(g.tournament.edges) == 21

    def test_named_cyclic_triples(self):
        g = gadget()
        # {u,a,c} is cyclic: u -> c, c -> a, a -> u
        assert g.has_edge("u", "c") and g.has_edge("c", "a") and g.has_edge("a", "u")
        # {a,b,w} and {c,d,w}
        assert g.has_edge("a", "b") and g.has_edge("b", "w") and g.has_edge("w", "a")
        assert g.has_edge("c", "d") and g.has_edge("d", "w") and g.has_edge("w", "c")

    def test_three_four_split_is_proper(self):
        g = gadget()
        from tourkit.coloring import Coloring

        split = Coloring((1, 1, 1, 2, 2, 2, 2), 2)
        assert verify_coloring(g.tournament, split)

    def test_sweep(self):
        report = verify_gadget()
        assert report.ok
        # regression value from the exhaustive 128-assignment sweep
        assert report.proper_colorings == 6
        w = report.witness
        u, v, ww = (GADGET_NAMES.index(x) + 1 for x in ("u", "v", "w"))
        assert w.color(u) == w.color(v) == w.color(ww)
        for name in ("a", "b", "c", "d"):
            assert w.color(GADGET_NAMES.index(name) + 1) != w.color(u)


def audit_reduction(out):
    """Role-respecting edge scan over the assembled tournament."""
    t = out.tournament
    n, m = out.n, out.m
    assert t.n == n + 18 * m
    spine = range(1, n + 1)
    triples = range(n + 1, n + 3 * m + 1)
    blocks = range(n + 3 * m + 1, n + 18 * m + 1)
    # spine transitive
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            assert t.has_edge(i, j)
    # spine beats triples
    for y in spine:
        for z in triples:
            assert t.has_edge(y, z)
    # triples cyclic, ordered between triangles
    for tt in range(1, m + 1):
        z1, z2, z3 = (out.z_vertex(tt, r) for r in (1, 2, 3))
        assert t.has_edge(z1, z2) and t.has_edge(z2, z3) and t.has_edge(z3, z1)
        for s in range(1, tt):
            for zs in (out.z_vertex(s, r) for r in (1, 2, 3)):
                for zt in (z1, z2, z3):
                    assert t.has_edge(zs, zt)
    # block groups ordered between triangles
    for s in range(1, m + 1):
        for tt in range(s + 1, m + 1):
            assert t.has_edge(out.k_block(s, 1)[0], out.k_block(tt, 3)[-1])
    # gadget copies are exact
    g = gadget()
    pos = {lab: i + 1 for i, lab in enumerate(out.graph.vertices)}
    gadget_members = set()
    for tt in range(1, m + 1):
        tri = out.triangles[tt - 1]
        for r in range(1, 4):
            block = out.k_block(tt, r)
            place = {
                "u": pos[tri[r - 1]],
                "v": out.z_vertex(tt, r),
                "w": block[0],
                "a": block[1],
                "b": block[2],
                "c": block[3],
                "d": block[4],
            }
            for x in GADGET_NAMES:
                for y in GADGET_NAMES:
                    if x != y and g.has_edge(x, y):
                        assert t.has_edge(place[x], place[y])
            gadget_members.add((pos[tri[r - 1]], block))
    # all remaining spine-block and block-triple pairs point forward
    in_gadget_yk = set()
    in_gadget_kz = set()
    for tt in range(1, m + 1):
        tri = out.triangles[tt - 1]
        for r in range(1, 4):
            for kk in out.k_block(tt, r):
                in_gadget_yk.add((pos[tri[r - 1]], kk))
                in_gadget_kz.add((kk, out.z_vertex(tt, r)))
    for y in spine:
        for kk in blocks:
            if (y, kk) not in in_gadget_yk:
                assert t.has_edge(y, kk)
    for kk in blocks:
        for z in triples:
            if (kk, z) not in in_gadget_kz:
                assert t.has_edge(kk, z)


class TestReduction:
    def test_single_triangle_size(self):
        out = reduce_graph(complete_graph(3))
        assert out.tournament.n == 21
        audit_reduction(out)

    def test_k4_size(self):
        out = reduce_graph(complete_graph(4))
        assert out.m == 4
        assert out.tournament.n == 76
        audit_reduction(out)

    def test_triangle_free_graph_gives_transitive(self):
        path = LabeledGraph(range(1, 5), [(1, 2), (2, 3), (3, 4)])
        out = reduce_graph(path)
        assert out.m == 0
        assert out.tournament.is_acyclic()
        assert nae_two_coloring(out.tournament) is not None

    def test_triangle_enumeration_is_lexicographic(self):
        g = complete_graph(4)
        assert graph_triangles(g) == [
            (1, 2, 3),
            (1, 2, 4),
            (1, 3, 4),
            (2, 3, 4),
        ]

    def test_deterministic(self):
        g = complete_graph(4)
        assert reduce_graph(g).tournament.edges == reduce_graph(g).tournament.edges


class TestTriangleFreeCut:
    def test_triangle_free_graph_any_coloring(self):
        path = LabeledGraph(range(1, 5), [(1, 2), (2, 3), (3, 4)])
        assert has_triangle_free_cut(path) is not None

    def test_k5_has_none(self):
        assert has_triangle_free_cut(complete_graph(5)) is None
        # exhaustive cross-check over the 32 assignments
        g = complete_graph(5)
        for code in range(32):
            cls = [v + 1 for v in range(5) if (code >> v) & 1]
            other = [v for v in range(1, 6) if v not in cls]
            assert any(
                len(side) >= 3 for side in (cls, other)
            )  # some side spans a triangle in K5

    def test_k4_splits(self):
        coloring = has_triangle_free_cut(complete_graph(4))
        assert coloring is not None

    def test_agrees_with_exhaustive_sweep(self, rng):
        for _ in range(40):
            g = random_labeled_graph(range(1, 7), 0.6, rng)
            triangles = graph_triangles(g)
            exhaustive = False
            for code in range(1 << 6):
                ok = True
                for a, b, c in triangles:
                    bits = ((code >> (a - 1)) & 1, (code >> (b - 1)) & 1,
                            (code >> (c - 1)) & 1)
                    if bits[0] == bits[1] == bits[2]:
                        ok = False
                        break
                if ok:
                    exhaustive = True
                    break
            assert (has_triangle_free_cut(g) is not None) == exhaustive


class TestCheckReduction:
    def test_single_triangle(self):
        chk = check_reduction(complete_graph(3))
        assert chk.agree
        assert chk.cut is not None and chk.tournament_coloring is not None
        assert spine_cut_is_triangle_free(complete_graph(3), chk)

    def test_k5_both_unsatisfiable(self):
        chk = check_reduction(complete_graph(5))
        assert chk.agree
        assert chk.cut is None and chk.tournament_coloring is None

    def test_random_corpus(self, rng):
        for _ in range(30):
            g = random_labeled_graph(range(1, 7), 0.5, rng)
            chk = check_reduction(g)
            assert chk.agree
            if chk.tournament_coloring is not None:
                assert spine_cut_is_triangle_free(g, chk)

    def test_monochromatic_lift_raises(self, monkeypatch):
        # one colour everywhere leaves K3's triangle monochromatic on the spine
        def one_color(t, budget=None):
            return Coloring((1,) * t.n, 2)

        monkeypatch.setattr(hardness, "nae_two_coloring", one_color)
        with pytest.raises(AuditError, match="lifted coloring"):
            check_reduction(complete_graph(3))
        # a graph without a triangle has nothing to lift onto
        assert check_reduction(LabeledGraph(range(1, 4), [(1, 2)])).agree


class TestLift:
    def test_single_vertex_gives_cyclic_triangle(self):
        lifted = lift(Tournament(1, []), 3)
        assert lifted.n == 3
        assert not lifted.is_acyclic()

    def test_cyclic_triangle_equivalence(self):
        t = cyclic_triangle()
        lifted = lift(t, 3)
        assert lifted.n == 7
        assert acyclic_k_coloring(t, 2) is not None
        assert acyclic_k_coloring(lifted, 3) is not None

    def test_minimal_hard_equivalence(self, minimal_hard):
        lifted = lift(minimal_hard, 3)
        assert acyclic_k_coloring(minimal_hard, 2) is None
        assert acyclic_k_coloring(lifted, 3) is None

    def test_all_four_vertex_tournaments(self):
        for t in enumerate_tournaments(4):
            two = acyclic_k_coloring(t, 2) is not None
            three = acyclic_k_coloring(lift(t, 3), 3) is not None
            assert two == three

    def test_k_must_be_at_least_three(self):
        with pytest.raises(ValueError):
            lift(cyclic_triangle(), 2)

    def test_structure(self):
        t = transitive_tournament(3)
        lifted = lift(t, 3)
        n = 3
        for x in range(1, n + 1):
            for y in range(n + 1, 2 * n + 1):
                assert lifted.has_edge(x, y)
            assert lifted.has_edge(2 * n + 1, x)
        for y in range(n + 1, 2 * n + 1):
            assert lifted.has_edge(y, 2 * n + 1)
