"""Acyclic coloring solvers and the easy/hard classifier."""

import functools
import random

import pytest

from tourkit.coloring import (
    _class_stays_acyclic,
    acyclic_k_coloring,
    chromatic_number,
    classify,
    nae_two_coloring,
    verify_coloring,
)
from tourkit.digraphs import (
    c3_pattern,
    cyclic_triangle,
    enumerate_tournaments,
    random_tournament,
    transitive_tournament,
)
from tourkit.errors import BudgetExceeded

from conftest import (
    brute_force_k_colorable,
    oracle_cyclic_triangles,
    oracle_acyclic_k_coloring,
    oracle_chromatic,
    oracle_two_colorable,
    random_oriented_graph,
)


class TestAcyclicColoring:
    def test_c3_two_coloring(self):
        coloring = acyclic_k_coloring(c3_pattern(), 2)
        assert coloring is not None
        assert verify_coloring(c3_pattern(), coloring)

    def test_transitive_single_class(self):
        coloring = acyclic_k_coloring(transitive_tournament(5), 1)
        assert coloring is not None
        assert coloring.classes()[0] == [1, 2, 3, 4, 5]

    def test_minimal_hard_has_no_two_coloring(self, minimal_hard):
        assert acyclic_k_coloring(minimal_hard, 2) is None
        assert not oracle_two_colorable(minimal_hard)

    def test_monotone_in_k(self, rng):
        for _ in range(20):
            d = random_oriented_graph(6, rng)
            for k in range(1, 4):
                if acyclic_k_coloring(d, k) is not None:
                    assert acyclic_k_coloring(d, k + 1) is not None

    def test_budget_is_explicit(self, minimal_hard):
        with pytest.raises(BudgetExceeded):
            acyclic_k_coloring(minimal_hard, 2, budget=3)

    def test_every_returned_coloring_verifies(self, rng):
        for _ in range(30):
            d = random_oriented_graph(7, rng)
            coloring = acyclic_k_coloring(d, 2)
            if coloring is not None:
                assert verify_coloring(d, coloring)

    def test_class_test_matches_induced_acyclicity(self, rng):
        checked = 0
        for _ in range(40):
            d = random_oriented_graph(rng.choice((7, 8)), rng)
            for _ in range(10):
                members = rng.sample(d.vertices, rng.randrange(0, d.n))
                if not d.induced(members).is_acyclic():
                    continue
                mask = sum(1 << u for u in members)
                for v in d.vertices:
                    if v in members:
                        continue
                    expected = d.induced(members + [v]).is_acyclic()
                    assert _class_stays_acyclic(d, mask, v) == expected
                    checked += 1
        assert checked > 1000


def coloring_outcome(solver, d, k, budget):
    """The colouring, None, or the BudgetExceeded message and payload."""
    try:
        return solver(d, k, budget=budget)
    except BudgetExceeded as exc:
        return str(exc), exc.info


def nodes_used(solver, d, k):
    """The search's node count: the least budget it finishes within."""
    hi = 1
    while isinstance(coloring_outcome(solver, d, k, hi), tuple):
        hi *= 2
    lo = hi // 2  # 0, or a budget the search ran out of
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if isinstance(coloring_outcome(solver, d, k, mid), tuple):
            lo = mid
        else:
            hi = mid
    return hi


@functools.cache
def seeded_inputs():
    """Seeded tournaments up to n = 20 and oriented graphs (mostly not
    tournaments, so the reachability test runs) up to n = 12, each with a k
    at and around its chromatic number."""
    rng = random.Random(80)
    out = []
    for i in range(120):
        if i % 2:
            d = random_tournament(rng.randint(1, 20), rng)
        else:
            d = random_oriented_graph(rng.randint(1, 12), rng)
        chi = oracle_chromatic(d) if d.n <= 8 else chromatic_number(d)
        out.extend((d, k) for k in sorted({max(1, chi - 1), chi, chi + 1, i % 4 + 1}))
    return tuple(out)


class TestIterativeSearch:
    def test_matches_recursive_oracle(self):
        for n in range(1, 7):
            for t in enumerate_tournaments(n):
                for k in (1, 2, 3):
                    assert acyclic_k_coloring(t, k) == oracle_acyclic_k_coloring(t, k)
        found = refuted = 0
        for d, k in seeded_inputs():
            got = acyclic_k_coloring(d, k)
            assert got == oracle_acyclic_k_coloring(d, k)
            found += got is not None
            refuted += got is None
        assert min(found, refuted) >= 80

    def test_node_counts_stay_within_the_oracle(self):
        fewer = 0
        for d, k in seeded_inputs():
            nodes = nodes_used(acyclic_k_coloring, d, k)
            # the oracle runs out of nodes - 1, so it needs at least as many
            assert isinstance(
                coloring_outcome(oracle_acyclic_k_coloring, d, k, nodes - 1), tuple
            )
            fewer += isinstance(
                coloring_outcome(oracle_acyclic_k_coloring, d, k, nodes), tuple
            )
        assert fewer >= 100

    def test_budget_is_the_node_count(self):
        for d, k in seeded_inputs():
            nodes = nodes_used(acyclic_k_coloring, d, k)
            assert acyclic_k_coloring(d, k, budget=nodes) == acyclic_k_coloring(d, k)
            if nodes > 1:
                with pytest.raises(BudgetExceeded) as exc:
                    acyclic_k_coloring(d, k, budget=nodes - 1)
                assert exc.value.info == {"nodes": nodes}


class TestNaeSolver:
    def test_cyclic_triangle(self):
        coloring = nae_two_coloring(cyclic_triangle())
        assert coloring is not None
        assert verify_coloring(cyclic_triangle(), coloring)

    def test_gadget_endpoints_shared(self):
        from tourkit.hardness import gadget

        g = gadget()
        coloring = nae_two_coloring(g.tournament)
        assert coloring is not None
        assert coloring.color(g.vertex("u")) == coloring.color(g.vertex("v"))

    def test_rejects_non_tournament(self):
        with pytest.raises(ValueError):
            nae_two_coloring(c3_pattern().induced([1, 2]))  # not a Tournament

    def test_agreement_with_backtracking_small(self):
        for n in range(1, 6):
            for t in enumerate_tournaments(n):
                nae = nae_two_coloring(t) is not None
                direct = acyclic_k_coloring(t, 2) is not None
                assert nae == direct

    def test_agreement_with_backtracking_sampled_six(self, rng):
        for _ in range(300):
            t = random_tournament(6, rng)
            assert (nae_two_coloring(t) is not None) == (
                acyclic_k_coloring(t, 2) is not None
            )

    def test_cyclic_triples_enumeration(self, rng):
        # the clause list that the NAE tests hand to solve_nae
        t = random_tournament(7, rng)
        triples = oracle_cyclic_triangles(t)
        seen = set()
        for a, b, c in triples:
            assert a < b and a < c
            assert t.has_edge(a, b) and t.has_edge(b, c) and t.has_edge(c, a)
            seen.add(frozenset((a, b, c)))
        # cross-check by full triple scan
        expected = 0
        for x in t.vertices:
            for y in t.vertices:
                for z in t.vertices:
                    if x < y and x < z and y != z:
                        if t.has_edge(x, y) and t.has_edge(y, z) and t.has_edge(z, x):
                            expected += 1
        assert len(triples) == expected


class TestChromatic:
    def test_transitive_is_one(self):
        assert chromatic_number(transitive_tournament(6)) == 1

    def test_cyclic_triangle_is_two(self):
        assert chromatic_number(cyclic_triangle()) == 2

    def test_against_exhaustive_assignments(self, rng):
        for _ in range(5):
            t = random_tournament(8, rng)
            assert chromatic_number(t) == oracle_chromatic(t)

    def test_minimal_hard_is_three(self, minimal_hard):
        assert chromatic_number(minimal_hard) == 3


class TestClassifier:
    def test_c3_easy(self):
        assert classify(c3_pattern()) == "easy"

    def test_transitive_easy(self):
        assert classify(transitive_tournament(5)) == "easy"

    def test_minimal_hard_is_hard(self, minimal_hard):
        assert classify(minimal_hard) == "hard"
        assert not oracle_two_colorable(minimal_hard)

    def test_label_invariance(self, rng):
        for _ in range(20):
            d = random_oriented_graph(5, rng)
            verdict = classify(d)
            perm = list(d.vertices)
            rng.shuffle(perm)
            assert classify(d.relabel(perm)) == verdict

    def test_matches_brute_force_sampled(self, rng):
        for _ in range(40):
            d = random_oriented_graph(5, rng)
            assert (classify(d) == "easy") == brute_force_k_colorable(d, 2)


class TestDiscovery:
    def test_discovered_tournament_is_minimal(self, minimal_hard):
        # non-2-colorable by the exhaustive oracle
        assert not oracle_two_colorable(minimal_hard)
        # every tournament on one fewer vertex is 2-colorable
        smaller = minimal_hard.n - 1
        for t in enumerate_tournaments(smaller):
            assert acyclic_k_coloring(t, 2) is not None
