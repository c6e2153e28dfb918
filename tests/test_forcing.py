"""Tuple collections, the k-partite construction, certification, and
exhaustive forcing."""

import itertools
from fractions import Fraction

import pytest

from tourkit.digraphs import (
    OrientedGraph,
    Tournament,
    c3_pattern,
    count_embeddings,
    transitive_tournament,
)
from tourkit.errors import BudgetExceeded
from tourkit.orderedhom import LabeledGraph
from tourkit.forcing import (
    KPartiteTournament,
    _greedy_box_collection,
    build_forcing,
    certify_completion,
    disjoint_tuples,
    forces_exhaustive,
    forcing_parameters,
    search_min_forcing,
)

from conftest import oracle_count_injections, oracle_greedy_box_collection


def four_cycle_forcing() -> KPartiteTournament:
    # parts {1,2} and {3,4}; cross edges form the directed cycle
    # 1 -> 3 -> 2 -> 4 -> 1
    return KPartiteTournament(2, 2, [(1, 3), (3, 2), (2, 4), (4, 1)])


class TestParameters:
    def test_gamma_closed_form(self):
        p = forcing_parameters(3)
        assert p.gamma == Fraction(1, 2**9 * 8 * 81)
        assert forcing_parameters(5).gamma == Fraction(1, 2**25 * 8 * 625)

    def test_rejects_tiny_patterns(self):
        with pytest.raises(ValueError):
            forcing_parameters(1)


class TestDisjointTuples:
    def test_two_by_two_keeps_everything(self):
        coll = disjoint_tuples(2, 2)
        assert len(coll.tuples) == 4
        assert coll.verify()

    def test_stated_examples(self):
        coll = disjoint_tuples(4, 3)
        assert coll.verify()
        assert len(coll.tuples) >= 2  # ceil(16/9)
        coll = disjoint_tuples(8, 4)
        assert coll.verify()
        assert len(coll.tuples) >= 4

    def test_size_bound_over_grid(self):
        for k in range(2, 6):
            for t in range(1, 13):
                coll = disjoint_tuples(t, k)
                assert len(coll.tuples) * k * k >= t * t
                assert coll.verify()

    def test_k_one_rejected(self):
        with pytest.raises(ValueError):
            disjoint_tuples(5, 1)

    def test_greedy_matches_naive_oracle(self, rng):
        for k in range(2, 5):
            for t in range(1, 8):
                expect = oracle_greedy_box_collection([t] * k)
                assert list(disjoint_tuples(t, k).tuples) == expect
        # unequal ranges, as certify_completion passes them
        for _ in range(60):
            ranges = [rng.randint(0, 6) for _ in range(rng.randint(2, 4))]
            assert _greedy_box_collection(ranges) == oracle_greedy_box_collection(ranges)

    def test_greedy_matches_oracle_on_one_slot_boxes_and_the_full_grid(self):
        for r in range(8):
            assert _greedy_box_collection([r]) == oracle_greedy_box_collection([r])
        for k in range(2, 6):
            for t in range(2, 13):
                expect = oracle_greedy_box_collection([t] * k)
                assert list(disjoint_tuples(t, k).tuples) == expect, (t, k)

    def test_pairwise_property_is_verified_property(self):
        coll = disjoint_tuples(6, 3)
        for a, b in itertools.combinations(coll.tuples, 2):
            assert sum(x == y for x, y in zip(a, b)) <= 1


class TestBuildForcing:
    def test_deterministic_replay(self):
        h = c3_pattern()
        classes = [[1, 2], [3]]
        d = OrientedGraph(2, [])
        f1 = build_forcing(h, classes, d, 4, seed=99)
        f2 = build_forcing(h, classes, d, 4, seed=99)
        assert list(f1.cross_edges()) == list(f2.cross_edges())

    def test_seeds_differ(self):
        h = c3_pattern()
        classes = [[1, 2], [3]]
        d = OrientedGraph(2, [])
        base = set(build_forcing(h, classes, d, 4, seed=0).cross_edges())
        differing = sum(
            1
            for seed in range(1, 101)
            if set(build_forcing(h, classes, d, 4, seed=seed).cross_edges()) != base
        )
        assert differing >= 95  # 16 coins per pair; collisions are rare

    def test_d_edges_are_deterministic_full_pairs(self):
        h = OrientedGraph(2, [(1, 2)])
        d = OrientedGraph(2, [(1, 2)])
        f = build_forcing(h, [[1], [2]], d, 3, seed=5)
        assert all(
            f.has_edge(u, v) for u in f.part_vertices(1) for v in f.part_vertices(2)
        )

    def test_invalid_coloring_rejected(self):
        h = c3_pattern()
        with pytest.raises(ValueError):
            build_forcing(h, [[1, 2, 3], []], OrientedGraph(2, []), 3, seed=0)
        with pytest.raises(ValueError):
            # C3 has 3 -> 1, violating class {1,2} -> class {3}
            build_forcing(h, [[1, 2], [3]], OrientedGraph(2, [(1, 2)]), 3, seed=0)

    def test_violating_pair_is_named(self):
        h = c3_pattern()
        with pytest.raises(ValueError, match=r"3 -> 1"):
            build_forcing(h, [[1, 2], [3]], OrientedGraph(2, [(1, 2)]), 3, seed=0)


class TestCertifyCompletion:
    def test_every_completion_of_the_four_cycle(self):
        f = four_cycle_forcing()
        h = c3_pattern()
        classes = [[1, 2], [3]]
        for completion in f.completions():
            cert = certify_completion(f, completion, h, classes)
            assert cert.count >= 1
            for emb in cert.embeddings:
                assert emb.is_valid(completion, h)

    def test_cross_disjointness_is_checked(self):
        f = four_cycle_forcing()
        h = c3_pattern()
        for completion in f.completions():
            cert = certify_completion(f, completion, h, [[1, 2], [3]])
            pairs = set()
            for emb in cert.embeddings:
                for (u, v) in h.edges:
                    a, b = emb.apply(u), emb.apply(v)
                    if f.part_of(a) != f.part_of(b):
                        key = (min(a, b), max(a, b))
                        assert key not in pairs
                        pairs.add(key)

    def test_deterministic_cross_edges_always_certify(self):
        h = OrientedGraph(2, [(1, 2)])
        d = OrientedGraph(2, [(1, 2)])
        f = build_forcing(h, [[1], [2]], d, 3, seed=1)
        for completion in f.completions():
            cert = certify_completion(f, completion, h, [[1], [2]])
            assert cert.count >= 1

    def test_gamma_target_is_reported(self):
        f = four_cycle_forcing()
        completion = next(f.completions())
        cert = certify_completion(f, completion, c3_pattern(), [[1, 2], [3]])
        assert cert.gamma == forcing_parameters(3).gamma
        assert cert.target == cert.gamma * 4

    def test_rejects_non_completion(self):
        f = four_cycle_forcing()
        other = transitive_tournament(4)
        with pytest.raises(ValueError):
            certify_completion(f, other, c3_pattern(), [[1, 2], [3]])


def oracle_forces(f: KPartiteTournament, h) -> bool:
    """Independent completion enumeration via explicit tournaments."""
    return all(oracle_count_injections(comp, h) > 0 for comp in f.completions())


class TestForcesExhaustive:
    def test_four_cycle_forces_c3(self):
        assert forces_exhaustive(four_cycle_forcing(), c3_pattern())

    def test_one_directional_fails(self):
        f = KPartiteTournament(2, 2, [(1, 3), (1, 4), (2, 3), (2, 4)])
        assert not forces_exhaustive(f, c3_pattern())

    def test_matches_independent_oracle(self, rng):
        h = c3_pattern()
        for _ in range(20):
            edges = []
            for a in (1, 2):
                for b in (3, 4):
                    edges.append((a, b) if rng.getrandbits(1) else (b, a))
            f = KPartiteTournament(2, 2, edges)
            assert forces_exhaustive(f, h) == oracle_forces(f, h)

    def test_budget_refusal(self):
        edge = OrientedGraph(2, [(1, 2)])
        f = build_forcing(edge, [[1], [2]], edge, 6, seed=0)
        with pytest.raises(BudgetExceeded):
            forces_exhaustive(f, edge, max_inner_pairs=10)


class TestSearchMinForcing:
    def test_c3_needs_parts_of_two(self):
        found = search_min_forcing(c3_pattern(), 3)
        assert found is not None and found.m == 2
        assert forces_exhaustive(found, c3_pattern())
        # its cross edges contain a directed cycle, so no completion is
        # transitive
        assert any(
            not comp.is_acyclic() for comp in found.completions()
        )
        assert all(not comp.is_acyclic() for comp in found.completions())

    def test_single_edge_needs_parts_of_one(self):
        found = search_min_forcing(OrientedGraph(2, [(1, 2)]), 2)
        assert found is not None and found.m == 1

    def test_transitive_triangle(self):
        pattern = transitive_tournament(3)
        found = search_min_forcing(pattern, 3)
        assert found is not None
        assert forces_exhaustive(found, pattern)
        # parts of one cannot host three vertices
        assert found.m == 2

    def test_non_two_colorable_rejected(self, minimal_hard):
        with pytest.raises(ValueError):
            search_min_forcing(minimal_hard, 2)


class TestKPartiteType:
    def test_inner_pairs_carry_no_edge(self):
        f = four_cycle_forcing()
        assert not f.has_edge(1, 2) and not f.has_edge(2, 1)
        assert len(f.inner_pairs()) == 2

    def test_rejects_incomplete_cross(self):
        with pytest.raises(ValueError):
            KPartiteTournament(2, 2, [(1, 3)])

    def test_rejects_inner_edge(self):
        with pytest.raises(ValueError):
            KPartiteTournament(2, 2, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])

    def test_completion_agreement(self):
        f = four_cycle_forcing()
        for comp in f.completions():
            assert f.agrees_with(comp)


class TestKPartiteIsAnOrientedGraph:
    """A k-partite tournament is an ``OrientedGraph``: equality, hashing,
    edges and relabelling are the ones of any oriented graph."""

    @staticmethod
    def three_parts():
        h, d = c3_pattern(), OrientedGraph(3, [])
        return build_forcing(h, [[1], [2], [3]], d, 3, seed=7)

    def test_equal_to_the_oriented_graph_of_its_cross_edges(self):
        f = self.three_parts()
        g = OrientedGraph(f.n, f.cross_edges())
        assert f == g and g == f
        assert hash(f) == hash(g)
        assert f == self.three_parts()

    def test_edges_count_as_single_edge_embeddings(self):
        f = self.three_parts()
        assert len(f.edges) == 3 * 9
        assert count_embeddings(f, OrientedGraph(2, [(1, 2)])) == len(f.edges)

    def test_relabel_gives_a_plain_oriented_graph(self):
        f = self.three_parts()
        perm = [9, 1, 5, 2, 8, 3, 7, 4, 6]
        g = f.relabel(perm)
        assert type(g) is OrientedGraph
        assert g.edges == {(perm[u - 1], perm[v - 1]) for u, v in f.cross_edges()}

    @pytest.mark.parametrize(
        "edges",
        [
            [(1, 3), (1, 3), (1, 4), (2, 3), (2, 4)],  # a pair given twice
            [(1, 3), (3, 1), (1, 4), (2, 3), (2, 4)],  # both directions
            [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)],  # an inner pair
            [(1, 3), (1, 5), (2, 3), (2, 4)],  # a vertex outside 1..n
            [(1, 3), (1, 4), (2, 3)],  # a missing pair
        ],
    )
    def test_malformed_cross_edges_raise_value_error(self, edges):
        with pytest.raises(ValueError):
            KPartiteTournament(2, 2, edges)


# every graph type checks its pairs in one pass, in list order; on 1..4,
# and for the k-partite one in the parts 1-2 and 3-4
BUILDERS = {
    "oriented": lambda pairs: OrientedGraph(4, pairs),
    "tournament": lambda pairs: Tournament(4, pairs),
    "kpartite": lambda pairs: KPartiteTournament(2, 2, pairs),
    "labeled": lambda pairs: LabeledGraph(range(1, 5), pairs),
}


class TestConstructorPairs:
    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_a_repeated_pair_is_rejected(self, kind):
        with pytest.raises(ValueError, match=r"\(1,3\) given twice"):
            BUILDERS[kind]([(1, 3), (2, 4), (1, 3)])

    def test_a_reversed_pair_repeats_an_undirected_edge(self):
        with pytest.raises(ValueError, match=r"edge \(3,1\) given twice"):
            LabeledGraph(range(1, 5), [(1, 3), (3, 1)])
        with pytest.raises(ValueError, match="both directions present"):
            OrientedGraph(4, [(1, 3), (3, 1)])

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_the_first_bad_pair_in_list_order_is_named(self, kind):
        # a loop, a vertex outside 1..4 and a repeat of (1,3), in every order
        named = {
            (2, 2): r"self-loop at (vertex )?2$",
            (1, 9): r"\(1,9\) uses",
            (1, 3): r"\(1,3\) given twice",
        }
        for bad in itertools.permutations(named):
            with pytest.raises(ValueError, match=named[bad[0]]):
                BUILDERS[kind]([(1, 3), (2, 4), *bad])

    def test_a_good_pair_list_builds_the_same_graph_in_any_order(self):
        pairs = [(1, 3), (4, 1), (2, 3), (2, 4)]
        for kind in ("oriented", "labeled"):
            build = BUILDERS[kind]
            graphs = {build(order) for order in itertools.permutations(pairs)}
            assert len(graphs) == 1, kind
            assert list(graphs.pop().edges) == list(build(sorted(pairs)).edges)
