"""Backedge graphs, monotone homomorphisms, ordered cores, the maximal
core and its odd cycle."""

import itertools
import random
from math import comb

import pytest

from tourkit.coloring import acyclic_k_coloring, chromatic_number
from tourkit.digraphs import (
    OrientedGraph,
    c3_pattern,
    random_tournament,
    transitive_tournament,
)
from tourkit.orderedhom import (
    CoreFamily,
    LabeledGraph,
    OphMap,
    _interval_runs,
    _maximal_indices,
    backedge_graph,
    core_family,
    enumerate_ophs,
    find_oph,
    is_ordered_core,
    odd_cycle_certificate,
    order_isomorphic,
    ordered_core,
    select_k,
)

from conftest import (
    oracle_canonical_key,
    oracle_core_family,
    oracle_graph_chromatic,
    oracle_interval_chromatic,
    oracle_maximal_indices,
    oracle_monotone_homs,
    oracle_ordered_core,
    random_labeled_graph,
    random_oriented_graph,
)


def path_13_23():
    return LabeledGraph([1, 2, 3], [(1, 3), (2, 3)])


def path_12_23():
    return LabeledGraph([1, 2, 3], [(1, 2), (2, 3)])


def first_hard_draw(n: int, seed: int):
    """The first non-2-colourable tournament drawn from
    ``random_tournament(n, random.Random(seed))``."""
    rng = random.Random(seed)
    while True:
        t = random_tournament(n, rng)
        if acyclic_k_coloring(t, 2) is None:
            return t


def distinct_backedge_graphs(h):
    graphs = {}
    for labeling in itertools.permutations(range(1, h.n + 1)):
        g = backedge_graph(h, labeling)
        graphs.setdefault(g.edges, g)
    return list(graphs.values())


def six_vertex_patterns():
    rng = random.Random(6)
    return [
        random_oriented_graph(6, rng),
        random_oriented_graph(6, rng),
        random_tournament(6, rng),
    ]


class TestBackedgeGraph:
    def test_c3_natural_labeling(self):
        g = backedge_graph(c3_pattern(), (1, 2, 3))
        assert g.edges == frozenset({(1, 3)})

    def test_transitive_topological_labeling_is_empty(self):
        g = backedge_graph(transitive_tournament(5), (1, 2, 3, 4, 5))
        assert not g.edges

    def test_all_labelings_match_definition(self, rng):
        h = random_oriented_graph(4, rng)
        for labeling in itertools.permutations(range(1, 5)):
            g = backedge_graph(h, labeling)
            expected = set()
            for (u, v) in h.edges:
                a, b = labeling[u - 1], labeling[v - 1]
                if a > b:
                    expected.add((b, a))
            assert g.edges == frozenset(expected)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            backedge_graph(c3_pattern(), (1, 1, 2))


class TestFindOph:
    def test_identity(self):
        g = path_12_23()
        m = find_oph(g, g)
        assert m is not None and m.is_valid(g, g)

    def test_collapsing_map(self):
        m = find_oph(path_13_23(), LabeledGraph([2, 3], [(2, 3)]))
        assert m is not None
        assert m.as_dict() == {1: 2, 2: 2, 3: 3}

    def test_no_map_to_shifted_edge(self):
        assert find_oph(path_12_23(), LabeledGraph([1, 2], [(1, 2)])) is None

    def test_against_exhaustive_enumeration(self, rng):
        # the oracle lists image tuples lexicographically, which is the
        # search order, so the two lists must agree element by element
        empty = LabeledGraph([], [])
        pairs = [(empty, empty), (empty, path_12_23()), (path_12_23(), empty)]
        for _ in range(40):
            pairs.append((
                random_labeled_graph(range(1, 5), 0.5, rng),
                random_labeled_graph(range(1, 5), 0.5, rng),
            ))
        for _ in range(60):
            pairs.append((
                random_labeled_graph(
                    sorted(rng.sample(range(1, 13), rng.randrange(0, 6))),
                    rng.random(),
                    rng,
                ),
                random_labeled_graph(
                    sorted(rng.sample(range(1, 13), rng.randrange(0, 7))),
                    rng.random(),
                    rng,
                ),
            ))
        for g, target in pairs:
            oracle = oracle_monotone_homs(g, target)
            found = find_oph(g, target)
            assert (found is not None) == bool(oracle)
            if found is not None:
                assert found.as_dict() == oracle[0]
            ours = [m.as_dict() for m in enumerate_ophs(g, target)]
            assert ours == oracle

    def test_composition_closure(self, rng):
        for _ in range(40):
            a = random_labeled_graph(range(1, 5), 0.4, rng)
            b = random_labeled_graph(range(1, 6), 0.6, rng)
            c = random_labeled_graph(range(1, 6), 0.7, rng)
            f = find_oph(a, b)
            g = find_oph(b, c)
            if f is None or g is None:
                continue
            outer = g.as_dict()
            composed = OphMap(tuple((s, outer[t]) for s, t in f.mapping))
            assert composed.is_valid(a, c)


class TestOrderedCore:
    def test_single_edge_is_its_own_core(self):
        e = LabeledGraph([1, 2], [(1, 2)])
        assert ordered_core(e) == e

    def test_path_13_23_core(self):
        # two minimum targets exist ({1,3} and {2,3}); the lexicographically
        # least label set wins
        core = ordered_core(path_13_23())
        assert core == LabeledGraph([1, 3], [(1, 3)])

    def test_path_12_23_is_core(self):
        assert ordered_core(path_12_23()) == path_12_23()
        assert is_ordered_core(path_12_23())

    def test_core_matches_subset_oracle(self, rng):
        for _ in range(25):
            g = random_labeled_graph(range(1, 6), 0.45, rng)
            core = ordered_core(g)
            # oracle: smallest-lex minimal subset with a monotone hom
            expected = None
            for size in range(1, g.n + 1):
                for subset in itertools.combinations(g.vertices, size):
                    target = g.induced(subset)
                    if oracle_monotone_homs(g, target):
                        expected = target
                        break
                if expected is not None:
                    break
            assert core == expected

    def test_idempotence_exhaustive_small(self):
        for n in range(1, 5):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            for code in range(1 << len(pairs)):
                g = LabeledGraph(
                    range(1, n + 1),
                    (pairs[i] for i in range(len(pairs)) if (code >> i) & 1),
                )
                core = ordered_core(g)
                assert order_isomorphic(ordered_core(core), core)

    def test_idempotence_sampled(self, rng):
        for _ in range(60):
            g = random_labeled_graph(range(1, 7), 0.5, rng)
            core = ordered_core(g)
            assert order_isomorphic(ordered_core(core), core)
            assert is_ordered_core(core)

    def test_cores_have_no_isolated_vertices(self, rng):
        for _ in range(40):
            g = random_labeled_graph(range(1, 7), 0.4, rng)
            core = ordered_core(g)
            if core.n > 1:
                assert all(
                    any(core.has_edge(v, w) for w in core.vertices)
                    for v in core.vertices
                )


class TestRetractionCoreAgainstOracle:
    """The retraction search from the interval chromatic number against
    the subset-order search over every OPH."""

    def test_every_minimal_hard_backedge_graph(self, minimal_hard):
        graphs = distinct_backedge_graphs(minimal_hard)
        assert len(graphs) == 560
        for g in graphs:
            assert ordered_core(g) == oracle_ordered_core(g)

    def test_sampled_eight_vertex_backedge_graphs(self):
        h = first_hard_draw(8, 5)
        rng = random.Random(8)
        for _ in range(200):
            g = backedge_graph(h, rng.sample(range(1, 9), 8))
            assert ordered_core(g) == oracle_ordered_core(g)

    def test_against_oracle_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def graphs(draw):
            labels = sorted(draw(st.sets(st.integers(1, 12), max_size=7)))
            pairs = list(itertools.combinations(labels, 2))
            chosen = draw(
                st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
            )
            return LabeledGraph(labels, [p for p, c in zip(pairs, chosen) if c])

        @hypothesis.settings(
            max_examples=300, deadline=None, derandomize=True, database=None
        )
        @hypothesis.given(graphs())
        def check(g):
            assert ordered_core(g) == oracle_ordered_core(g)

        check()

    def test_interval_chromatic(self, rng):
        for _ in range(150):
            labels = sorted(rng.sample(range(1, 12), rng.randrange(0, 8)))
            g = random_labeled_graph(labels, rng.random(), rng)
            assert _interval_runs(g._adj, g.vertices) == oracle_interval_chromatic(g)


class TestCanonicalKeyAgainstOracle:
    def test_seeded_graphs_on_sparse_labels(self, rng):
        graphs = [LabeledGraph([], []), LabeledGraph([3, 8, 20], [])]
        for _ in range(100):
            labels = rng.sample(range(1, 60), rng.randrange(0, 10))
            graphs.append(random_labeled_graph(sorted(labels), rng.random(), rng))
        for g in graphs:
            assert g.canonical_key() == oracle_canonical_key(g)

    def test_minimal_hard_family_members(self, hard_family):
        for member in hard_family.members:
            assert member.canonical_key() == oracle_canonical_key(member)


class TestFamilyAgainstOracle:
    def test_minimal_hard_family(self, minimal_hard, hard_family):
        members, witnesses = oracle_core_family(minimal_hard)
        assert hard_family.members == members
        assert hard_family.witnesses == witnesses

    @pytest.mark.parametrize("index", range(3))
    def test_six_vertex_families(self, index):
        h = six_vertex_patterns()[index]
        family = core_family(h)
        members, witnesses = oracle_core_family(h)
        assert family.members == members
        assert family.witnesses == witnesses
        assert _maximal_indices(family) == oracle_maximal_indices(members)

    def test_sweep_on_minimal_hard_family(self, hard_family):
        assert _maximal_indices(hard_family) == oracle_maximal_indices(
            hard_family.members
        )

    def test_sweep_on_sampled_eight_vertex_cores(self):
        # a sub-family of cores from the eight-vertex pattern, in the order
        # the sampled labelings meet them
        h = first_hard_draw(8, 5)
        rng = random.Random(80)
        members, keys = [], set()
        while len(members) < 150:
            labeling = tuple(rng.sample(range(1, 9), 8))
            core = ordered_core(backedge_graph(h, labeling))
            if core.canonical_key() not in keys:
                keys.add(core.canonical_key())
                members.append(core)
        family = CoreFamily(tuple(members), ((),) * len(members))
        assert _maximal_indices(family) == oracle_maximal_indices(members)


class TestMaskFamilyAgainstOracle:
    """``core_family`` finds each backedge graph's core on neighbour masks
    built from the labeling; the oracle builds every backedge graph and
    core as a ``LabeledGraph``. The patterns are not tournaments, so their
    non-edges, and isolated vertices, must survive in the masks."""

    @pytest.mark.parametrize("n", range(3, 7))
    def test_seeded_oriented_patterns(self, n):
        rng = random.Random(60 + n)
        patterns = []
        while len(patterns) < (4 if n < 6 else 2):
            h = random_oriented_graph(n, rng)
            if len(h.edges) < comb(n, 2):
                patterns.append(h)
        for h in patterns:
            family = core_family(h)
            assert (family.members, family.witnesses) == oracle_core_family(h)

    @pytest.mark.parametrize(
        "h",
        [
            OrientedGraph(4, []),
            # vertex 3, between the others in label order, has no edge
            OrientedGraph(5, [(1, 2), (2, 4), (4, 1), (5, 2)]),
            OrientedGraph(6, [(2, 1), (1, 4), (4, 5), (5, 2), (6, 4)]),
        ],
    )
    def test_edgeless_and_isolated_vertex_patterns(self, h):
        family = core_family(h)
        assert (family.members, family.witnesses) == oracle_core_family(h)


class TestCoreFamily:
    def test_transitive_family_contains_edgeless(self):
        family = core_family(transitive_tournament(4))
        assert any(not member.edges for member in family.members)

    def test_c3_members_are_cores(self):
        family = core_family(c3_pattern())
        for member in family.members:
            assert is_ordered_core(member)

    def test_witnesses_reproduce_members(self, rng):
        h = random_oriented_graph(4, rng)
        family = core_family(h)
        for member, witness in zip(family.members, family.witnesses):
            regenerated = ordered_core(backedge_graph(h, witness))
            assert order_isomorphic(regenerated, member)

    def test_antisymmetry(self, rng):
        for h in (c3_pattern(), random_oriented_graph(4, rng)):
            family = core_family(h)
            for i, a in enumerate(family.members):
                for j, b in enumerate(family.members):
                    if i < j:
                        both = (
                            find_oph(a, b) is not None
                            and find_oph(b, a) is not None
                        )
                        assert not both or order_isomorphic(a, b)


class TestSelectK:
    def test_acyclic_pattern_gives_edgeless_kernel(self):
        k = select_k(core_family(transitive_tournament(4)))
        assert not k.edges

    def test_c3_kernel_is_maximal(self):
        family = core_family(c3_pattern())
        k = select_k(family)
        for member in family.members:
            if not order_isomorphic(member, k):
                assert find_oph(member, k) is None

    def test_hard_pattern_kernel_has_odd_cycle(self, minimal_hard, hard_family):
        k = select_k(hard_family)
        assert oracle_graph_chromatic(k) > 2
        cycle = odd_cycle_certificate(k)
        assert len(cycle) % 2 == 1 and len(cycle) >= 3
        for i, v in enumerate(cycle):
            assert k.has_edge(v, cycle[(i + 1) % len(cycle)])


class TestRigidity:
    def test_ophs_between_isomorphic_cores_are_bijective(self, rng):
        # order-isomorphic copies of a core admit only bijective monotone homs
        count = 0
        for _ in range(60):
            g = random_labeled_graph(range(1, 6), 0.5, rng)
            core = ordered_core(g)
            if core.n < 2:
                continue
            shift = LabeledGraph(
                [v + 3 for v in core.vertices],
                [(a + 3, b + 3) for a, b in core.edges],
            )
            for oph in enumerate_ophs(core, shift):
                count += 1
                assert len({img for _, img in oph.mapping}) == core.n
        assert count > 0


class TestBackedgeChromatic:
    def test_identity_small(self, rng):
        # digraph chromatic number equals the labeling-minimized graph
        # chromatic number of the backedge graph
        for _ in range(25):
            h = random_oriented_graph(4, rng)
            direct = chromatic_number(h)
            best = min(
                oracle_graph_chromatic(backedge_graph(h, labeling))
                for labeling in itertools.permutations(range(1, 5))
            )
            best = max(best, 1)
            assert best == direct


class TestCoreProjection:
    def test_projection_restricts_to_isomorphism(self, minimal_hard, hard_family):
        # few labelings project onto the kernel at all, so sweep them all
        k = select_k(hard_family)
        checked = 0
        for labeling in itertools.permutations(range(1, minimal_hard.n + 1)):
            g = backedge_graph(minimal_hard, labeling)
            f = find_oph(g, k)
            if f is None:
                continue
            checked += 1
            # f restricted to g's own core is an isomorphism onto k
            core = ordered_core(g)
            d = f.as_dict()
            assert sorted(d[v] for v in core.vertices) == list(k.vertices)
            images = {(min(d[a], d[b]), max(d[a], d[b])) for a, b in core.edges}
            assert images == set(k.edges)
        assert checked > 0


class TestOddCycle:
    def test_triangle(self):
        k3 = LabeledGraph([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
        assert sorted(odd_cycle_certificate(k3)) == [1, 2, 3]

    def test_five_cycle(self):
        c5 = LabeledGraph(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        cycle = odd_cycle_certificate(c5)
        assert len(cycle) == 5

    def test_bipartite_rejected(self):
        square = LabeledGraph(range(1, 5), [(1, 2), (2, 3), (3, 4), (1, 4)])
        with pytest.raises(ValueError):
            odd_cycle_certificate(square)

    @pytest.mark.parametrize("cycle", [[1, 2], [1, 2, 4]])
    def test_broken_certificate_is_an_audit_failure(self, monkeypatch, cycle):
        from tourkit import orderedhom
        from tourkit.errors import AuditError

        monkeypatch.setattr(
            orderedhom, "_bipartition_or_odd_cycle", lambda g: (None, cycle)
        )
        c5 = LabeledGraph(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        with pytest.raises(AuditError):
            odd_cycle_certificate(c5)
