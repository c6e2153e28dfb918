"""Kernel operations: densities, embeddings, reversal distance,
transitive extraction."""

import itertools
import random
from fractions import Fraction

import pytest

from tourkit.digraphs import (
    DistanceResult,
    Embedding,
    OrientedGraph,
    Tournament,
    c3_pattern,
    count_automorphisms,
    count_embeddings,
    cyclic_triangle,
    density,
    distance_to_h_free,
    embedding_stats,
    enumerate_embeddings,
    enumerate_tournaments,
    find_embedding,
    random_tournament,
    tournament_from_bits,
    transitive_subtournament,
    transitive_tournament,
)
from tourkit import digraphs
from tourkit.digraphs import _packing, _plan, _search, _tables
from tourkit.errors import AuditError

from conftest import (
    oracle_count_injections,
    oracle_distance_bnb,
    oracle_greedy_disjoint_copies,
    oracle_injections,
    oracle_search,
    random_oriented_graph,
)


class TestDensity:
    def test_fully_oriented_pair(self):
        t = transitive_tournament(6)
        stats = density(t, [1, 2, 3], [4, 5, 6])
        assert stats.density == 1
        assert stats.dominant_xy
        assert stats.e_yx == 0

    def test_single_edge(self):
        t = cyclic_triangle()
        assert density(t, [1], [2]).density == 1
        assert density(t, [2], [1]).density == 0

    def test_matches_per_pair_enumeration(self, rng):
        t = random_tournament(10, rng)
        xs, ys = [1, 4, 7], [2, 5, 9]
        stats = density(t, xs, ys)
        expected = sum(1 for x in xs for y in ys if t.has_edge(x, y))
        assert stats.e_xy == expected
        assert stats.density == Fraction(expected, 9)
        assert stats.weight == Fraction(9, 100)

    def test_antisymmetry_on_random_samples(self, rng):
        t = random_tournament(12, rng)
        for _ in range(1000):
            size_x = rng.randrange(1, 6)
            size_y = rng.randrange(1, 6)
            pool = rng.sample(range(1, 13), size_x + size_y)
            xs, ys = pool[:size_x], pool[size_x:]
            assert density(t, xs, ys).density + density(t, ys, xs).density == 1

    def test_rejects_bad_arguments(self):
        t = cyclic_triangle()
        with pytest.raises(ValueError):
            density(t, [1], [1, 2])
        with pytest.raises(ValueError):
            density(t, [], [1])
        with pytest.raises(ValueError):
            density(t, [1], [9])


def _sparse_oriented_graph(n: int, p: float, rng: random.Random) -> OrientedGraph:
    """Each pair is an edge with probability p, in a random direction."""
    edges = [
        (u, v) if rng.random() < 0.5 else (v, u)
        for u, v in itertools.combinations(range(1, n + 1), 2)
        if rng.random() < p
    ]
    return OrientedGraph(n, edges)


class TestEmbeddings:
    def test_c3_in_cyclic_triangle(self):
        stats = embedding_stats(cyclic_triangle(), c3_pattern())
        assert stats.embeddings == 3
        assert stats.automorphisms == 3
        assert stats.unlabeled == 1

    def test_c3_in_transitive(self):
        assert count_embeddings(transitive_tournament(3), c3_pattern()) == 0

    def test_against_naive_enumeration(self, rng):
        for _ in range(12):
            host = random_tournament(7, rng)
            pattern = random_oriented_graph(4, rng)
            assert count_embeddings(host, pattern) == oracle_count_injections(
                host, pattern
            )

    def test_oriented_host(self, rng):
        for _ in range(8):
            host = random_oriented_graph(6, rng)
            pattern = random_oriented_graph(3, rng)
            assert count_embeddings(host, pattern) == oracle_count_injections(
                host, pattern
            )

    def test_every_pattern_size_and_plan_order(self, rng):
        # up to two vertices have closed forms; from three on, the last
        # three plan levels are counted on packed rows and the engine runs
        # the levels before them, with its mapping indexed by level, so
        # plans out of label order are checked here with every path
        seen = set()
        for _ in range(200):
            n = rng.randint(0, 7)
            if rng.random() < 0.5:
                host = random_tournament(n, rng)
            else:
                host = random_oriented_graph(n, rng)
            pattern = random_oriented_graph(rng.randint(0, 6), rng)
            assert count_embeddings(host, pattern) == oracle_count_injections(
                host, pattern
            ), (host, pattern)
            slots = _plan(pattern).slots
            seen.add(min(pattern.n, 3))
            seen.add("larger" if pattern.n > host.n else "fits")
            seen.add("label order" if list(slots) == sorted(slots) else "other order")
            if 3 <= pattern.n <= host.n:
                seen.add("no engine level" if pattern.n == 3 else "engine levels before the packed tail")
        assert seen == {
            0, 1, 2, 3, "larger", "fits", "label order", "other order",
            "no engine level", "engine levels before the packed tail",
        }

    def test_packed_tail_against_the_oracle(self, rng):
        # every pattern size 0..7 on tournaments and sparse oriented hosts
        # up to 12 vertices; the oracle enumerates all injections, so the
        # host shrinks as the pattern grows
        largest = {0: 12, 1: 12, 2: 12, 3: 12, 4: 10, 5: 9, 6: 8, 7: 8}
        seen = set()
        for k, cap in largest.items():
            for trial in range(12):
                n = rng.randint(max(0, k - 2), cap)
                if trial % 2:
                    host, hosts = random_tournament(n, rng), "tournament"
                else:
                    host, hosts = _sparse_oriented_graph(n, 0.25, rng), "sparse"
                if trial % 3 == 0:
                    pattern = OrientedGraph(k, [])
                elif trial % 3 == 1:
                    pattern = _sparse_oriented_graph(k, 0.5, rng)
                else:
                    pattern = random_tournament(k, rng)
                count = count_embeddings(host, pattern)
                assert count == oracle_count_injections(host, pattern), (host, pattern)
                slots = _plan(pattern).slots
                seen.add((k, hosts))
                seen.add("k > n" if k > n else "k <= n")
                if count and k > 1:
                    seen.add((k, "counted"))
                if any(
                    not pattern.has_edge(u, v) and not pattern.has_edge(v, u)
                    for u, v in itertools.combinations(pattern.vertices, 2)
                ):
                    seen.add("non-adjacent pair" if pattern.edges else "edgeless")
                if list(slots) != sorted(slots):
                    seen.add("other order")
        assert {(k, hosts) for k in range(8) for hosts in ("tournament", "sparse")} <= seen
        assert {(k, "counted") for k in range(2, 8)} <= seen
        assert {"k > n", "k <= n", "non-adjacent pair", "edgeless", "other order"} <= seen

    def test_pinned_count_on_a_hundred_vertices(self):
        # taken before the last three levels were counted on packed rows
        host = random_tournament(100, random.Random(0))
        assert count_embeddings(host, random_tournament(4, random.Random(1))) == 1470492

    def test_empty_pattern_embeds_once(self):
        assert count_embeddings(cyclic_triangle(), OrientedGraph(0, [])) == 1

    def test_pattern_larger_than_host(self):
        assert count_embeddings(cyclic_triangle(), transitive_tournament(4)) == 0

    def test_relabel_invariance(self, rng):
        host = random_tournament(6, rng)
        pattern = random_oriented_graph(3, rng)
        base = count_embeddings(host, pattern)
        for _ in range(10):
            perm = list(host.vertices)
            rng.shuffle(perm)
            assert count_embeddings(host.relabel(perm), pattern) == base

    def test_enumeration_matches_count(self, rng):
        host = random_tournament(6, rng)
        pattern = random_oriented_graph(3, rng)
        embeddings = list(enumerate_embeddings(host, pattern))
        assert len(embeddings) == count_embeddings(host, pattern)
        for emb in embeddings:
            assert emb.is_valid(host, pattern)

    def test_find_embedding_validity(self, rng):
        host = random_tournament(7, rng)
        emb = find_embedding(host, c3_pattern())
        if emb is not None:
            assert emb.is_valid(host, c3_pattern())
            assert count_embeddings(host, c3_pattern()) > 0

    def test_is_valid_rejects_images_outside_the_host(self):
        host, edge = cyclic_triangle(), OrientedGraph(2, [(1, 2)])
        assert Embedding((3, 1)).is_valid(host, edge)
        # out[-1] would read vertex 3's mask, and out[4] is past the end
        assert not Embedding((-1, 1)).is_valid(host, edge)
        assert not Embedding((4, 1)).is_valid(host, edge)
        assert not Embedding((0, 1)).is_valid(host, edge)

    def test_enumeration_is_the_oracle_set(self, rng):
        for k in range(5):
            for _ in range(3):
                hosts = (random_tournament(6, rng), random_oriented_graph(6, rng))
                for host in hosts:
                    pattern = random_oriented_graph(k, rng)
                    found = [e.mapping for e in enumerate_embeddings(host, pattern)]
                    assert len(found) == len(set(found))
                    assert set(found) == set(oracle_injections(host, pattern))


# Pinned outputs of the embedding search. Its order (most constrained
# pattern vertex first, host candidates by increasing label) decides
# which witness is found first and so which pairs the distance search
# reverses; a change here means that order moved.
PINNED_PATTERNS = {
    "c3": c3_pattern(),
    "tt4": transitive_tournament(4),
    "c3_tail": OrientedGraph(4, [(1, 2), (2, 3), (3, 1), (1, 4)]),
    "two_edges": OrientedGraph(4, [(1, 2), (3, 4)]),
}

PINNED_WITNESSES = {
    1: {"c3": (1, 2, 5), "tt4": (1, 2, 4, 8), "c3_tail": (1, 2, 5, 4),
        "two_edges": (1, 2, 3, 4)},
    2: {"c3": (1, 2, 5), "tt4": (1, 2, 7, 3), "c3_tail": (1, 2, 5, 3),
        "two_edges": (1, 2, 3, 4)},
    3: {"c3": (1, 2, 3), "tt4": (1, 2, 4, 8), "c3_tail": (1, 2, 3, 4),
        "two_edges": (1, 2, 3, 4)},
}

PINNED_FLIPS = {
    (1, "c3"): ((2, 3), (1, 5), (3, 6), (3, 8), (3, 9), (2, 7), (2, 8), (7, 9)),
    (1, "c3_tail"): ((2, 3), (1, 5), (3, 6), (3, 8), (3, 9), (2, 7), (2, 8), (7, 9)),
    (2, "c3"): ((3, 4), (1, 9), (4, 6), (5, 7), (4, 8), (4, 9), (2, 7), (2, 9)),
    (2, "c3_tail"): ((1, 4), (1, 9), (4, 5), (5, 7), (2, 4), (2, 7), (2, 9)),
    (3, "c3"): ((1, 3), (5, 9), (6, 9), (8, 9), (3, 7), (4, 8)),
    (3, "c3_tail"): ((1, 3), (5, 9), (6, 9), (8, 9), (3, 7), (4, 8)),
}


class TestPinnedSearchOrder:
    @pytest.mark.parametrize("seed", sorted(PINNED_WITNESSES))
    def test_find_embedding_witnesses(self, seed):
        host = random_tournament(12, random.Random(seed))
        found = {
            name: find_embedding(host, pattern).mapping
            for name, pattern in PINNED_PATTERNS.items()
        }
        assert found == PINNED_WITNESSES[seed]

    @pytest.mark.parametrize("seed, name", sorted(PINNED_FLIPS))
    def test_distance_flips(self, seed, name):
        host = random_tournament(9, random.Random(seed))
        result = distance_to_h_free(host, PINNED_PATTERNS[name])
        assert result.exact
        assert result.flips == PINNED_FLIPS[seed, name]
        assert result.distance == len(result.flips)


def oracle_distance(t: Tournament, pattern, cap: int):
    """All reversal subsets of size <= cap, smallest working size."""
    pairs = [(i, j) for i in t.vertices for j in t.vertices if i < j]
    for size in range(cap + 1):
        for subset in itertools.combinations(pairs, size):
            flipped = t.flip_pairs(subset)
            if count_embeddings(flipped, pattern) == 0:
                return size
    return None


class TestDistance:
    def test_cyclic_triangle_distance_one(self):
        result = distance_to_h_free(cyclic_triangle(), c3_pattern())
        assert result == DistanceResult(1, 1, True, result.flips)
        assert len(result.flips) == 1

    def test_transitive_distance_zero(self):
        assert distance_to_h_free(transitive_tournament(5), c3_pattern()).distance == 0

    def test_against_subset_enumeration(self, rng):
        for _ in range(4):
            t = random_tournament(6, rng)
            expected = oracle_distance(t, c3_pattern(), 3)
            result = distance_to_h_free(t, c3_pattern())
            assert result.exact
            if expected is not None:
                assert result.distance == expected

    def test_budget_exceeded_reports_lower_bound(self, rng):
        t = cyclic_triangle()
        result = distance_to_h_free(t, c3_pattern(), budget=0)
        assert not result.exact
        assert result.distance is None
        assert result.lower_bound >= 1

    def test_witness_flips_destroy_all_copies(self, rng):
        for _ in range(4):
            t = random_tournament(6, rng)
            result = distance_to_h_free(t, c3_pattern())
            flipped = t.flip_pairs(result.flips)
            assert count_embeddings(flipped, c3_pattern()) == 0

    def test_zero_distance_iff_no_copy_small(self, rng):
        patterns = [c3_pattern(), OrientedGraph(2, [(1, 2)]), transitive_tournament(3)]
        for t in enumerate_tournaments(4):
            for pattern in patterns:
                has_copy = count_embeddings(t, pattern) > 0
                dist = distance_to_h_free(t, pattern).distance
                if dist is not None:
                    assert (dist == 0) == (not has_copy)
                else:
                    assert has_copy

    def test_edgeless_pattern_is_never_removed(self):
        # no reversal touches a copy of an edgeless pattern, so the search
        # is skipped; before, its greedy packing found one copy forever. No
        # reversal set of any size works, so a budget leaves the bound at
        # C(4,2) + 1
        host = random_tournament(4, random.Random(0))
        for pattern in (OrientedGraph(2, []), OrientedGraph(1, [])):
            assert distance_to_h_free(host, pattern) == DistanceResult(None, 7, False)
            assert distance_to_h_free(host, pattern, budget=2) == DistanceResult(
                None, 7, False
            )
        # one larger than the host is absent already
        assert distance_to_h_free(host, OrientedGraph(5, [])) == DistanceResult(
            0, 0, True, ()
        )

    def test_zero_distance_iff_no_copy_sampled(self, rng):
        for _ in range(25):
            t = random_tournament(5, rng)
            pattern = random_oriented_graph(4, rng)
            result = distance_to_h_free(t, pattern)
            has_copy = count_embeddings(t, pattern) > 0
            if result.distance is not None:
                assert (result.distance == 0) == (not has_copy)
            else:
                assert has_copy

    def test_node_budget_lower_bound_only_grows(self):
        # under a node budget the lower bound is the pass limit reached, or
        # 0 when the budget runs out at the root; it holds at every budget
        # and grows with it until the search settles the distance
        host = random_tournament(10, random.Random(0))
        distance = distance_to_h_free(host, c3_pattern()).distance
        bounds = []
        for node_budget in itertools.count():
            result = distance_to_h_free(host, c3_pattern(), node_budget=node_budget)
            if result.exact:
                break
            assert (result.distance, result.flips) == (None, None)
            bounds.append(result.lower_bound)
        assert result.distance == distance == 11
        assert bounds[0] == 0
        assert bounds == sorted(bounds) and bounds[-1] <= distance
        assert len(bounds) > 100


class TestDistanceAgainstBranchAndBound:
    """Iterative deepening against the branch-and-bound it replaced: both
    return the first solution of least depth in the same tree's preorder,
    so the distance, the flips and the bounds are equal."""

    @pytest.mark.parametrize("name", sorted(PINNED_PATTERNS))
    def test_every_small_tournament(self, name):
        pattern = PINNED_PATTERNS[name]
        for n in range(1, 6):
            for t in enumerate_tournaments(n):
                assert distance_to_h_free(t, pattern) == oracle_distance_bnb(t, pattern)

    @pytest.mark.parametrize("name", ["c3", "c3_tail", "tt4"])
    def test_seeded_under_caps(self, name):
        # tt4 embeds into every tournament on 8 vertices, so it runs on
        # n 6-7 only; the branch-and-bound would walk its whole tree above
        pattern = PINNED_PATTERNS[name]
        rng = random.Random(33)
        checked = 0
        for _ in range(40):
            t = random_tournament(rng.randint(6, 9), rng)
            if name == "tt4" and t.n > 7:
                continue
            result = distance_to_h_free(t, pattern)
            assert result.exact and result == oracle_distance_bnb(t, pattern)
            d = result.distance
            for budget in (d - 1, d) if d else (d,):
                capped = distance_to_h_free(t, pattern, budget=budget)
                assert capped == oracle_distance_bnb(t, pattern, budget=budget)
                assert capped.exact == (budget == d)
            checked += 1
        assert checked >= 15


# acyclic patterns with an edge, in labelings whose plans differ
ACYCLIC_PATTERNS = {
    "tt3": transitive_tournament(3),
    "edge": OrientedGraph(3, [(1, 2)]),
    "path": OrientedGraph(3, [(3, 1), (1, 2)]),
    "out_star": OrientedGraph(3, [(2, 1), (2, 3)]),
    "in_star": OrientedGraph(3, [(1, 3), (2, 3)]),
    "tt4": transitive_tournament(4),
    "star": OrientedGraph(4, [(4, 1), (4, 2), (4, 3)]),
}


class TestUnavoidableAcyclicPatterns:
    """An acyclic pattern on k vertices embeds into every tournament on
    n >= 2^(k-1) vertices (each holds a transitive one on k), so no
    reversal set works there. The distance search says so after the
    root's packing; the branch-and-bound walks its tree to the same
    result. A budget does not weaken that proof: there the answer is the
    uncapped one, lower bound C(n,2) + 1."""

    @staticmethod
    def oracle(t, pattern, budget):
        if t.n >= 1 << (pattern.n - 1):
            budget = None
        return oracle_distance_bnb(t, pattern, budget=budget)

    @pytest.mark.parametrize("name", sorted(ACYCLIC_PATTERNS))
    def test_every_small_tournament(self, name):
        pattern = ACYCLIC_PATTERNS[name]
        for n in range(1, 6):
            for t in enumerate_tournaments(n):
                for budget in (None, 1):
                    assert distance_to_h_free(
                        t, pattern, budget=budget
                    ) == self.oracle(t, pattern, budget)

    @pytest.mark.parametrize("name", sorted(ACYCLIC_PATTERNS))
    def test_seeded(self, name):
        pattern = ACYCLIC_PATTERNS[name]
        rng = random.Random(34)
        for _ in range(8):
            t = random_tournament(rng.randint(6, 7), rng)
            for budget in (None, 0, 2, 5):
                assert distance_to_h_free(
                    t, pattern, budget=budget
                ) == self.oracle(t, pattern, budget)

    def test_tt4_on_eight_vertices_takes_one_packing(self):
        # the search used to run out of its node budget here
        host = random_tournament(8, random.Random(0))
        tt4 = transitive_tournament(4)
        for node_budget in (1, 2_000_000):
            assert distance_to_h_free(
                host, tt4, node_budget=node_budget
            ) == DistanceResult(None, 29, False)
        assert distance_to_h_free(host, tt4, budget=1) == DistanceResult(
            None, 29, False
        )

    def test_a_root_packing_without_a_copy_raises(self, monkeypatch):
        monkeypatch.setattr(digraphs, "_packing", lambda *args: lambda: (0, None))
        with pytest.raises(AuditError):
            distance_to_h_free(transitive_tournament(4), transitive_tournament(3))
        # below 2^(k-1) vertices an empty packing is a distance of 0
        assert distance_to_h_free(
            transitive_tournament(3), transitive_tournament(3)
        ) == DistanceResult(0, 0, True, ())


def some_edges(vertices, rng: random.Random) -> list:
    """A random orientation of a nonempty random set of vertex pairs."""
    pairs = list(itertools.combinations(vertices, 2))
    chosen = rng.sample(pairs, rng.randint(1, len(pairs)))
    return [(u, v) if rng.random() < 0.5 else (v, u) for u, v in chosen]


def shuffled(g: OrientedGraph, rng: random.Random) -> OrientedGraph:
    perm = list(g.vertices)
    rng.shuffle(perm)
    return g.relabel(perm)


def packing_cases(count: int):
    """Seeded (kind, host, pattern) triples: tournament patterns on
    hosts of 3-14 vertices; disconnected patterns, patterns whose last
    searched vertex is isolated and edgeless patterns on smaller hosts."""
    rng = random.Random(14)
    for i in range(count):
        kind = ("tournament", "disconnected", "isolated-last", "edgeless")[i % 4]
        if kind == "tournament":
            host = random_tournament(rng.randint(3, 14), rng)
            pattern = random_tournament(rng.randint(3, 5), rng)
        elif kind == "disconnected":
            k = rng.randint(4, 5)
            split = rng.randint(2, k - 2)
            edges = some_edges(range(1, split + 1), rng)
            edges += some_edges(range(split + 1, k + 1), rng)
            host = random_tournament(rng.randint(3, 10), rng)
            pattern = shuffled(OrientedGraph(k, edges), rng)
        elif kind == "isolated-last":
            k = rng.randint(3, 5)
            host = random_tournament(rng.randint(3, 10), rng)
            pattern = shuffled(OrientedGraph(k, random_tournament(k - 1, rng).edges), rng)
        else:
            host = random_tournament(rng.randint(3, 6), rng)
            pattern = OrientedGraph(rng.randint(1, 4), [])
        yield kind, host, pattern


class TestGreedyPacking:
    def test_one_pass_matches_restarts(self):
        seen = {}
        for kind, host, pattern in packing_cases(320):
            plan = _plan(pattern)
            if kind == "isolated-last":
                last = plan.slots[-1] + 1
                assert not pattern.out[last] | pattern.inn[last]
            got = _packing(host.out, host.inn, host.n, pattern, plan)()
            assert got == oracle_greedy_disjoint_copies(host, pattern), (
                kind, host, pattern
            )
            assert got[1] == getattr(find_embedding(host, pattern), "mapping", None)
            seen.setdefault(kind, []).append(got[0])
        # every kind packs several copies somewhere and none somewhere
        for kind, counts in seen.items():
            assert max(counts) >= 3 and min(counts) == 0, kind

    def test_one_table_build_follows_in_place_flips(self):
        # the distance search builds the packing once and flips pairs of
        # the masks it reads between calls; each call must pack the host
        # as it then stands, from a fresh allow table
        rng = random.Random(16)
        for kind, host, pattern in packing_cases(120):
            if not pattern.edges:
                continue
            out, inn = list(host.out), list(host.inn)
            pack = _packing(out, inn, host.n, pattern, _plan(pattern))
            current = host
            for _ in range(4):
                assert pack() == oracle_greedy_disjoint_copies(current, pattern)
                a, b = rng.sample(host.vertices, 2)
                for x, y in ((a, b), (b, a)):
                    out[x] ^= 1 << y
                    inn[x] ^= 1 << y
                current = current.flip_pairs([(a, b)])
                assert (out, inn) == (list(current.out), list(current.inn))

    def test_resume_under_any_grown_ban(self):
        # the consumer takes one embedding at a time and bans random pairs,
        # not only the ones its copies use, by clearing them from an allow
        # table that every pattern edge is checked through, as the greedy
        # packing does; each embedding taken must be the first one after
        # the last, in search order, that the ban allows
        rng = random.Random(15)
        resumed = 0
        for _ in range(120):
            host = random_tournament(rng.randint(4, 9), rng)
            pattern = shuffled(OrientedGraph(4, some_edges(range(1, 5), rng)), rng)
            order = [e.mapping for e in enumerate_embeddings(host, pattern)]
            allow = [-1] * (host.n + 1)

            def allowed(m):
                return all(
                    allow[m[u - 1]] >> m[v - 1] & 1 for u, v in pattern.edges
                )

            plan = _plan(pattern)
            domains, checks = _tables(host.out, host.inn, host.n, plan)
            for check, links in zip(checks, plan.links):
                check += [(p, allow) for p, _ in links]
            search = _search(plan.slots, domains, checks)
            step, at = next(search, None), 0
            while step is not None:
                mapping, slot, cand = step
                low = cand & -cand
                mapping[slot] = low.bit_length() - 1
                expected = next(i for i in range(at, len(order)) if allowed(order[i]))
                assert tuple(mapping) == order[expected]
                at = expected + 1
                for _ in range(rng.randrange(3)):
                    a, b = rng.sample(host.vertices, 2)
                    allow[a] &= ~(1 << b)
                    allow[b] &= ~(1 << a)
                try:
                    step = search.send(cand ^ low)
                except StopIteration:
                    step = None
                resumed += 1
            assert not any(allowed(m) for m in order[at:])
        assert resumed > 1000


def random_engine(rng: random.Random):
    """Seeded ``_search`` tables: 1-5 levels over at most 10 bits, slots in
    random order, and one to three checks at each level after the first,
    through tables that levels share."""
    k = rng.randint(1, 5)
    width = rng.randint(1, 10)
    slots = list(range(k))
    rng.shuffle(slots)
    domains = [rng.getrandbits(width) | rng.getrandbits(width) for _ in range(k)]
    tables = [
        [rng.getrandbits(width) | rng.getrandbits(width) for _ in range(width)]
        for _ in range(rng.randint(1, 3))
    ]
    checks = [[]]
    for i in range(1, k):
        picks = range(rng.randint(1, 3))
        checks.append([(slots[rng.randrange(i)], rng.choice(tables)) for _ in picks])
    return slots, domains, checks, tables, width


class TestSearchEngine:
    def test_matches_filtered_product(self):
        rng = random.Random(16)
        nonempty = 0
        for _ in range(400):
            slots, domains, checks, _, _ = random_engine(rng)
            got = []
            for mapping, slot, cand in _search(slots, domains, checks):
                assert cand
                for w in range(cand.bit_length()):
                    if cand >> w & 1:
                        mapping[slot] = w
                        got.append(tuple(mapping))
            assert got == oracle_search(slots, domains, checks)
            nonempty += len(got) > 1
        assert nonempty > 100

    def test_resume_after_any_table_shrinks(self):
        # the consumer takes one assignment at a time and clears random
        # bits of random tables; each assignment taken must be the first
        # one after the last, in the original order, that the shrunk
        # tables allow
        rng = random.Random(17)
        resumed = 0
        for _ in range(300):
            slots, domains, checks, tables, width = random_engine(rng)
            order = oracle_search(slots, domains, checks)

            def allowed(m):
                return all(
                    table[m[p]] >> m[slots[i]] & 1
                    for i, level in enumerate(checks)
                    for p, table in level
                )

            search = _search(slots, domains, checks)
            step, at = next(search, None), 0
            while step is not None:
                mapping, slot, cand = step
                low = cand & -cand
                mapping[slot] = low.bit_length() - 1
                expected = next(i for i in range(at, len(order)) if allowed(order[i]))
                assert tuple(mapping) == order[expected]
                at = expected + 1
                for _ in range(rng.randrange(4)):
                    table = rng.choice(tables)
                    table[rng.randrange(width)] &= ~(1 << rng.randrange(width))
                try:
                    step = search.send(cand ^ low)
                except StopIteration:
                    step = None
                resumed += 1
            assert not any(allowed(m) for m in order[at:])
        assert resumed > 1000


class TestTransitiveExtraction:
    def test_all_four_vertex_tournaments(self):
        for t in enumerate_tournaments(4):
            seq = transitive_subtournament(t, 3)
            assert seq is not None
            for i, u in enumerate(seq):
                for v in seq[i + 1 :]:
                    assert t.has_edge(u, v)

    def test_transitive_gives_topological_order(self):
        t = transitive_tournament(6)
        assert transitive_subtournament(t, 6) == [1, 2, 3, 4, 5, 6]

    def test_cyclic_triangle_fails(self):
        assert transitive_subtournament(cyclic_triangle(), 3) is None

    def test_random_eight_vertex(self, rng):
        for _ in range(500):
            t = random_tournament(8, rng)
            seq = transitive_subtournament(t, 4)
            assert seq is not None
            for i, u in enumerate(seq):
                for v in seq[i + 1 :]:
                    assert t.has_edge(u, v)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            transitive_subtournament(cyclic_triangle(), 0)


class TestTournamentType:
    def test_completeness_enforced(self):
        with pytest.raises(ValueError):
            Tournament(3, [(1, 2), (2, 3)])
        with pytest.raises(ValueError):
            OrientedGraph(3, [(1, 2), (2, 1)])
        with pytest.raises(ValueError):
            OrientedGraph(3, [(1, 1)])

    def test_bit_roundtrip(self):
        for bits in range(64):
            t = tournament_from_bits(4, bits)
            assert len(t.edges) == 6

    def test_automorphism_count_c3(self):
        assert count_automorphisms(c3_pattern()) == 3
        assert count_automorphisms(transitive_tournament(4)) == 1

    def test_automorphisms_are_self_injections(self):
        rng = random.Random(18)
        graphs = [OrientedGraph(0, []), OrientedGraph(1, [])]
        for i in range(330):
            n = rng.randint(0, 6)
            if i % 3 == 0:
                graphs.append(random_oriented_graph(n, rng))
            elif i % 3 == 1:
                graphs.append(random_tournament(n, rng))
            else:
                graphs.append(OrientedGraph(n, []))
        for g in graphs:
            assert count_automorphisms(g) == oracle_count_injections(g, g), g
