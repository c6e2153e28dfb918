"""The NAE solver: both fronts against the exhaustive oracle and each
other, with the search order and node counts pinned."""

import itertools
import random
import sys
from pathlib import Path

import pytest

from tourkit import nae
from tourkit.coloring import smallest_non_two_colorable_tournament
from tourkit.digraphs import Tournament, c3_pattern, random_tournament
from tourkit.errors import BudgetExceeded
from tourkit.formats import parse_undirected_graph
from tourkit.hardness import reduce_graph
from tourkit.orderedhom import LabeledGraph

from conftest import (
    oracle_cyclic_triangles,
    oracle_nae,
    oracle_nae_chronological,
    oracle_nae_first,
    oracle_tournament_forced,
    random_labeled_graph,
)


def random_clauses(seed, num_vars, count):
    rng = random.Random(seed)
    return [tuple(rng.sample(range(1, num_vars + 1), 3)) for _ in range(count)]


def complete_graph(n):
    return LabeledGraph(range(1, n + 1), itertools.combinations(range(1, n + 1), 2))


def transitive_from_masks(n):
    """The transitive tournament with i -> j for i < j, built from its
    masks without listing its n(n-1)/2 edges."""
    out = [0] + [((1 << (n + 1)) - 1) ^ ((1 << (v + 1)) - 1) for v in range(1, n + 1)]
    inn = [0] + [(1 << v) - 2 for v in range(1, n + 1)]
    return Tournament._from_masks(n, out, inn)


def random_reductions(rng, count):
    """T(G) for ``count`` random graphs on 4 to 7 vertices at p = 0.6."""
    return [
        reduce_graph(random_labeled_graph(range(1, rng.randrange(4, 8)), 0.6, rng))
        .tournament
        for _ in range(count)
    ]


def triangle_degrees_and_partners(t):
    """Cyclic triangles through each vertex, and the mask of the vertices
    sharing one with it, from the listed triangles."""
    degree = [0] * (t.n + 1)
    partners = [0] * (t.n + 1)
    for triangle in oracle_cyclic_triangles(t):
        for v in triangle:
            degree[v] += 1
            for u in triangle:
                if u != v:
                    partners[v] |= 1 << u
    return degree, partners


def check_against_oracle(num_vars, clauses):
    solution = nae.solve_nae(num_vars, clauses)
    assert (solution is not None) == oracle_nae(num_vars, clauses)
    if solution is not None:
        assert len(solution) == num_vars and set(solution) <= {0, 1}
        for clause in clauses:
            assert len({solution[v - 1] for v in clause}) == 2


class TestClauseFront:
    def test_against_oracle_seeded(self):
        rng = random.Random(0x4E4145)
        for _ in range(400):
            num_vars = rng.randrange(13)
            count = rng.randrange(3 * num_vars + 1) if num_vars >= 3 else 0
            clauses = [
                tuple(rng.sample(range(1, num_vars + 1), 3)) for _ in range(count)
            ]
            check_against_oracle(num_vars, clauses)

    def test_against_oracle_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def instances(draw):
            num_vars = draw(st.integers(0, 12))
            if num_vars < 3:
                return num_vars, []
            triple = st.lists(
                st.integers(1, num_vars), min_size=3, max_size=3, unique=True
            ).map(tuple)
            return num_vars, draw(st.lists(triple, max_size=3 * num_vars))

        @hypothesis.settings(
            max_examples=300, deadline=None, derandomize=True, database=None
        )
        @hypothesis.given(instances())
        def check(instance):
            check_against_oracle(*instance)

        check()

    def test_empty_instances(self):
        assert nae.solve_nae(0, []) == []
        assert nae.solve_nae(4, []) == [0, 0, 0, 0]

    def test_deep_search_has_no_recursion_limit(self):
        # one branching node per variable, each deeper than the last
        assert nae.solve_nae(1100, []) == [0] * 1100

    @pytest.mark.parametrize(
        "clauses",
        [[(1, 2)], [(1, 2, 3, 4)], [(1, 1, 2)], [(0, 1, 2)], [(1, 2, 5)]],
    )
    def test_malformed_clauses_rejected(self, clauses):
        with pytest.raises(ValueError):
            nae.solve_nae(4, clauses)


class TestTournamentFront:
    def test_matches_clause_front_on_random_tournaments(self):
        rng = random.Random(0x7043)
        for n in range(17):
            for _ in range(6):
                t = random_tournament(n, rng)
                assert nae.solve_tournament(t) == nae.solve_nae(
                    t.n, oracle_cyclic_triangles(t)
                )

    def test_matches_clause_front_on_reductions(self):
        rng = random.Random(0x7047)
        for _ in range(12):
            g = random_labeled_graph(range(1, rng.randrange(4, 7)), 0.6, rng)
            t = reduce_graph(g).tournament
            assert nae.solve_tournament(t) == nae.solve_nae(
                t.n, oracle_cyclic_triangles(t)
            )

    def test_degrees_count_the_triangle_clauses(self):
        rng = random.Random(0x7044)
        instances = [random_tournament(n, rng) for n in range(17)]
        reductions = random_reductions(rng, 6)
        reductions.append(reduce_graph(complete_graph(5)).tournament)
        for t in reductions:
            # T(G) has vertices whose out- and in-degrees are far apart
            assert max(
                abs(t.out[v].bit_count() - t.inn[v].bit_count()) for v in t.vertices
            ) > t.n // 2
        for t in instances + reductions:
            assert nae._triangle_partners(t) == triangle_degrees_and_partners(t)

    def test_forced_matches_the_gather_rule(self):
        rng = random.Random(0x7048)
        instances = [random_tournament(n, rng) for n in range(3, 17) for _ in range(3)]
        instances += random_reductions(rng, 6)
        walks = {True: 0, False: 0}
        for t in instances:
            _, forced = nae._tournament_rule(t)
            _, partners = nae._triangle_partners(t)
            for _ in range(40):
                # disjoint random sides, as the search passes side[x] and
                # side[1 - x], with v on the first
                weights = [rng.random() for _ in range(3)]
                same = opp = 0
                for w in t.vertices:
                    place = rng.choices((0, 1, 2), weights)[0]
                    same |= (place == 1) << w
                    opp |= (place == 2) << w
                v = rng.choice(t.vertices)
                same |= 1 << v
                opp &= ~(1 << v)
                assert forced(v, same, opp) == oracle_tournament_forced(t, v, same, opp)
                for near, far in ((t.out[v], t.inn[v]), (t.inn[v], t.out[v])):
                    a = same & partners[v] & near
                    c = partners[v] & far & ~opp
                    if a and c:
                        walks[a.bit_count() <= c.bit_count()] += 1
        # both walks, over the sources and over the targets, ran
        assert min(walks.values()) >= 100

    def test_deep_search_has_no_recursion_limit(self):
        t = transitive_from_masks(1100)
        assert nae.solve_tournament(t) == [0] * 1100
        # no clauses: one node per variable plus the leaf
        assert nae.solve_tournament(t, budget=1101) == [0] * 1100
        with pytest.raises(BudgetExceeded) as info:
            nae.solve_tournament(t, budget=1100)
        assert info.value.info == {"nodes": 1101}

    def test_rejects_non_tournament(self):
        with pytest.raises(ValueError):
            nae.solve_tournament(c3_pattern().induced([1, 2]))


# Each pin is the returned assignment as 0/1 digits (None when there is
# none) and the smallest node budget that does not raise, both recorded
# from the per-clause propagation solver that the mask search replaced.
_K4 = "1100110110100100100001000001111100001000001111100000111101111100000111101111"
_G7 = (
    "00101000101011001001100100111110000011111000001111100001000001111011111"
    "00000111101111100001000001111011111000001111"
)
_G7_EDGES = [
    (2, 3), (2, 4), (3, 4), (3, 5), (3, 6),
    (3, 7), (4, 5), (4, 6), (4, 7), (5, 6),
]
PINNED_CLAUSES = [
    ((3, 12, 18), "001010001101", 8),
    ((1, 12, 24), None, 4),
    ((1, 40, 84), "0000111101000000010110001110011011111111", 22),
    ((2, 60, 126), None, 46),
    (
        (4, 60, 126),
        "110000111100101100000010100101010110100110101111011110100001",
        27,
    ),
]
# a no-cut graph of the reduction benchmark's size range: n = 7, m = 10,
# so T(G) has 7 + 18 * 10 = 187 vertices; pinned from the search before
# its tournament front walked the smaller of two masks
_NOCUT7_EDGES = [
    (1, 4), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7),
    (3, 5), (3, 6), (3, 7), (5, 6), (5, 7), (6, 7),
]
PINNED_TOURNAMENTS = {
    "T(K4)": (lambda: reduce_graph(complete_graph(4)).tournament, _K4, 36),
    # K5 has ten triangles and no triangle-free cut
    "T(K5)": (lambda: reduce_graph(complete_graph(5)).tournament, None, 201),
    "T(G7)": (
        lambda: reduce_graph(LabeledGraph(range(1, 8), _G7_EDGES)).tournament,
        _G7,
        # 96 when the search backtracked one level at a time; backjumping
        # skips levels that no conflict below them depends on
        75,
    ),
    "minimal hard": (smallest_non_two_colorable_tournament, None, 4),
    "T(no-cut n7 m10)": (
        lambda: reduce_graph(LabeledGraph(range(1, 8), _NOCUT7_EDGES)).tournament,
        None,
        201,
    ),
}


def digits(solution):
    return None if solution is None else "".join(map(str, solution))


def check_pinned(solve, expected, budget):
    assert digits(solve(budget)) == expected
    # an exhausted budget raises; it never reads as "no assignment"
    for short in (budget - 1, 0):
        with pytest.raises(BudgetExceeded):
            solve(short)


class TestPinnedSearch:
    @pytest.mark.parametrize("params, expected, budget", PINNED_CLAUSES)
    def test_clause_instances(self, params, expected, budget):
        n = params[1]
        clauses = random_clauses(*params)
        check_pinned(lambda b: nae.solve_nae(n, clauses, budget=b), expected, budget)

    @pytest.mark.parametrize("name", list(PINNED_TOURNAMENTS))
    def test_tournament_instances(self, name):
        build, expected, budget = PINNED_TOURNAMENTS[name]
        t = build()
        check_pinned(lambda b: nae.solve_tournament(t, budget=b), expected, budget)
        clauses = oracle_cyclic_triangles(t)
        check_pinned(
            lambda b: nae.solve_nae(t.n, clauses, budget=b), expected, budget
        )


def bench_reductions(seed, workdir):
    """The stratum and T(G) of every job of the bench's reduction workload
    at ``seed``, from the graph files its set-up writes to ``workdir``."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        import workloads

        jobs = workloads.reduction(seed, workdir).jobs
    finally:
        sys.path.remove(bench)
    graphs = [(job.kind, Path(job.argv[1]).read_text()) for job in jobs]
    return [
        (kind, reduce_graph(parse_undirected_graph(text)).tournament)
        for kind, text in graphs
    ]


def check_chronological(solve, num_vars, clauses=None, tournament=None):
    """``solve(budget)`` returns the chronological search's answer within
    that search's node count; the answer is returned."""
    expected, nodes = oracle_nae_chronological(num_vars, clauses, tournament)
    assert solve(nodes) == expected
    return expected


# G on 7 vertices with 4 triangles. A search that blames a conflict on the
# levels of its earlier variables, not on the variables, fails both values
# at level 9 of T(G), returns to level 8, fails there too and jumps on to
# level 4: it never asks which earlier levels level 8's variables rested
# on, skips T(G)'s first 2-colouring and returns a later one
_LEVEL_BLAME_EDGES = [
    (1, 5), (1, 6), (1, 7), (2, 4), (2, 5), (2, 7),
    (3, 4), (3, 6), (3, 7), (4, 5), (4, 7), (5, 6),
]


class TestBackjumping:
    """Backjumping skips only subtrees without an assignment, so each answer
    is the chronological search's, found in at most as many nodes, and the
    first assignment in the search's order."""

    def test_clause_sets(self):
        rng = random.Random(0x424A)
        for _ in range(1500):
            n = rng.randrange(3, 41)
            clauses = [
                tuple(rng.sample(range(1, n + 1), 3))
                for _ in range(rng.randrange(3 * n + 1))
            ]
            expected = check_chronological(
                lambda b: nae.solve_nae(n, clauses, budget=b), n, clauses
            )
            if n <= 12:
                assert expected == oracle_nae_first(n, clauses)

    def test_random_tournaments(self):
        rng = random.Random(0x424B)
        for _ in range(500):
            t = random_tournament(rng.randrange(3, 40), rng)
            expected = check_chronological(
                lambda b: nae.solve_tournament(t, budget=b), t.n, tournament=t
            )
            if t.n <= 12:
                assert expected == oracle_nae_first(t.n, oracle_cyclic_triangles(t))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bench_reductions(self, seed, tmp_path):
        reductions = bench_reductions(seed, tmp_path)
        assert {kind for kind, _ in reductions} == {"n7", "n8", "n9", "nocut7"}
        for kind, t in reductions:
            expected = check_chronological(
                lambda b: nae.solve_tournament(t, budget=b), t.n, tournament=t
            )
            # the nocut7 graphs have no triangle-free cut, so no T(G) colouring
            assert (expected is None) == (kind == "nocut7")

    def test_a_return_explains_the_level_it_returns_to(self):
        t = reduce_graph(LabeledGraph(range(1, 8), _LEVEL_BLAME_EDGES)).tournament
        clauses = oracle_cyclic_triangles(t)
        check_chronological(
            lambda b: nae.solve_tournament(t, budget=b), t.n, tournament=t
        )
        check_chronological(
            lambda b: nae.solve_nae(t.n, clauses, budget=b), t.n, clauses
        )
