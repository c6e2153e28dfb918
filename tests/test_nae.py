"""The NAE solver: both fronts against the exhaustive oracle and each
other, with the search order and node counts pinned."""

import itertools
import random

import pytest

from tourkit import nae
from tourkit.coloring import cyclic_triangles, smallest_non_two_colorable_tournament
from tourkit.digraphs import c3_pattern, random_tournament
from tourkit.errors import BudgetExceeded
from tourkit.hardness import reduce_graph
from tourkit.orderedhom import LabeledGraph

from conftest import oracle_nae, random_labeled_graph


def random_clauses(seed, num_vars, count):
    rng = random.Random(seed)
    return [tuple(rng.sample(range(1, num_vars + 1), 3)) for _ in range(count)]


def complete_graph(n):
    return LabeledGraph(range(1, n + 1), itertools.combinations(range(1, n + 1), 2))


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
                    t.n, cyclic_triangles(t)
                )

    def test_matches_clause_front_on_reductions(self):
        rng = random.Random(0x7047)
        for _ in range(12):
            g = random_labeled_graph(range(1, rng.randrange(4, 7)), 0.6, rng)
            t = reduce_graph(g).tournament
            assert nae.solve_tournament(t) == nae.solve_nae(t.n, cyclic_triangles(t))

    def test_degrees_count_the_triangle_clauses(self):
        rng = random.Random(0x7044)
        for n in range(17):
            t = random_tournament(n, rng)
            expected = [0] * (n + 1)
            for triangle in cyclic_triangles(t):
                for v in triangle:
                    expected[v] += 1
            degree, partners = nae._triangle_partners(t)
            assert degree == expected
            for v in range(n + 1):
                shared = {u for c in cyclic_triangles(t) if v in c for u in c} - {v}
                assert partners[v] == sum(1 << u for u in shared)

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
PINNED_TOURNAMENTS = {
    "T(K4)": (lambda: reduce_graph(complete_graph(4)).tournament, _K4, 36),
    # K5 has ten triangles and no triangle-free cut
    "T(K5)": (lambda: reduce_graph(complete_graph(5)).tournament, None, 201),
    "T(G7)": (
        lambda: reduce_graph(LabeledGraph(range(1, 8), _G7_EDGES)).tournament,
        _G7,
        96,
    ),
    "minimal hard": (smallest_non_two_colorable_tournament, None, 4),
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
        clauses = cyclic_triangles(t)
        check_pinned(
            lambda b: nae.solve_nae(t.n, clauses, budget=b), expected, budget
        )
