"""Matrix homogeneity audits, submatrix copy counting, the conditional
partitioner, refinement, and the decomposition pipeline."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    oracle_afn_partition,
    oracle_sample_representatives,
    oracle_split_class,
)
from tourkit import regularity
from tourkit.digraphs import random_tournament, transitive_tournament
from tourkit.errors import BudgetExceeded
from tourkit.regularity import (
    AfnCopies,
    AfnInconclusive,
    AfnPartition,
    BinaryMatrix,
    Equipartition,
    StrongDecomposition,
    afn_partition,
    audit_bipartition,
    audit_equipartition,
    bipartite_adjacency,
    count_matrix_copies,
    default_bipartite_pattern,
    find_matrix_copy,
    refine_to_equipartition,
    strong_decomposition,
)


def recount_bad_weight(a: BinaryMatrix, rows, cols, delta: Fraction) -> Fraction:
    """Entry-by-entry oracle for the audited bad weight."""
    bad = Fraction(0)
    for rp in rows:
        for cp in cols:
            ones = sum(a[(r, c)] for r in rp for c in cp)
            size = len(rp) * len(cp)
            if min(ones, size - ones) > delta * size:
                bad += Fraction(size, a.n * a.n)
    return bad


def first_copy(a: BinaryMatrix, b, avoid_diagonal: bool):
    """Brute-force lexicographically first copy: columns first, then rows."""
    k = len(b)
    for cols in itertools.combinations(range(1, a.n + 1), k):
        for rows in itertools.combinations(range(1, a.n + 1), k):
            if avoid_diagonal and set(rows) & set(cols):
                continue
            if all(a[(r, c)] == b[i][j] for i, r in enumerate(rows) for j, c in enumerate(cols)):
                return rows, cols
    return None


def random_partition(n, parts, rng):
    while True:
        labels = [rng.randrange(parts) for _ in range(n)]
        if len(set(labels)) == parts:
            return [
                [v for v in range(1, n + 1) if labels[v - 1] == p]
                for p in range(parts)
            ]


class TestBinaryMatrix:
    def test_does_not_alias_the_callers_array(self):
        x = np.zeros((3, 3), dtype=np.int64)
        view = x[:]
        m = BinaryMatrix(x)
        assert x.flags.writeable
        view[0, 1] = 1
        x[2, 2] = 1
        assert m[(1, 2)] == 0 and m[(3, 3)] == 0

    def test_from_tournament_is_the_adjacency_matrix(self, rng):
        t = random_tournament(9, rng)
        m = BinaryMatrix.from_tournament(t)
        assert m.n == 9
        for u in range(1, 10):
            for v in range(1, 10):
                assert m[u, v] == (1 if t.has_edge(u, v) else 0)

    def test_row_and_column_masks(self, rng):
        grid = [[rng.getrandbits(1) for _ in range(7)] for _ in range(7)]
        m = BinaryMatrix(grid)
        for r in range(1, 8):
            for c in range(1, 8):
                assert m[r, c] == grid[r - 1][c - 1]
                assert m.rows[r] >> c & 1 == m.cols[c] >> r & 1 == grid[r - 1][c - 1]
        assert m.rows[0] == m.cols[0] == 0

    def test_rejects_bad_input(self):
        for entries in ([1, 0], [[1, 0]], [[1, 0], [0]], [[0, 2], [1, 1]]):
            with pytest.raises(ValueError):
                BinaryMatrix(entries)
        m = BinaryMatrix([[0, 1], [1, 0]])
        for rc in ((0, 1), (1, 3), (3, 1)):
            with pytest.raises(IndexError):
                m[rc]
        with pytest.raises(AttributeError):
            m.n = 3


class TestSplitClass:
    """The partitioner's split against ``oracle_split_class``, which ranks
    by exact ``Fraction`` distances to the centroid."""

    def test_matches_fraction_oracle_with_built_ties(self):
        rng = random.Random(21)
        for case in range(1200):
            n = rng.randint(2, 16)
            size = rng.randint(2, n)
            members = sorted(rng.sample(range(1, n + 1), size))
            grid = [[rng.getrandbits(1) for _ in range(n)] for _ in range(n)]
            if case % 3 == 1:
                # repeated patterns: equal distances
                for v in members[1::2]:
                    grid[v - 1] = list(grid[members[0] - 1])
            elif case % 3 == 2:
                # every column sum floor(L/2): for even L every member ties
                for c in range(n):
                    ones = set(rng.sample(members, size // 2))
                    for v in members:
                        grid[v - 1][c] = int(v in ones)
            by_rows = case % 2 == 0
            if not by_rows:
                grid = [list(col) for col in zip(*grid)]
            a = BinaryMatrix(grid)
            lines = a.rows if by_rows else a.cols
            assert regularity._split_class(lines, members) == oracle_split_class(
                a, members, by_rows
            ), (case, members)


class TestAuditBipartition:
    def test_singletons_are_homogeneous(self, rng):
        a = BinaryMatrix.random(8, rng)
        singles = [[v] for v in range(1, 9)]
        audit = audit_bipartition(a, singles, singles, Fraction(1, 4))
        assert audit.homogeneous and audit.bad_weight == 0

    def test_all_ones_any_partition(self, rng):
        a = BinaryMatrix([[1] * 6 for _ in range(6)])
        rows = random_partition(6, 3, rng)
        cols = random_partition(6, 2, rng)
        audit = audit_bipartition(a, rows, cols, Fraction(1, 100))
        assert audit.homogeneous and audit.bad_weight == 0

    def test_matches_entrywise_recount(self, rng):
        a = BinaryMatrix.random(20, rng)
        rows = random_partition(20, 4, rng)
        cols = random_partition(20, 4, rng)
        # the second delta's denominator times n^2 exceeds 2^63
        for delta in (Fraction(1, 3), Fraction(1, 2**62)):
            audit = audit_bipartition(a, rows, cols, delta)
            assert audit.bad_weight == recount_bad_weight(a, rows, cols, delta)

    def test_delta_range_enforced(self, rng):
        a = BinaryMatrix.random(4, rng)
        with pytest.raises(ValueError):
            audit_bipartition(a, [[1, 2, 3, 4]], [[1, 2, 3, 4]], Fraction(1, 2))

    def test_homogeneity_monotone_in_delta(self, rng):
        a = BinaryMatrix.random(16, rng)
        rows = random_partition(16, 3, rng)
        cols = random_partition(16, 3, rng)
        d1, d2 = Fraction(1, 5), Fraction(1, 3)
        first = audit_bipartition(a, rows, cols, d1)
        second = audit_bipartition(a, rows, cols, d2)
        if first.homogeneous:
            assert second.homogeneous


class TestCountMatrixCopies:
    def test_single_one_counts_ones(self, rng):
        a = BinaryMatrix.random(6, rng)
        ones = sum(a[r, c] for r in range(1, 7) for c in range(1, 7))
        assert count_matrix_copies(a, [[1]]) == ones

    def test_self_copy(self, rng):
        a = BinaryMatrix.random(5, rng)
        assert count_matrix_copies(a, a) >= 1

    def test_all_two_by_two_patterns_against_brute_force(self, rng):
        a = BinaryMatrix.random(6, rng)
        for bits in itertools.product((0, 1), repeat=4):
            b = [[bits[0], bits[1]], [bits[2], bits[3]]]
            brute = 0
            for r1, r2 in itertools.combinations(range(1, 7), 2):
                for c1, c2 in itertools.combinations(range(1, 7), 2):
                    pattern = (a[r1, c1], a[r1, c2], a[r2, c1], a[r2, c2])
                    if pattern == bits:
                        brute += 1
            assert count_matrix_copies(a, b) == brute

    def test_witness_realizes_pattern(self, rng):
        cases = [(BinaryMatrix.random(7, rng), [[1, 0], [0, 1]])]
        for _ in range(30):
            n, k = rng.randint(1, 7), rng.randint(1, 3)
            b = [[rng.getrandbits(1) for _ in range(k)] for _ in range(k)]
            cases.append((BinaryMatrix.random(n, rng), b))
        for a, b in cases:
            for avoid in (False, True):
                witness = find_matrix_copy(a, b, avoid_diagonal=avoid)
                assert witness == first_copy(a, b, avoid)
                count = count_matrix_copies(a, b, avoid_diagonal=avoid)
                assert (witness is None) == (count == 0)
                if witness is None:
                    continue
                rows, cols = witness
                assert list(rows) == sorted(rows) and list(cols) == sorted(cols)
                for i, r in enumerate(rows):
                    for j, c in enumerate(cols):
                        assert a[(r, c)] == b[i][j]

    def test_pattern_must_be_square(self, rng):
        a = BinaryMatrix.random(4, rng)
        for search in (count_matrix_copies, find_matrix_copy):
            with pytest.raises(ValueError):
                search(a, [1, 0])
            with pytest.raises(ValueError):
                search(a, [[1, 0]])

    def test_diagonal_avoiding_copies_match_pattern_embeddings(self, rng):
        # copies with disjoint row/column sets correspond to embeddings of
        # the bipartite pattern into the tournament
        for _ in range(6):
            t = random_tournament(8, rng)
            a = BinaryMatrix.from_tournament(t)
            f = default_bipartite_pattern(2)
            b = bipartite_adjacency(f)
            fast = count_matrix_copies(a, b, avoid_diagonal=True)
            brute = 0
            for rows in itertools.combinations(range(1, 9), 2):
                for cols in itertools.combinations(range(1, 9), 2):
                    if set(rows) & set(cols):
                        continue
                    if all(
                        (1 if t.has_edge(rows[i], cols[j]) else 0) == b[i][j]
                        for i in range(2)
                        for j in range(2)
                    ):
                        brute += 1
            assert fast == brute
            # tournament-side oracle: part-monotone injections with the
            # iff-condition on cross pairs
            embeddings = 0
            for rows in itertools.permutations(range(1, 9), 2):
                if rows[0] >= rows[1]:
                    continue
                for cols in itertools.permutations(range(1, 9), 2):
                    if cols[0] >= cols[1] or set(rows) & set(cols):
                        continue
                    if all(
                        t.has_edge(rows[i], cols[j]) == bool(b[i][j])
                        for i in range(2)
                        for j in range(2)
                    ):
                        embeddings += 1
            assert fast == embeddings


class TestAfnPartition:
    def test_all_ones_trivial_partition(self):
        a = BinaryMatrix([[1] * 6 for _ in range(6)])
        out = afn_partition(a, [[1, 1], [1, 1]], Fraction(1, 4))
        assert isinstance(out, AfnPartition)
        assert out.audit.bad_weight == 0
        assert len(out.audit.row_parts) == 1

    def test_transitive_adjacency_partitions(self):
        a = BinaryMatrix.from_tournament(transitive_tournament(24))
        out = afn_partition(a, [[1, 1], [1, 1]], Fraction(1, 4))
        assert isinstance(out, AfnPartition)
        audit = audit_bipartition(
            a,
            [list(p) for p in out.audit.row_parts],
            [list(p) for p in out.audit.col_parts],
            Fraction(1, 4),
        )
        assert audit.homogeneous

    def test_branches_cross_validate(self, rng):
        a = BinaryMatrix.random(30, rng)
        out = afn_partition(a, [[1, 1], [1, 1]], Fraction(1, 4), size_budget=4)
        if isinstance(out, AfnPartition):
            assert recount_bad_weight(
                a,
                [list(p) for p in out.audit.row_parts],
                [list(p) for p in out.audit.col_parts],
                Fraction(1, 4),
            ) <= Fraction(1, 4)
        elif isinstance(out, AfnCopies):
            assert out.count == count_matrix_copies(a, [[1, 1], [1, 1]])
            rows, cols = out.witness
            for i, r in enumerate(rows):
                for j, c in enumerate(cols):
                    assert a[(r, c)] == 1
        else:
            assert isinstance(out, AfnInconclusive)
            assert count_matrix_copies(a, [[1, 1], [1, 1]]) == 0

    def test_inconclusive_when_no_copies_and_tight_budget(self):
        # the identity has no 2x2 all-ones copy and its ones-fraction 1/8
        # exceeds delta, so a unit budget can reach neither branch
        a = BinaryMatrix([[1 if i == j else 0 for j in range(8)] for i in range(8)])
        out = afn_partition(a, [[1, 1], [1, 1]], Fraction(1, 10), size_budget=1)
        assert isinstance(out, AfnInconclusive)
        assert count_matrix_copies(a, [[1, 1], [1, 1]]) == 0


class TestIncrementalPartitioner:
    """The partitioner's kept-across-splits block counts and integer
    homogeneity test against a recount of every block after each split."""

    DELTAS = (Fraction(1, 4), Fraction(1, 10), Fraction(1, 2**62))
    PATTERNS = ([[1, 1], [1, 1]], [[1, 0], [0, 1]])

    def test_matches_full_recount(self):
        rng = random.Random(12)
        branches = set()
        matrices = 0
        for n in range(1, 25):
            for p in (0.1, 0.5, 0.9):
                for rep in range(3):
                    a = BinaryMatrix(
                        [[int(rng.random() < p) for _ in range(n)] for _ in range(n)]
                    )
                    matrices += 1
                    # the last delta's denominator times a block size
                    # exceeds 2^63
                    delta = self.DELTAS[(n + rep) % 3]
                    b = self.PATTERNS[rep % 2]
                    for budget in (1, n // 2, None):
                        got = afn_partition(a, b, delta, size_budget=budget)
                        assert got == oracle_afn_partition(a, b, delta, budget), (
                            n, p, rep, delta, budget
                        )
                        branches.add(type(got))
        assert matrices >= 200
        assert branches == {AfnPartition, AfnCopies, AfnInconclusive}

    def test_equipartition_bad_weight_matches_fraction_recount(self, rng):
        for n, q in ((12, 4), (20, 5), (24, 8), (24, 24)):
            t = random_tournament(n, rng)
            order = rng.sample(range(1, n + 1), n)
            s = n // q
            p = Equipartition(parts=tuple(
                tuple(sorted(order[i : i + s])) for i in range(0, n, s)
            ))
            for delta in self.DELTAS:
                recount = Fraction(0)
                for x, y in itertools.permutations(p.parts, 2):
                    ones = sum(t.has_edge(u, v) for u in x for v in y)
                    d = Fraction(ones, len(x) * len(y))
                    if not (d <= delta or d >= 1 - delta):
                        recount += Fraction(len(x) * len(y), n * n)
                assert audit_equipartition(t, p, delta).bad_weight == recount


class TestRefinement:
    def test_singleton_case(self, rng):
        t = random_tournament(6, rng)
        p = Equipartition(parts=(tuple(range(1, 7)),))
        whole = [list(range(1, 7))]
        out = refine_to_equipartition(t, p, whole, whole, 6)
        assert out.q == 6 and all(len(x) == 1 for x in out.parts)

    def test_spec_shape_24_over_6(self, rng):
        t = random_tournament(24, rng)
        p = Equipartition(parts=(tuple(range(1, 25)),))
        rows = random_partition(24, 3, rng)
        cols = random_partition(24, 3, rng)
        out = refine_to_equipartition(t, p, rows, cols, 6)
        assert out.q == 6
        assert all(len(part) == 4 for part in out.parts)
        # refinement: every output part inside one input part
        for part in out.parts:
            assert any(set(part) <= set(pp) for pp in p.parts)
        # leftover accounting
        for z in out.leftover_sizes:
            assert z < 3 * 3 * (24 // 6)

    def test_refines_nontrivial_input_partition(self, rng):
        t = random_tournament(24, rng)
        p = Equipartition(
            parts=(tuple(range(1, 13)), tuple(range(13, 25)))
        )
        rows = random_partition(24, 2, rng)
        cols = random_partition(24, 2, rng)
        out = refine_to_equipartition(t, p, rows, cols, 12)
        assert out.q == 12
        for part in out.parts:
            assert any(set(part) <= set(pp) for pp in p.parts)

    def test_cells_are_respected_outside_leftovers(self, rng):
        t = random_tournament(24, rng)
        p = Equipartition(parts=(tuple(range(1, 25)),))
        rows = random_partition(24, 3, rng)
        cols = random_partition(24, 3, rng)
        out = refine_to_equipartition(t, p, rows, cols, 6)
        total_leftover = sum(out.leftover_sizes)
        cell_of = {}
        for i, rp in enumerate(rows):
            for v in rp:
                cell_of[v] = (i, None)
        for j, cp in enumerate(cols):
            for v in cp:
                cell_of[v] = (cell_of[v][0], j)
        pure = sum(
            1
            for part in out.parts
            if len({cell_of[v] for v in part}) == 1
        )
        assert pure * (24 // 6) >= 24 - total_leftover

    def test_infeasible_q_reports_alternatives(self, rng):
        t = random_tournament(6, rng)
        p = Equipartition(parts=(tuple(range(1, 7)),))
        whole = [list(range(1, 7))]
        with pytest.raises(ValueError, match="feasible"):
            refine_to_equipartition(t, p, whole, whole, 4)
        with pytest.raises(ValueError):
            refine_to_equipartition(t, p, whole, whole, 7)


class TestStrongDecomposition:
    def test_transitive_succeeds(self):
        out = strong_decomposition(
            transitive_tournament(30),
            default_bipartite_pattern(2),
            Fraction(1, 4),
            seed=3,
        )
        assert isinstance(out, StrongDecomposition)
        assert out.item1_failures <= out.item1_bound

    def test_random_sixty(self, rng):
        t = random_tournament(60, rng)
        out = strong_decomposition(
            t, default_bipartite_pattern(2), Fraction(1, 4), seed=3
        )
        if isinstance(out, StrongDecomposition):
            # item 2 recomputed from scratch
            from tourkit.digraphs import density

            for i in range(out.q):
                for j in range(i + 1, out.q):
                    d = density(
                        t, out.representatives[i], out.representatives[j]
                    ).density
                    assert d >= 1 - out.delta or d <= out.delta
        else:
            assert isinstance(out, AfnCopies)

    def test_seed_reproducibility(self, rng):
        t = random_tournament(40, rng)
        a = strong_decomposition(
            t, default_bipartite_pattern(2), Fraction(1, 4), seed=11
        )
        b = strong_decomposition(
            t, default_bipartite_pattern(2), Fraction(1, 4), seed=11
        )
        assert type(a) is type(b)
        if isinstance(a, StrongDecomposition):
            assert a.representatives == b.representatives
            assert a.sample_vertices == b.sample_vertices

    def test_copy_branch_with_tight_budget(self, rng):
        t = random_tournament(30, rng)
        out = strong_decomposition(
            t,
            default_bipartite_pattern(2),
            Fraction(1, 4),
            seed=0,
            size_budget=3,
        )
        assert isinstance(out, AfnCopies)
        a = BinaryMatrix.from_tournament(t)
        b = bipartite_adjacency(default_bipartite_pattern(2))
        assert out.count == count_matrix_copies(a, b)

    def test_partition_audit_from_scratch(self, rng):
        t = random_tournament(30, rng)
        out = strong_decomposition(
            t, default_bipartite_pattern(2), Fraction(1, 4), seed=5
        )
        if isinstance(out, StrongDecomposition):
            audit = audit_equipartition(t, out.partition, Fraction(1, 4) / 5)
            assert audit.homogeneous


def stages_of_four(n):
    """Stage one in consecutive parts of four, stage two halving each."""
    stage1 = Equipartition(parts=tuple(
        tuple(range(v, v + 4)) for v in range(1, n + 1, 4)
    ))
    stage2 = Equipartition(parts=tuple(
        tuple(range(v, v + 2)) for v in range(1, n + 1, 2)
    ))
    return stage1, stage2


def sample_representatives(t, stage1, stage2, delta, seed, retry_budget):
    """The library sampler, fed stage one's tables at delta/5 and delta and
    stage two's at delta, as ``strong_decomposition`` feeds it."""
    a = BinaryMatrix.from_tournament(t)
    ones1 = regularity._equipartition_counts(a, stage1.parts)
    ones2 = regularity._equipartition_counts(a, stage2.parts)
    near, good = regularity._dominant_values(ones1, stage1.parts, delta / 5, delta)
    (rep_good,) = regularity._dominant_values(ones2, stage2.parts, delta)
    return regularity._sample_representatives(
        stage1, stage2, near, good, rep_good, delta, seed, retry_budget
    )


class TestRepresentativeSampling:
    """The sampling loop on hand-built stages with non-singleton parts,
    which the pipeline itself reaches only at n >= 120 (delta = 1/4)."""

    def run_both(self, t, stage1, stage2, delta, seed, retry_budget=200):
        got = sample_representatives(t, stage1, stage2, delta, seed, retry_budget)
        want = oracle_sample_representatives(
            t, stage1, stage2, delta, seed, retry_budget
        )
        assert got == want
        return got

    def test_matches_per_pair_fractions(self):
        rng = random.Random(4)
        stage1, stage2 = stages_of_four(24)
        attempts = []
        failures = []
        for case in range(40):
            # a transitive tournament with one to four of the arcs between
            # a few pairs of halves (in distinct parts) flipped
            pairs = set()
            for _ in range(rng.randint(1, 6)):
                x, y = sorted(rng.sample(range(6), 2))
                hx = stage2.parts[2 * x + rng.randrange(2)]
                hy = stage2.parts[2 * y + rng.randrange(2)]
                arcs = list(itertools.product(hx, hy))
                pairs.update(rng.sample(arcs, rng.randint(1, 4)))
            t = transitive_tournament(24).flip_pairs(sorted(pairs))
            for delta in (Fraction(1, 4), Fraction(1, 3)):
                _, _, fail, attempt = self.run_both(t, stage1, stage2, delta, seed=case)
                attempts.append(attempt)
                failures.append(fail)
        assert max(attempts) >= 2
        assert max(failures) >= 1

    def test_retries_a_bad_representative_pair(self):
        # two of the four arcs between the first halves of parts 1 and 2
        # flipped: that representative pair has density 1/2, so drawing
        # both first halves forces a resample
        stage1, stage2 = stages_of_four(24)
        t = transitive_tournament(24).flip_pairs([(1, 5), (2, 6)])
        attempts = [
            self.run_both(t, stage1, stage2, Fraction(1, 4), seed)[3]
            for seed in range(12)
        ]
        assert max(attempts) >= 2

    def test_flips_count_only_pairs_homogeneous_at_delta_over_five(self):
        # the first halves of any two parts face the wrong way: each
        # stage-one pair has density 3/4, homogeneous at 1/3 but not at
        # 1/15, so a sample of five first halves makes 10 item-1 failures
        # (bound 12) and no flips (bound 9.6)
        stage1, stage2 = stages_of_four(24)
        firsts = stage2.parts[::2]
        t = transitive_tournament(24).flip_pairs([
            (u, v)
            for x, y in itertools.combinations(firsts, 2)
            for u in x
            for v in y
        ])
        failures = {
            self.run_both(t, stage1, stage2, Fraction(1, 3), seed)[2]
            for seed in range(20)
        }
        assert 10 in failures

    def test_exhausted_retries(self):
        # every pair of halves of parts 1 and 2 at density 1/2: no sample
        # avoids a bad representative pair
        stage1, stage2 = stages_of_four(24)
        flips = [(u, v) for u in range(1, 5) for v in range(5, 9) if (u - v) % 2 == 0]
        t = transitive_tournament(24).flip_pairs(flips)
        with pytest.raises(BudgetExceeded) as info:
            sample_representatives(t, stage1, stage2, Fraction(1, 4), 0, 7)
        assert info.value.info == {"retries": 7}
        with pytest.raises(BudgetExceeded):
            oracle_sample_representatives(t, stage1, stage2, Fraction(1, 4), 0, 7)


class TestStageTwoShortcut:
    """Stage two reuses a singleton stage one only when the size budget
    leaves room for n classes; with that room and n <= 30/delta, stage
    one does not run the partitioner either."""

    @staticmethod
    def count_partitioner_calls(monkeypatch):
        calls = []
        real = regularity.afn_partition

        def spy(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(regularity, "afn_partition", spy)
        return calls

    @pytest.mark.parametrize("n, tseed", [(32, 1), (36, 2)])
    def test_budget_n_matches_no_budget(self, n, tseed):
        t = random_tournament(n, random.Random(tseed))
        f = default_bipartite_pattern(2)
        free = strong_decomposition(t, f, Fraction(1, 4), seed=0)
        assert free.q == n
        assert strong_decomposition(
            t, f, Fraction(1, 4), seed=0, size_budget=n
        ) == free

    def test_smaller_budget_runs_stage_two(self, monkeypatch):
        t = transitive_tournament(30)
        f = default_bipartite_pattern(2)
        calls = self.count_partitioner_calls(monkeypatch)
        free = strong_decomposition(t, f, Fraction(1, 4), seed=0)
        assert free.q == 30 and len(calls) == 0
        tight = strong_decomposition(t, f, Fraction(1, 4), seed=0, size_budget=29)
        assert isinstance(tight, StrongDecomposition) and tight.q == 30
        assert len(calls) == 2
        # stage two runs at gamma^2 / 3 with gamma = 1 / (2 q^4)
        assert calls[1] == Fraction(1, 3 * (2 * 30**4) ** 2)


def partitioned_stage_one(t, delta):
    """Stage one as the pipeline built it when it always ran the
    partitioner: its classes at (delta/5)^2/3, refined to the least
    feasible part count at or above 6 |rows| |cols| / (delta/5), else n."""
    n = t.n
    a = BinaryMatrix.from_tournament(t)
    b = bipartite_adjacency(default_bipartite_pattern(2))
    outcome = afn_partition(a, b, (delta / 5) ** 2 / 3)
    assert isinstance(outcome, AfnPartition)
    rows, cols = outcome.audit.row_parts, outcome.audit.col_parts
    target = 6 * len(rows) * len(cols) / (delta / 5)
    q = next((c for c in range(1, n + 1) if n % c == 0 and c >= target), n)
    trivial = Equipartition(parts=(tuple(range(1, n + 1)),))
    return refine_to_equipartition(t, trivial, rows, cols, q)


class TestForcedPartCount:
    """With room for n classes and no feasible part count below n at or
    above 6 |parts| / target, a stage's part count is n whatever the
    partitioner returns, so the partitioner is not run."""

    @pytest.mark.parametrize("delta", [Fraction(1, 4), Fraction(1, 10), Fraction(2, 5)])
    def test_matches_the_partitioned_path(self, monkeypatch, delta):
        rng = random.Random(34)
        for n in [1, 2, 3, 7] + [rng.randint(8, 40) for _ in range(6)] + [40]:
            t = random_tournament(n, rng)
            seed = rng.randrange(100)
            stage1 = partitioned_stage_one(t, delta)
            assert stage1.q == n
            # with q = n, stage two is stage one, as in the pipeline
            _, reps, failures, attempts = sample_representatives(
                t, stage1, stage1, delta, seed, 200
            )
            calls = TestStageTwoShortcut.count_partitioner_calls(monkeypatch)
            out = strong_decomposition(t, default_bipartite_pattern(2), delta, seed)
            monkeypatch.undo()
            assert calls == []
            assert set(out.partition.parts) == set(stage1.parts)
            assert out.partition.parts == tuple((v,) for v in range(1, n + 1))
            assert out.partition.leftover_sizes == stage1.leftover_sizes == (0,)
            assert out.q == stage1.q
            assert out.item1_failures == failures
            assert out.item1_bound == delta * n * n
            assert out.representative_sizes == tuple(len(r) for r in reps)
            assert out.attempts == attempts

    def test_a_feasible_count_at_the_floor_runs_the_partitioner(self, monkeypatch):
        # 61 divides 122 and lies above 6 / (delta/5) = 7500/123 ~ 60.98, so
        # the partitioner's classes could make the part count 61; they do
        # not, and with q = n stage two does not run it again
        t = transitive_tournament(122)
        calls = TestStageTwoShortcut.count_partitioner_calls(monkeypatch)
        out = strong_decomposition(
            t, default_bipartite_pattern(2), Fraction(123, 250), seed=0
        )
        assert calls == [Fraction(123, 1250) ** 2 / 3]
        assert out.q == 122
        assert out.partition.parts != tuple((v,) for v in range(1, 123))


class TestCountsOnce:
    """The pipeline counts the blocks of each stage's equipartition once,
    from raw masks, and reads its audits and sampling tables off that
    count; the partitioner's closing audit, when it runs, keeps its own
    count."""

    @staticmethod
    def count_block_counts(monkeypatch):
        calls = []
        real = regularity._block_counts

        def spy(a, rows, cols):
            calls.append(rows)
            return real(a, rows, cols)

        monkeypatch.setattr(regularity, "_block_counts", spy)
        return calls

    def test_singleton_path_counts_its_partition_once(self, monkeypatch):
        t = random_tournament(36, random.Random(2))
        calls = self.count_block_counts(monkeypatch)
        out = strong_decomposition(
            t, default_bipartite_pattern(2), Fraction(1, 4), seed=0
        )
        assert out.q == 36
        # the partitioner does not run, so only the singleton equipartition
        assert len(calls) == 1
        assert calls[0] == out.partition.parts

    def test_stage_two_path_counts_each_stage_once(self, monkeypatch):
        t = transitive_tournament(30)
        calls = self.count_block_counts(monkeypatch)
        out = strong_decomposition(
            t, default_bipartite_pattern(2), Fraction(1, 4), seed=0, size_budget=29
        )
        assert out.q == 30
        # per stage: the partitioner's audit, then the stage's equipartition
        assert len(calls) == 4
        assert calls[1] == calls[3] == out.partition.parts


class TestEmptyMatrix:
    def test_entry_points_reject_n_zero(self):
        a = BinaryMatrix([])
        t = transitive_tournament(0)
        quarter = Fraction(1, 4)
        calls = (
            lambda: audit_bipartition(a, [], [], quarter),
            lambda: audit_equipartition(t, Equipartition(parts=()), quarter),
            lambda: afn_partition(a, [[1]], quarter),
            lambda: strong_decomposition(t, default_bipartite_pattern(2), quarter, 0),
        )
        for call in calls:
            with pytest.raises(ValueError, match=r"at least one row \(n >= 1\)"):
                call()


class TestEquipartitionType:
    def test_size_spread_enforced(self):
        with pytest.raises(ValueError):
            Equipartition(parts=((1, 2, 3), (4,)))

    def test_audit_rejects_a_non_partition(self, rng):
        t = random_tournament(4, rng)
        for parts in (((1,), (2,)), ((1, 2), (3, 5)), ((1, 2), (2, 3))):
            with pytest.raises(ValueError, match="partition"):
                audit_equipartition(t, Equipartition(parts=parts), Fraction(1, 4))

    def test_audit_totals(self, rng):
        t = random_tournament(12, rng)
        p = Equipartition(parts=tuple(
            tuple(range(i, i + 3)) for i in (1, 4, 7, 10)
        ))
        audit = audit_equipartition(t, p, Fraction(1, 3))
        recount = Fraction(0)
        from tourkit.digraphs import density

        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                d = density(t, p.parts[i], p.parts[j]).density
                assert d == audit.densities[i][j]
                if not (d >= 1 - Fraction(1, 3) or d <= Fraction(1, 3)):
                    recount += Fraction(9, 144)
        assert recount == audit.bad_weight


class TestPinnedOutputs:
    """Frozen results of the pipeline, of the partitioner's split order and
    of its copy branch; a change to the split order, the equipartition
    refinement or the copy scan order shows here."""

    # the order in which the partitioner at (delta/5)^2/3 = 1/1200 splits
    # the matrix of random_tournament(n, random.Random(tseed)) down to
    # singleton classes, the same on rows and columns
    SPLIT_ORDER = {
        (32, 1): (2, 4, 8, 24, 3, 6, 1, 9, 11, 32, 16, 28, 17, 21, 5, 23,
                  12, 31, 14, 30, 7, 27, 19, 25, 18, 29, 20, 26, 10, 22, 13, 15),
        (36, 2): (7, 21, 10, 15, 9, 13, 25, 23, 33, 8, 29, 2, 12, 17, 24, 31,
                  28, 32, 1, 30, 5, 35, 6, 22, 11, 34, 36, 26, 27, 14, 18, 16,
                  19, 20, 3, 4),
        (40, 3): (3, 27, 25, 9, 16, 14, 20, 13, 2, 12, 29, 31, 19, 7, 40, 4,
                  30, 36, 6, 17, 11, 32, 8, 23, 35, 10, 24, 1, 18, 28, 22, 37,
                  33, 38, 39, 5, 15, 34, 21, 26),
    }

    @pytest.mark.parametrize("n, tseed", sorted(SPLIT_ORDER))
    def test_afn_split_order(self, n, tseed):
        a = BinaryMatrix.from_tournament(random_tournament(n, random.Random(tseed)))
        b = bipartite_adjacency(default_bipartite_pattern(2))
        out = afn_partition(a, b, Fraction(1, 1200))
        assert isinstance(out, AfnPartition)
        singletons = tuple((v,) for v in self.SPLIT_ORDER[(n, tseed)])
        assert out.audit.row_parts == singletons
        assert out.audit.col_parts == singletons

    # n <= 30/delta: the part count is n whatever the partitioner's
    # classes, so stage one lists the vertices in order and samples them
    @pytest.mark.parametrize("n, tseed", sorted(SPLIT_ORDER))
    def test_strong_decomposition(self, n, tseed):
        t = random_tournament(n, random.Random(tseed))
        out = strong_decomposition(
            t, default_bipartite_pattern(2), Fraction(1, 4), seed=0
        )
        assert isinstance(out, StrongDecomposition)
        assert out.q == n
        assert out.sample_vertices == tuple(range(1, n + 1))
        assert out.attempts == 1
        assert out.item1_failures == 0

    def test_strong_decomposition_n120(self):
        t = random_tournament(120, random.Random(1))
        out = strong_decomposition(
            t, default_bipartite_pattern(2), Fraction(1, 4), seed=3
        )
        assert isinstance(out, StrongDecomposition)
        assert out.q == 120
        assert out.sample_vertices == tuple(range(1, 121))
        assert out.attempts == 1
        assert out.item1_failures == 0

    def test_afn_copy_branch(self):
        rng = random.Random(3)
        a = BinaryMatrix(
            [[int(rng.random() < 0.2) for _ in range(24)] for _ in range(24)]
        )
        out = afn_partition(a, [[1, 1], [1, 1]], Fraction(1, 10), size_budget=4)
        assert isinstance(out, AfnCopies)
        assert out.count == 97
        assert out.witness == ((8, 16), (1, 16))
