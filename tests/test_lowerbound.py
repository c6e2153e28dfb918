"""Progression-free sets, the base graph, the blow-up and its audits."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from tourkit.digraphs import density
from tourkit.lowerbound import (
    audit_copy_localization,
    behrend,
    blowup_tournament,
    derive_part_structure,
    farness_certificate,
    is_ap_free,
    rs_graph,
)

from conftest import (
    oracle_behrend,
    oracle_graph_chromatic,
    oracle_localization,
    oracle_max_ap_free,
    oracle_patterned_cycles,
    oracle_special_tuples,
)


class TestBehrend:
    def test_singleton_range(self):
        assert behrend(1).members == (1,)

    def test_small_ranges_are_ap_free(self):
        for n in range(1, 31):
            result = behrend(n)
            assert is_ap_free(result.members)
            assert all(1 <= v <= n for v in result.members)

    def test_within_factor_two_of_optimum_spot_checks(self):
        for n in (5, 9, 14, 20):
            best = oracle_max_ap_free(n)
            assert 2 * len(behrend(n).members) >= best

    def test_ap_detector(self):
        assert is_ap_free([1, 2, 4, 5])
        assert not is_ap_free([1, 2, 3])
        assert not is_ap_free([2, 6, 10])
        assert is_ap_free([])


class TestBehrendAgainstOracle:
    """``behrend`` enumerates only the digit vectors that fit and skips
    candidates and grids that cannot win; the oracle walks every cube."""

    @staticmethod
    def _fields(result):
        return (result.members, result.digits, result.dimension, result.radius)

    def test_small_ranges(self):
        for n in range(1, 65):
            assert self._fields(behrend(n)) == oracle_behrend(n), n

    def test_bench_base_graph_ranges(self):
        for n in (120, 130, 140, 150, 160):
            assert self._fields(behrend(n)) == oracle_behrend(n), n

    def test_large_range_pinned(self):
        # values taken when every grid's whole cube was enumerated
        result = behrend(400)
        assert (len(result), result.digits, result.dimension, result.radius) == (
            32,
            2,
            5,
            None,
        )
        assert result.n_max == 400 and is_ap_free(result.members)


class TestRSGraph:
    def test_triangle_family(self):
        g = rs_graph(3, (1, 2, 3), 12)
        # transversality and edge-disjointness are constructor audits;
        # recheck edge-disjointness independently
        seen = set()
        for clique in g.cliques:
            assert len(clique) == 3
            for u, v in itertools.combinations(clique, 2):
                key = (min(u, v), max(u, v))
                assert key not in seen
                seen.add(key)
        assert seen == set(g.edges)

    def test_parts_are_independent(self):
        g = rs_graph(4, (1, 2, 4), 8)
        for u, v in g.edges:
            assert g.part_of(u) != g.part_of(v)

    def test_delta_is_declared_density(self):
        g = rs_graph(3, (1, 2, 3), 10)
        assert g.delta == Fraction(len(g.cliques), g.r**2)

    def test_patterned_cycles_match_independent_recount(self):
        cases = [
            (3, (1, 2, 3), 8),
            (3, (2, 1, 3), 25),
            (4, (1, 3, 2), 12),
            (4, (4, 2, 1, 3), 16),
            (5, (1, 3, 5, 2, 4), 20),
            (5, (5, 3, 1, 4, 2), 40),
            (5, (5, 3, 1, 4, 2), 60),
        ]
        for k, pattern, nmax in cases:
            g = rs_graph(k, pattern, nmax)
            assert g.patterned_cycles == oracle_patterned_cycles(g)
            assert g.patterned_cycles <= g.r**2

    def test_bench_base_graph_pinned(self):
        # the base graph of the blowup bench's rsgraph job; values taken
        # when behrend enumerated every grid's whole cube
        g = rs_graph(5, (5, 3, 1, 4, 2), 130)
        assert (len(g.cliques), len(g.edges), g.patterned_cycles) == (672, 6720, 11280)

    def test_cycle_bound_across_small_parameters(self):
        for k, nmax in ((3, 5), (3, 25), (3, 40), (4, 12), (5, 10)):
            pattern = tuple(range(1, min(k, 3) + 1)) if k == 3 else (1, 2, 3)
            g = rs_graph(k, pattern, nmax)
            assert g.patterned_cycles <= g.r**2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            rs_graph(3, (1, 2), 5)
        with pytest.raises(ValueError):
            rs_graph(3, (1, 2, 2), 5)
        with pytest.raises(ValueError):
            rs_graph(2, (1, 2, 3), 5)


class TestPartStructure:
    def test_kernel_is_not_two_colorable(self, hard_structure):
        kernel, witness, classes, d, cycle, part_cycle = hard_structure
        assert oracle_graph_chromatic(kernel) > 2
        assert len(cycle) % 2 == 1

    def test_classes_partition_and_are_acyclic(self, minimal_hard, hard_structure):
        _, _, classes, _, _, _ = hard_structure
        flat = sorted(v for cls in classes for v in cls)
        assert flat == list(minimal_hard.vertices)
        for cls in classes:
            assert minimal_hard.induced(cls).is_acyclic()

    def test_d_edges_are_forced_in_pattern(self, minimal_hard, hard_structure):
        _, _, classes, d, _, _ = hard_structure
        for (i, j) in d.edges:
            for u in classes[j - 1]:
                for v in classes[i - 1]:
                    assert not minimal_hard.has_edge(u, v)

    # the bench's blowup patterns: the minimal hard pattern relabeled
    # vertex v -> labeling[v - 1]; kernels, witnesses, classes and part
    # cycles taken when the core family built a LabeledGraph per backedge
    # graph
    KERNEL_1 = ((1, 2, 3, 5, 7), [(1, 3), (1, 5), (2, 5), (2, 7), (3, 7)])
    KERNEL_2 = ((1, 2, 4, 6, 7), [(1, 4), (1, 6), (2, 6), (2, 7), (4, 7)])
    BENCH_DERIVATIONS = [
        ((6, 1, 2, 7, 4, 3, 5), KERNEL_1, (1, 2, 5, 6, 4, 3, 7),
         ((1,), (2,), (6,), (3, 5), (4, 7))),
        ((2, 3, 7, 1, 6, 4, 5), KERNEL_1, (2, 3, 1, 5, 4, 7, 6),
         ((3,), (1,), (2,), (4, 5), (6, 7))),
        ((7, 5, 4, 2, 6, 1, 3), KERNEL_1, (1, 2, 5, 6, 4, 7, 3),
         ((1,), (2,), (7,), (3, 5), (4, 6))),
        ((6, 2, 4, 3, 1, 5, 7), KERNEL_2, (2, 1, 3, 7, 6, 4, 5),
         ((2,), (1, 3), (6,), (5, 7), (4,))),
        ((4, 5, 1, 7, 6, 3, 2), KERNEL_1, (2, 1, 4, 3, 5, 6, 7),
         ((2,), (1,), (4,), (3, 5), (6, 7))),
        ((2, 3, 4, 7, 5, 6, 1), KERNEL_1, (1, 3, 5, 2, 6, 4, 7),
         ((1,), (4,), (2,), (3, 6), (5, 7))),
        ((1, 2, 5, 6, 7, 3, 4), KERNEL_1, (3, 1, 5, 4, 2, 7, 6),
         ((2,), (5,), (1,), (3, 4), (6, 7))),
        ((7, 3, 5, 6, 1, 2, 4), KERNEL_1, (2, 1, 4, 5, 7, 6, 3),
         ((2,), (1,), (7,), (3, 4), (5, 6))),
        ((2, 5, 1, 6, 4, 3, 7), KERNEL_1, (2, 3, 1, 6, 4, 7, 5),
         ((3,), (1,), (2,), (5, 7), (4, 6))),
    ]

    @pytest.mark.parametrize(
        "labeling, kernel, witness, classes", BENCH_DERIVATIONS
    )
    def test_bench_relabelings_pinned(
        self, minimal_hard, labeling, kernel, witness, classes
    ):
        got = derive_part_structure(minimal_hard.relabel(list(labeling)))
        assert (got[0].vertices, sorted(got[0].edges)) == kernel
        assert got[1] == witness
        assert got[2] == classes
        assert got[5] == (5, 3, 1, 4, 2)

    def test_two_colorable_patterns_are_refused(self):
        from tourkit.digraphs import c3_pattern

        with pytest.raises(ValueError):
            derive_part_structure(c3_pattern())
        with pytest.raises(ValueError):
            blowup_tournament(c3_pattern(), 50, seed=0)


class TestBlowupStructure:
    def test_part_unions_are_transitive(self, micro_blowup):
        b = micro_blowup
        for part in range(1, b.base.k + 1):
            vs = [v for x in b.base.part_vertices(part) for v in b.block(x)]
            assert b.tournament.induced(vs).is_acyclic()

    def test_non_edges_have_density_one(self, micro_blowup):
        b = micro_blowup
        k = b.base.k
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                for x in b.base.part_vertices(i):
                    for y in b.base.part_vertices(j):
                        if not b.base.has_edge(x, y):
                            stats = density(
                                b.tournament, list(b.block(x)), list(b.block(y))
                            )
                            assert stats.density == 1

    def test_cliques_carry_exact_forcing_copies(self, micro_blowup):
        b = micro_blowup
        f = b.forcing
        for clique in b.base.cliques:
            for (u, v) in f.cross_edges():
                pu, pv = f.part_of(u), f.part_of(v)
                au, av = (u - 1) % b.m + 1, (v - 1) % b.m + 1
                gu = b.block(clique[pu - 1])[au - 1]
                gv = b.block(clique[pv - 1])[av - 1]
                assert b.tournament.has_edge(gu, gv)

    def test_n_rounding_reported(self, minimal_hard, good_seed):
        b = blowup_tournament(minimal_hard, 55, seed=good_seed, n_max=5)
        assert b.requested_n == 55
        assert b.n == 50  # rounded down to a multiple of the base order


class TestLocalization:
    def test_empty_clique_family_is_pattern_free(self, minimal_hard, good_seed):
        # n_max = 4 admits no clique (1 + 4d > 4 for every difference d),
        # so the blow-up is transitive and has no copies at all
        b = blowup_tournament(minimal_hard, 20, seed=good_seed, n_max=4)
        assert not b.base.cliques
        assert b.tournament.is_acyclic()
        report = audit_copy_localization(b)
        assert report.total_copies == 0
        assert report.ok

    def test_nontrivial_instance_localizes(self, micro_blowup):
        report = audit_copy_localization(micro_blowup)
        assert report.total_copies >= 1
        assert report.ok
        assert report.total_copies <= report.copy_bound

    def test_special_tuple_bound(self, micro_blowup):
        report = audit_copy_localization(micro_blowup)
        assert report.special_tuples <= report.special_tuple_bound

    def test_matches_oracles_on_blowups_and_mutants(self, micro_blowup, farness_blowup):
        b = micro_blowup
        pairs = list(itertools.combinations(b.tournament.vertices, 2))
        # 40 random reversals; the mutant of seed 10 mixes copies that
        # thread a tuple with copies that do not
        mutants = [
            dataclasses.replace(
                b,
                tournament=b.tournament.flip_pairs(random.Random(seed).sample(pairs, 40)),
            )
            for seed in (0, 3, 4, 10)
        ]
        mixed = False
        for case in [micro_blowup, farness_blowup, *mutants]:
            report = audit_copy_localization(case)
            total, violations = oracle_localization(case)
            assert report.total_copies == total
            assert list(report.violations) == violations
            assert report.special_tuples == oracle_special_tuples(case)
            mixed |= 0 < len(violations) < total
        assert mixed


class TestFarness:
    def test_unmutated_family_all_survive(self, farness_blowup):
        cert = farness_certificate(farness_blowup, farness_blowup.tournament)
        assert cert.count >= len(farness_blowup.base.cliques)
        assert cert.reversed_cut_edges == 0
        assert cert.certified_surviving == cert.count
        assert cert.survivors_verified == cert.count

    def test_family_is_cut_edge_disjoint(self, farness_blowup):
        b = farness_blowup
        cert = farness_certificate(b, b.tournament)
        used = set()
        for _, emb in cert.family:
            for (u, v) in b.pattern.edges:
                a, bb = emb.apply(u), emb.apply(v)
                if b.is_cut_pair(a, bb):
                    key = (min(a, bb), max(a, bb))
                    assert key not in used
                    used.add(key)

    def test_unit_sensitivity_per_cut_edge(self, farness_blowup):
        b = farness_blowup
        base = farness_certificate(b, b.tournament)
        for j in (1, 2, min(4, base.count - 1)):
            pairs = []
            for (_, emb) in base.family[:j]:
                for (u, v) in b.pattern.edges:
                    a, bb = emb.apply(u), emb.apply(v)
                    if b.is_cut_pair(a, bb):
                        pairs.append((a, bb))
                        break
            mutated = b.tournament.flip_pairs(pairs)
            cert = farness_certificate(b, mutated)
            assert cert.reversed_cut_edges == j
            assert cert.survivors_verified >= cert.count - j
            assert cert.certified_surviving == cert.count - j

    def test_cluster_only_mutation_kills_nothing(self, farness_blowup):
        b = farness_blowup
        block_one = list(b.block(1))
        mutated = b.tournament.flip_pairs([(block_one[0], block_one[1])])
        cert = farness_certificate(b, mutated)
        assert cert.reversed_cut_edges == 0
        assert cert.reversed_cluster_edges == 1
        # every certified copy survives: the family only leans on cut-edges
        # once the hybrid's cluster side is taken from the mutation itself
        assert cert.survivors_verified == cert.count
        assert cert.certified_surviving == cert.count

    def test_random_cut_mutations_respect_bound(self, farness_blowup, rng):
        b = farness_blowup
        cut_pairs = [
            (u, v)
            for (u, v) in b.tournament.edges
            if b.is_cut_pair(u, v)
        ]
        for trial in range(3):
            chosen = rng.sample(cut_pairs, 5)
            mutated = b.tournament.flip_pairs(chosen)
            cert = farness_certificate(b, mutated)
            assert cert.reversed_cut_edges == 5
            assert cert.survivors_verified >= cert.count - 5
