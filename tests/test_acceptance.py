"""Acceptance gate: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria with a stated wall-clock budget assert it; the rest only
assert their properties. Brute-force oracles live here or in conftest and
never share code with the paths they check.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from tourkit.coloring import acyclic_k_coloring, classify
from tourkit.digraphs import (
    OrientedGraph,
    c3_pattern,
    count_embeddings,
    density,
    enumerate_tournaments,
    random_tournament,
    transitive_subtournament,
    transitive_tournament,
)
from tourkit.forcing import (
    KPartiteTournament,
    disjoint_tuples,
    forces_exhaustive,
    search_min_forcing,
)
from tourkit.hardness import (
    check_reduction,
    gadget,
    lift,
    verify_gadget,
)
from tourkit.lowerbound import (
    audit_copy_localization,
    behrend,
    farness_certificate,
    is_ap_free,
    rs_graph,
)
from tourkit.orderedhom import (
    LabeledGraph,
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
from tourkit.regularity import (
    AfnCopies,
    AfnPartition,
    BinaryMatrix,
    Equipartition,
    StrongDecomposition,
    afn_partition,
    audit_equipartition,
    bipartite_adjacency,
    count_matrix_copies,
    default_bipartite_pattern,
    refine_to_equipartition,
    strong_decomposition,
)

from conftest import (
    oracle_cyclic_triangles,
    oracle_graph_chromatic,
    oracle_max_ap_free,
)


@contextmanager
def criterion(name: str, budget_seconds=None):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"{name}: {elapsed:.2f}s exceeds the {budget_seconds}s budget"
        )
    print(f"PASS  {name} ({elapsed:.2f}s)")


# -- enumeration helpers ---------------------------------------------------


def nonisomorphic_graphs(n: int) -> list[LabeledGraph]:
    """All graphs on n vertices up to isomorphism (canonical = minimal
    pair-code over all vertex permutations, vectorized)."""
    pairs = list(itertools.combinations(range(n), 2))
    npairs = len(pairs)
    pair_index = {p: i for i, p in enumerate(pairs)}
    codes = np.arange(1 << npairs, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(npairs)[None, :]) & 1  # (G, pairs)
    weights = 1 << np.arange(npairs, dtype=np.int64)
    best = codes.copy()
    for perm in itertools.permutations(range(n)):
        remap = [
            pair_index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs
        ]
        permuted = bits[:, remap] @ weights
        np.minimum(best, permuted, out=best)
    canonical = sorted(set(int(c) for c in best))
    out = []
    for code in canonical:
        edges = [
            (pairs[i][0] + 1, pairs[i][1] + 1)
            for i in range(npairs)
            if (code >> i) & 1
        ]
        out.append(LabeledGraph(range(1, n + 1), edges))
    return out


def nonisomorphic_oriented_graphs(n: int) -> list[OrientedGraph]:
    """All oriented graphs on n vertices up to isomorphism.

    Each pair carries a trit: 0 none, 1 forward, 2 backward; the canonical
    form is the minimal trit-code over all vertex permutations.
    """
    pairs = list(itertools.combinations(range(n), 2))
    npairs = len(pairs)
    pair_index = {p: i for i, p in enumerate(pairs)}
    total = 3**npairs
    codes = np.arange(total, dtype=np.int64)
    trits = np.zeros((total, npairs), dtype=np.int8)
    rest = codes.copy()
    for i in range(npairs):
        trits[:, i] = rest % 3
        rest //= 3
    weights = 3 ** np.arange(npairs, dtype=np.int64)
    swap = np.array([0, 2, 1], dtype=np.int8)
    best = codes.copy()
    for perm in itertools.permutations(range(n)):
        remap = []
        flip = []
        for a, b in pairs:
            x, y = perm[a], perm[b]
            remap.append(pair_index[(min(x, y), max(x, y))])
            flip.append(x > y)
        cols = trits[:, remap]
        flip_mask = np.array(flip)
        if flip_mask.any():
            cols = cols.copy()
            cols[:, flip_mask] = swap[cols[:, flip_mask]]
        permuted = cols.astype(np.int64) @ weights
        np.minimum(best, permuted, out=best)
    canonical = sorted(set(int(c) for c in best))
    out = []
    for code in canonical:
        edges = []
        rest = code
        for i in range(npairs):
            state = rest % 3
            rest //= 3
            a, b = pairs[i][0] + 1, pairs[i][1] + 1
            if state == 1:
                edges.append((a, b))
            elif state == 2:
                edges.append((b, a))
        out.append(OrientedGraph(n, edges))
    return out


def all_labeled_oriented_graphs(n: int):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        edges = []
        for (a, b), state in zip(pairs, states):
            if state == 1:
                edges.append((a, b))
            elif state == 2:
                edges.append((b, a))
        yield OrientedGraph(n, edges)


def brute_two_colorable_masks(d: OrientedGraph) -> bool:
    """Oracle: subset-mask scan with memoized acyclicity peeling."""
    n = d.n
    full = (1 << (n + 1)) - 2
    acyclic = {0: True}

    def is_acyclic(mask: int) -> bool:
        if mask in acyclic:
            return acyclic[mask]
        m = mask
        ok = False
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if not (d.inn[v] & mask):
                ok = is_acyclic(mask & ~(1 << v))
                break
        acyclic[mask] = ok
        return ok

    sub = full
    while True:
        if is_acyclic(sub) and is_acyclic(full & ~sub):
            return True
        if sub == 0:
            return False
        sub = (sub - 1) & full


# -- the thirteen criteria -------------------------------------------------


class TestAcceptance:
    def test_gadget_sweep(self):
        with criterion("gadget sweep", budget_seconds=1.0):
            g = gadget()
            t = g.tournament
            triples = oracle_cyclic_triangles(t)
            masks = [(1 << x) | (1 << y) | (1 << z) for x, y, z in triples]
            u, v = g.vertex("u"), g.vertex("v")
            target_split = None
            proper = 0
            for code in range(128):
                chosen = 0
                for i in range(7):
                    if (code >> i) & 1:
                        chosen |= 1 << (i + 1)
                if any((m & chosen) in (m, 0) for m in masks):
                    continue
                proper += 1
                assert ((chosen >> u) & 1) == ((chosen >> v) & 1)
                side_uvw = {
                    (chosen >> g.vertex(x)) & 1 for x in ("u", "v", "w")
                }
                side_rest = {
                    (chosen >> g.vertex(x)) & 1 for x in ("a", "b", "c", "d")
                }
                if len(side_uvw) == 1 and len(side_rest) == 1 and side_uvw != side_rest:
                    target_split = code
            assert proper > 0
            assert target_split is not None
            assert verify_gadget().ok

    def test_reduction_equivalence(self):
        with criterion("reduction equivalence", budget_seconds=600.0):
            graphs = []
            for n in range(1, 7):
                graphs.extend(nonisomorphic_graphs(n))
            assert len(graphs) == 1 + 2 + 4 + 11 + 34 + 156
            rng = random.Random(2024)
            for _ in range(200):
                n = 7
                edges = [
                    pair
                    for pair in itertools.combinations(range(1, n + 1), 2)
                    if rng.getrandbits(1)
                ]
                graphs.append(LabeledGraph(range(1, n + 1), edges))
            for g in graphs:
                chk = check_reduction(g)
                assert chk.agree, f"disagreement on {sorted(g.edges)}"
                if chk.tournament_coloring is not None:
                    # the lifted cut leaves no triangle one colour on the spine
                    color = chk.tournament_coloring.color
                    spine = [color(chk.reduction.y_vertex(i)) for i in g.vertices]
                    assert all(
                        len({spine[a - 1], spine[b - 1], spine[c - 1]}) > 1
                        for a, b, c in itertools.combinations(g.vertices, 3)
                        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
                    )

    def test_lift_equivalence(self):
        with criterion("lift equivalence", budget_seconds=60.0):
            for t in enumerate_tournaments(4):
                two = acyclic_k_coloring(t, 2) is not None
                three = acyclic_k_coloring(lift(t, 3), 3) is not None
                assert two == three

    def test_ramsey_extraction(self):
        with criterion("transitive extraction", budget_seconds=120.0):
            for t in enumerate_tournaments(4):
                seq = transitive_subtournament(t, 3)
                assert seq is not None
                assert t.induced(seq).is_acyclic()
            rng = random.Random(7)
            for _ in range(10_000):
                t = random_tournament(8, rng)
                seq = transitive_subtournament(t, 4)
                assert seq is not None
                for i, a in enumerate(seq):
                    for b in seq[i + 1 :]:
                        assert t.has_edge(a, b)

    def test_forcing_for_c3(self):
        with criterion("forcing for the directed triangle", budget_seconds=1.0):
            h = c3_pattern()
            found = search_min_forcing(h, 3)
            assert found is not None and found.m == 2
            # its cross edges contain a directed cycle: no completion is
            # transitive, because transitivity would linearize the cycle
            completions = list(found.completions())
            assert len(completions) == 4
            for comp in completions:
                assert count_embeddings(comp, h) >= 1
            one_way = KPartiteTournament(2, 2, [(1, 3), (1, 4), (2, 3), (2, 4)])
            assert not forces_exhaustive(one_way, h)

    def test_tuple_collections(self):
        with criterion("tuple collections", budget_seconds=1.0):
            for k in range(2, 6):
                for t in range(2, 13):
                    coll = disjoint_tuples(t, k)
                    assert len(coll.tuples) * k * k >= t * t
                    for a, b in itertools.combinations(coll.tuples, 2):
                        assert sum(x == y for x, y in zip(a, b)) <= 1

    def test_behrend(self):
        with criterion("progression-free sets", budget_seconds=60.0):
            for n in range(1, 31):
                result = behrend(n)
                members = result.members
                assert all(1 <= v <= n for v in members)
                assert is_ap_free(members)
                present = set(members)
                for a in members:
                    for c in members:
                        if a < c and (a + c) % 2 == 0:
                            mid = (a + c) // 2
                            assert not (mid in present and mid != a)
                best = oracle_max_ap_free(n)
                assert 2 * len(members) >= best, (n, len(members), best)

    def test_rs_graph_audits(self):
        with criterion("base-graph audits", budget_seconds=120.0):
            cases = [
                (3, (1, 2, 3), 6),
                (3, (1, 2, 3), 20),
                (3, (1, 2, 3), 40),
                (4, (2, 3, 4), 12),
                (5, (1, 3, 5, 2, 4), 10),
            ]
            for k, pattern, nmax in cases:
                g = rs_graph(k, pattern, nmax)
                # item 1: parts independent (no edge inside a part)
                for u, v in g.edges:
                    assert g.part_of(u) != g.part_of(v)
                # item 3: transversal, pairwise edge-disjoint, union = edges
                seen = set()
                for clique in g.cliques:
                    assert sorted(g.part_of(x) for x in clique) == list(
                        range(1, k + 1)
                    )
                    for a, b in itertools.combinations(clique, 2):
                        key = (min(a, b), max(a, b))
                        assert key not in seen
                        seen.add(key)
                assert seen == set(g.edges)
                # item 4 at desk scale
                assert 0 <= g.patterned_cycles <= g.r**2

    def test_blowup_audits(self, micro_blowup):
        with criterion("blow-up audits", budget_seconds=300.0):
            b = micro_blowup
            # item 1: every part's block union is transitive
            for part in range(1, b.base.k + 1):
                vs = [v for x in b.base.part_vertices(part) for v in b.block(x)]
                assert b.tournament.induced(vs).is_acyclic()
            # item 2: non-edges force the full block pair forward
            for i in range(1, b.base.k + 1):
                for j in range(i + 1, b.base.k + 1):
                    for x in b.base.part_vertices(i):
                        for y in b.base.part_vertices(j):
                            if not b.base.has_edge(x, y):
                                stats = density(
                                    b.tournament,
                                    list(b.block(x)),
                                    list(b.block(y)),
                                )
                                assert stats.density == 1
            # item 3: every clique zone carries the construction verbatim
            f = b.forcing
            for clique in b.base.cliques:
                for (u, v) in f.cross_edges():
                    pu, pv = f.part_of(u), f.part_of(v)
                    au, av = (u - 1) % b.m + 1, (v - 1) % b.m + 1
                    assert b.tournament.has_edge(
                        b.block(clique[pu - 1])[au - 1],
                        b.block(clique[pv - 1])[av - 1],
                    )
            report = audit_copy_localization(b)
            assert report.total_copies >= 1
            assert not report.violations

    def test_farness_mechanics(self, farness_blowup):
        with criterion("farness mechanics", budget_seconds=300.0):
            b = farness_blowup
            base = farness_certificate(b, b.tournament)
            assert base.count >= 2
            # pairwise cut-edge disjointness, rechecked here
            used = set()
            for _, emb in base.family:
                for (u, v) in b.pattern.edges:
                    x, y = emb.apply(u), emb.apply(v)
                    if b.is_cut_pair(x, y):
                        key = (min(x, y), max(x, y))
                        assert key not in used
                        used.add(key)
            # reversing j < |family| cut-edges leaves >= |family| - j copies
            for j in range(1, base.count):
                pairs = []
                for (_, emb) in base.family[:j]:
                    for (u, v) in b.pattern.edges:
                        x, y = emb.apply(u), emb.apply(v)
                        if b.is_cut_pair(x, y):
                            pairs.append((x, y))
                            break
                mutated = b.tournament.flip_pairs(pairs)
                survivors = sum(
                    1
                    for _, emb in base.family
                    if all(
                        mutated.has_edge(emb.apply(u), emb.apply(v))
                        for (u, v) in b.pattern.edges
                    )
                )
                assert survivors >= base.count - j
                cert = farness_certificate(b, mutated)
                assert cert.reversed_cut_edges == j
                assert cert.survivors_verified >= cert.count - j

    def test_regularity_audits(self):
        with criterion("regularity audits", budget_seconds=300.0):
            rng = random.Random(99)

            def recount(a, rows, cols, delta):
                bad = Fraction(0)
                for rp in rows:
                    for cp in cols:
                        ones = sum(a[(r, c)] for r in rp for c in cp)
                        size = len(rp) * len(cp)
                        if min(ones, size - ones) > delta * size:
                            bad += Fraction(size, a.n * a.n)
                return bad

            # partitions from the conditional partitioner
            for t in (transitive_tournament(20), random_tournament(20, rng)):
                a = BinaryMatrix.from_tournament(t)
                out = afn_partition(a, [[1, 1], [1, 1]], Fraction(1, 4))
                assert isinstance(out, AfnPartition)
                rows = [list(p) for p in out.audit.row_parts]
                cols = [list(p) for p in out.audit.col_parts]
                assert recount(a, rows, cols, Fraction(1, 4)) <= Fraction(1, 4)

            # refinement output re-audited from scratch
            t24 = random_tournament(24, rng)
            p = Equipartition(parts=(tuple(range(1, 25)),))
            rows = [[v for v in range(1, 25) if v % 3 == r] for r in range(3)]
            cols = [[v for v in range(1, 25) if v % 2 == r] for r in range(2)]
            refined = refine_to_equipartition(t24, p, rows, cols, 8)
            assert refined.q == 8
            sizes = {len(part) for part in refined.parts}
            assert sizes == {3}
            for part in refined.parts:
                assert set(part) <= set(range(1, 25))

            # decomposition pipeline output re-audited from scratch
            for t in (transitive_tournament(30), random_tournament(40, rng)):
                out = strong_decomposition(
                    t, default_bipartite_pattern(2), Fraction(1, 4), seed=5
                )
                if isinstance(out, StrongDecomposition):
                    audit = audit_equipartition(
                        t, out.partition, Fraction(1, 4) / 5
                    )
                    assert audit.homogeneous
                    for i in range(out.q):
                        for j in range(i + 1, out.q):
                            d = density(
                                t,
                                out.representatives[i],
                                out.representatives[j],
                            ).density
                            assert d >= 1 - out.delta or d <= out.delta
                else:
                    assert isinstance(out, AfnCopies) and out.count > 0

            # exact submatrix counting vs full enumeration
            a6 = BinaryMatrix.random(6, rng)
            for bits in itertools.product((0, 1), repeat=4):
                b = [[bits[0], bits[1]], [bits[2], bits[3]]]
                brute = 0
                for r1, r2 in itertools.combinations(range(1, 7), 2):
                    for c1, c2 in itertools.combinations(range(1, 7), 2):
                        got = (a6[r1, c1], a6[r1, c2], a6[r2, c1], a6[r2, c2])
                        if got == bits:
                            brute += 1
                assert count_matrix_copies(a6, b) == brute

            # diagonal-avoiding copies vs pattern embeddings at n <= 8
            f = default_bipartite_pattern(2)
            bmat = bipartite_adjacency(f)
            for n in (6, 8):
                t = random_tournament(n, rng)
                a = BinaryMatrix.from_tournament(t)
                fast = count_matrix_copies(a, bmat, avoid_diagonal=True)
                brute = 0
                for rows_ in itertools.combinations(range(1, n + 1), 2):
                    for cols_ in itertools.combinations(range(1, n + 1), 2):
                        if set(rows_) & set(cols_):
                            continue
                        if all(
                            (1 if t.has_edge(rows_[i], cols_[j]) else 0)
                            == bmat[i][j]
                            for i in range(2)
                            for j in range(2)
                        ):
                            brute += 1
                assert fast == brute

    def test_ordered_core_suite(self, minimal_hard, hard_family):
        with criterion("ordered-core suite", budget_seconds=900.0):
            rng = random.Random(5)

            # idempotence: exhaustive through five vertices, sampled at six
            for n in range(1, 6):
                pairs = list(itertools.combinations(range(1, n + 1), 2))
                for code in range(1 << len(pairs)):
                    g = LabeledGraph(
                        range(1, n + 1),
                        (pairs[i] for i in range(len(pairs)) if (code >> i) & 1),
                    )
                    core = ordered_core(g)
                    assert order_isomorphic(ordered_core(core), core)
            for _ in range(150):
                edges = [
                    pair
                    for pair in itertools.combinations(range(1, 7), 2)
                    if rng.getrandbits(1)
                ]
                g = LabeledGraph(range(1, 7), edges)
                core = ordered_core(g)
                assert order_isomorphic(ordered_core(core), core)

            # poset antisymmetry across several families
            for h in (
                c3_pattern(),
                transitive_tournament(4),
                nonisomorphic_oriented_graphs(4)[37],
            ):
                family = core_family(h)
                for i, a in enumerate(family.members):
                    assert is_ordered_core(a)
                    for j, b in enumerate(family.members):
                        if i < j:
                            mutual = (
                                find_oph(a, b) is not None
                                and find_oph(b, a) is not None
                            )
                            assert not mutual

            # isomorphism rigidity: monotone maps between order-isomorphic
            # cores are bijections
            checked = 0
            for _ in range(120):
                edges = [
                    pair
                    for pair in itertools.combinations(range(1, 6), 2)
                    if rng.getrandbits(1)
                ]
                core = ordered_core(LabeledGraph(range(1, 6), edges))
                if core.n < 2:
                    continue
                shifted = LabeledGraph(
                    [v + 2 for v in core.vertices],
                    [(a + 2, b + 2) for a, b in core.edges],
                )
                for oph in enumerate_ophs(core, shifted):
                    checked += 1
                    assert len({img for _, img in oph.mapping}) == core.n
            assert checked > 0

            # backedge chromatic identity for every oriented graph on <= 5
            # vertices; both sides are relabeling-invariant, so checking one
            # representative per isomorphism class covers all labeled graphs
            hard_found = []
            for n in range(1, 6):
                for h in nonisomorphic_oriented_graphs(n):
                    direct = 1
                    while acyclic_k_coloring(h, direct) is None:
                        direct += 1
                    best = min(
                        oracle_graph_chromatic(backedge_graph(h, labeling))
                        for labeling in itertools.permutations(range(1, n + 1))
                    )
                    assert max(best, 1) == direct
                    if direct > 2:
                        hard_found.append(h)
            # no oriented graph through five vertices needs three classes
            assert not hard_found

            # odd-cycle certificates for every non-2-colorable pattern found:
            # none exist through five vertices, so the discovered minimal
            # tournament supplies the nonvacuous case
            kernel = select_k(hard_family)
            assert oracle_graph_chromatic(kernel) > 2
            cycle = odd_cycle_certificate(kernel)
            assert len(cycle) % 2 == 1 and len(cycle) >= 3
            for i, v in enumerate(cycle):
                assert kernel.has_edge(v, cycle[(i + 1) % len(cycle)])

    def test_classifier_ground_truth(self):
        with criterion("classifier ground truth", budget_seconds=600.0):
            for n in range(1, 5):
                for h in all_labeled_oriented_graphs(n):
                    assert (classify(h) == "easy") == brute_two_colorable_masks(h)
            count = 0
            for h in all_labeled_oriented_graphs(5):
                assert (classify(h) == "easy") == brute_two_colorable_masks(h)
                count += 1
            assert count == 3**10
