"""Shared fixtures and brute-force oracles.

Oracles here are deliberately naive re-implementations (full enumeration,
exhaustive assignment scans) kept independent of the library's search
paths; tests freeze expected values computed by these oracles.
"""

import hashlib
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

try:
    import tourkit  # noqa: F401
except ImportError:  # raw checkout without an editable install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tourkit.coloring import (
    Coloring,
    acyclic_k_coloring,
    smallest_non_two_colorable_tournament,
    verify_coloring,
)
from tourkit.digraphs import (
    DistanceResult,
    OrientedGraph,
    Tournament,
    enumerate_embeddings,
    tournament_from_bits,
)
from tourkit.errors import BudgetExceeded
from tourkit.forcing import build_forcing, certify_completion
from tourkit.lowerbound import blowup_tournament, derive_part_structure
from tourkit.orderedhom import LabeledGraph, backedge_graph, core_family, find_oph


@pytest.fixture(scope="session")
def minimal_hard() -> Tournament:
    return smallest_non_two_colorable_tournament()


@pytest.fixture(scope="session")
def hard_family(minimal_hard):
    return core_family(minimal_hard)


@pytest.fixture(scope="session")
def hard_structure(minimal_hard):
    return derive_part_structure(minimal_hard)


def find_certifying_seed(h, classes, d, m, max_seed=4000):
    """Smallest seed whose construction certifies a copy against the
    all-ascending completion (the cluster order used by the blow-up)."""
    cls = [list(c) for c in classes]
    for seed in range(max_seed):
        f = build_forcing(h, cls, d, m, seed)
        inner = [
            (a, b)
            for part in range(1, f.k + 1)
            for a, b in itertools.combinations(f.part_vertices(part), 2)
        ]
        completion = f.completion(inner)
        if certify_completion(f, completion, h, cls).count >= 1:
            return seed
    raise AssertionError("no certifying seed found within the search budget")


@pytest.fixture(scope="session")
def good_seed(minimal_hard, hard_structure):
    _, _, classes, d, _, _ = hard_structure
    return find_certifying_seed(minimal_hard, classes, d, 2)


@pytest.fixture(scope="session")
def micro_blowup(minimal_hard, good_seed):
    # one clique, blocks of two: 50 vertices
    return blowup_tournament(minimal_hard, 50, seed=good_seed, n_max=5)


@pytest.fixture(scope="session")
def farness_blowup(minimal_hard, good_seed):
    # eight cliques, blocks of two: 100 vertices
    return blowup_tournament(minimal_hard, 100, seed=good_seed, n_max=10)


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


# -- oracles --------------------------------------------------------------


def enumerate_tournaments(n: int):
    """All 2^C(n,2) labeled tournaments on 1..n, in bit order."""
    for bits in range(1 << (n * (n - 1) // 2)):
        yield tournament_from_bits(n, bits)


def oracle_smallest_non_two_colorable() -> Tournament:
    """Build and search every tournament in (n, bit-code) order; the first
    with no acyclic 2-coloring."""
    n = 1
    while True:
        for t in enumerate_tournaments(n):
            if acyclic_k_coloring(t, 2) is None:
                return t
        n += 1


def oracle_injections(host: OrientedGraph, pattern: OrientedGraph) -> list:
    """Naive enumeration of all injections with edge preservation;
    entry k of an injection is the image of pattern vertex k+1."""
    return [
        image
        for image in itertools.permutations(host.vertices, pattern.n)
        if all(host.has_edge(image[u - 1], image[v - 1]) for u, v in pattern.edges)
    ]


def oracle_count_injections(host: OrientedGraph, pattern: OrientedGraph) -> int:
    return len(oracle_injections(host, pattern))


def oracle_acyclic(vertices, edges) -> bool:
    """Repeated sink removal over a set of ordered pairs: the digraph on
    ``vertices`` is acyclic iff removing sinks empties it."""
    left = set(vertices)
    arcs = {(u, v) for u, v in edges if u in left and v in left}
    while left:
        sinks = {v for v in left if not any(u == v for u, _ in arcs)}
        if not sinks:
            return False
        left -= sinks
        arcs = {(u, v) for u, v in arcs if v not in sinks}
    return True


def oracle_two_colorable(d: OrientedGraph) -> bool:
    """Exhaustive scan of all 2^n class assignments."""
    for code in range(1 << d.n):
        cls0 = [v for v in d.vertices if not (code >> (v - 1)) & 1]
        cls1 = [v for v in d.vertices if (code >> (v - 1)) & 1]
        ok = True
        for cls in (cls0, cls1):
            if not oracle_acyclic(cls, d.edges):
                ok = False
                break
        if ok:
            return True
    return False


def brute_force_k_colorable(d: OrientedGraph, k: int) -> bool:
    """Scan all k^n class assignments for a proper one."""
    if d.n == 0:
        return True
    for assignment in itertools.product(range(1, k + 1), repeat=d.n):
        if verify_coloring(d, Coloring(assignment, k)):
            return True
    return False


def oracle_cyclic_triangles(t) -> list[tuple[int, int, int]]:
    """Every cyclic triple a -> b -> c -> a once, with a its least vertex,
    in lexicographic order: a filter over all ordered vertex triples."""
    e = t.edges
    return [
        (a, b, c)
        for a, b, c in itertools.permutations(t.vertices, 3)
        if a < b and a < c and (a, b) in e and (b, c) in e and (c, a) in e
    ]


def oracle_nae(num_vars: int, clauses) -> bool:
    """Exhaustive scan of all 2^num_vars 0/1 assignments for one that
    leaves no clause with all three values equal."""
    for code in range(1 << num_vars):
        if all(
            len({(code >> (v - 1)) & 1 for v in clause}) > 1 for clause in clauses
        ):
            return True
    return False


def oracle_tournament_forced(t, v: int, same: int, opp: int) -> int:
    """The NAE tournament front's forced set as the gather rule states it:
    ``inn[v] & OR out[u]`` over the u in ``same & out[v]``, joined with
    ``out[v] & OR inn[u]`` over the u in ``same & inn[v]``, less ``opp``;
    one bit test per vertex."""
    out, inn = t.out, t.inn
    acc = 0
    for u in t.vertices:
        if (same >> u) & 1:
            if (out[v] >> u) & 1:
                acc |= inn[v] & out[u]
            elif (inn[v] >> u) & 1:
                acc |= out[v] & inn[u]
    return acc & ~opp


def oracle_nae_chronological(num_vars: int, clauses=None, tournament=None):
    """The NAE search as it was before it backjumped, with its node count.

    Exactly one of ``clauses`` and ``tournament`` is given. The search
    and both forced-set rules are the chronological-backtracking ones,
    copied unchanged apart from the returned count, so a fault in the
    backjumping search cannot hide in its own check. Returns the
    assignment (None when there is none) and the nodes visited.
    """
    if tournament is None:
        degree, forced = _chrono_clause_rule(num_vars, clauses)
    else:
        degree, forced = _chrono_tournament_rule(tournament)
    return _chrono_search(num_vars, degree, forced)


def _chrono_gather(mask: int, table) -> int:
    acc = 0
    while mask:
        low = mask & -mask
        acc |= table[low.bit_length() - 1]
        mask ^= low
    return acc


def _chrono_clause_rule(num_vars, clauses):
    degree = [0] * (num_vars + 1)
    # link[v][u] for each partner u of v, and the mask of those partners
    link = [{} for _ in range(num_vars + 1)]
    partners = [0] * (num_vars + 1)
    for a, b, c in clauses:
        for v, u, w in ((a, b, c), (b, c, a), (c, a, b)):
            degree[v] += 1
            link[v][u] = link[v].get(u, 0) | (1 << w)
            link[v][w] = link[v].get(w, 0) | (1 << u)
            partners[v] |= (1 << u) | (1 << w)

    def forced(v, same, opp):
        return _chrono_gather(same & partners[v], link[v])

    return degree, forced


def _chrono_tournament_rule(t):
    out, inn = t.out, t.inn
    degree, partners = _chrono_triangle_partners(t)

    def half(a, c, fwd, back):
        # the w in c with back[w] & a, i.e. c & OR fwd[u] over the u in a
        if a.bit_count() <= c.bit_count():
            return c & _chrono_gather(a, fwd)
        hit = 0
        while c:
            low = c & -c
            if back[low.bit_length() - 1] & a:
                hit |= low
            c ^= low
        return hit

    def forced(v, same, opp):
        p = partners[v]
        same &= p
        p &= ~opp
        return half(same & out[v], p & inn[v], out, inn) | half(
            same & inn[v], p & out[v], inn, out
        )

    return degree, forced


def _chrono_triangle_partners(t):
    out, inn = t.out, t.inn
    degree = [0] * (t.n + 1)
    partners = [0] * (t.n + 1)
    for v in t.vertices:
        walk, other = out[v], inn[v]
        table = out
        if walk.bit_count() > other.bit_count():
            walk, other, table = other, walk, inn
        count = shared = 0
        while walk:
            low = walk & -walk
            x = table[low.bit_length() - 1] & other
            if x:
                count += x.bit_count()
                shared |= low | x
            walk ^= low
        degree[v] = count
        partners[v] = shared
    return degree, partners


def _chrono_search(num_vars, degree, forced):
    side = [0, 0]
    by_degree = sorted(range(1, num_vars + 1), key=lambda v: (-degree[v], v))

    def assign(v, x):
        side[x] |= 1 << v
        queue = [(v, x)]
        while queue:
            v, x = queue.pop()
            y = 1 - x
            new = forced(v, side[x], side[y])
            if new & side[x]:
                return False
            new &= ~side[y]
            if new:
                side[y] |= new
                while new:
                    low = new & -new
                    queue.append((low.bit_length() - 1, y))
                    new ^= low
        return True

    # each entry is a branch still to try: the position in by_degree, the
    # two masks to restore and the value; a node pushes its branches in
    # reverse, so value 0 runs first and value 1 after its whole subtree
    pending = []
    start = nodes = 0
    while True:
        nodes += 1
        # assignments only grow along a branch, so the scan resumes at start
        assigned = side[0] | side[1]
        while start < num_vars and (assigned >> by_degree[start]) & 1:
            start += 1
        if start == num_vars:
            return [(side[1] >> v) & 1 for v in range(1, num_vars + 1)], nodes
        zero, one = side
        if nodes > 1:  # the root pins its variable to 0
            pending.append((start, zero, one, 1))
        pending.append((start, zero, one, 0))
        while pending:
            start, side[0], side[1], value = pending.pop()
            if assign(by_degree[start], value):
                break
        else:
            return None, nodes
        start += 1


def oracle_nae_first(num_vars: int, clauses):
    """The first NAE assignment in the search's order, by enumeration.

    Variables are ordered by clause count (most first, ties to the
    smaller index) and the assignments are scanned lexicographically in
    that order, 0 before 1, with the first variable held at 0. None when
    no assignment qualifies.
    """
    degree = [0] * (num_vars + 1)
    for clause in clauses:
        for v in clause:
            degree[v] += 1
    ordered = sorted(range(1, num_vars + 1), key=lambda v: (-degree[v], v))
    for values in itertools.product((0, 1), repeat=max(num_vars - 1, 0)):
        value = dict(zip(ordered, (0, *values)))
        if all(len({value[v] for v in clause}) == 2 for clause in clauses):
            return [value[v] for v in range(1, num_vars + 1)]
    return None


def oracle_chromatic(d: OrientedGraph) -> int:
    """Least k over exhaustive k^n assignments."""
    for k in range(1, d.n + 1):
        for assignment in itertools.product(range(k), repeat=d.n):
            ok = True
            for c in range(k):
                cls = [v for v in d.vertices if assignment[v - 1] == c]
                if not oracle_acyclic(cls, d.edges):
                    ok = False
                    break
            if ok:
                return k
    return d.n


def oracle_acyclic_k_coloring(d: OrientedGraph, k: int, budget=None):
    """The recursive colouring backtracker: vertices 1..n in order, classes
    in index order, vertex 1 pinned to class 1, one fresh class opened at
    a time, one node per placement plus the root. Each class test is a
    sink-removal check of the whole class with the new vertex."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if d.n == 0:
        return Coloring((), k)
    classes = [[] for _ in range(k)]
    assign = [0] * (d.n + 1)
    nodes = 0

    def place(v: int, used: int) -> bool:
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceeded("coloring search budget exhausted", nodes=nodes)
        if v > d.n:
            return True
        for c in range(1 if v == 1 else min(used + 1, k)):
            if oracle_acyclic(classes[c] + [v], d.edges):
                classes[c].append(v)
                assign[v] = c + 1
                if place(v + 1, max(used, c + 1)):
                    return True
                classes[c].pop()
        return False

    return Coloring(tuple(assign[1:]), k) if place(1, 0) else None


def oracle_greedy_disjoint_copies(host: OrientedGraph, pattern: OrientedGraph):
    """Greedy pair-disjoint packing by restarts: each copy is the first
    embedding in search order that is no earlier copy and uses no vertex
    pair of one on a pattern edge. Returns the count and the first copy."""
    order = [e.mapping for e in enumerate_embeddings(host, pattern)]
    banned = set()
    taken = set()
    first = None
    while True:
        pick = next(
            (
                m
                for m in order
                if m not in taken
                and not any(
                    frozenset((m[u - 1], m[v - 1])) in banned
                    for u, v in pattern.edges
                )
            ),
            None,
        )
        if pick is None:
            return len(taken), first
        first = first or pick
        taken.add(pick)
        banned.update(frozenset((pick[u - 1], pick[v - 1])) for u, v in pattern.edges)


def oracle_distance_bnb(
    t: Tournament, pattern: OrientedGraph, budget=None
) -> DistanceResult:
    """The reversal distance by the branch-and-bound that iterative
    deepening replaced. It branches on the same tree (each node on the
    pairs of its packing's first copy, in ``pattern.edges`` order, never
    a pair on its path or one an earlier sibling reversed), and keeps its
    first solution unless a strictly shallower one turns up. Each node's
    packing is ``oracle_greedy_disjoint_copies`` on the host with the
    path's pairs flipped, so a fault in the deepening or in its in-place
    packing cannot hide in its own check. The pattern has an edge."""
    all_pairs = t.n * (t.n - 1) // 2
    cap = all_pairs if budget is None else min(budget, all_pairs)
    best = None
    best_flips = None
    root_lb = 0

    def search(flipped: list, pinned: set) -> None:
        nonlocal best, best_flips, root_lb
        depth = len(flipped)
        limit = cap if best is None else min(cap, best - 1)
        if depth > limit:
            return
        copies, witness = oracle_greedy_disjoint_copies(t.flip_pairs(flipped), pattern)
        if not flipped:
            root_lb = copies
        if depth + copies > limit:
            return
        if witness is None:
            best, best_flips = depth, tuple(flipped)
            return
        pin = set(pinned)
        for u, v in pattern.edges:
            a, b = witness[u - 1], witness[v - 1]
            key = (min(a, b), max(a, b))
            if key in pin or key in flipped:
                continue
            search(flipped + [key], pin)
            pin.add(key)

    search([], set())
    if best is not None:
        return DistanceResult(best, best, True, best_flips)
    return DistanceResult(None, max(root_lb, cap + 1), False)


def oracle_search(slots, domains, checks) -> list:
    """What the bit-mask search engine accepts, by filtering every tuple of
    level values: each mapping, indexed by slot, whose level-i value is a
    bit of ``domains[i]`` also set in ``table[mapping[p]]`` for every
    check (p, table) of level i, in lexicographic order of the levels."""
    values = [[v for v in range(d.bit_length()) if d >> v & 1] for d in domains]
    found = []
    for picks in itertools.product(*values):
        mapping = [0] * len(slots)
        for slot, v in zip(slots, picks):
            mapping[slot] = v
        if all(
            table[mapping[p]] >> v & 1
            for level, v in zip(checks, picks)
            for p, table in level
        ):
            found.append(tuple(mapping))
    return found


def oracle_monotone_homs(g: LabeledGraph, target: LabeledGraph):
    """All monotone edge-preserving maps, by full enumeration."""
    gvs = g.vertices
    tvs = target.vertices
    out = []
    for images in itertools.combinations_with_replacement(tvs, len(gvs)):
        m = dict(zip(gvs, images))
        if all(target.has_edge(m[a], m[b]) for a, b in g.edges):
            out.append(m)
    return out


def oracle_ordered_core(g: LabeledGraph) -> LabeledGraph:
    """The first vertex subset, by size and then in lexicographic label
    order, that g maps into by any OPH; every size from one up is tried
    and every OPH into the subset is searched, not only retractions."""
    for size in range(1, g.n + 1):
        for subset in itertools.combinations(g.vertices, size):
            target = g.induced(subset)
            if find_oph(g, target) is not None:
                return target
    return g


def oracle_core_family(h: OrientedGraph):
    """Members and witnesses of the core family, from a labeling sweep
    with ``oracle_ordered_core``."""
    keys = set()
    members, witnesses = [], []
    cores: dict = {}
    for labeling in itertools.permutations(range(1, h.n + 1)):
        g = backedge_graph(h, labeling)
        if g.edges not in cores:
            cores[g.edges] = oracle_ordered_core(g)
        core = cores[g.edges]
        if core.canonical_key() not in keys:
            keys.add(core.canonical_key())
            members.append(core)
            witnesses.append(labeling)
    return tuple(members), tuple(witnesses)


def oracle_maximal_indices(members) -> list[int]:
    """Members receiving no OPH from any other member, testing every
    ordered pair."""
    return [
        i
        for i, k in enumerate(members)
        if all(j == i or find_oph(c, k) is None for j, c in enumerate(members))
    ]


def oracle_canonical_key(g: LabeledGraph) -> tuple:
    """Size and sorted edge list after mapping the i-th smallest label
    to i, through a position dictionary."""
    pos = {v: i + 1 for i, v in enumerate(g.vertices)}
    return (g.n, tuple(sorted((pos[a], pos[b]) for a, b in g.edges)))


def oracle_interval_chromatic(g: LabeledGraph) -> int:
    """Fewest runs of consecutive labels, each an independent set, by
    trying every way to cut the label sequence."""
    vs = g.vertices
    for runs in range(1, len(vs) + 1):
        for cuts in itertools.combinations(range(1, len(vs)), runs - 1):
            bounds = (0, *cuts, len(vs))
            if all(
                not g.has_edge(a, b)
                for lo, hi in zip(bounds, bounds[1:])
                for a, b in itertools.combinations(vs[lo:hi], 2)
            ):
                return runs
    return 0


def oracle_greedy_box_collection(ranges) -> list:
    """Scan the box [1..r1] x ... x [1..rk] in lexicographic order and keep
    each tuple that agrees with every kept one in at most one slot. Two
    tuples agree in two slots exactly when they share a (slot pair, value
    pair) key, so the scan keeps the set of the kept tuples' keys."""
    kept = []
    used = set()
    slot_pairs = list(itertools.combinations(range(len(ranges)), 2))
    for s in itertools.product(*(range(1, r + 1) for r in ranges)):
        keys = [(i, j, s[i], s[j]) for i, j in slot_pairs]
        if used.isdisjoint(keys):
            kept.append(s)
            used.update(keys)
    return kept


def oracle_graph_chromatic(g: LabeledGraph) -> int:
    """Fewest colours k such that one of the k^n colourings of the labels
    leaves no edge with equal ends."""
    for k in itertools.count():
        for colours in itertools.product(range(k), repeat=g.n):
            colour = dict(zip(g.vertices, colours))
            if all(colour[a] != colour[b] for a, b in g.edges):
                return k


def oracle_max_ap_free(n: int) -> int:
    """Exact maximum size of a progression-free subset of 1..n, by
    branch and bound over elements in increasing order."""
    best = 0

    def rec(next_value: int, chosen: list[int], chosen_set: set[int]) -> None:
        nonlocal best
        if len(chosen) + (n - next_value + 1) <= best:
            return
        if next_value > n:
            best = max(best, len(chosen))
            return
        # try including next_value
        ok = True
        for a in chosen:
            if (a + next_value) % 2 == 0 and (a + next_value) // 2 in chosen_set:
                ok = False
                break
        if ok:
            chosen.append(next_value)
            chosen_set.add(next_value)
            rec(next_value + 1, chosen, chosen_set)
            chosen.pop()
            chosen_set.remove(next_value)
        rec(next_value + 1, chosen, chosen_set)

    rec(1, [], set())
    return best


def oracle_behrend(n_max: int) -> tuple:
    """``behrend(n_max)`` as (members, digits, dimension, radius), by
    walking every vector of each admitted digit cube, keeping those whose
    value fits, pooling the squared-norm shells, and taking the AP-free
    candidate with the largest key (size, -d, -dim, -radius)."""
    from tourkit.lowerbound import _VECTOR_BUDGET

    def ap_free(members) -> bool:
        present = set(members)
        return not any(
            (a + c) % 2 == 0 and (a + c) // 2 in present
            for a, c in itertools.combinations(sorted(present), 2)
        )

    candidates = [((1,), 1, 1, 0)]
    for d in range(2, n_max + 2):
        base = 2 * d
        dim = 1
        while base ** (dim - 1) <= n_max and d**dim <= _VECTOR_BUDGET:
            shells: dict = {}
            for vec in itertools.product(range(d), repeat=dim):
                value = 1 + sum(x * base**i for i, x in enumerate(vec))
                if value <= n_max:
                    shells.setdefault(sum(x * x for x in vec), []).append(value)
            for radius, members in shells.items():
                candidates.append((tuple(sorted(members)), d, dim, radius))
            pooled = sorted(v for ms in shells.values() for v in ms)
            candidates.append((tuple(pooled), d, dim, None))
            dim += 1
    return max(
        (c for c in candidates if ap_free(c[0])),
        key=lambda c: (len(c[0]), -c[1], -c[2], 1 if c[3] is None else -c[3]),
    )


def oracle_patterned_cycles(g) -> int:
    """Cycles v_1 .. v_l v_1 of a base graph with v_j in part
    ``cycle_pattern[j]`` and every consecutive pair an edge, by recursion
    over neighbour lists grouped by part."""
    edges = g.edges
    adjacency: dict[int, dict[int, list[int]]] = {}
    for (u, v) in edges:
        adjacency.setdefault(u, {}).setdefault(g.part_of(v), []).append(v)
        adjacency.setdefault(v, {}).setdefault(g.part_of(u), []).append(u)
    pattern = g.cycle_pattern

    def walk(j: int, first: int, current: int) -> int:
        if j == len(pattern):
            return 1 if (min(current, first), max(current, first)) in edges else 0
        return sum(
            walk(j + 1, first, nxt)
            for nxt in adjacency.get(current, {}).get(pattern[j], ())
        )

    return sum(walk(1, start, start) for start in g.part_vertices(pattern[0]))


def _tuple_joined(b, j: int, u: int, w: int) -> bool:
    """Whether u in tuple slot j and w in slot j+1 (cyclically) are joined
    as a cycle-patterned tuple needs: the edge points back, from w to u,
    when the part index rises from slot j to slot j+1."""
    pattern = b.base.cycle_pattern
    if pattern[j] < pattern[(j + 1) % len(pattern)]:
        return b.tournament.has_edge(w, u)
    return b.tournament.has_edge(u, w)


def oracle_special_tuples(b) -> int:
    """Cycle-patterned tuples of a blow-up: slot j holds a vertex of part
    ``cycle_pattern[j]``, counted by recursion over vertex lists."""
    pattern = b.base.cycle_pattern
    slots = [[v for v in b.tournament.vertices if b.part_of(v) == i] for i in pattern]
    last = len(pattern) - 1

    def rec(j: int, first: int, current: int) -> int:
        if j == last:
            return 1 if _tuple_joined(b, j, current, first) else 0
        return sum(
            rec(j + 1, first, nxt)
            for nxt in slots[j + 1]
            if _tuple_joined(b, j, current, nxt)
        )

    return sum(rec(0, first, first) for first in slots[0])


def oracle_localization(b) -> tuple[int, list]:
    """Copies of the pattern in a blow-up and those threading no
    cycle-patterned tuple, by a product over each copy's image vertices in
    the cycle's parts; a threaded tuple whose base projection is not a
    cycle fails an assertion."""
    pattern = b.base.cycle_pattern
    length = len(pattern)
    copies = list(enumerate_embeddings(b.tournament, b.pattern))
    violations = []
    for emb in copies:
        slots = [[v for v in emb.mapping if b.part_of(v) == i] for i in pattern]
        for combo in itertools.product(*slots):
            if all(
                _tuple_joined(b, j, combo[j], combo[(j + 1) % length])
                for j in range(length)
            ):
                bases = [b.block_of(v) for v in combo]
                assert all(
                    b.base.has_edge(bases[j], bases[(j + 1) % length])
                    for j in range(length)
                ), "tuple whose base projection is not a cycle"
                break
        else:
            violations.append(emb)
    return len(copies), violations


def random_oriented_graph(n: int, rng: random.Random) -> OrientedGraph:
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            state = rng.randrange(3)
            if state == 1:
                edges.append((i, j))
            elif state == 2:
                edges.append((j, i))
    return OrientedGraph(n, edges)


def random_labeled_graph(labels, p: float, rng: random.Random) -> LabeledGraph:
    labels = list(labels)
    edges = [
        (a, b)
        for a, b in itertools.combinations(labels, 2)
        if rng.random() < p
    ]
    return LabeledGraph(labels, edges)


def oracle_split_class(a, members, by_rows: bool):
    """A class split in two at the median distance to its centroid: the
    members' rows (columns) ranked by the L1 distance to their mean, an
    exact ``Fraction``, ties going to the smaller label; the first half
    has floor(L/2) members. Both halves are sorted."""
    span = range(1, a.n + 1)
    patterns = [[a[v, c] if by_rows else a[c, v] for c in span] for v in members]
    centroid = [Fraction(sum(column), len(members)) for column in zip(*patterns)]
    dist = {
        v: sum(abs(x - m) for x, m in zip(pattern, centroid))
        for v, pattern in zip(members, patterns)
    }
    order = sorted(members, key=lambda v: (dist[v], v))
    half = len(members) // 2
    return sorted(order[:half]), sorted(order[half:])


def oracle_afn_partition(a, b, delta: Fraction, size_budget=None):
    """The conditional partitioner with every block recounted from raw
    entries and tested as a ``Fraction`` after each split, and each split
    made by ``oracle_split_class``; the copy scan and the final audit are
    the library's."""
    from tourkit.regularity import (
        AfnCopies,
        AfnInconclusive,
        AfnPartition,
        audit_bipartition,
        count_matrix_copies,
        find_matrix_copy,
    )

    n = a.n
    entries = [[a[r, c] for c in range(1, n + 1)] for r in range(1, n + 1)]
    budget = size_budget if size_budget is not None else n
    rows = [list(range(1, n + 1))]
    cols = [list(range(1, n + 1))]
    while True:
        bad = [[0] * len(cols) for _ in rows]
        for i, rp in enumerate(rows):
            for j, cp in enumerate(cols):
                ones = sum(entries[r - 1][c - 1] for r in rp for c in cp)
                size = len(rp) * len(cp)
                if Fraction(min(ones, size - ones), size) > delta:
                    bad[i][j] = size
        if Fraction(sum(map(sum, bad)), n * n) <= delta:
            return AfnPartition(audit=audit_bipartition(a, rows, cols, delta))
        if len(rows) >= budget and len(cols) >= budget:
            break
        candidates = []
        for i, part in enumerate(rows):
            weight = sum(bad[i])
            if len(part) >= 2 and weight > 0 and len(rows) < budget:
                candidates.append((weight, -len(part), True, -i))
        for j, part in enumerate(cols):
            weight = sum(row[j] for row in bad)
            if len(part) >= 2 and weight > 0 and len(cols) < budget:
                candidates.append((weight, -len(part), False, -j))
        if not candidates:
            break
        _, _, by_rows, neg_idx = max(candidates)
        idx = -neg_idx
        target = rows if by_rows else cols
        first, second = oracle_split_class(a, target[idx], by_rows)
        target[idx : idx + 1] = [first, second]
    count = count_matrix_copies(a, b)
    if count:
        return AfnCopies(count=count, witness=find_matrix_copy(a, b))
    return AfnInconclusive(last_audit=audit_bipartition(a, rows, cols, delta))


def oracle_sample_representatives(t, stage1, stage2, delta, seed, retry_budget):
    """Representative sampling with every pair density an exact
    ``Fraction`` from ``has_edge``, one pair at a time; returns (samples,
    representatives, item-1 failures, attempts)."""

    def density(x, y):
        return Fraction(
            sum(t.has_edge(u, v) for u in x for v in y), len(x) * len(y)
        )

    def homogeneous(d, level):
        return d <= level or d >= 1 - level

    half = Fraction(1, 2)
    q = len(stage1.parts)
    digest = hashlib.sha256(f"{seed}:representatives".encode()).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    for attempt in range(1, retry_budget + 1):
        samples = [part[rng.randrange(len(part))] for part in stage1.parts]
        reps = [next(p for p in stage2.parts if w in p) for w in samples]
        flips = failures = 0
        for i, j in itertools.combinations(range(q), 2):
            dw = density(reps[i], reps[j])
            if not homogeneous(dw, delta):
                break
            dq = density(stage1.parts[i], stage1.parts[j])
            same = (dq >= half) == (dw >= half)
            if homogeneous(dq, delta / 5) and not same:
                flips += 1
            if not (homogeneous(dq, delta) and same):
                failures += 1
        else:
            if flips <= 4 * delta * q * q / 5 and failures <= delta * q * q:
                return samples, reps, failures, attempt
    raise BudgetExceeded("retries exhausted", retries=retry_budget)
