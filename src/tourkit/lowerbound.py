"""Hard-instance generator: AP-free sets, clique-decomposable base graphs,
and the block blow-up tournament with its two audits.

The pipeline for a non-2-colorable pattern H:

1. compute the maximal ordered core K of H's backedge graphs and an odd
   cycle inside it;
2. read off the part coloring of H and the digraph D of forced part
   pairs (the non-edges of K);
3. build a base graph R whose edge set decomposes into transversal
   k-cliques indexed by (start, difference) pairs over an AP-free
   difference set, so distinct cliques never share an edge;
4. blow every base vertex up to a block, make the part unions
   transitive, orient non-edge block pairs forward, and plant one copy
   of the forcing construction on every clique.

R is stored as neighbour masks (``RSGraph.adj``), and its edge set is
derived from them. The closed walks v_1 .. v_l with v_j in a given slot
and consecutive slots joined by a given mask table are a search of the
bit-mask engine ``digraphs._search``, described by ``_walk_checks``; it
counts the patterned cycles of R, counts the special tuples of the
blow-up, and finds the tuple each copy threads.

Two audits make the construction checkable at desk scale: the copy
localization audit verifies that every embedding of H threads a
patterned cycle of R (exact combinatorics, not asymptotics), and the
farness certificate extracts a family of copies pairwise disjoint on
cut-edges, so reversing j cut-edges can destroy at most j of them.

Per-clique certification is independent across cliques (and could run
concurrently); assembly of the final tournament is single-writer and
deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .coloring import acyclic_k_coloring
from .digraphs import (
    Embedding,
    OrientedGraph,
    Tournament,
    _bits,
    _mask,
    _search,
    _span,
    enumerate_embeddings,
)
from .errors import AuditError, BudgetExceeded
from .forcing import (
    KPartiteTournament,
    _assert_cross_disjoint,
    build_forcing,
    certify_completion,
)
from .orderedhom import (
    LabeledGraph,
    backedge_graph,
    core_family,
    find_oph,
    odd_cycle_certificate,
    select_k,
)

__all__ = [
    "BehrendSet",
    "RSGraph",
    "BlowupTournament",
    "LocalizationReport",
    "FarnessCertificate",
    "behrend",
    "is_ap_free",
    "rs_graph",
    "derive_part_structure",
    "blowup_tournament",
    "audit_copy_localization",
    "farness_certificate",
]


# size of the largest (digits, dimension) grid ``behrend`` considers;
# a grid is admitted when d^dim is within it, however few vectors fit
_VECTOR_BUDGET = 300_000
# embeddings of the pattern, and special tuples, one localization audit
# may enumerate
_EMBEDDING_BUDGET = 2_000_000


# -- AP-free sets --------------------------------------------------------


@dataclass(frozen=True)
class BehrendSet:
    """A 3-AP-free subset of 1..n_max with its construction parameters."""

    n_max: int
    members: tuple[int, ...]
    digits: int
    dimension: int
    radius: Optional[int]  # None: all shells of the digit cube pooled

    def __len__(self) -> int:
        return len(self.members)


def is_ap_free(members: Sequence[int]) -> bool:
    """Quadratic scan for a three-term arithmetic progression."""
    values = sorted(set(members))
    present = set(values)
    for i, a in enumerate(values):
        for c in values[i + 1 :]:
            if (a + c) % 2 == 0 and (a + c) // 2 in present and (a + c) // 2 != a:
                return False
    return True


def _count_fitting(bound: int, d: int, base: int, dim: int) -> int:
    """Number of digit vectors in {0..d-1}^dim whose base-``base`` value
    is at most ``bound``, read off the digits of ``bound`` from the top.
    Needs base >= d, so the digits below a position are worth less than
    one unit of it."""
    count = 0
    for i in reversed(range(dim)):
        w = base**i
        top = bound // w
        if top >= d:
            return count + d ** (i + 1)
        count += top * d**i
        bound -= top * w
    return count + 1


def behrend(n_max: int) -> BehrendSet:
    """Largest 3-AP-free set found over digit-sphere candidates.

    Candidates use digit vectors in {0..d-1}^dim read in base 2d (so
    digit sums never carry), one candidate per squared-norm shell, plus
    the whole digit cube as a degenerate all-shells candidate; only the
    d = 2 cube survives verification in general, and it is what keeps the
    output competitive at small ranges where single shells are tiny.
    Every candidate is verified AP-free before being accepted.

    Only the vectors whose value 1 + sum x_i (2d)^i is at most n_max are
    enumerated: digits are chosen highest first, and a digit's range
    stops where the partial value would pass the bound. Candidates are
    ranked by the key (size, -d, -dim, -radius), with the pooled cube
    above every shell; distinct candidates have distinct keys, so the
    winner is the strict maximum whatever the order of evaluation. That
    makes two skips safe. A candidate whose key is not above the best so
    far is never scanned for progressions. A grid whose fitting vectors
    number no more than the best size is not enumerated: it cannot be
    larger, and on a tie it loses the key, since grids come in
    increasing (d, dim) order.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    best = BehrendSet(n_max, (1,), 1, 1, 0)
    best_key = (1, -1, -1, 0)
    d = 2
    while 2 * d <= 2 * (n_max + 1):
        base = 2 * d
        dim = 1
        while base ** (dim - 1) <= n_max and d**dim <= _VECTOR_BUDGET:
            if _count_fitting(n_max - 1, d, base, dim) > len(best.members):
                # (value - 1, squared norm) of the fitting vectors, in
                # increasing value since every digit is below the base
                vectors = [(0, 0)]
                for i in reversed(range(dim)):
                    w = base**i
                    vectors = [
                        (v + x * w, s + x * x)
                        for v, s in vectors
                        for x in range(min(d, (n_max - 1 - v) // w + 1))
                    ]
                shells: dict[Optional[int], list[int]] = {}
                for v, s in vectors:
                    shells.setdefault(s, []).append(v + 1)
                shells[None] = [v + 1 for v, _ in vectors]
                for radius, members in shells.items():
                    key = (len(members), -d, -dim, -(-1 if radius is None else radius))
                    if key > best_key and is_ap_free(members):
                        best = BehrendSet(n_max, tuple(members), d, dim, radius)
                        best_key = key
            dim += 1
        d += 1
    if not is_ap_free(best.members):
        raise AuditError("construction produced a progression")
    return best


# -- the closed-walk search ---------------------------------------------


def _walk_checks(
    step: Sequence[Sequence[int]], close: Sequence[int]
) -> list[list[tuple[int, Sequence[int]]]]:
    """``_search`` checks for the closed walks through l = len(step) + 1
    slots, whose domains are the slots' vertex masks: ``step[j][v]`` is the
    mask allowed in slot j+1 after v in slot j, and ``close[v]`` the mask
    allowed in the last slot when v is in slot 0. Level j is slot j, so
    the engine yields each walk's first l - 1 vertices and the mask of
    last-slot vertices that close it. Needs two or more slots.
    """
    checks = [[]] + [[(j - 1, step[j - 1])] for j in range(1, len(step) + 1)]
    checks[-1].append((0, close))
    return checks


# -- the base graph ------------------------------------------------------


@dataclass(frozen=True)
class RSGraph:
    """Base graph: k independent parts, edge set equal to the union of
    pairwise edge-disjoint transversal k-cliques.

    Vertices are 1..k*n_max; part i occupies the interval
    (i-1)*n_max+1 .. i*n_max. Clique (a, d) uses position a + (i-1)d in
    part i, so an edge determines its clique uniquely and the family is
    edge-disjoint by construction; the audit re-checks it anyway.
    ``adj[v]`` is the mask of v's neighbours (``adj[0]`` is unused).
    """

    k: int
    n_max: int
    cliques: tuple[tuple[int, ...], ...]
    adj: tuple[int, ...]
    delta: Fraction
    cycle_pattern: tuple[int, ...]
    difference_set: BehrendSet
    patterned_cycles: int

    @property
    def r(self) -> int:
        return self.k * self.n_max

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges (u, v), u < v, read off the neighbour masks."""
        return frozenset(
            (u, v) for u in range(1, self.r + 1) for v in _bits(self.adj[u]) if u < v
        )

    def part_of(self, v: int) -> int:
        return (v - 1) // self.n_max + 1

    def vertex(self, part: int, position: int) -> int:
        return (part - 1) * self.n_max + position

    def part_vertices(self, part: int) -> range:
        base = (part - 1) * self.n_max
        return range(base + 1, base + self.n_max + 1)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)


def rs_graph(k: int, cycle_idx: Sequence[int], n_max: int) -> RSGraph:
    """Build the clique-decomposable base graph and audit it.

    Parts are equal intervals of length n_max. For every start a and
    every difference d from the AP-free set with a + (k-1)d <= n_max, the
    transversal clique places a + (i-1)d in part i. Independence,
    transversality, edge-disjointness and the union property are checked
    exactly; the patterned-cycle count (against the r^2 bound) is an
    empirical audit and any violation raises loudly.
    """
    cycle_idx = tuple(int(i) for i in cycle_idx)
    if not (3 <= len(cycle_idx) <= k):
        raise ValueError("cycle pattern length must lie in 3..k")
    if len(set(cycle_idx)) != len(cycle_idx):
        raise ValueError("cycle pattern indices must be distinct")
    if any(not 1 <= i <= k for i in cycle_idx):
        raise ValueError("cycle pattern indices must lie in 1..k")
    if k < 3:
        raise ValueError("need at least 3 parts")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")

    diff = behrend(n_max)
    r = k * n_max

    def vertex(part: int, position: int) -> int:
        return (part - 1) * n_max + position

    cliques: list[tuple[int, ...]] = []
    for a in range(1, n_max + 1):
        for d in diff.members:
            if a + (k - 1) * d > n_max:
                continue
            cliques.append(tuple(vertex(i, a + (i - 1) * d) for i in range(1, k + 1)))

    adj = [0] * (r + 1)
    for clique in cliques:
        if len({(v - 1) // n_max for v in clique}) != k:
            raise AuditError("clique is not transversal")
        for u, v in itertools.combinations(clique, 2):
            if adj[u] >> v & 1:
                raise AuditError(f"cliques share edge {(min(u, v), max(u, v))}")
            if (u - 1) // n_max == (v - 1) // n_max:
                raise AuditError("edge inside a part; parts must be independent")
            adj[u] |= 1 << v
            adj[v] |= 1 << u

    parts = [_span(vertex(i, 1), vertex(i, n_max)) for i in cycle_idx]
    checks = _walk_checks([adj] * (len(parts) - 1), adj)
    cycles = sum(
        cand.bit_count() for _, _, cand in _search(range(len(parts)), parts, checks)
    )
    if cycles > r * r:
        raise AuditError(f"{cycles} patterned cycles exceed the r^2 = {r * r} bound")
    return RSGraph(
        k=k,
        n_max=n_max,
        cliques=tuple(cliques),
        adj=tuple(adj),
        delta=Fraction(len(cliques), r * r),
        cycle_pattern=cycle_idx,
        difference_set=diff,
        patterned_cycles=cycles,
    )


# -- the blow-up ---------------------------------------------------------


@dataclass(frozen=True)
class BlowupTournament:
    """The assembled hard instance with full provenance.

    ``tournament`` lives on r*m vertices: the block of base vertex x is
    the interval (x-1)*m+1 .. x*m. ``classes`` is the part coloring of
    the pattern, ``forcing`` the planted k-partite tournament, ``kernel``
    the maximal ordered core with its witness labeling and odd cycle.
    """

    base: RSGraph
    pattern: OrientedGraph
    tournament: Tournament
    m: int
    kernel: LabeledGraph
    witness_labeling: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    part_digraph: OrientedGraph
    kernel_cycle: tuple[int, ...]
    forcing: KPartiteTournament
    requested_n: int

    @property
    def n(self) -> int:
        return self.tournament.n

    def block(self, base_vertex: int) -> range:
        return range((base_vertex - 1) * self.m + 1, base_vertex * self.m + 1)

    def block_of(self, v: int) -> int:
        return (v - 1) // self.m + 1

    def part_of(self, v: int) -> int:
        return self.base.part_of(self.block_of(v))

    def is_cut_pair(self, u: int, v: int) -> bool:
        return self.part_of(u) != self.part_of(v)

    def clique_zone(self, clique_index: int) -> list[int]:
        zone: list[int] = []
        for x in self.base.cliques[clique_index]:
            zone.extend(self.block(x))
        return zone

    def provenance_lines(self) -> list[str]:
        """Key/value side-file content: block map, cliques, planted copy."""
        lines = [
            f"base-order: {self.base.r}",
            f"block-size: {self.m}",
            f"parts: {self.base.k}",
            f"part-length: {self.base.n_max}",
            f"requested-n: {self.requested_n}",
            f"kernel-vertices: {' '.join(str(v) for v in self.kernel.vertices)}",
            "kernel-edges: "
            + " ".join(f"{a}-{b}" for a, b in sorted(self.kernel.edges)),
            f"kernel-cycle: {' '.join(str(v) for v in self.kernel_cycle)}",
            f"witness-labeling: {' '.join(str(x) for x in self.witness_labeling)}",
            f"forcing-seed: {self.forcing.seed}",
        ]
        for i, cls in enumerate(self.classes, start=1):
            lines.append(f"class {i}: {' '.join(str(v) for v in cls)}")
        for x in range(1, self.base.r + 1):
            blk = self.block(x)
            lines.append(f"block {x}: {blk.start}..{blk.stop - 1}")
        for idx, clique in enumerate(self.base.cliques, start=1):
            lines.append(f"clique {idx}: {' '.join(str(x) for x in clique)}")
        return lines


def derive_part_structure(
    h: OrientedGraph,
) -> tuple[LabeledGraph, tuple[int, ...], tuple[tuple[int, ...], ...], OrientedGraph, tuple[int, ...], tuple[int, ...]]:
    """Kernel, witness labeling, classes, part digraph, kernel cycle and
    the part indices of the cycle, for a non-2-colorable pattern."""
    if acyclic_k_coloring(h, 2) is not None:
        raise ValueError(
            "pattern is 2-colorable; the construction needs a hard pattern"
        )
    family = core_family(h)
    kernel = select_k(family)
    witness = family.witnesses[family.members.index(kernel)]
    backedges = backedge_graph(h, witness)
    projection = find_oph(backedges, kernel)
    if projection is None:
        raise AuditError("no projection from the witness backedge graph")
    proj = projection.as_dict()
    kv = kernel.vertices
    k = len(kv)
    classes = tuple(
        tuple(v for v in h.vertices if proj[witness[v - 1]] == kv[i])
        for i in range(k)
    )
    d_edges = [
        (i + 1, j + 1)
        for i in range(k)
        for j in range(i + 1, k)
        if not kernel.has_edge(kv[i], kv[j])
    ]
    part_digraph = OrientedGraph(k, d_edges)
    cycle = tuple(odd_cycle_certificate(kernel))
    position = {a: i + 1 for i, a in enumerate(kv)}
    part_cycle = tuple(position[c] for c in cycle)
    return kernel, witness, classes, part_digraph, cycle, part_cycle


def blowup_tournament(
    h: OrientedGraph,
    n: int,
    seed: int,
    n_max: Optional[int] = None,
) -> BlowupTournament:
    """Assemble the blow-up instance for a non-2-colorable pattern.

    n is rounded down to the nearest multiple of the base-graph order;
    the requested value is kept in the result. ``n_max`` controls the
    base graph's part length and defaults to the smallest value giving a
    nonempty clique family.
    """
    kernel, witness, classes, part_digraph, cycle, part_cycle = derive_part_structure(h)
    k = len(kernel.vertices)
    if n_max is None:
        n_max = k
        while all(1 + (k - 1) * d > n_max for d in behrend(n_max).members):
            n_max += 1
    base = rs_graph(k, part_cycle, n_max)
    r = base.r
    m = n // r
    if m < 1:
        raise ValueError(f"n={n} too small: the base graph has {r} vertices")
    forcing = build_forcing(h, [list(c) for c in classes], part_digraph, m, seed)
    size = r * m
    out = [0] * (size + 1)
    inn = [0] * (size + 1)

    def block(x: int) -> int:
        return _span((x - 1) * m + 1, x * m)

    # item 2: non-edges of the base orient lower part -> higher part
    # (a part's base vertices are consecutive, so x < y across parts)
    beats = [0] * (r + 1)
    beaten = [0] * (r + 1)
    for x in range(1, r + 1):
        for y in _bits(_span(base.part_of(x) * n_max + 1, r) & ~base.adj[x]):
            beats[x] |= block(y)
            beaten[y] |= block(x)
    # item 1: each part's block union, one interval, is transitive in
    # global vertex order
    for part in range(1, k + 1):
        xs = base.part_vertices(part)
        lo, hi = (xs[0] - 1) * m + 1, xs[-1] * m
        for v in range(lo, hi + 1):
            out[v] |= _span(v + 1, hi) | beats[(v - 1) // m + 1]
            inn[v] |= _span(lo, v - 1) | beaten[(v - 1) // m + 1]

    # item 3: one copy of the forcing construction per clique; the clique
    # puts forcing part p on the block of its p-th vertex
    f_parts = [_span(p * m + 1, p * m + m) for p in range(k)]
    f_masks = ((out, forcing.out), (inn, forcing.inn))
    for clique in base.cliques:
        shifts = [(x - p) * m for p, x in enumerate(clique, start=1)]
        for w in range(1, k * m + 1):
            v = w + shifts[(w - 1) // m]
            for masks, local in f_masks:
                for part, shift in zip(f_parts, shifts):
                    masks[v] |= (local[w] & part) << shift

    tournament = Tournament._from_masks(size, out, inn)
    return BlowupTournament(
        base=base,
        pattern=h,
        tournament=tournament,
        m=m,
        kernel=kernel,
        witness_labeling=witness,
        classes=classes,
        part_digraph=part_digraph,
        kernel_cycle=cycle,
        forcing=forcing,
        requested_n=n,
    )


# -- audit 1: copy localization ------------------------------------------


@dataclass(frozen=True)
class LocalizationReport:
    """Every embedding of the pattern must thread a cycle-patterned tuple
    whose base projection is a patterned cycle of the base graph."""

    total_copies: int
    violations: tuple[Embedding, ...]
    special_tuples: int
    special_tuple_bound: Fraction  # n^l / r
    copy_bound: int  # |C| * n^(h-l)

    @property
    def ok(self) -> bool:
        return not self.violations


def _tuple_tables(
    b: BlowupTournament,
) -> tuple[list[int], list[list[tuple[int, Sequence[int]]]]]:
    """``_search`` slot masks and checks for the cycle-patterned tuples.

    Slot j is the blow-up of part ``cycle_pattern[j]``. The tuple edge
    between slots j and j+1 (cyclically) points back, from slot j+1 to
    slot j, when the part index rises from slot j to slot j+1.
    """
    t = b.tournament
    pattern = b.base.cycle_pattern
    length = len(pattern)
    slots = []
    for idx in pattern:
        xs = b.base.part_vertices(idx)
        slots.append(_span(b.block(xs[0]).start, b.block(xs[-1]).stop - 1))
    back = [pattern[j] < pattern[(j + 1) % length] for j in range(length)]
    step = [t.inn if back[j] else t.out for j in range(length - 1)]
    # indexed by slot 0's vertex, so the closing edge reads the other way
    close = t.out if back[-1] else t.inn
    return slots, _walk_checks(step, close)


def audit_copy_localization(b: BlowupTournament) -> LocalizationReport:
    """Enumerate every embedding of the pattern and verify localization.

    For each embedding, some choice of image vertices in the cycle
    pattern's parts must realize the backward-edge tuple conditions, and
    the base projection of the first such choice in label order must be a
    patterned cycle of the base graph. Violations are collected (and
    expected to be impossible).
    """
    t = b.tournament
    slots, checks = _tuple_tables(b)
    levels = range(len(slots))
    total = 0
    violations: list[Embedding] = []
    for emb in enumerate_embeddings(t, b.pattern, limit=_EMBEDDING_BUDGET):
        total += 1
        image = _mask(emb.mapping)
        found = next(_search(levels, [s & image for s in slots], checks), None)
        if found is None:
            violations.append(emb)
            continue
        walk, last, cand = found
        walk[last] = (cand & -cand).bit_length() - 1
        bases = [b.block_of(v) for v in walk]
        if not all(b.base.has_edge(x, bases[j - 1]) for j, x in enumerate(bases)):
            raise AuditError("tuple found whose base projection is not a cycle")
    special = 0
    for _, _, cand in _search(levels, slots, checks):
        special += cand.bit_count()
        if special > _EMBEDDING_BUDGET:
            raise BudgetExceeded("special tuple enumeration budget", count=special)
    n = t.n
    length = len(slots)
    return LocalizationReport(
        total_copies=total,
        violations=tuple(violations),
        special_tuples=special,
        special_tuple_bound=Fraction(n**length, b.base.r),
        copy_bound=special * n ** (b.pattern.n - length),
    )


# -- audit 2: farness ------------------------------------------------------


@dataclass(frozen=True)
class FarnessCertificate:
    """A family of pattern copies pairwise disjoint on cut-edges.

    ``certified_surviving`` = |family| - (number of reversed cut-edges):
    since the copies share no cut-edges and agree with the mutated
    tournament on cluster-edges, each reversed cut-edge can kill at most
    one copy, so a positive value proves a copy survives the mutation.
    """

    family: tuple[tuple[int, Embedding], ...]  # (clique index, global copy)
    per_clique: tuple[int, ...]
    reversed_cut_edges: int
    reversed_cluster_edges: int
    certified_surviving: int
    survivors_verified: int

    @property
    def count(self) -> int:
        return len(self.family)


def farness_certificate(b: BlowupTournament, mutated: Tournament) -> FarnessCertificate:
    """Certify survival of pattern copies under an edge mutation.

    Builds the hybrid tournament agreeing with the blow-up on cut-edges
    and with the mutation on cluster-edges, certifies one completion per
    clique zone, pools the copies, and verifies the cut-edge
    disjointness plus the survival bound directly.
    """
    pattern = b.pattern
    t = b.tournament
    if not isinstance(mutated, Tournament) or mutated.n != t.n:
        raise ValueError("the mutation must be a tournament on the blow-up's vertices")
    # cluster[v]: the vertices of v's part, one interval of this width;
    # a cut pair joins two parts
    width = b.base.n_max * b.m
    cluster = [0] + [((1 << width) - 1) << (v - (v - 1) % width) for v in t.vertices]
    cut_diffs = 0
    cluster_diffs = 0
    # hybrid: cut-edges from the blow-up, cluster-edges from the mutation
    out = [0] * (t.n + 1)
    inn = [0] * (t.n + 1)
    for v in t.vertices:
        lost = t.out[v] & ~mutated.out[v]
        cut_diffs += (lost & ~cluster[v]).bit_count()
        cluster_diffs += (lost & cluster[v]).bit_count()
        out[v] = t.out[v] & ~cluster[v] | mutated.out[v] & cluster[v]
        inn[v] = t.inn[v] & ~cluster[v] | mutated.inn[v] & cluster[v]
    hybrid = Tournament._from_masks(t.n, out, inn)

    classes = [list(c) for c in b.classes]
    family: list[tuple[int, Embedding]] = []
    per_clique: list[int] = []
    for ci in range(len(b.base.cliques)):
        # the zone is sorted, so local label i is zone[i - 1]
        zone = b.clique_zone(ci)
        zone_t = hybrid.subtournament(zone)
        cert = certify_completion(b.forcing, zone_t, pattern, classes)
        per_clique.append(cert.count)
        for emb in cert.embeddings:
            family.append(
                (ci, Embedding(tuple(zone[local - 1] for local in emb.mapping)))
            )

    # cut pairs are the cross pairs of the part map
    _assert_cross_disjoint(b.part_of, pattern, [emb for _, emb in family])
    survivors = sum(emb.is_valid(mutated, pattern) for _, emb in family)
    certified = len(family) - cut_diffs
    if survivors < certified:
        raise AuditError(
            f"only {survivors} copies survive; certificate promised {certified}"
        )
    return FarnessCertificate(
        family=tuple(family),
        per_clique=tuple(per_clique),
        reversed_cut_edges=cut_diffs,
        reversed_cluster_edges=cluster_diffs,
        certified_surviving=certified,
        survivors_verified=survivors,
    )
