"""Oriented-graph and tournament kernel.

Vertices are the integers 1..n and the natural order of the labels is
semantically meaningful (the ordered-homomorphism machinery depends on it).
Adjacency is a dense bit matrix: ``out[u]`` is an integer whose bit ``v``
is set iff u -> v, and ``inn`` is its transpose, so direction queries,
neighbourhood intersections and the embedding search are all O(1) word
operations. The masks are a graph's only stored state: induced
subgraphs, relabellings and flips are built on them, and the edge set is
derived from them when it is read.

All values are immutable after construction and safe to share across
threads (a derived edge set is cached on first use).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Generator, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import AuditError, BudgetExceeded

__all__ = [
    "OrientedGraph",
    "Tournament",
    "PairStats",
    "Embedding",
    "DistanceResult",
    "density",
    "count_embeddings",
    "enumerate_embeddings",
    "embedding_stats",
    "find_embedding",
    "count_automorphisms",
    "distance_to_h_free",
    "transitive_subtournament",
    "cyclic_triangle",
    "transitive_tournament",
    "c3_pattern",
    "tournament_from_bits",
    "enumerate_tournaments",
    "random_tournament",
]


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _span(lo: int, hi: int) -> int:
    """Mask of the labels lo..hi; empty when hi < lo."""
    return (1 << (hi + 1)) - (1 << lo) if lo <= hi else 0


def _mask(vertices: Iterable[int]) -> int:
    return sum(1 << v for v in set(vertices))


def _gather(mask: int, table: Sequence[int]) -> int:
    """OR of ``table[v]`` over the v in ``mask``."""
    acc = 0
    while mask:
        low = mask & -mask
        acc |= table[low.bit_length() - 1]
        mask ^= low
    return acc


def _peel(inn: Sequence[int], members: int) -> Optional[list[int]]:
    """Topological order of the subdigraph on the vertex mask ``members``,
    or None if it has a cycle. ``inn`` holds the in-neighbour masks. Each
    step removes the smallest label with no in-neighbour left."""
    order: list[int] = []
    while members:
        v = next((v for v in _bits(members) if not inn[v] & members), None)
        if v is None:
            return None
        order.append(v)
        members ^= 1 << v
    return order


class _BadPair(ValueError):
    """A pair list that a graph cannot take; ``index`` is the position of
    the first bad pair in the list."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def _pair_masks(
    n: int, pairs: Iterable[tuple[int, int]], m: int = 0
) -> tuple[list[int], list[int]]:
    """``out`` and ``inn`` of the oriented graph on 1..n whose edges are
    ``pairs``, read in one pass in list order. A pair with a vertex outside
    1..n, a loop, or a pair that reverses or repeats an earlier one raises
    _BadPair at its index; with part size ``m``, so does a pair inside one
    of the parts 1..m, m+1..2m, ..."""
    out = [0] * (n + 1)
    inn = [0] * (n + 1)
    for index, (u, v) in enumerate(pairs):
        u, v = int(u), int(v)
        if not (1 <= u <= n and 1 <= v <= n):
            error = f"edge ({u},{v}) uses a vertex outside 1..{n}"
        elif u == v:
            error = f"self-loop at vertex {u}"
        elif inn[u] >> v & 1:
            error = f"both directions present between {u} and {v}"
        elif out[u] >> v & 1:
            error = f"{'cross pair' if m else 'edge'} ({u},{v}) given twice"
        elif m and (u - 1) // m == (v - 1) // m:
            error = f"({u},{v}) is an inner pair; parts carry no edges"
        else:
            out[u] |= 1 << v
            inn[v] |= 1 << u
            continue
        raise _BadPair(index, error)
    return out, inn


class OrientedGraph:
    """A digraph with at most one directed edge per vertex pair, no loops.

    The stored state is ``n`` and the masks ``out`` and ``inn``. ``edges``
    is the frozenset of ordered pairs (u, v) meaning u -> v, derived from
    ``out`` on first use, so it depends only on the graph.
    """

    __slots__ = ("n", "out", "inn", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        """The graph on 1..n with these edges; the first bad pair in list
        order (see ``_pair_masks``) raises a ValueError that names it."""
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self._store(n, *_pair_masks(n, edges))

    def _store(self, n: int, out: Sequence[int], inn: Sequence[int]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "out", tuple(out))
        object.__setattr__(self, "inn", tuple(inn))
        object.__setattr__(self, "_edges", None)

    @classmethod
    def _from_masks(
        cls, n: int, out: Sequence[int], inn: Sequence[int]
    ) -> "OrientedGraph":
        """The graph with these masks (``inn`` the transpose of ``out``),
        for internal builders: a loop, a vertex outside 1..n, a pair in both
        directions or, in a tournament, an unoriented pair raises AuditError."""
        complete = issubclass(cls, Tournament)
        full = _span(1, n)
        if len(out) != n + 1 or len(inn) != n + 1 or out[0] or inn[0]:
            raise AuditError(f"masks do not describe a graph on 1..{n}")
        for v in range(1, n + 1):
            o, i = out[v], inn[v]
            others = full ^ (1 << v)
            if (o | i) & ~others:
                raise AuditError(f"vertex {v} has a loop or a neighbour outside 1..{n}")
            if o & i:
                raise AuditError(f"both directions present at vertex {v}")
            if complete and (o | i) != others:
                raise AuditError(f"not a tournament: vertex {v} misses a pair")
        g = object.__new__(cls)
        g._store(n, out, inn)
        return g

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- basic queries -------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        if self._edges is None:
            edges = ((u, v) for u in self.vertices for v in _bits(self.out[u]))
            object.__setattr__(self, "_edges", frozenset(edges))
        return self._edges

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.out[u] >> v) & 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrientedGraph)
            and self.n == other.n
            and self.out == other.out
        )

    def __hash__(self) -> int:
        return hash((self.n, self.out))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, edges={sorted(self.edges)})"

    # -- derived objects -----------------------------------------------

    def _image(self, cls, k: int, label: Sequence[int]) -> "OrientedGraph":
        """The ``cls`` graph on 1..k with an edge label[u] -> label[v] for
        each edge u -> v; label[v] is 0 for a dropped vertex."""
        bit = [1 << x if x else 0 for x in label]
        out = [0] * (k + 1)
        inn = [0] * (k + 1)
        for v in self.vertices:
            if label[v]:
                out[label[v]] = _gather(self.out[v], bit)
                inn[label[v]] = _gather(self.inn[v], bit)
        return cls._from_masks(k, out, inn)

    def relabel(self, perm: Sequence[int]) -> "OrientedGraph":
        """Apply a permutation: vertex v becomes perm[v-1] (a bijection on 1..n).

        A tournament stays a ``Tournament``; any other graph, a k-partite
        tournament included, becomes a plain ``OrientedGraph``: a relabelling
        need not keep a subclass's structure."""
        if sorted(perm) != list(self.vertices):
            raise ValueError("perm must be a bijection on 1..n")
        cls = Tournament if isinstance(self, Tournament) else OrientedGraph
        return self._image(cls, self.n, [0, *perm])

    def induced(self, vertices: Sequence[int]) -> "OrientedGraph":
        """Induced subdigraph, relabelled to 1..k in the given label order."""
        vs = sorted(set(vertices))
        if vs and not (1 <= vs[0] and vs[-1] <= self.n):
            raise ValueError(f"induced vertices must lie in 1..{self.n}")
        label = [0] * (self.n + 1)
        for i, v in enumerate(vs, start=1):
            label[v] = i
        return self._image(OrientedGraph, len(vs), label)

    def is_acyclic(self) -> bool:
        return self.topological_order() is not None

    def topological_order(self) -> Optional[list[int]]:
        """Topological order with smallest-label-first tie-breaking, or None."""
        return _peel(self.inn, _span(1, self.n))


class Tournament(OrientedGraph):
    """A complete orientation: exactly one directed edge per vertex pair."""

    __slots__ = ()

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        super().__init__(n, edges)
        _require_complete(self)

    @classmethod
    def from_oriented(cls, g: OrientedGraph) -> "Tournament":
        _require_complete(g)
        return cls._from_masks(g.n, g.out, g.inn)

    def subtournament(self, vertices: Sequence[int]) -> "Tournament":
        return Tournament.from_oriented(self.induced(vertices))

    def flip_pairs(self, pairs: Iterable[tuple[int, int]]) -> "Tournament":
        """Reverse the orientation on the given unordered pairs."""
        out, inn = list(self.out), list(self.inn)
        for a, b in pairs:
            if a == b or not (1 <= a <= self.n and 1 <= b <= self.n):
                raise ValueError(f"({a},{b}) is not a vertex pair of the tournament")
            # exactly one of a -> b and b -> a holds: toggling both swaps them
            out[a] ^= 1 << b
            out[b] ^= 1 << a
            inn[a] ^= 1 << b
            inn[b] ^= 1 << a
        return Tournament._from_masks(self.n, out, inn)


def _require_complete(g: OrientedGraph) -> None:
    count = sum(map(int.bit_count, g.out))
    if count != g.n * (g.n - 1) // 2:
        raise ValueError(f"not a tournament: {count} edges on {g.n} vertices")


# -- small fixed graphs ------------------------------------------------


def cyclic_triangle() -> Tournament:
    return Tournament(3, [(1, 2), (2, 3), (3, 1)])


def transitive_tournament(n: int) -> Tournament:
    return Tournament(n, ((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)))


def c3_pattern() -> OrientedGraph:
    """The directed triangle as a pattern."""
    return OrientedGraph(3, [(1, 2), (2, 3), (3, 1)])


def tournament_from_bits(n: int, bits: int) -> Tournament:
    """Decode a tournament from C(n,2) bits, pairs in lexicographic order.

    Bit k of ``bits`` corresponds to the k-th pair (i,j), i<j; a set bit
    means i -> j.
    """
    out = [0] * (n + 1)
    inn = [0] * (n + 1)
    for idx, (i, j) in enumerate(itertools.combinations(range(1, n + 1), 2)):
        a, b = (i, j) if (bits >> idx) & 1 else (j, i)
        out[a] |= 1 << b
        inn[b] |= 1 << a
    return Tournament._from_masks(n, out, inn)


def enumerate_tournaments(n: int) -> Iterator[Tournament]:
    """All 2^C(n,2) labeled tournaments on 1..n, in bit order."""
    for bits in range(1 << (n * (n - 1) // 2)):
        yield tournament_from_bits(n, bits)


def random_tournament(n: int, rng: random.Random) -> Tournament:
    return tournament_from_bits(n, rng.getrandbits(n * (n - 1) // 2) if n > 1 else 0)


# -- densities ---------------------------------------------------------


@dataclass(frozen=True)
class PairStats:
    """Directed density statistics of an ordered pair of disjoint vertex sets."""

    e_xy: int
    e_yx: int
    density: Fraction
    dominant_xy: bool
    weight: Fraction


def density(t: Tournament, xs: Iterable[int], ys: Iterable[int]) -> PairStats:
    """Exact directed density d(X,Y) = e(X,Y)/(|X||Y|) of disjoint sets.

    The dominant direction is X -> Y iff d(X,Y) >= 1/2.
    """
    x_set = set(xs)
    y_set = set(ys)
    if not x_set or not y_set:
        raise ValueError("X and Y must be nonempty")
    if x_set & y_set:
        raise ValueError("X and Y must be disjoint")
    for v in x_set | y_set:
        if not (1 <= v <= t.n):
            raise ValueError(f"vertex {v} outside 1..{t.n}")
    y_mask = _mask(y_set)
    e_xy = sum((t.out[u] & y_mask).bit_count() for u in x_set)
    size = len(x_set) * len(y_set)
    d = Fraction(e_xy, size)
    return PairStats(
        e_xy=e_xy,
        e_yx=size - e_xy,
        density=d,
        dominant_xy=d >= Fraction(1, 2),
        weight=Fraction(size, t.n * t.n),
    )


# -- embeddings --------------------------------------------------------


@dataclass(frozen=True)
class Embedding:
    """An edge-preserving injection of a pattern into a host.

    ``mapping[k]`` is the host vertex assigned to pattern vertex k+1.
    """

    mapping: tuple[int, ...]

    def apply(self, pattern_vertex: int) -> int:
        return self.mapping[pattern_vertex - 1]

    def is_valid(self, host: OrientedGraph, pattern: OrientedGraph) -> bool:
        if len(self.mapping) != pattern.n:
            return False
        if len(set(self.mapping)) != pattern.n:
            return False
        if not all(1 <= v <= host.n for v in self.mapping):
            return False
        return all(
            host.has_edge(self.mapping[u - 1], self.mapping[v - 1])
            for u, v in pattern.edges
        )


def _pattern_order(pattern: OrientedGraph) -> list[int]:
    # Most-constrained-first: prefer vertices adjacent to more placed ones,
    # then high-degree pattern vertices.
    nbrs = [o | i for o, i in zip(pattern.out, pattern.inn)]
    order: list[int] = []
    placed = 0
    for _ in pattern.vertices:
        v = min(
            _bits(_span(1, pattern.n) & ~placed),
            key=lambda v: (-(nbrs[v] & placed).bit_count(), -nbrs[v].bit_count(), v),
        )
        order.append(v)
        placed |= 1 << v
    return order


@dataclass(frozen=True)
class _Plan:
    """What the embedding search needs of a pattern, built once per pattern.

    ``slots[i]`` is the mapping index of the i-th pattern vertex in
    ``_pattern_order``; ``links[i]`` lists, for each pattern edge between
    it and an earlier vertex u, the pair (u - 1, True) for u -> it and
    (u - 1, False) for it -> u.
    """

    slots: tuple[int, ...]
    links: tuple[tuple[tuple[int, bool], ...], ...]


def _plan(pattern: OrientedGraph) -> _Plan:
    order = _pattern_order(pattern)
    links = []
    for i, v in enumerate(order):
        level = []
        for u in order[:i]:
            if pattern.has_edge(u, v):
                level.append((u - 1, True))
            elif pattern.has_edge(v, u):
                level.append((u - 1, False))
        links.append(tuple(level))
    return _Plan(tuple(v - 1 for v in order), tuple(links))


def _search(
    slots: Sequence[int],
    domains: Sequence[int],
    checks: Sequence[Sequence[tuple[int, Sequence[int] | Mapping[int, int]]]],
) -> Generator[tuple[list[int], int, int], Optional[int], None]:
    """The bit-mask search engine: backtracking over levels in order,
    values in increasing bit order. Embeddings, order-preserving maps and
    closed walks are each described to it as data.

    Level i sets ``mapping[slots[i]]`` to a bit of ``domains[i]`` that is
    also set in ``table[mapping[p]]`` for every ``(p, table)`` in
    ``checks[i]``; each p is the slot of an earlier level, so level 0 has
    no checks. A table is a list or a dict indexed by values, and
    ``slots`` a permutation of 0..k-1, k >= 1. Yields ``(mapping, slot,
    cand)`` once per assignment of every level but the last: ``slot`` is
    the last level's and ``cand`` the nonempty mask of its values, so
    every set bit completes one assignment. ``mapping`` is reused between
    yields, and its entry at ``slot`` is stale.

    Resuming: a consumer may clear bits of any check table and then send
    the bits of the last ``cand`` it has not yet consumed. An assignment
    rejected before stays rejected, so the search need not restart: it
    backs up to the first level whose placed value the shrunk tables now
    reject, drops the levels after it, and refilters the untried values
    of the levels it keeps (the sent bits included). What it yields next
    is then exactly what a fresh search under the shrunk tables would
    yield after the assignments already passed. Plain iteration sends
    nothing and never resumes.
    """
    slots = tuple(slots)  # indexes faster than a range
    k = len(slots)
    mapping = [0] * k
    last = k - 1
    if not last:
        rest = domains[0]
        while rest:
            rest = yield mapping, slots[0], rest
        return
    cands = [domains[0]] + [0] * last  # untried values per level
    depth = 0
    while depth >= 0:
        cand = cands[depth]
        if not cand:
            depth -= 1
            continue
        low = cand & -cand
        cands[depth] = cand ^ low
        mapping[slots[depth]] = low.bit_length() - 1
        depth += 1
        cand = domains[depth]
        for p, table in checks[depth]:
            cand &= table[mapping[p]]
        if not cand:
            depth -= 1
        elif depth < last:
            cands[depth] = cand
        else:
            rest = yield mapping, slots[last], cand
            while rest is not None:  # resumed after tables shrank
                cands[last] = rest
                depth = 1
                while depth < last and all(
                    table[mapping[p]] >> mapping[slots[depth]] & 1
                    for p, table in checks[depth]
                ):
                    depth += 1
                for i in range(1, depth + 1):
                    for p, table in checks[i]:
                        cands[i] &= table[mapping[p]]
                if depth < last or not cands[last]:
                    break
                rest = yield mapping, slots[last], cands[last]
            else:
                depth -= 1


def _first_fits(
    search: Generator[tuple[list[int], int, int], Optional[int], None]
) -> Iterator[list[int]]:
    """The greedy driver of a ``_search``: yields the first assignment in
    search order, then resumes after it. A consumer may shrink the check
    tables between yields, so each assignment yielded is the first that
    the tables then admit. ``mapping`` is the engine's, reused."""
    step = next(search, None)
    while step is not None:
        mapping, slot, cand = step
        low = cand & -cand
        mapping[slot] = low.bit_length() - 1
        yield mapping
        try:
            step = search.send(cand ^ low)
        except StopIteration:
            return


def _tables(
    out: Sequence[int], inn: Sequence[int], n: int, plan: _Plan
) -> tuple[list[int], list[list[tuple[int, Sequence[int]]]]]:
    """``_search`` domains and checks for embedding the plan's pattern into
    the host with masks ``out`` and ``inn`` on 1..n.

    Each pattern edge to an earlier vertex is checked through ``out`` or
    ``inn``, and each earlier vertex not adjacent through a table
    ``~(1 << v)``, which keeps the images distinct; adjacent images are
    distinct already, since the host has no loops. A pattern with more
    vertices than the host gets empty domains.
    """
    full = _span(1, n) if len(plan.slots) <= n else 0
    distinct = [~(1 << v) for v in range(n + 1)]
    checks = []
    for i, links in enumerate(plan.links):
        linked = {p: out if forward else inn for p, forward in links}
        checks.append([(p, linked.get(p, distinct)) for p in plan.slots[:i]])
    return [full] * len(plan.slots), checks


def _embeddings(
    out: Sequence[int], inn: Sequence[int], n: int, plan: _Plan
) -> Iterator[tuple[int, ...]]:
    """Every embedding's host-vertex tuple, in search order."""
    if not plan.slots:
        yield ()
        return
    for mapping, slot, cand in _search(plan.slots, *_tables(out, inn, n, plan)):
        for w in _bits(cand):
            mapping[slot] = w
            yield tuple(mapping)


def count_embeddings(host: OrientedGraph, pattern: OrientedGraph) -> int:
    """Exact number of injections phi with u->v implying phi(u)->phi(v).

    The empty pattern embeds exactly once; one vertex embeds n times, two
    vertices once per host edge (or ordered pair, if they are not
    adjacent), and a pattern larger than the host never.

    From three vertices on, the last three plan levels a, b, c are counted
    on bit-packed integers with rows of width n + 1: bit z * (n + 1) + w
    stands for b at z and c at w. ``near`` holds b -> c's table at z in
    row z; ``tail[y]`` holds a -> c's table at y in each row z that
    a -> b's table at y admits. An earlier level j at x constrains b
    through its table on b, expanded to whole rows (row z all ones for
    each z in it), and c through its table on c, replicated into every
    row (the mask times a word with bit 0 of each row set). Expanding
    rows and replicating them both commute with AND, so the AND of the
    earlier levels' tables expands to the AND of their expansions: each
    level's two expansions are built once per value and ANDed into one
    mask, and an assignment of the levels before a leaves the rows
    ``near`` ANDed with one mask per level. The search engine yields
    these assignments (a single empty one when k = 3) with a's candidate
    values; each such value y adds the popcount of those rows AND
    ``tail[y]``. No per-value loop is left on b or c.

    The packed tables are about (k - 2) * (n + 1) integers of at most
    (n + 1)**2 bits, about (k - 2) * n**3 bits: 2.1 Mbit (260 kB) for
    k = 4 at n = 100.
    """
    k, n = pattern.n, host.n
    if k > n:
        return 0
    if k < 2:
        return n if k else 1
    plan = _plan(pattern)
    full = _span(1, n)
    # rows[kind][x]: the values in 1..n that a later level may take when
    # an earlier one sits at x. Kind True is a pattern edge from the
    # earlier vertex to the later, False the reverse, and None no edge,
    # where only distinct images are required.
    rows = {
        True: host.out,
        False: host.inn,
        None: [0] + [full ^ (1 << x) for x in range(1, n + 1)],
    }
    linked = [dict(links) for links in plan.links]

    def kind(j: int, i: int) -> Optional[bool]:
        """The kind of level j's table on the later level i."""
        return linked[i].get(plan.slots[j])

    if k == 2:
        return sum(map(int.bit_count, rows[kind(0, 1)]))
    width = n + 1
    a, b, c = k - 3, k - 2, k - 1
    unit = sum(1 << (z * width) for z in range(1, n + 1))  # bit 0 of each row

    def packed(table: Sequence[int]) -> int:
        return sum(table[z] << (z * width) for z in range(1, n + 1))

    # column x of the packed transpose of rows[t] has bit z * width for
    # each z in rows[t][x] (out and inn transpose each other)
    columns = {
        t: packed(rows[t if t is None else not t]) for t in {kind(j, b) for j in range(b)}
    }
    near = packed(rows[kind(b, c)])
    ab, ac = columns[kind(a, b)], rows[kind(a, c)]
    tail = [((ab >> y) & unit) * ac[y] for y in range(width)]
    early = []
    for j in range(a):
        jb, jc = columns[kind(j, b)], rows[kind(j, c)]
        early.append([((jb >> x) & unit) * full & jc[x] * unit for x in range(width)])
    # the engine runs levels 0..a; its mapping is indexed by level
    checks = [[(j, rows[kind(j, i)]) for j in range(i)] for i in range(b)]
    total = 0
    for mapping, _, cand in _search(range(b), [full] * b, checks):
        left = near
        for j, table in enumerate(early):
            left &= table[mapping[j]]
        while left and cand:
            low = cand & -cand
            total += (left & tail[low.bit_length() - 1]).bit_count()
            cand ^= low
    return total


def enumerate_embeddings(
    host: OrientedGraph, pattern: OrientedGraph, limit: Optional[int] = None
) -> Iterator[Embedding]:
    """Yield every embedding of the pattern, in search order.

    ``limit`` caps the number of embeddings yielded; hitting the cap
    raises BudgetExceeded since a truncated enumeration is not exhaustive.
    """
    yielded = 0
    for mapping in _embeddings(host.out, host.inn, host.n, _plan(pattern)):
        yielded += 1
        if limit is not None and yielded > limit:
            raise BudgetExceeded(
                "embedding enumeration budget exhausted", yielded=yielded
            )
        yield Embedding(mapping)


def find_embedding(
    host: OrientedGraph, pattern: OrientedGraph
) -> Optional[Embedding]:
    mapping = next(_embeddings(host.out, host.inn, host.n, _plan(pattern)), None)
    return None if mapping is None else Embedding(mapping)


def count_automorphisms(pattern: OrientedGraph) -> int:
    """Permutations of the pattern preserving the edge set exactly.

    These are exactly its embeddings into itself. An injective self-map of
    the finite vertex set is a bijection, and it is injective on ordered
    pairs; if it sends edges to edges, it maps the finite edge set into
    itself injectively, hence onto it, so no non-edge pair is sent to an
    edge either.
    """
    return count_embeddings(pattern, pattern)


@dataclass(frozen=True)
class EmbeddingStats:
    """Labeled embedding count plus the unlabeled-copy count.

    The unlabeled count is defined as embeddings / |Aut(pattern)| and is
    reported as an exact fraction.
    """

    embeddings: int
    automorphisms: int

    @property
    def unlabeled(self) -> Fraction:
        return Fraction(self.embeddings, self.automorphisms)


def embedding_stats(host: OrientedGraph, pattern: OrientedGraph) -> EmbeddingStats:
    return EmbeddingStats(
        embeddings=count_embeddings(host, pattern),
        automorphisms=count_automorphisms(pattern),
    )


# -- edit distance to H-freeness ---------------------------------------


@dataclass(frozen=True)
class DistanceResult:
    """Outcome of the reversal-distance search.

    When ``exact`` is True, ``distance`` is the minimum and ``flips`` is a
    set of that many pairs whose reversal removes every copy, each written
    (smaller label, larger label), in the order the search reversed them.
    Otherwise ``distance`` and ``flips`` are None and ``lower_bound`` is
    what the search proved before a limit stopped it.
    """

    distance: Optional[int]
    lower_bound: int
    exact: bool
    flips: Optional[tuple[tuple[int, int], ...]] = None


def _packing(
    out: list[int], inn: list[int], n: int, pattern: OrientedGraph, plan: _Plan
) -> Callable[[], tuple[int, Optional[tuple[int, ...]]]]:
    """A greedy packing of pairwise pair-disjoint copies of the pattern in
    the host with masks ``out`` and ``inn`` on 1..n. Each call returns the
    number of copies found (a lower bound on the reversal distance, since
    each copy needs its own reversal) and the first copy in search order
    (None when there is none).

    Each copy is the first embedding in search order that uses no pair of
    an earlier copy; one search, resumed after each copy's pairs are
    cleared from its ``allow`` table, finds them all. An edgeless pattern
    uses no pair, so there every embedding counts. The search tables are
    built once and read ``out`` and ``inn`` themselves, so a caller may
    edit those lists in place between calls; a call resets only ``allow``.
    """
    allow = [-1] * (n + 1)  # allow[x]: the y whose pair {x, y} no copy used
    unused = allow[:]
    edges = [(u - 1, v - 1) for u, v in pattern.edges]
    domains, checks = _tables(out, inn, n, plan)
    for check, links in zip(checks, plan.links):
        check += [(p, allow) for p, _ in links]

    def pack() -> tuple[int, Optional[tuple[int, ...]]]:
        allow[:] = unused
        found = 0
        first = None
        for mapping in _first_fits(_search(plan.slots, domains, checks)):
            if first is None:
                first = tuple(mapping)
            found += 1
            for u, v in edges:
                a, b = mapping[u], mapping[v]
                allow[a] &= ~(1 << b)
                allow[b] &= ~(1 << a)
        return found, first

    return pack


def distance_to_h_free(
    t: Tournament,
    pattern: OrientedGraph,
    budget: Optional[int] = None,
    node_budget: int = 2_000_000,
) -> DistanceResult:
    """Minimum number of edge reversals making the tournament pattern-free.

    Iterative deepening (IDA*) over surviving copies. Any pattern-free
    tournament differs from the current one on at least one pair of each
    surviving copy, so a node branches on the pairs of one copy, its
    witness, in ``pattern.edges`` order. A child never reverses a pair
    already reversed on its path, nor one that an earlier sibling
    reversed (that sibling's subtree holds every set using it). A greedy
    pair-disjoint packing gives the bound: a node at depth d whose packing
    has p copies needs at least d + p reversals in all. The packing's
    first copy, the first embedding in search order, is the witness.

    Each pass is a depth-first search under a limit. It prunes every node
    whose bound exceeds the limit and returns at the first node, in
    preorder, with no copy. The first limit is the root's bound. A pass
    that finds no such node proves the distance is at least the least
    bound it pruned and exceeds the limit, so the next limit is the larger
    of the two and no limit passes over the distance d. The first pass
    that returns is the one at limit d, and it returns the first
    copy-free node of depth d in preorder, whose depth is the limit.

    That node is also what a branch-and-bound over the same tree returns
    when it keeps its incumbent unless a solution is strictly shallower.
    The bound at a node never exceeds the depth of a solution below it,
    so before that search holds a depth-d solution it prunes no ancestor
    of the first one; it reaches that one first and then keeps it.

    ``budget`` caps the admissible distance; if the true distance exceeds
    it the result is inexact with ``lower_bound`` the larger of cap + 1 and
    the root's bound. A result whose lower bound exceeds C(n,2) means no
    reversal set of any size works (the pattern embeds into every
    tournament on n vertices). Two rules give that answer, lower bound
    C(n,2) + 1 whatever the budget: an edgeless pattern with at most n
    vertices, without a search, and an acyclic pattern on k vertices with
    n >= 2^(k-1), after the root's packing alone (a packing without a copy
    there raises AuditError).
    ``node_budget`` caps the number of search nodes, one per packing; on
    exhaustion the result is inexact and its lower bound is the current
    limit, which the earlier passes proved, or 0 when the budget ran out
    at the root, before its packing.
    """
    if pattern.n == 0:
        raise ValueError("pattern must have at least one vertex")
    n = t.n
    all_pairs = n * (n - 1) // 2
    cap = min(budget, all_pairs) if budget is not None else all_pairs
    if not pattern.edges and pattern.n <= n:
        # a reversal changes no copy of an edgeless pattern, and one embeds
        return DistanceResult(None, all_pairs + 1, False)
    if node_budget < 1:
        return DistanceResult(None, 0, False)

    out = list(t.out)
    inn = list(t.inn)
    pack = _packing(out, inn, n, pattern, _plan(pattern))
    edges = [(u - 1, v - 1) for u, v in pattern.edges]
    flipped: list[tuple[int, int]] = []
    nodes = 1
    exhausted = False

    def flip(a: int, b: int) -> None:
        # reverse a->b into b->a
        out[a] &= ~(1 << b)
        inn[b] &= ~(1 << a)
        out[b] |= 1 << a
        inn[a] |= 1 << b

    def deepen(witness: tuple[int, ...], pinned: set, limit: int) -> Optional[int]:
        """The pass under ``limit`` below the node with copy ``witness``,
        whose reversed pairs are ``flipped``. Returns the least bound it
        pruned, all_pairs + 1 when it pruned none, or None when it stopped:
        ``exhausted``, or at a node with no copy, left in ``flipped``."""
        nonlocal nodes, exhausted
        depth = len(flipped) + 1
        # the copy is injective, so each pattern edge is a distinct pair
        on_path = set(flipped)
        pin = set(pinned)
        least = all_pairs + 1
        for u, v in edges:
            a, b = witness[u], witness[v]
            key = (a, b) if a < b else (b, a)
            if key in pin or key in on_path:
                continue
            nodes += 1
            if nodes > node_budget:
                exhausted = True
                return None
            flip(a, b)
            flipped.append(key)
            copies, first = pack()
            if depth + copies > limit:
                least = min(least, depth + copies)
            elif first is None:
                return None
            else:
                below = deepen(first, pin, limit)
                if below is None:
                    return None
                least = min(least, below)
            flipped.pop()
            flip(b, a)
            pin.add(key)
        return least

    root_lb, witness = pack()
    if n >= 1 << (pattern.n - 1) and pattern.is_acyclic():
        # every tournament on n >= 2^(k-1) vertices holds a transitive one
        # on k, and that holds every acyclic pattern on k vertices
        if witness is None:
            raise AuditError(
                f"no copy of an acyclic pattern on {pattern.n} vertices "
                f"in a tournament on {n} >= 2^{pattern.n - 1}"
            )
        return DistanceResult(None, all_pairs + 1, False)
    if witness is None:
        return DistanceResult(0, 0, True, ())
    limit = root_lb
    while limit <= cap:
        least = deepen(witness, set(), limit)
        if exhausted:
            return DistanceResult(None, limit, False)
        if least is None:
            return DistanceResult(limit, limit, True, tuple(flipped))
        limit = max(limit + 1, least)
    # every pass within the cap ended without a copy-free node: every
    # reversal set within the cap leaves a copy
    return DistanceResult(None, max(root_lb, cap + 1), False)


# -- transitive extraction ---------------------------------------------


def transitive_subtournament(t: Tournament, k: int) -> Optional[list[int]]:
    """A vertex sequence inducing a transitive subtournament of size k.

    Constructive recursion: take a vertex of maximum out-degree (at least
    (n-1)/2), recurse into its out-neighbourhood. Succeeds whenever
    n >= 2^(k-1); failure is possible only below that threshold.
    """
    if k < 1:
        raise ValueError("target size must be at least 1")
    return _greedy_transitive(t, _span(1, t.n), k)


def _greedy_transitive(t: Tournament, pool: int, k: int) -> Optional[list[int]]:
    """Transitive sequence of k vertices inside the vertex mask ``pool``:
    take the vertex with the most out-neighbours in the pool (smallest
    label on ties), shrink the pool to those out-neighbours, repeat."""
    seq: list[int] = []
    while len(seq) < k:
        if not pool:
            return None
        v = max(_bits(pool), key=lambda u: ((t.out[u] & pool).bit_count(), -u))
        seq.append(v)
        pool &= t.out[v]
    return seq
