"""The k-partite forcing construction and its certification machinery.

A k-partite tournament is an ``OrientedGraph`` that orients every pair
between k disjoint parts and leaves the pairs inside a part open; a
completion adds arbitrary tournaments inside the parts. The randomized
construction orients the part pairs prescribed by a digraph D
deterministically and flips a seeded fair coin for every remaining cross
pair. Its guarantee is that every completion carries many copies of the
pattern, pairwise disjoint on cross edges; the certifier extracts such a
family explicitly from any given completion and the exhaustive checker
decides forcing outright by enumerating every completion.

The per-tuple copy target gamma(h) = 2^(-h^2) / (8 h^4) is exposed as an
exact rational and reported against the achieved count, never enforced:
the guarantee is asymptotic while the certificate (validity plus
disjointness) is checkable at any scale.

Constructions are immutable once built; coin streams are drawn
sequentially per part pair from independent seeded generators, so the
same seed reproduces the same object regardless of call interleaving.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from .coloring import acyclic_k_coloring
from .digraphs import (
    Embedding,
    OrientedGraph,
    Tournament,
    _bits,
    _first_fits,
    _greedy_transitive,
    _mask,
    _pair_masks,
    _peel,
    _search,
    _span,
    find_embedding,
)
from .errors import AuditError, BudgetExceeded

__all__ = [
    "ForcingParameters",
    "forcing_parameters",
    "KPartiteTournament",
    "TupleCollection",
    "CompletionCertificate",
    "disjoint_tuples",
    "build_forcing",
    "certify_completion",
    "forces_exhaustive",
    "search_min_forcing",
]


@dataclass(frozen=True)
class ForcingParameters:
    """Pattern size and the exact copy-density target."""

    h: int
    gamma: Fraction


def forcing_parameters(h: int) -> ForcingParameters:
    if h < 2:
        raise ValueError("pattern size must be at least 2")
    return ForcingParameters(h=h, gamma=Fraction(1, (2 ** (h * h)) * 8 * h**4))


# -- tuple collections (pairwise at most one identical entry) -----------


@dataclass(frozen=True)
class TupleCollection:
    """Tuples from a box, every two of which agree in at most one slot."""

    t: int
    k: int
    tuples: tuple[tuple[int, ...], ...]

    def verify(self) -> bool:
        for a, b in itertools.combinations(self.tuples, 2):
            if sum(x == y for x, y in zip(a, b)) > 1:
                return False
        return True


def _greedy_box_collection(ranges: Sequence[int]) -> list[tuple[int, ...]]:
    """Greedy collection over the box [1..r1] x ... x [1..rk], k >= 1.

    Add the lexicographically first remaining tuple, discard every tuple
    that coincides with it in more than one slot, repeat. One resumable
    ``_search`` over the slots in order does this: ``allow[i][j][x]`` masks
    the values slot j may still take beside value x in slot i, and each
    kept tuple clears its own pairs from it. The engine yields tuples in
    lexicographic order, so each one kept is the first remaining.
    """
    if any(r < 0 for r in ranges):
        raise ValueError("ranges must be nonnegative")
    k = len(ranges)
    allow = [[[-1] * (r + 1) for _ in range(k)] for r in ranges]
    checks = [[(i, allow[i][j]) for i in range(j)] for j in range(k)]
    search = _search(range(k), [_span(1, r) for r in ranges], checks)
    kept: list[tuple[int, ...]] = []
    for s in _first_fits(search):
        kept.append(tuple(s))
        for i, j in itertools.combinations(range(k), 2):
            allow[i][j][s[i]] &= ~(1 << s[j])
    return kept


def disjoint_tuples(t: int, k: int) -> TupleCollection:
    """Greedy collection in [t]^k with the pairwise <=1-agreement property
    and size at least t^2/k^2.

    k = 1 is rejected: there the property forces nothing and the stated
    bound is false (the maximum collection is all t singletons).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if t < 1:
        raise ValueError("t must be at least 1")
    kept = _greedy_box_collection([t] * k)
    if len(kept) * k * k < t * t:
        raise AuditError(
            f"greedy collection of size {len(kept)} misses the t^2/k^2 bound"
        )
    return TupleCollection(t=t, k=k, tuples=tuple(kept))


# -- the k-partite tournament -------------------------------------------


def _check_parts(k: int, m: int) -> None:
    """Raise ValueError unless k parts of size m make a k-partite tournament."""
    if k < 2 or m < 1:
        raise ValueError("need k >= 2 parts of size m >= 1")


class KPartiteTournament(OrientedGraph):
    """An oriented graph on k parts of m vertices each, with every cross
    pair oriented and no edge inside a part.

    Global vertex ids are 1..k*m; part i occupies (i-1)*m+1 .. i*m. The
    masks, ``edges``, equality and immutability are ``OrientedGraph``'s;
    the constructor adds the k-partite checks, and a completion orients
    the inner pairs.
    """

    __slots__ = ("k", "m", "seed")

    def __init__(
        self,
        k: int,
        m: int,
        cross_edges: Sequence[tuple[int, int]],
        seed: Optional[int] = None,
    ):
        _check_parts(k, m)
        self._store(k * m, *_pair_masks(k * m, cross_edges, m))
        count = sum(map(int.bit_count, self.out))
        expected = k * (k - 1) // 2 * m * m
        if count != expected:
            raise ValueError(f"{count} cross pairs oriented, expected {expected}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "seed", seed)

    def vertex(self, part: int, index: int) -> int:
        """Global id of vertex `index` (1-based) of part `part` (1-based)."""
        if not (1 <= part <= self.k and 1 <= index <= self.m):
            raise ValueError("part or index out of range")
        return (part - 1) * self.m + index

    def part_of(self, v: int) -> int:
        return (v - 1) // self.m + 1

    def part_vertices(self, part: int) -> range:
        base = (part - 1) * self.m
        return range(base + 1, base + self.m + 1)

    def cross_edges(self) -> Iterator[tuple[int, int]]:
        for u in range(1, self.n + 1):
            for v in _bits(self.out[u]):
                yield (u, v)

    def inner_pairs(self) -> list[tuple[int, int]]:
        pairs = []
        for part in range(1, self.k + 1):
            vs = list(self.part_vertices(part))
            pairs.extend(itertools.combinations(vs, 2))
        return pairs

    def agrees_with(self, t: Tournament) -> bool:
        """Does the tournament agree with every cross edge?"""
        if t.n != self.n:
            return False
        return all(t.has_edge(u, v) for u, v in self.cross_edges())

    def completion(self, inner_edges: Sequence[tuple[int, int]]) -> Tournament:
        """The tournament that keeps the cross edges and orients every inner
        pair as ``inner_edges`` lists it."""
        n = self.n
        out, inn = list(self.out), list(self.inn)
        for a, b in inner_edges:
            inner = 1 <= a <= n and 1 <= b <= n and self.part_of(a) == self.part_of(b)
            if not inner or (out[a] | inn[a] | 1 << a) >> b & 1:
                raise ValueError(f"({a},{b}) is not an unoriented inner pair")
            out[a] |= 1 << b
            inn[b] |= 1 << a
        if sum(map(int.bit_count, out)) != n * (n - 1) // 2:
            raise ValueError("the inner edges leave a pair unoriented")
        return Tournament._from_masks(n, out, inn)

    def completions(self) -> Iterator[Tournament]:
        """All completions, enumerated over inner-pair orientations."""
        pairs = self.inner_pairs()
        for bits in range(1 << len(pairs)):
            inner = [
                (a, b) if (bits >> idx) & 1 else (b, a)
                for idx, (a, b) in enumerate(pairs)
            ]
            yield self.completion(inner)


def _pair_rng(seed: int, i: int, j: int) -> random.Random:
    # SHA-256 of a text key keeps the stream platform-stable per part pair
    digest = hashlib.sha256(f"{seed}:{i}:{j}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _validate_coloring_against_d(
    h: OrientedGraph, classes: Sequence[Sequence[int]], d: OrientedGraph
) -> None:
    flat = [v for cls in classes for v in cls]
    if sorted(flat) != list(h.vertices):
        raise ValueError("classes must partition the pattern's vertex set")
    for idx, cls in enumerate(classes, start=1):
        if _peel(h.inn, _mask(cls)) is None:
            raise ValueError(f"class {idx} does not induce an acyclic digraph")
    k = len(classes)
    if d.n != k:
        raise ValueError("D must be an oriented graph on 1..k")
    if not (2 <= k <= h.n):
        raise ValueError("need 2 <= k <= h")
    for (i, j) in d.edges:
        for u in classes[j - 1]:
            for v in classes[i - 1]:
                if h.has_edge(u, v):
                    raise ValueError(
                        f"D edge ({i},{j}) demands class {i} -> class {j}, "
                        f"but the pattern has edge {u} -> {v}"
                    )


def build_forcing(
    h: OrientedGraph,
    classes: Sequence[Sequence[int]],
    d: OrientedGraph,
    m: int,
    seed: int,
) -> KPartiteTournament:
    """Construct the k-partite tournament: D-edges force whole part pairs,
    all other cross pairs get a seeded fair coin.

    The same seed reproduces the construction bit for bit; coins are drawn
    in row-major vertex order per part pair, each pair with its own
    SHA-derived stream.
    """
    _validate_coloring_against_d(h, classes, d)
    k = len(classes)
    edges: list[tuple[int, int]] = []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            vi = [(i - 1) * m + a for a in range(1, m + 1)]
            vj = [(j - 1) * m + b for b in range(1, m + 1)]
            if d.has_edge(i, j):
                edges.extend((u, v) for u in vi for v in vj)
            elif d.has_edge(j, i):
                edges.extend((v, u) for u in vi for v in vj)
            else:
                rng = _pair_rng(seed, i, j)
                for u in vi:
                    for v in vj:
                        edges.append((u, v) if rng.getrandbits(1) else (v, u))
    return KPartiteTournament(k, m, edges, seed=seed)


# -- certification ------------------------------------------------------


@dataclass(frozen=True)
class CompletionCertificate:
    """Copies of the pattern extracted from one completion.

    Every returned embedding is validated and the family is pairwise
    disjoint on cross edges of the k-partite tournament. ``target`` is the
    asymptotic per-completion goal gamma * m^2, reported for diagnostics
    only.
    """

    embeddings: tuple[Embedding, ...]
    gamma: Fraction
    target: Fraction

    @property
    def count(self) -> int:
        return len(self.embeddings)


def _forward_order(h: OrientedGraph, cls: Sequence[int]) -> list[int]:
    """Linear order of a class in which all its pattern edges point
    forward; smallest-label-first among the ready vertices."""
    order = _peel(h.inn, _mask(cls))
    if order is None:
        raise ValueError("class is not acyclic")
    return order


def certify_completion(
    f: KPartiteTournament,
    t: Tournament,
    h: OrientedGraph,
    classes: Sequence[Sequence[int]],
) -> CompletionCertificate:
    """Extract an explicit cross-edge-disjoint family of pattern copies
    from a completion.

    Follows the forcing argument: greedily collect disjoint transitive
    blocks of size |H_i| inside every part, pick a tuple collection with
    pairwise at most one identical slot over the block indices, and keep
    every tuple whose fixed order-preserving block embedding realizes all
    cross edges of the pattern. At proof scale each part only needs
    floor(m / 2|H_i|) blocks; the extraction here keeps going until the
    part is exhausted, which can only enlarge the scanned collection.
    """
    if not f.agrees_with(t):
        raise ValueError("tournament does not complete the k-partite tournament")
    k = f.k
    if len(classes) != k:
        raise ValueError("class count must match the part count")
    flat = [v for cls in classes for v in cls]
    if sorted(flat) != list(h.vertices):
        raise ValueError("classes must partition the pattern's vertex set")

    orders = [_forward_order(h, cls) for cls in classes]
    blocks: list[list[tuple[int, ...]]] = []
    for i in range(1, k + 1):
        size = len(classes[i - 1])
        pool = _mask(f.part_vertices(i))
        part_blocks: list[tuple[int, ...]] = []
        if size:
            while pool.bit_count() >= size:
                seq = _greedy_transitive(t, pool, size)
                if seq is None:
                    break
                part_blocks.append(tuple(seq))
                for v in seq:
                    pool &= ~(1 << v)
        blocks.append(part_blocks)

    embeddings: list[Embedding] = []
    for s in _greedy_box_collection([len(b) for b in blocks]):
        mapping = [0] * h.n
        for i in range(k):
            block = blocks[i][s[i] - 1]
            for pos, vertex in enumerate(orders[i]):
                mapping[vertex - 1] = block[pos]
        ok = True
        for (u, v) in h.edges:
            if not t.has_edge(mapping[u - 1], mapping[v - 1]):
                ok = False
                break
        if ok:
            emb = Embedding(tuple(mapping))
            if not emb.is_valid(t, h):
                raise AuditError("certifier produced an invalid embedding")
            embeddings.append(emb)

    _assert_cross_disjoint(f.part_of, h, embeddings)
    params = forcing_parameters(max(h.n, 2))
    return CompletionCertificate(
        embeddings=tuple(embeddings),
        gamma=params.gamma,
        target=params.gamma * f.m * f.m,
    )


def _assert_cross_disjoint(
    part_of: Callable[[int], int], h: OrientedGraph, embeddings: Sequence[Embedding]
) -> None:
    """Raise AuditError when two copies share a pair across two parts."""
    used: dict[tuple[int, int], int] = {}
    for idx, emb in enumerate(embeddings):
        for (u, v) in h.edges:
            a, b = emb.mapping[u - 1], emb.mapping[v - 1]
            if part_of(a) == part_of(b):
                continue
            key = (min(a, b), max(a, b))
            if key in used and used[key] != idx:
                raise AuditError(
                    f"copies {used[key]} and {idx} share cross pair {key}"
                )
            used[key] = idx


# -- exhaustive forcing -------------------------------------------------


def forces_exhaustive(
    f: KPartiteTournament, h: OrientedGraph, max_inner_pairs: int = 20
) -> bool:
    """True iff every completion contains at least one copy of the pattern.

    Enumerates all 2^(inner pairs) completions; refuses beyond
    ``max_inner_pairs`` since the enumeration is exact, not sampled.
    """
    pairs = f.inner_pairs()
    if len(pairs) > max_inner_pairs:
        raise BudgetExceeded(
            f"{len(pairs)} inner pairs exceed the enumeration budget "
            f"{max_inner_pairs}",
            inner_pairs=len(pairs),
        )
    return all(find_embedding(t, h) is not None for t in f.completions())


def search_min_forcing(
    h: OrientedGraph,
    m_max: int,
    max_inner_pairs: int = 20,
) -> Optional[KPartiteTournament]:
    """Smallest-part bipartite tournament that forces the pattern.

    Scans part sizes m = 1..m_max and, for each, all 2^(m^2) cross
    orientations in bit order, returning the first forcing one. Requires
    a 2-colorable pattern: any bipartite tournament has a completion by
    two transitive parts, which is a 2-colorable tournament and therefore
    misses every non-2-colorable pattern.
    """
    if acyclic_k_coloring(h, 2) is None:
        raise ValueError(
            "pattern is not 2-colorable, so no bipartite tournament forces it"
        )
    for m in range(1, m_max + 1):
        if 2 * (m * (m - 1) // 2) > max_inner_pairs:
            raise BudgetExceeded(
                f"part size {m} exceeds the completion enumeration budget",
                m=m,
            )
        pair_list = [
            (a, m + b)
            for a in range(1, m + 1)
            for b in range(1, m + 1)
        ]
        for bits in range(1 << (m * m)):
            edges = [
                (u, v) if (bits >> idx) & 1 else (v, u)
                for idx, (u, v) in enumerate(pair_list)
            ]
            candidate = KPartiteTournament(2, m, edges)
            if forces_exhaustive(candidate, h, max_inner_pairs=max_inner_pairs):
                return candidate
    return None
