"""Binary-matrix homogeneity machinery and the decomposition pipeline.

A block of a 0/1 matrix is delta-homogeneous when its minority value
fills at most a delta fraction of its entries; a bipartition pair
(row classes, column classes) is delta-homogeneous when the total weight
of bad blocks is at most delta. The partitioner below is a heuristic
refinement loop: it splits whichever class contributes most bad weight,
at the median distance from the member row/column patterns to their
centroid. Correctness is carried entirely by the output audit, never by
the search; every partition this module emits can be re-audited from raw
entries.

All thresholds are exact rationals. Ties at density exactly 1/2 resolve
to dominant value 1, mirroring the >= 1/2 rule for dominant directions.

The decomposition pipeline refines the trivial partition to an
equipartition at delta/5, refines that at gamma = 1/(2 q^4), then samples
one representative block per part (seeded) and retries until the two
homogeneity events hold. A stage with target t splits each of its input
parts by the partitioner's classes at t^2/3, and its part count is the
least feasible one at or above 6 |parts| |rows| |cols| / t. The
partitioner runs only when its classes can change that count: under a
size budget below n, or when a feasible count below n reaches
6 |parts| / t. Otherwise the stage is the singleton equipartition, as
both stages are for n <= 30/delta. Each stage's equipartition is counted
once, and its audit at the stage's target delta and the sampling read
that count: a block of ``ones`` ones in ``size`` entries is
delta-homogeneous iff min(ones, size - ones) * q <= p * size for
delta = p/q. The copy branch needs a size budget below n, which
``tourkit regularity`` does not take. Size bounds of the underlying
existential constants are reported, not enforced.

Matrices are row and column bit masks, so a block count is a sum of
popcounts, and no decision here, the split order included, uses floats.

Audits are pure functions of immutable inputs and may run concurrently;
the refinement loop and the seeded sampling are deliberately sequential
so identical seeds give identical outputs.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from .digraphs import Tournament, _gather, _mask
from .errors import AuditError, BudgetExceeded
from .forcing import KPartiteTournament

__all__ = [
    "BinaryMatrix",
    "BipartitionAudit",
    "Equipartition",
    "AfnPartition",
    "AfnCopies",
    "AfnInconclusive",
    "StrongDecomposition",
    "audit_bipartition",
    "count_matrix_copies",
    "find_matrix_copy",
    "afn_partition",
    "refine_to_equipartition",
    "strong_decomposition",
    "bipartite_adjacency",
    "default_bipartite_pattern",
]

HALF = Fraction(1, 2)


def _check_delta(delta, n: int) -> Fraction:
    """delta as a Fraction, for an n x n matrix with n >= 1."""
    delta = Fraction(delta)
    if not 0 < delta < HALF:
        raise ValueError("delta must lie strictly between 0 and 1/2")
    if n < 1:
        raise ValueError("regularity needs a matrix with at least one row (n >= 1)")
    return delta


def _bad_weights(
    ones: Sequence[int], sizes: Sequence[int], delta: Fraction
) -> list[int]:
    """The bad weight of each block of ``ones[i]`` ones in ``sizes[i]``
    entries: 0 when its density is >= 1 - delta or <= delta, in integers
    minority * q <= p * size for delta = p/q, and its size otherwise."""
    p, q = delta.numerator, delta.denominator
    return [s if c * q > p * s < (s - c) * q else 0 for c, s in zip(ones, sizes)]


class BinaryMatrix:
    """Square 0/1 matrix with 1-based row/column indices.

    The stored state is ``n`` and the masks ``rows`` and ``cols``: bit c
    of ``rows[r]`` and bit r of ``cols[c]`` are entry (r, c), and index 0
    is unused, as in ``OrientedGraph.out`` and ``inn``.
    """

    __slots__ = ("n", "rows", "cols")

    def __init__(self, entries):
        try:
            grid = [list(row) for row in entries]
        except TypeError:
            raise ValueError("matrix must be square") from None
        n = len(grid)
        if any(len(row) != n for row in grid):
            raise ValueError("matrix must be square")
        if any(x not in (0, 1) for row in grid for x in row):
            raise ValueError("entries must be 0 or 1")
        rows = [_mask(c for c, x in enumerate(row, 1) if x) for row in grid]
        cols = [_mask(r for r, row in enumerate(grid, 1) if row[c]) for c in range(n)]
        self._init(n, (0, *rows), (0, *cols))

    def _init(self, *state) -> None:  # n, rows, cols
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("BinaryMatrix is immutable")

    @classmethod
    def from_tournament(cls, t: Tournament) -> "BinaryMatrix":
        """The adjacency matrix (u, v) = 1 iff u -> v, on the same masks."""
        m = cls.__new__(cls)
        m._init(t.n, t.out, t.inn)
        return m

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "BinaryMatrix":
        return cls([[rng.getrandbits(1) for _ in range(n)] for _ in range(n)])

    def __getitem__(self, rc: tuple[int, int]) -> int:
        r, c = rc
        if not (1 <= r <= self.n and 1 <= c <= self.n):
            raise IndexError(f"entry ({r}, {c}) lies outside 1..{self.n}")
        return self.rows[r] >> c & 1


def _validate_partition(parts: Sequence[Sequence[int]], n: int, what: str) -> None:
    flat = sorted(v for p in parts for v in p)
    if flat != list(range(1, n + 1)):
        raise ValueError(f"{what} must partition 1..{n}")
    if any(not p for p in parts):
        raise ValueError(f"{what} contains an empty class")


@dataclass(frozen=True)
class BipartitionAudit:
    """Exact per-block statistics of a (row, column) partition pair."""

    row_parts: tuple[tuple[int, ...], ...]
    col_parts: tuple[tuple[int, ...], ...]
    delta: Fraction
    bad_weight: Fraction
    homogeneous: bool
    block_ones: tuple[tuple[int, ...], ...]
    block_sizes: tuple[tuple[int, ...], ...]


def _class_counts(
    lines: Sequence[int], members: Iterable[int], masks: Sequence[int]
) -> list[int]:
    """For each mask m, the sum over the members v of |lines[v] & m|, from
    bit-planes of the members' masks added bit by bit (bit j of planes[b]
    is bit b of how many have bit j): one popcount per plane and mask."""
    planes: list[int] = []
    for v in members:
        carry = lines[v]
        for b, plane in enumerate(planes):
            planes[b], carry = plane ^ carry, plane & carry
            if not carry:
                break
        if carry:
            planes.append(carry)
    counts = [0] * len(masks)
    for b, plane in enumerate(planes):
        counts = [c + ((plane & m).bit_count() << b) for c, m in zip(counts, masks)]
    return counts


def _block_counts(
    a: BinaryMatrix,
    rows: Sequence[Sequence[int]],
    cols: Sequence[Sequence[int]],
) -> list[list[int]]:
    """Ones of every block, row class by row class."""
    col_masks = [_mask(part) for part in cols]
    return [_class_counts(a.rows, part, col_masks) for part in rows]


def audit_bipartition(
    a: BinaryMatrix,
    rows: Sequence[Sequence[int]],
    cols: Sequence[Sequence[int]],
    delta: Fraction,
) -> BipartitionAudit:
    """Exact audit: per-block one counts and sizes, and the total bad weight."""
    delta = _check_delta(delta, a.n)
    _validate_partition(rows, a.n, "row partition")
    _validate_partition(cols, a.n, "column partition")
    ones = _block_counts(a, rows, cols)
    sizes = [[len(rp) * len(cp) for cp in cols] for rp in rows]
    bad = sum(sum(_bad_weights(*block_row, delta)) for block_row in zip(ones, sizes))
    bad_weight = Fraction(bad, a.n * a.n)
    return BipartitionAudit(
        row_parts=tuple(tuple(sorted(r)) for r in rows),
        col_parts=tuple(tuple(sorted(c)) for c in cols),
        delta=delta,
        bad_weight=bad_weight,
        homogeneous=bad_weight <= delta,
        block_ones=tuple(map(tuple, ones)),
        block_sizes=tuple(map(tuple, sizes)),
    )


# -- ordered submatrix copies -------------------------------------------


def _matrix_copies(
    a: BinaryMatrix, b, avoid_diagonal: bool
) -> Iterator[tuple[tuple[int, ...], list[tuple[int, list[int]]], int]]:
    """For each column tuple c1<...<ck in lexicographic order, yield
    (cols, hits, copies): hits pairs each row r of A (by increasing r; no r
    in cols under ``avoid_diagonal``) with the 0-based pattern rows, in
    decreasing order, that its entries in cols equal; copies counts the
    row tuples r1<...<rk with r_i matching pattern row i."""
    b = b if isinstance(b, BinaryMatrix) else BinaryMatrix(b)
    k = b.n
    if k > a.n:
        return
    for cols in itertools.combinations(range(1, a.n + 1), k):
        within = _mask(cols)
        place = (0, *(1 << c for c in cols))
        wanted: dict[int, list[int]] = {}
        for i in range(k - 1, -1, -1):
            wanted.setdefault(_gather(b.rows[i + 1], place), []).append(i)
        skip = within if avoid_diagonal else 0
        hits = [
            (r, wanted[seen])
            for r in range(1, a.n + 1)
            if not skip >> r & 1 and (seen := a.rows[r] & within) in wanted
        ]
        dp = [1] + [0] * k
        for _, matched in hits:
            for i in matched:
                dp[i + 1] += dp[i]
        yield cols, hits, dp[k]


def count_matrix_copies(a: BinaryMatrix, b, avoid_diagonal: bool = False) -> int:
    """Exact number of copies: row indices r1<...<rk and column indices
    c1<...<ck with A[r_i, c_j] = B[i, j].

    With ``avoid_diagonal`` only copies whose row and column index sets
    are disjoint count.
    """
    return sum(c for _, _, c in _matrix_copies(a, b, avoid_diagonal))


def find_matrix_copy(
    a: BinaryMatrix, b, avoid_diagonal: bool = False
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The lexicographically first copy (columns first, then rows) as
    1-based (rows, cols), or None: the first column tuple with a copy, and
    the earliest matching row for each pattern row in turn."""
    for cols, hits, copies in _matrix_copies(a, b, avoid_diagonal):
        if copies:
            rows: list[int] = []
            for r, matched in hits:
                if len(rows) < len(cols) and len(rows) in matched:
                    rows.append(r)
            return tuple(rows), cols
    return None


# -- the conditional partitioner ----------------------------------------


@dataclass(frozen=True)
class AfnPartition:
    """Partition branch: a certified delta-homogeneous bipartition pair."""

    audit: BipartitionAudit


@dataclass(frozen=True)
class AfnCopies:
    """Copy branch: the pattern count with one witness."""

    count: int
    witness: tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class AfnInconclusive:
    """Neither branch achieved within the size budget."""

    last_audit: BipartitionAudit


AfnOutcome = Union[AfnPartition, AfnCopies, AfnInconclusive]


def _split_class(
    lines: Sequence[int], members: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Split at the median of the L1 distances from the members' patterns
    (``lines[v]`` for member v) to their centroid, ties going to the
    smaller label.

    With L members and column sums s, L times the distance of pattern x
    is sum_j |L x_j - s_j| = sum(s) + L |x| - 2 s.x, an integer. sum(s)
    is the same for every member, so the rank is by L |x| - 2 s.x, and
    s.x is the class count of the mask x.
    """
    patterns = [lines[v] for v in members]
    dots = _class_counts(lines, members, patterns)
    ranked = sorted(
        (len(members) * x.bit_count() - 2 * dot, v)
        for v, x, dot in zip(members, patterns, dots)
    )
    half = len(members) // 2
    return sorted(v for _, v in ranked[:half]), sorted(v for _, v in ranked[half:])


def afn_partition(
    a: BinaryMatrix,
    b,
    delta: Fraction,
    size_budget: Optional[int] = None,
) -> AfnOutcome:
    """Either a delta-homogeneous bipartition pair within the size budget,
    or a copy count of the pattern with a witness.

    The refinement loop splits the class with the largest bad-weight
    contribution, ties going to the smaller class, then to rows, then to
    the earlier class. Since the all-singleton pair is 0-homogeneous, the
    loop always terminates; the budget is what forces the copy branch. If
    the budget is exceeded and the pattern has no copies at all, the
    result is explicitly inconclusive.

    The block counts and each class's bad weight are kept across splits:
    a split counts only its first half's blocks, as popcounts of the
    half's masks cut by the other axis's class masks; the second half's
    are what is left, and only the split class's blocks change weight.
    """
    delta = _check_delta(delta, a.n)
    bm = b if isinstance(b, BinaryMatrix) else BinaryMatrix(b)
    n = a.n
    budget = size_budget if size_budget is not None else n

    # per axis (0 rows, 1 columns): the classes, their masks, their bad
    # weights and the lines' masks; ones[i][j]: row class i, column class j
    parts = ([list(range(1, n + 1))], [list(range(1, n + 1))])
    masks = ([_mask(parts[0][0])], [_mask(parts[1][0])])
    ones = [[sum(map(int.bit_count, a.rows))]]
    bad = (_bad_weights(ones[0], [n * n], delta), _bad_weights(ones[0], [n * n], delta))
    lines = (a.rows, a.cols)
    while True:
        # bad weight <= delta, exactly: bad * q <= p * n^2
        if sum(bad[0]) * delta.denominator <= delta.numerator * n * n:
            audit = audit_bipartition(a, parts[0], parts[1], delta)
            return AfnPartition(audit=audit)
        picks = [
            (weight, -len(part), -axis, -i)
            for axis in (0, 1) if len(parts[axis]) < budget
            for i, (weight, part) in enumerate(zip(bad[axis], parts[axis]))
            if weight and len(part) >= 2
        ]
        if not picks:
            break
        axis, idx = (-x for x in max(picks)[2:])
        other = 1 - axis
        members = parts[axis][idx]
        first, second = _split_class(lines[axis], members)
        whole = ones[idx] if axis == 0 else [row[idx] for row in ones]
        head = _class_counts(lines[axis], first, masks[other])
        tail = [w - h for w, h in zip(whole, head)]
        if axis == 0:
            ones[idx : idx + 1] = [head, tail]
        else:
            for row, h, t in zip(ones, head, tail):
                row[idx : idx + 1] = [h, t]
        sizes = [len(part) for part in parts[other]]
        before = _bad_weights(whole, [len(members) * s for s in sizes], delta)
        after = _bad_weights(head, [len(first) * s for s in sizes], delta)
        rest = _bad_weights(tail, [len(second) * s for s in sizes], delta)
        bad[axis][idx : idx + 1] = [sum(after), sum(rest)]
        for j, (x, y, z) in enumerate(zip(before, after, rest)):
            bad[other][j] += y + z - x
        parts[axis][idx : idx + 1] = [first, second]
        masks[axis][idx : idx + 1] = [_mask(first), _mask(second)]
    count = count_matrix_copies(a, bm)
    if count > 0:
        return AfnCopies(count=count, witness=find_matrix_copy(a, bm))
    return AfnInconclusive(last_audit=audit_bipartition(a, parts[0], parts[1], delta))


# -- equipartitions and refinement --------------------------------------


@dataclass(frozen=True)
class Equipartition:
    """Partition with part sizes differing by at most one, plus leftover
    accounting from the refinement that produced it."""

    parts: tuple[tuple[int, ...], ...]
    leftover_sizes: tuple[int, ...] = ()

    def __post_init__(self):
        sizes = [len(p) for p in self.parts]
        if sizes and max(sizes) - min(sizes) > 1:
            raise ValueError("part sizes differ by more than one")

    @property
    def q(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class EquipartitionAudit:
    """Ordered-pair homogeneity audit of a tournament equipartition."""

    delta: Fraction
    bad_weight: Fraction
    homogeneous: bool
    densities: tuple[tuple[Fraction, ...], ...]


def audit_equipartition(
    t: Tournament, partition: Equipartition, delta: Fraction
) -> EquipartitionAudit:
    """Exact audit, with the density of the edges from part i to part j
    (0 when i = j)."""
    delta = _check_delta(delta, t.n)
    ones = _equipartition_counts(BinaryMatrix.from_tournament(t), partition.parts)
    (table,) = _dominant_values(ones, partition.parts, delta)
    bad_weight = _bad_share(table, partition.parts)
    return EquipartitionAudit(
        delta=delta,
        bad_weight=bad_weight,
        homogeneous=bad_weight <= delta,
        densities=tuple(
            tuple(
                Fraction(ones[i][j], len(x) * len(y)) if i != j else Fraction(0)
                for j, y in enumerate(partition.parts)
            )
            for i, x in enumerate(partition.parts)
        ),
    )


def _equipartition_counts(
    a: BinaryMatrix, parts: Sequence[Sequence[int]]
) -> list[list[int]]:
    """Ones of every block of the parts on both axes, from the masks of ``a``."""
    _validate_partition(parts, a.n, "partition")
    return _block_counts(a, parts, parts)


def _dominant_values(
    ones: Sequence[Sequence[int]], parts: Sequence[Sequence[int]], *deltas: Fraction
) -> list[list[list[Optional[bool]]]]:
    """For each delta, per block of the parts on both axes (``ones[i][j]``
    ones): None when it is not delta-homogeneous, else whether its dominant
    value is 1."""
    sizes = [len(part) for part in parts]
    tables: list[list[list[Optional[bool]]]] = [[] for _ in deltas]
    for row, sx in zip(ones, sizes):
        blocks = [sx * sy for sy in sizes]
        for table, delta in zip(tables, deltas):
            weights = _bad_weights(row, blocks, delta)
            table.append(
                [None if w else 2 * c >= s for c, s, w in zip(row, blocks, weights)]
            )
    return tables


def _bad_share(
    table: Sequence[Sequence[Optional[bool]]], parts: Sequence[Sequence[int]]
) -> Fraction:
    """Share of the n^2 entries lying in ordered pairs of distinct parts
    that ``table`` (from ``_dominant_values``) marks not homogeneous."""
    sizes = [len(part) for part in parts]
    pairs = itertools.permutations(range(len(parts)), 2)
    bad = sum(sizes[i] * sizes[j] for i, j in pairs if table[i][j] is None)
    return Fraction(bad, sum(sizes) ** 2)


def _feasible_q(n: int, parts: Sequence[Sequence[int]]) -> list[int]:
    """Part counts q with q | n and n/q dividing every part size, ascending."""
    return [
        cand
        for cand in range(1, n + 1)
        if n % cand == 0 and all(len(part) % (n // cand) == 0 for part in parts)
    ]


def refine_to_equipartition(
    t: Tournament,
    p: Equipartition,
    rows: Sequence[Sequence[int]],
    cols: Sequence[Sequence[int]],
    q: int,
) -> Equipartition:
    """Common refinement of the partition with (rows, cols), chopped into
    parts of size n/q; per-part leftovers are pooled and chopped too.

    Requires q | n and (n/q) dividing every part size, so the output is an
    exact equipartition with q parts refining the input. The error message
    reports the largest feasible part count when the divisibility fails.
    """
    n = t.n
    if q > n or q < 1:
        raise ValueError(f"q must lie in 1..{n}")
    feasible = _feasible_q(n, p.parts)
    if q not in feasible:
        raise ValueError(
            f"q={q} infeasible: need q | n and (n/q) dividing every part size; "
            f"feasible part counts are {feasible}"
        )
    s = n // q
    _validate_partition(rows, n, "row partition")
    _validate_partition(cols, n, "column partition")
    row_of = {v: i for i, part in enumerate(rows) for v in part}
    col_of = {v: j for j, part in enumerate(cols) for v in part}

    out_parts: list[tuple[int, ...]] = []
    leftovers: list[int] = []
    for part in p.parts:
        cells: dict[tuple[int, int], list[int]] = {}
        for v in sorted(part):
            cells.setdefault((row_of[v], col_of[v]), []).append(v)
        pooled: list[int] = []
        for key in sorted(cells):
            members = cells[key]
            full = len(members) // s
            for b in range(full):
                out_parts.append(tuple(members[b * s : (b + 1) * s]))
            pooled.extend(members[full * s :])
        leftovers.append(len(pooled))
        if len(pooled) % s != 0:
            raise AuditError("leftover pool size not divisible by n/q")
        for b in range(len(pooled) // s):
            out_parts.append(tuple(pooled[b * s : (b + 1) * s]))
    if len(out_parts) != q:
        raise AuditError(f"refinement produced {len(out_parts)} parts, wanted {q}")
    return Equipartition(parts=tuple(out_parts), leftover_sizes=tuple(leftovers))


# -- the full pipeline ---------------------------------------------------


def bipartite_adjacency(f: KPartiteTournament) -> list[list[int]]:
    """k x k 0/1 matrix of a bipartite tournament: entry (a,b) is 1 iff
    vertex a of the first part beats vertex b of the second."""
    if f.k != 2:
        raise ValueError("bipartite adjacency needs exactly two parts")
    return [
        [1 if f.has_edge(f.vertex(1, a), f.vertex(2, b)) else 0
         for b in range(1, f.m + 1)]
        for a in range(1, f.m + 1)
    ]


def default_bipartite_pattern(k: int) -> KPartiteTournament:
    """A fixed bipartite tournament on k+k vertices for pipeline defaults."""
    edges = []
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            u, v = a, k + b
            edges.append((u, v) if (a + b) % 2 == 0 else (v, u))
    return KPartiteTournament(2, k, edges)


@dataclass(frozen=True)
class StrongDecomposition:
    """Equipartition plus per-part representative blocks with audits.

    item1_failures counts pairs i<j that are either non-homogeneous at
    delta or have mismatched dominant directions between the parts and
    their representatives; the bound delta * q^2 is part of the contract.
    Item 2 (every representative pair delta-homogeneous) always holds.
    Representative sizes (item 3) are reported, not enforced.
    """

    partition: Equipartition
    representatives: tuple[tuple[int, ...], ...]
    sample_vertices: tuple[int, ...]
    delta: Fraction
    gamma: Fraction
    q: int
    item1_failures: int
    item1_bound: Fraction
    representative_sizes: tuple[int, ...]
    attempts: int


# representative samples ``strong_decomposition`` draws before it gives up
_RETRY_BUDGET = 200


def strong_decomposition(
    t: Tournament,
    f: KPartiteTournament,
    delta: Fraction,
    seed: int,
    size_budget: Optional[int] = None,
) -> Union[StrongDecomposition, AfnCopies]:
    """Two-stage refinement plus seeded representative sampling.

    Stage one partitions at delta/5 starting from the trivial partition;
    stage two refines at gamma = 1/(2 q^4). Representatives are the
    stage-two parts containing one uniformly sampled vertex per stage-one
    part, resampled until all representative pairs are delta-homogeneous
    and at most 4 delta q^2 / 5 pairs flip their dominant direction, at
    most ``_RETRY_BUDGET`` times. Each stage's equipartition is counted
    once, from the matrix's masks, and its audit at the stage's target
    delta and the sampling read that integer count. If either
    partitioning stage finds pattern copies instead, that branch is
    returned as the outcome.

    With room for n classes (``size_budget`` None or at least n) the
    partitioner always ends on a homogeneous pair: a bad block has a class
    of two or more members to split, and the all-singleton pair is
    0-homogeneous. So the copy branch needs a ``size_budget`` below n,
    which ``tourkit regularity`` does not pass. A stage on parts p with
    target t takes the least feasible part count at or above
    6 |p| |rows| |cols| / t, or n. With room for n classes and no feasible
    count below n at or above 6 |p| / t, that count is n whatever the
    classes, so the partitioner does not run and the stage is the
    singleton equipartition: each input part's members in increasing
    order. Stage one has at least 30/delta parts, so for n <= 30/delta
    both stages are the singleton equipartition, stage one lists the
    vertices 1..n in order, and with room for n classes stage two is
    stage one itself, still audited at gamma. Each representative is then
    forced, the seed has no effect and ``attempts`` is 1.
    """
    delta = _check_delta(delta, t.n)
    a = BinaryMatrix.from_tournament(t)
    b = bipartite_adjacency(f)
    n = t.n

    def refinement_stage(
        p: Equipartition, target_delta: Fraction
    ) -> Union[Equipartition, AfnCopies]:
        # the singleton classes: the fallback when no partition fits the
        # budget (there are no copies either), and homogeneous at any level
        rows = cols = [[v] for v in range(1, n + 1)]
        # q is the least feasible count at or above 6 |p| |rows| |cols| /
        # target_delta, else n; with room for n classes the partitioner
        # ends on a partition, and its classes matter only if a feasible
        # count below n reaches the floor they multiply
        floor = 6 * len(p.parts) / target_delta
        feasible = _feasible_q(n, p.parts)  # n is always feasible, and last
        if (size_budget is not None and size_budget < n) or any(
            cand >= floor for cand in feasible[:-1]
        ):
            afn_delta = target_delta * target_delta / 3
            outcome = afn_partition(a, b, afn_delta, size_budget=size_budget)
            if isinstance(outcome, AfnCopies):
                return outcome
            if isinstance(outcome, AfnPartition):
                rows, cols = outcome.audit.row_parts, outcome.audit.col_parts
        target_q = floor * len(rows) * len(cols)
        q = next((cand for cand in feasible if cand >= target_q), feasible[-1])
        return refine_to_equipartition(t, p, rows, cols, q)

    def audit(p: Equipartition, table, target_delta: Fraction) -> None:
        if _bad_share(table, p.parts) > target_delta:
            raise AuditError(f"refinement missed its homogeneity target {target_delta}")

    trivial = Equipartition(parts=(tuple(range(1, n + 1)),))
    stage1 = refinement_stage(trivial, delta / 5)
    if isinstance(stage1, AfnCopies):
        return stage1
    ones1 = _equipartition_counts(a, stage1.parts)
    near, good = _dominant_values(ones1, stage1.parts, delta / 5, delta)
    audit(stage1, near, delta / 5)
    q = stage1.q
    gamma = Fraction(1, 2 * q**4)
    if q == n and (size_budget is None or size_budget >= n):
        stage2, ones2 = stage1, ones1
    else:
        stage2 = refinement_stage(stage1, gamma)
        if isinstance(stage2, AfnCopies):
            return stage2
        ones2 = _equipartition_counts(a, stage2.parts)
    at_gamma, rep_good = _dominant_values(ones2, stage2.parts, gamma, delta)
    audit(stage2, at_gamma, gamma)

    samples, reps, failures, attempts = _sample_representatives(
        stage1, stage2, near, good, rep_good, delta, seed, _RETRY_BUDGET
    )
    return StrongDecomposition(
        partition=stage1,
        representatives=tuple(tuple(r) for r in reps),
        sample_vertices=tuple(samples),
        delta=delta,
        gamma=gamma,
        q=q,
        item1_failures=failures,
        item1_bound=delta * q * q,
        representative_sizes=tuple(len(r) for r in reps),
        attempts=attempts,
    )


def _sample_representatives(
    stage1: Equipartition,
    stage2: Equipartition,
    near: Sequence[Sequence[Optional[bool]]],
    good: Sequence[Sequence[Optional[bool]]],
    rep_good: Sequence[Sequence[Optional[bool]]],
    delta: Fraction,
    seed: int,
    retry_budget: int,
) -> tuple[list[int], list[tuple[int, ...]], int, int]:
    """Seeded sampling of one vertex per stage-one part; its representative
    is the stage-two part holding it. Resampled until every representative
    pair is delta-homogeneous, at most 4 delta q^2 / 5 pairs homogeneous
    at delta/5 flip their dominant direction, and at most delta q^2 pairs
    fail item 1. ``near`` and ``good`` are stage one's ``_dominant_values``
    tables at delta/5 and delta, ``rep_good`` stage two's at delta.
    Returns the samples, the representatives, the item-1 failures and the
    number of attempts."""
    q = stage1.q
    member_of = {v: idx for idx, part in enumerate(stage2.parts) for v in part}
    pairs = list(itertools.combinations(range(q), 2))

    digest = hashlib.sha256(f"{seed}:representatives".encode()).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    for attempt in range(1, retry_budget + 1):
        samples = [part[rng.randrange(len(part))] for part in stage1.parts]
        idx = [member_of[w] for w in samples]
        reps = [rep_good[idx[i]][idx[j]] for i, j in pairs]
        if None in reps:
            continue
        # a pair fails item 1 unless it is delta-homogeneous with its
        # representatives' dominant value; a failure flips if near, at delta/5
        flips = failures = 0
        for (i, j), rep in zip(pairs, reps):
            if good[i][j] != rep:
                failures += 1
                flips += near[i][j] is not None
        if flips <= 4 * delta * q * q / 5 and failures <= delta * q * q:
            return samples, [stage2.parts[i] for i in idx], failures, attempt
    raise BudgetExceeded(
        "representative sampling retries exhausted", retries=retry_budget
    )
