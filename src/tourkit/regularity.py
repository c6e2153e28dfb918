"""Binary-matrix homogeneity machinery and the decomposition pipeline.

A block of a 0/1 matrix is delta-homogeneous when its minority value
fills at most a delta fraction of its entries; a bipartition pair
(row classes, column classes) is delta-homogeneous when the total weight
of bad blocks is at most delta. The partitioner below is a heuristic
refinement loop: it splits whichever class contributes most bad weight,
at the median of the distances between member row/column patterns.
Correctness is carried entirely by the output audit, never by the
search; every partition this module emits can be re-audited from raw
entries.

All thresholds are exact rationals. Ties at density exactly 1/2 resolve
to dominant value 1, mirroring the >= 1/2 rule for dominant directions.

The decomposition pipeline runs the partitioner at delta/5, refines to an
equipartition, reruns at gamma = 1/(2 q^4), then samples one
representative block per part (seeded) and retries until the two
homogeneity events hold. Every stage's equipartition is audited at its
target delta. Audits and the sampling work on integer block counts:
a block of ``ones`` ones in ``size`` entries is delta-homogeneous iff
min(ones, size - ones) * q <= p * size for delta = p/q, with Python
integers wherever int64 could overflow. When stage one ends in
singletons and the size budget leaves room for n classes, stage two
reuses it: the only equipartition refining singletons is itself. Size
bounds of the underlying existential constants are reported, not
enforced.

Audits are pure functions of immutable inputs and may run concurrently;
the refinement loop and the seeded sampling are deliberately sequential
so identical seeds give identical outputs.

Matrices are numpy arrays, but numpy is imported by the functions that
build them, so importing this module (or the CLI) does not load it.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

from .digraphs import Tournament
from .errors import AuditError, BudgetExceeded
from .forcing import KPartiteTournament

if TYPE_CHECKING:
    import numpy as np

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


def _check_delta(delta) -> Fraction:
    delta = Fraction(delta)
    if not 0 < delta < HALF:
        raise ValueError("delta must lie strictly between 0 and 1/2")
    return delta


def _homogeneous(ones: np.ndarray, sizes: np.ndarray, delta: Fraction) -> np.ndarray:
    """Elementwise: the block's density ones/size is >= 1 - delta or
    <= delta, in integers: minority * q <= p * size for delta = p/q."""
    import numpy as np

    minority = np.minimum(ones, sizes - ones)
    if delta.denominator * int(sizes.max(initial=1)) >= 2**63:
        # the products below could wrap in int64: use Python integers
        minority, sizes = minority.astype(object), sizes.astype(object)
    return minority * delta.denominator <= sizes * delta.numerator


class BinaryMatrix:
    """Square 0/1 matrix with 1-based row/column indices."""

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        import numpy as np

        # a copy, so no view of the caller's array can change the matrix
        arr = np.array(entries, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("matrix must be square")
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("entries must be 0 or 1")
        object.__setattr__(self, "n", int(arr.shape[0]))
        object.__setattr__(self, "entries", arr)
        arr.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("BinaryMatrix is immutable")

    @classmethod
    def from_tournament(cls, t: Tournament) -> "BinaryMatrix":
        return cls(t.adjacency_matrix())

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "BinaryMatrix":
        return cls([[rng.getrandbits(1) for _ in range(n)] for _ in range(n)])

    def __getitem__(self, rc: tuple[int, int]) -> int:
        r, c = rc
        return int(self.entries[r - 1, c - 1])


def _pattern_array(b) -> np.ndarray:
    import numpy as np

    bm = b.entries if isinstance(b, BinaryMatrix) else np.asarray(b, dtype=np.int64)
    if bm.ndim != 2 or bm.shape[0] != bm.shape[1]:
        raise ValueError("pattern must be a square matrix")
    return bm


def _validate_partition(parts: Sequence[Sequence[int]], n: int, what: str) -> None:
    flat = sorted(v for p in parts for v in p)
    if flat != list(range(1, n + 1)):
        raise ValueError(f"{what} must partition 1..{n}")
    if any(not p for p in parts):
        raise ValueError(f"{what} contains an empty class")


def _indicator(parts: Sequence[Sequence[int]], n: int) -> np.ndarray:
    """Row i is the 0/1 indicator of part i over the vertices 1..n."""
    import numpy as np

    ind = np.zeros((len(parts), n), dtype=np.int64)
    ind[[i for i, part in enumerate(parts) for _ in part],
        [v - 1 for part in parts for v in part]] = 1
    return ind


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


def _block_counts(
    m: np.ndarray,
    rows: Sequence[Sequence[int]],
    cols: Sequence[Sequence[int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Ones and sizes of every block of the int64 0/1 matrix ``m``."""
    import numpy as np

    row_ind = _indicator(rows, m.shape[0])
    col_ind = _indicator(cols, m.shape[1])
    ones = row_ind @ m @ col_ind.T
    return ones, np.outer(row_ind.sum(axis=1), col_ind.sum(axis=1))


def audit_bipartition(
    a: BinaryMatrix,
    rows: Sequence[Sequence[int]],
    cols: Sequence[Sequence[int]],
    delta: Fraction,
) -> BipartitionAudit:
    """Exact audit: per-block one counts and sizes, and the total bad weight."""
    delta = _check_delta(delta)
    _validate_partition(rows, a.n, "row partition")
    _validate_partition(cols, a.n, "column partition")
    ones, sizes = _block_counts(a.entries, rows, cols)
    bad = sizes[~_homogeneous(ones, sizes, delta)]
    bad_weight = Fraction(int(bad.sum()), a.n * a.n)
    return BipartitionAudit(
        row_parts=tuple(tuple(sorted(r)) for r in rows),
        col_parts=tuple(tuple(sorted(c)) for c in cols),
        delta=delta,
        bad_weight=bad_weight,
        homogeneous=bad_weight <= delta,
        block_ones=tuple(tuple(int(x) for x in row) for row in ones),
        block_sizes=tuple(tuple(int(x) for x in row) for row in sizes),
    )


# -- ordered submatrix copies -------------------------------------------


def _matrix_copies(
    a: BinaryMatrix, bm: np.ndarray, avoid_diagonal: bool
) -> Iterator[tuple[tuple[int, ...], np.ndarray, int]]:
    """For each column tuple c1<...<ck in lexicographic order, yield
    (cols, matches, copies): matches[r, i] says row r of A restricted to
    cols equals row i of the pattern (never for a row in cols under
    ``avoid_diagonal``), and copies counts the row tuples r1<...<rk with
    r_i matching row i."""
    k = bm.shape[0]
    if k > a.n:
        return
    for cols in itertools.combinations(range(a.n), k):
        matches = (a.entries[:, cols][:, None, :] == bm[None, :, :]).all(axis=2)
        if avoid_diagonal:
            matches[list(cols), :] = False
        dp = [1] + [0] * k
        for row in matches[matches.any(axis=1)].tolist():
            for j in range(k, 0, -1):
                if row[j - 1]:
                    dp[j] += dp[j - 1]
        yield cols, matches, dp[k]


def _witness(
    cols: tuple[int, ...], matches: np.ndarray
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The earliest matching row for each pattern row in turn, 1-based;
    the column tuple must have a copy."""
    rows: list[int] = []
    start = 0
    for j in range(matches.shape[1]):
        r = start + int(matches[start:, j].argmax())
        rows.append(r + 1)
        start = r + 1
    return tuple(rows), tuple(c + 1 for c in cols)


def count_matrix_copies(
    a: BinaryMatrix, b, avoid_diagonal: bool = False
) -> int:
    """Exact number of copies: row indices r1<...<rk and column indices
    c1<...<ck with A[r_i, c_j] = B[i, j].

    With ``avoid_diagonal`` only copies whose row and column index sets
    are disjoint count.
    """
    return sum(c for _, _, c in _matrix_copies(a, _pattern_array(b), avoid_diagonal))


def find_matrix_copy(
    a: BinaryMatrix, b, avoid_diagonal: bool = False
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The lexicographically first copy (columns first, then rows) as
    1-based (rows, cols), or None."""
    for cols, matches, copies in _matrix_copies(a, _pattern_array(b), avoid_diagonal):
        if copies:
            return _witness(cols, matches)
    return None


# -- the conditional partitioner ----------------------------------------


@dataclass(frozen=True)
class AfnPartition:
    """Partition branch: a certified delta-homogeneous bipartition pair."""

    audit: BipartitionAudit
    size_budget: int


@dataclass(frozen=True)
class AfnCopies:
    """Copy branch: the pattern count with one witness."""

    count: int
    witness: tuple[tuple[int, ...], tuple[int, ...]]
    pattern: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class AfnInconclusive:
    """Neither branch achieved within the size budget."""

    last_audit: BipartitionAudit
    copy_count: int


AfnOutcome = Union[AfnPartition, AfnCopies, AfnInconclusive]


def _split_class(
    a: BinaryMatrix, members: Sequence[int], by_rows: bool
) -> tuple[list[int], list[int]]:
    """Split at the median of the L1 distances to the class centroid."""
    idx = [v - 1 for v in members]
    patterns = a.entries[idx, :] if by_rows else a.entries[:, idx].T
    centroid = patterns.mean(axis=0)
    dists = abs(patterns - centroid).sum(axis=1)
    order = sorted(range(len(members)), key=lambda i: (dists[i], members[i]))
    half = len(members) // 2
    first = sorted(members[i] for i in order[:half])
    second = sorted(members[i] for i in order[half:])
    return first, second


def _split_choice(
    bad: np.ndarray, sizes: np.ndarray
) -> Optional[tuple[int, int, int]]:
    """The class to split on one axis as (bad weight, -size, index): the
    largest bad weight, then the smallest class, then the earliest index;
    None when no class of two or more members has bad weight."""
    import numpy as np

    weight = np.where(sizes >= 2, bad, 0)
    top = int(weight.max())
    if top == 0:
        return None
    tied = weight == top
    size = int(sizes[tied].min())
    return top, -size, int(np.flatnonzero(tied & (sizes == size))[0])


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

    The block counts are kept across splits: a split replaces one row
    (column) of them by its two halves' counts, so an iteration costs
    O(n^2) rather than a full recount.
    """
    import numpy as np

    delta = _check_delta(delta)
    bm = _pattern_array(b)
    n = a.n
    budget = size_budget if size_budget is not None else n
    rows: list[list[int]] = [list(range(1, n + 1))]
    cols: list[list[int]] = [list(range(1, n + 1))]
    row_ind = np.ones((1, n), dtype=np.int64)
    col_ind = np.ones((1, n), dtype=np.int64)
    ones = a.entries.sum(keepdims=True)
    while True:
        row_sizes = np.array([len(part) for part in rows], dtype=np.int64)
        col_sizes = np.array([len(part) for part in cols], dtype=np.int64)
        sizes = np.outer(row_sizes, col_sizes)
        bad = np.where(_homogeneous(ones, sizes, delta), 0, sizes)
        # bad weight <= delta, exactly: bad * q <= p * n^2
        if int(bad.sum()) * delta.denominator <= delta.numerator * n * n:
            audit = audit_bipartition(a, rows, cols, delta)
            return AfnPartition(audit=audit, size_budget=budget)
        if len(rows) >= budget and len(cols) >= budget:
            break
        row_pick = _split_choice(bad.sum(axis=1), row_sizes) if len(rows) < budget else None
        col_pick = _split_choice(bad.sum(axis=0), col_sizes) if len(cols) < budget else None
        if row_pick is None and col_pick is None:
            break
        by_rows = col_pick is None or (row_pick is not None and row_pick[:2] >= col_pick[:2])
        idx = (row_pick if by_rows else col_pick)[2]
        target = rows if by_rows else cols
        first, second = _split_class(a, target[idx], by_rows)
        target[idx : idx + 1] = [first, second]
        # the class's indicator and counts become the first half's, then
        # what is left of them, the second half's
        half_ind = _indicator([first], n)
        if by_rows:
            half = half_ind @ a.entries @ col_ind.T
            row_ind = np.concatenate((row_ind[:idx], half_ind, row_ind[idx:]))
            row_ind[idx + 1] -= half_ind[0]
            ones = np.concatenate((ones[:idx], half, ones[idx:]))
            ones[idx + 1] -= half[0]
        else:
            half = row_ind @ (a.entries @ half_ind.T)
            col_ind = np.concatenate((col_ind[:idx], half_ind, col_ind[idx:]))
            col_ind[idx + 1] -= half_ind[0]
            ones = np.concatenate((ones[:, :idx], half, ones[:, idx:]), axis=1)
            ones[:, idx + 1] -= half[:, 0]
    count = 0
    witness = None
    for copy_cols, matches, copies in _matrix_copies(a, bm, False):
        if copies and witness is None:
            witness = _witness(copy_cols, matches)
        count += copies
    if count > 0:
        return AfnCopies(
            count=count,
            witness=witness,
            pattern=tuple(tuple(int(x) for x in row) for row in bm),
        )
    return AfnInconclusive(
        last_audit=audit_bipartition(a, rows, cols, delta), copy_count=0
    )


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
    delta = _check_delta(delta)
    adj = BinaryMatrix.from_tournament(t).entries
    bad_weight = _equipartition_bad_weight(adj, partition.parts, delta)
    ones, sizes = _block_counts(adj, partition.parts, partition.parts)
    return EquipartitionAudit(
        delta=delta,
        bad_weight=bad_weight,
        homogeneous=bad_weight <= delta,
        densities=tuple(
            tuple(
                Fraction(int(ones[i, j]), int(sizes[i, j])) if i != j else Fraction(0)
                for j in range(partition.q)
            )
            for i in range(partition.q)
        ),
    )


def _equipartition_bad_weight(
    adj: np.ndarray, parts: Sequence[Sequence[int]], delta: Fraction
) -> Fraction:
    """Share of the n^2 entries lying in ordered pairs of distinct parts
    whose edge density is not delta-homogeneous; ``adj`` is the
    tournament's int64 adjacency matrix."""
    import numpy as np

    n = adj.shape[0]
    _validate_partition(parts, n, "partition")
    ones, sizes = _block_counts(adj, parts, parts)
    bad = ~_homogeneous(ones, sizes, delta)
    np.fill_diagonal(bad, False)
    return Fraction(int(sizes[bad].sum()), n * n)


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
    row_of = {}
    for i, part in enumerate(rows):
        for v in part:
            row_of[v] = i
    col_of = {}
    for j, part in enumerate(cols):
        for v in part:
            col_of[v] = j

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
    item2_ok: bool
    representative_sizes: tuple[int, ...]
    attempts: int
    seed: int


def strong_decomposition(
    t: Tournament,
    f: KPartiteTournament,
    delta: Fraction,
    seed: int,
    size_budget: Optional[int] = None,
    retry_budget: int = 200,
) -> Union[StrongDecomposition, AfnCopies]:
    """Two-stage refinement plus seeded representative sampling.

    Stage one partitions at delta/5 starting from the trivial partition;
    stage two refines at gamma = 1/(2 q^4). When stage one has n
    singleton parts and ``size_budget`` is None or at least n, stage two
    is stage one itself, since the partitioner would end on a homogeneous
    pair and the refinement could only return the singletons; it is still
    audited at gamma. Representatives are the stage-two parts containing
    one uniformly sampled vertex per stage-one part, resampled until all
    representative pairs are delta-homogeneous and at most 4 delta q^2 / 5
    pairs flip their dominant direction. Both audits and the sampling
    test homogeneity on integer block counts. If either partitioning
    stage finds pattern copies instead, that branch is returned as the
    outcome.
    """
    delta = _check_delta(delta)
    a = BinaryMatrix.from_tournament(t)
    b = bipartite_adjacency(f)
    n = t.n

    def audited(p: Equipartition, target_delta: Fraction) -> Equipartition:
        if _equipartition_bad_weight(a.entries, p.parts, target_delta) > target_delta:
            raise AuditError(
                f"refinement missed its homogeneity target {target_delta}"
            )
        return p

    def refinement_stage(
        p: Equipartition, target_delta: Fraction
    ) -> Union[Equipartition, AfnCopies]:
        afn_delta = target_delta * target_delta / 3
        outcome = afn_partition(a, b, afn_delta, size_budget=size_budget)
        if isinstance(outcome, AfnCopies):
            return outcome
        if isinstance(outcome, AfnInconclusive):
            # no copies at all and no partition within budget: fall back to
            # the singleton partition, which is homogeneous at any level
            rows = [[v] for v in range(1, n + 1)]
            cols = [[v] for v in range(1, n + 1)]
        else:
            rows = [list(x) for x in outcome.audit.row_parts]
            cols = [list(x) for x in outcome.audit.col_parts]
        target_q = Fraction(6 * len(p.parts) * len(rows) * len(cols)) / target_delta
        feasible = _feasible_q(n, p.parts)  # n is always feasible
        q = next((cand for cand in feasible if cand >= target_q), feasible[-1])
        return audited(refine_to_equipartition(t, p, rows, cols, q), target_delta)

    trivial = Equipartition(parts=(tuple(range(1, n + 1)),))
    stage1 = refinement_stage(trivial, delta / 5)
    if isinstance(stage1, AfnCopies):
        return stage1
    q = stage1.q
    gamma = Fraction(1, 2 * q**4)
    if q == n and (size_budget is None or size_budget >= n):
        # With room for n classes the partitioner always ends on a
        # homogeneous pair (a bad block has a class of two or more members
        # to split, and the all-singleton pair is 0-homogeneous), and the
        # only equipartition refining singletons is itself.
        stage2 = audited(stage1, gamma)
    else:
        stage2 = refinement_stage(stage1, gamma)
        if isinstance(stage2, AfnCopies):
            return stage2

    samples, reps, failures, attempts = _sample_representatives(
        a.entries, stage1, stage2, delta, seed, retry_budget
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
        item2_ok=True,
        representative_sizes=tuple(len(r) for r in reps),
        attempts=attempts,
        seed=seed,
    )


def _sample_representatives(
    adj: np.ndarray,
    stage1: Equipartition,
    stage2: Equipartition,
    delta: Fraction,
    seed: int,
    retry_budget: int,
) -> tuple[list[int], list[tuple[int, ...]], int, int]:
    """Seeded sampling of one vertex per stage-one part; its representative
    is the stage-two part holding it. Resampled until every representative
    pair is delta-homogeneous, at most 4 delta q^2 / 5 pairs homogeneous
    at delta/5 flip their dominant direction, and at most delta q^2 pairs
    fail item 1. Returns the samples, the representatives, the item-1
    failures and the number of attempts."""
    import numpy as np

    q = stage1.q
    member_of = {v: idx for idx, part in enumerate(stage2.parts) for v in part}
    pairs = np.triu_indices(q, 1)
    ones, sizes = _block_counts(adj, stage1.parts, stage1.parts)
    near = _homogeneous(ones, sizes, delta / 5)[pairs]
    good = _homogeneous(ones, sizes, delta)[pairs]
    dominant = (2 * ones >= sizes)[pairs]
    ones, sizes = _block_counts(adj, stage2.parts, stage2.parts)
    rep_good = _homogeneous(ones, sizes, delta)
    rep_dominant = 2 * ones >= sizes

    digest = hashlib.sha256(f"{seed}:representatives".encode()).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    for attempt in range(1, retry_budget + 1):
        samples = [part[rng.randrange(len(part))] for part in stage1.parts]
        idx = np.array([member_of[w] for w in samples], dtype=np.intp)
        rep_pairs = (idx[pairs[0]], idx[pairs[1]])
        if not rep_good[rep_pairs].all():
            continue
        same = dominant == rep_dominant[rep_pairs]
        flips = int((near & ~same).sum())
        failures = int((~(good & same)).sum())
        if flips <= 4 * delta * q * q / 5 and failures <= delta * q * q:
            return samples, [stage2.parts[i] for i in idx], failures, attempt
    raise BudgetExceeded(
        "representative sampling retries exhausted", retries=retry_budget
    )
