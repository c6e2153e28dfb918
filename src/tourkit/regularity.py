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
homogeneity events hold. Size bounds of the underlying existential
constants are reported, not enforced.

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


def _homogeneous(d: Fraction, delta: Fraction) -> bool:
    """d >= 1 - delta or d <= delta, in integers: the minority share
    min(d, 1 - d) is at most delta."""
    num, den = d.numerator, d.denominator
    return min(num, den - num) * delta.denominator <= delta.numerator * den


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

    def dominant_value(self, i: int, j: int) -> int:
        ones = self.block_ones[i][j]
        return 1 if 2 * ones >= self.block_sizes[i][j] else 0


def _block_counts(
    a: BinaryMatrix,
    rows: Sequence[Sequence[int]],
    cols: Sequence[Sequence[int]],
    delta: Fraction,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ones and sizes of every block, and the sizes of the bad blocks
    (0 for a good block)."""
    import numpy as np

    row_ind = _indicator(rows, a.n)
    col_ind = _indicator(cols, a.n)
    ones = row_ind @ a.entries @ col_ind.T
    sizes = np.outer(row_ind.sum(axis=1), col_ind.sum(axis=1))
    minority = np.minimum(ones, sizes - ones)
    if delta.denominator * a.n * a.n >= 2**63:
        # the products below could wrap in int64: use Python integers
        minority, sizes = minority.astype(object), sizes.astype(object)
    # block bad iff minority/size > delta, exactly: minority*q > p*size
    bad = minority * delta.denominator > sizes * delta.numerator
    return ones, sizes, np.where(bad, sizes, 0)


def audit_bipartition(
    a: BinaryMatrix,
    rows: Sequence[Sequence[int]],
    cols: Sequence[Sequence[int]],
    delta: Fraction,
) -> BipartitionAudit:
    """Exact audit: per-block dominant values and the total bad weight."""
    delta = _check_delta(delta)
    _validate_partition(rows, a.n, "row partition")
    _validate_partition(cols, a.n, "column partition")
    ones, sizes, bad = _block_counts(a, rows, cols, delta)
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


def afn_partition(
    a: BinaryMatrix,
    b,
    delta: Fraction,
    size_budget: Optional[int] = None,
) -> AfnOutcome:
    """Either a delta-homogeneous bipartition pair within the size budget,
    or a copy count of the pattern with a witness.

    The refinement loop splits the class with the largest bad-weight
    contribution. Since the all-singleton pair is 0-homogeneous, the loop
    always terminates; the budget is what forces the copy branch. If the
    budget is exceeded and the pattern has no copies at all, the result
    is explicitly inconclusive.
    """
    delta = _check_delta(delta)
    bm = _pattern_array(b)
    budget = size_budget if size_budget is not None else a.n
    rows: list[list[int]] = [list(range(1, a.n + 1))]
    cols: list[list[int]] = [list(range(1, a.n + 1))]
    while True:
        _, _, bad_sizes = _block_counts(a, rows, cols, delta)
        # bad weight <= delta, exactly: bad * q <= p * n^2
        if int(bad_sizes.sum()) * delta.denominator <= delta.numerator * a.n * a.n:
            audit = audit_bipartition(a, rows, cols, delta)
            return AfnPartition(audit=audit, size_budget=budget)
        if len(rows) >= budget and len(cols) >= budget:
            break
        row_contrib = bad_sizes.sum(axis=1)
        col_contrib = bad_sizes.sum(axis=0)
        candidates: list[tuple[int, int, bool, int]] = []
        for i, part in enumerate(rows):
            if len(part) >= 2 and row_contrib[i] > 0 and len(rows) < budget:
                candidates.append((int(row_contrib[i]), -len(part), True, i))
        for j, part in enumerate(cols):
            if len(part) >= 2 and col_contrib[j] > 0 and len(cols) < budget:
                candidates.append((int(col_contrib[j]), -len(part), False, j))
        if not candidates:
            break
        _, _, by_rows, idx = max(candidates, key=lambda c: (c[0], c[1], c[2], -c[3]))
        target = rows if by_rows else cols
        first, second = _split_class(a, target[idx], by_rows)
        target[idx] = first
        target.insert(idx + 1, second)
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


def _pair_densities(
    adj: np.ndarray, groups: Sequence[Sequence[int]]
) -> tuple[tuple[Fraction, ...], ...]:
    """Exact density of the edges from group i to group j; 0 when i = j.
    ``adj`` is the tournament's int64 adjacency matrix."""
    ind = _indicator(groups, adj.shape[0])
    counts = ind @ adj @ ind.T
    return tuple(
        tuple(
            Fraction(int(counts[i, j]), len(gi) * len(gj)) if i != j else Fraction(0)
            for j, gj in enumerate(groups)
        )
        for i, gi in enumerate(groups)
    )


def audit_equipartition(
    t: Tournament, partition: Equipartition, delta: Fraction
) -> EquipartitionAudit:
    return _audit_equipartition(
        BinaryMatrix.from_tournament(t).entries, partition, delta
    )


def _audit_equipartition(
    adj: np.ndarray, partition: Equipartition, delta: Fraction
) -> EquipartitionAudit:
    delta = _check_delta(delta)
    n = adj.shape[0]
    parts = partition.parts
    _validate_partition(parts, n, "partition")
    densities = _pair_densities(adj, parts)
    bad = sum(
        len(parts[i]) * len(parts[j])
        for i, j in itertools.permutations(range(len(parts)), 2)
        if not _homogeneous(densities[i][j], delta)
    )
    bad_weight = Fraction(bad, n * n)
    return EquipartitionAudit(
        delta=delta,
        bad_weight=bad_weight,
        homogeneous=bad_weight <= delta,
        densities=densities,
    )


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
    stage two refines at gamma = 1/(2 q^4). Representatives are the
    stage-two parts containing one uniformly sampled vertex per stage-one
    part, resampled until all representative pairs are delta-homogeneous
    and at most 4 delta q^2 / 5 pairs flip their dominant direction. If
    either partitioning stage finds pattern copies instead, that branch
    is returned as the outcome.
    """
    delta = _check_delta(delta)
    a = BinaryMatrix.from_tournament(t)
    b = bipartite_adjacency(f)
    n = t.n

    def refinement_stage(
        p: Equipartition, target_delta: Fraction
    ) -> Union[tuple[Equipartition, EquipartitionAudit], AfnCopies]:
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
        refined = refine_to_equipartition(t, p, rows, cols, q)
        check = _audit_equipartition(a.entries, refined, target_delta)
        if not check.homogeneous:
            raise AuditError(
                f"refinement missed its homogeneity target {target_delta}"
            )
        return refined, check

    trivial = Equipartition(parts=(tuple(range(1, n + 1)),))
    outcome = refinement_stage(trivial, delta / 5)
    if isinstance(outcome, AfnCopies):
        return outcome
    stage1, stage1_audit = outcome
    q = stage1.q
    gamma = Fraction(1, 2 * q**4)
    outcome = refinement_stage(stage1, gamma)
    if isinstance(outcome, AfnCopies):
        return outcome
    stage2, _ = outcome

    member_of: dict[int, int] = {}
    for idx, part in enumerate(stage2.parts):
        for v in part:
            member_of[v] = idx

    q_density = stage1_audit.densities
    digest = hashlib.sha256(f"{seed}:representatives".encode()).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))

    for attempt in range(1, retry_budget + 1):
        samples = [part[rng.randrange(len(part))] for part in stage1.parts]
        reps = [stage2.parts[member_of[w]] for w in samples]
        rep_density = _pair_densities(a.entries, reps)
        # one pass over the pairs i<j: a representative pair that is not
        # delta-homogeneous forces a resample; count the pairs homogeneous
        # at delta/5 whose representatives flip the dominant direction, and
        # the item-1 failures
        flips = failures = 0
        for i, j in itertools.combinations(range(q), 2):
            dw = rep_density[i][j]
            if not _homogeneous(dw, delta):
                break
            dq = q_density[i][j]
            same_dominant = (dq >= HALF) == (dw >= HALF)
            if _homogeneous(dq, delta / 5) and not same_dominant:
                flips += 1
            if not (_homogeneous(dq, delta) and same_dominant):
                failures += 1
        else:
            if flips <= 4 * delta * q * q / 5 and failures <= delta * q * q:
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
                    attempts=attempt,
                    seed=seed,
                )
    raise BudgetExceeded(
        "representative sampling retries exhausted", retries=retry_budget
    )
