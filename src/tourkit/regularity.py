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
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .digraphs import Tournament
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


class BinaryMatrix:
    """Square 0/1 matrix with 1-based row/column indices."""

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=np.int64)
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

    def dominant_value(self, i: int, j: int) -> int:
        ones = self.block_ones[i][j]
        return 1 if 2 * ones >= self.block_sizes[i][j] else 0

    def block_homogeneous(self, i: int, j: int) -> bool:
        ones = self.block_ones[i][j]
        size = self.block_sizes[i][j]
        return min(ones, size - ones) <= self.delta * size

    def report_lines(self) -> list[str]:
        lines = [
            f"row-classes: {len(self.row_parts)}",
            f"col-classes: {len(self.col_parts)}",
            f"delta: {self.delta}",
            f"bad-weight: {self.bad_weight}",
            f"homogeneous: {self.homogeneous}",
        ]
        return lines


def _block_counts(
    a: BinaryMatrix,
    rows: Sequence[Sequence[int]],
    cols: Sequence[Sequence[int]],
) -> tuple[np.ndarray, np.ndarray]:
    row_ind = np.zeros((len(rows), a.n), dtype=np.int64)
    for i, part in enumerate(rows):
        row_ind[i, [v - 1 for v in part]] = 1
    col_ind = np.zeros((len(cols), a.n), dtype=np.int64)
    for j, part in enumerate(cols):
        col_ind[j, [v - 1 for v in part]] = 1
    ones = row_ind @ a.entries @ col_ind.T
    sizes = np.outer(row_ind.sum(axis=1), col_ind.sum(axis=1))
    return ones, sizes


def audit_bipartition(
    a: BinaryMatrix,
    rows: Sequence[Sequence[int]],
    cols: Sequence[Sequence[int]],
    delta: Fraction,
) -> BipartitionAudit:
    """Exact audit: per-block dominant values and the total bad weight."""
    delta = Fraction(delta)
    if not 0 < delta < HALF:
        raise ValueError("delta must lie strictly between 0 and 1/2")
    _validate_partition(rows, a.n, "row partition")
    _validate_partition(cols, a.n, "column partition")
    ones, sizes = _block_counts(a, rows, cols)
    minority = np.minimum(ones, sizes - ones)
    # block bad iff minority/size > delta, exactly: minority*q > p*size
    p, q = delta.numerator, delta.denominator
    bad = minority * q > sizes * p
    bad_weight = Fraction(int(sizes[bad].sum()), a.n * a.n)
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


def count_matrix_copies(
    a: BinaryMatrix, b, avoid_diagonal: bool = False
) -> int:
    """Exact number of copies: row indices r1<...<rk and column indices
    c1<...<ck with A[r_i, c_j] = B[i, j].

    With ``avoid_diagonal`` only copies whose row and column index sets
    are disjoint count.
    """
    bm = np.asarray(b, dtype=np.int64) if not isinstance(b, BinaryMatrix) else b.entries
    k = bm.shape[0]
    if bm.ndim != 2 or bm.shape[1] != k:
        raise ValueError("pattern must be a square matrix")
    if k > a.n:
        return 0
    total = 0
    indices = list(range(a.n))
    for cols in itertools.combinations(indices, k):
        sub = a.entries[:, cols]
        matches = (sub[:, None, :] == bm[None, :, :]).all(axis=2)
        col_set = set(cols) if avoid_diagonal else None
        dp = [0] * (k + 1)
        dp[0] = 1
        for r in range(a.n):
            if avoid_diagonal and r in col_set:
                continue
            for j in range(k, 0, -1):
                if matches[r, j - 1]:
                    dp[j] += dp[j - 1]
        total += dp[k]
    return total


def find_matrix_copy(
    a: BinaryMatrix, b, avoid_diagonal: bool = False
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """One witness copy as 1-based (rows, cols), or None."""
    bm = np.asarray(b, dtype=np.int64) if not isinstance(b, BinaryMatrix) else b.entries
    k = bm.shape[0]
    if k > a.n:
        return None
    for cols in itertools.combinations(range(a.n), k):
        col_set = set(cols) if avoid_diagonal else None
        rows = []
        r = 0
        for j in range(k):
            while r < a.n and (
                (avoid_diagonal and r in col_set)
                or not (a.entries[r, list(cols)] == bm[j]).all()
            ):
                r += 1
            if r == a.n:
                break
            rows.append(r)
            r += 1
        if len(rows) == k:
            return (
                tuple(x + 1 for x in rows),
                tuple(c + 1 for c in cols),
            )
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
    dists = np.abs(patterns - centroid).sum(axis=1)
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
    delta = Fraction(delta)
    if not 0 < delta < HALF:
        raise ValueError("delta must lie strictly between 0 and 1/2")
    budget = size_budget if size_budget is not None else a.n
    rows: list[list[int]] = [list(range(1, a.n + 1))]
    cols: list[list[int]] = [list(range(1, a.n + 1))]
    while True:
        audit = audit_bipartition(a, rows, cols, delta)
        if audit.homogeneous:
            return AfnPartition(audit=audit, size_budget=budget)
        if len(rows) >= budget and len(cols) >= budget:
            break
        ones, sizes = _block_counts(a, rows, cols)
        minority = np.minimum(ones, sizes - ones)
        p, q = delta.numerator, delta.denominator
        bad = minority * q > sizes * p
        bad_sizes = np.where(bad, sizes, 0)
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
    count = count_matrix_copies(a, b)
    if count > 0:
        witness = find_matrix_copy(a, b)
        assert witness is not None
        bm = np.asarray(b, dtype=np.int64) if not isinstance(b, BinaryMatrix) else b.entries
        return AfnCopies(
            count=count,
            witness=witness,
            pattern=tuple(tuple(int(x) for x in row) for row in bm),
        )
    return AfnInconclusive(last_audit=audit, copy_count=0)


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

    def audit(self, t: Tournament, delta: Fraction) -> "EquipartitionAudit":
        return audit_equipartition(t, self, delta)


@dataclass(frozen=True)
class EquipartitionAudit:
    """Ordered-pair homogeneity audit of a tournament equipartition."""

    delta: Fraction
    bad_weight: Fraction
    homogeneous: bool
    densities: tuple[tuple[Fraction, ...], ...]

    def dominant_forward(self, i: int, j: int) -> bool:
        return self.densities[i][j] >= HALF

    def pair_homogeneous(self, i: int, j: int) -> bool:
        d = self.densities[i][j]
        return d >= 1 - self.delta or d <= self.delta


def _part_pair_counts(t: Tournament, parts: Sequence[Sequence[int]]) -> np.ndarray:
    n = t.n
    a = np.array(t.adjacency_matrix(), dtype=np.int64)
    ind = np.zeros((len(parts), n), dtype=np.int64)
    for i, part in enumerate(parts):
        ind[i, [v - 1 for v in part]] = 1
    return ind @ a @ ind.T


def audit_equipartition(
    t: Tournament, partition: Equipartition, delta: Fraction
) -> EquipartitionAudit:
    delta = Fraction(delta)
    if not 0 < delta < HALF:
        raise ValueError("delta must lie strictly between 0 and 1/2")
    parts = partition.parts
    counts = _part_pair_counts(t, parts)
    q = len(parts)
    densities = []
    bad_weight = Fraction(0)
    for i in range(q):
        row = []
        for j in range(q):
            if i == j:
                row.append(Fraction(0))
                continue
            size = len(parts[i]) * len(parts[j])
            d = Fraction(int(counts[i, j]), size)
            row.append(d)
            if not (d >= 1 - delta or d <= delta):
                bad_weight += Fraction(size, t.n * t.n)
        densities.append(tuple(row))
    return EquipartitionAudit(
        delta=delta,
        bad_weight=bad_weight,
        homogeneous=bad_weight <= delta,
        densities=tuple(densities),
    )


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
    feasible = [
        cand
        for cand in range(1, n + 1)
        if n % cand == 0 and all(len(part) % (n // cand) == 0 for part in p.parts)
    ]
    if n % q != 0 or any(len(part) % (n // q) != 0 for part in p.parts):
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


def _pair_densities(t: Tournament, groups: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    counts = _part_pair_counts(t, groups)
    out = []
    for i in range(len(groups)):
        row = []
        for j in range(len(groups)):
            if i == j:
                row.append(Fraction(0))
            else:
                row.append(
                    Fraction(int(counts[i, j]), len(groups[i]) * len(groups[j]))
                )
        out.append(row)
    return out


def _choose_refinement_q(
    n: int, parts: Sequence[Sequence[int]], target: Fraction
) -> int:
    feasible = [
        cand
        for cand in range(1, n + 1)
        if n % cand == 0 and all(len(p) % (n // cand) == 0 for p in parts)
    ]
    for cand in feasible:
        if cand >= target:
            return cand
    return feasible[-1]  # n is always feasible


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
    delta = Fraction(delta)
    if not 0 < delta < HALF:
        raise ValueError("delta must lie strictly between 0 and 1/2")
    a = BinaryMatrix.from_tournament(t)
    b = bipartite_adjacency(f)
    n = t.n

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
        q = _choose_refinement_q(n, p.parts, target_q)
        refined = refine_to_equipartition(t, p, rows, cols, q)
        check = audit_equipartition(t, refined, target_delta)
        if not check.homogeneous:
            raise AuditError(
                f"refinement missed its homogeneity target {target_delta}"
            )
        return refined

    trivial = Equipartition(parts=(tuple(range(1, n + 1)),))
    stage1 = refinement_stage(trivial, delta / 5)
    if isinstance(stage1, AfnCopies):
        return stage1
    q = stage1.q
    gamma = Fraction(1, 2 * q**4)
    stage2 = refinement_stage(stage1, gamma)
    if isinstance(stage2, AfnCopies):
        return stage2

    member_of: dict[int, int] = {}
    for idx, part in enumerate(stage2.parts):
        for v in part:
            member_of[v] = idx

    q_audit = audit_equipartition(t, stage1, delta / 5)
    digest = hashlib.sha256(f"{seed}:representatives".encode()).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))

    for attempt in range(1, retry_budget + 1):
        samples = [part[rng.randrange(len(part))] for part in stage1.parts]
        reps = [stage2.parts[member_of[w]] for w in samples]
        rep_density = _pair_densities(t, reps)
        a1 = all(
            rep_density[i][j] >= 1 - delta or rep_density[i][j] <= delta
            for i in range(q)
            for j in range(i + 1, q)
        )
        if not a1:
            continue
        bad_pairs = 0
        for i in range(q):
            for j in range(i + 1, q):
                dq = q_audit.densities[i][j]
                if not (dq >= 1 - delta / 5 or dq <= delta / 5):
                    continue
                dw = rep_density[i][j]
                if (dq >= 1 - delta / 5 and dw <= delta) or (
                    dq <= delta / 5 and dw >= 1 - delta
                ):
                    bad_pairs += 1
        if Fraction(bad_pairs) > 4 * delta * q * q / 5:
            continue
        failures = 0
        for i in range(q):
            for j in range(i + 1, q):
                dq = q_audit.densities[i][j]
                homog = dq >= 1 - delta or dq <= delta
                same_dominant = (dq >= HALF) == (rep_density[i][j] >= HALF)
                if not (homog and same_dominant):
                    failures += 1
        if Fraction(failures) > delta * q * q:
            continue
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
