"""Acyclic k-coloring of oriented graphs and the easy/hard classifier.

A proper k-coloring partitions the vertex set into k classes, each
inducing an acyclic subdigraph; for tournaments each class induces a
transitive subtournament. A pattern is *easy* exactly when it admits a
proper 2-coloring.

``acyclic_k_coloring`` backtracks over the vertices in label order with
forward checking. Each class keeps a mask of the vertices that would
close a directed triangle with two of its members, grown on each
placement and restored on undo. A class that blocks v never takes v, and
a placement that leaves a later vertex blocked by every class (once all
k are open; an empty class blocks nothing) is undone before it counts.
In a tournament a class is acyclic exactly when it spans no cyclic
triangle, so the masks decide every class test and the reachability walk
runs only on other oriented graphs; an input with C(n,2) edges counts as
a tournament. Only subtrees without a coloring are cut, so the coloring
found is the one plain label-order backtracking finds, in no more nodes.

Solvers take explicit node budgets; exhausting one raises BudgetExceeded
instead of returning a (wrong) negative answer. Each invocation is
single-threaded and keeps its state on the stack, so concurrent calls on
shared immutable inputs are safe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from . import nae
from .digraphs import OrientedGraph, Tournament
from .digraphs import _gather, _mask, _peel, _span
from .errors import AuditError, BudgetExceeded

__all__ = [
    "Coloring",
    "acyclic_k_coloring",
    "nae_two_coloring",
    "chromatic_number",
    "classify",
    "verify_coloring",
    "smallest_non_two_colorable_tournament",
]


@dataclass(frozen=True)
class Coloring:
    """A vertex -> color assignment with colors 1..k."""

    assignment: tuple[int, ...]  # assignment[v-1] = color of vertex v
    k: int

    def color(self, v: int) -> int:
        return self.assignment[v - 1]

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.k)]
        for v, c in enumerate(self.assignment, start=1):
            out[c - 1].append(v)
        return out


def verify_coloring(d: OrientedGraph, coloring: Coloring) -> bool:
    """Independent check: every color class induces an acyclic subdigraph."""
    if len(coloring.assignment) != d.n:
        return False
    return all(_peel(d.inn, _mask(cls)) is not None for cls in coloring.classes())


def _class_stays_acyclic(d: OrientedGraph, members: int, v: int) -> bool:
    """Does the acyclic class `members` (a bit mask) stay acyclic after
    adding v?

    Any new cycle passes through v, so one closes exactly when the class
    vertices reachable from v inside the class include an in-neighbour
    of v.
    """
    out = d.out
    back = d.inn[v] & members
    reach = frontier = out[v] & members
    while frontier and not (reach & back):
        frontier = _gather(frontier, out) & members & ~reach
        reach |= frontier
    return not (reach & back)


def acyclic_k_coloring(
    d: OrientedGraph, k: int, budget: Optional[int] = None
) -> Optional[Coloring]:
    """A proper k-coloring if one exists, else None.

    Backtracking in vertex order 1..n. Symmetry is broken by pinning vertex
    1 to color 1 and only opening one fresh class at a time, so the output
    is deterministic. Each class c keeps a mask ``blocked[c]`` of the
    vertices that close a directed triangle with two of its members; v
    never joins a class that blocks it. In a tournament a class is acyclic
    exactly when it spans no cyclic triangle, so that test decides alone;
    in any other oriented graph a class that does not block v is tested by
    reachability inside the class. A placement that leaves a later vertex
    blocked by all k classes is rejected (forward checking). Both cuts
    remove only subtrees without a coloring, so the coloring returned is
    the one plain label-order backtracking returns. The search counts one
    node per placement kept, plus the root, and raises BudgetExceeded when
    the count passes ``budget``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = d.n
    if n == 0:
        return Coloring((), k)
    out, inn = d.out, d.inn
    tournament = sum(map(int.bit_count, out)) == n * (n - 1) // 2
    masks = [0] * k
    # blocked[c]: the vertices that close a directed triangle with two
    # members of class c; an empty class blocks nothing
    blocked = [0] * k
    saved = [0] * (n + 1)  # saved[v]: blocked[c] before v joined class c
    assign = [0] * (n + 1)  # assign[v]: class index + 1 of a placed vertex
    # v may join classes 0..limits[v]-1: vertex 1 is pinned to class 1, and
    # a fresh class may be opened only as the next unused index, which
    # factors the k! class symmetry out
    limits = [1] * (n + 1)
    # verdicts[v][m]: does v keep the class with mask m acyclic? A class
    # test depends only on (m, v), and the search repeats most of them.
    # Only a graph that is not a tournament needs them.
    verdicts: list[dict[int, bool]] = [] if tournament else [{} for _ in range(n + 1)]
    nodes = 1
    if budget is not None and nodes > budget:
        raise BudgetExceeded("coloring search budget exhausted", nodes=nodes)
    v, c = 1, 0  # the vertex to place and the first class to try for it
    while True:
        limit = limits[v]
        while c < limit:
            old = blocked[c]
            if old >> v & 1:
                c += 1
                continue
            m = masks[c]
            into, back = out[v] & m, inn[v] & m
            if verdicts and into and back:
                seen = verdicts[v]
                fits = seen.get(m)
                if fits is None:
                    fits = seen[m] = _class_stays_acyclic(d, m, v)
                if not fits:
                    c += 1
                    continue
            if v == n:
                break  # the coloring is complete: nothing left to block
            # w with v -> u -> w -> v or v -> w -> u -> v for a member u
            if into:
                blocked[c] |= inn[v] & _gather(into, out)
            if back:
                blocked[c] |= out[v] & _gather(back, inn)
            if masks[-1] or c == k - 1:
                # every class is open: a later vertex blocked by all of
                # them wipes the subtree out, so v does not go here
                wiped = ~((2 << v) - 1)
                for mask in blocked:
                    wiped &= mask
                if wiped:
                    blocked[c] = old
                    c += 1
                    continue
            saved[v] = old
            break
        if c < limit:
            masks[c] |= 1 << v
            assign[v] = c + 1
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceeded("coloring search budget exhausted", nodes=nodes)
            if v == n:
                return Coloring(tuple(assign[1:]), k)
            # placing v in the fresh class opens the next one
            limits[v + 1] = limit + 1 if c + 1 == limit < k else limit
            v, c = v + 1, 0
            continue
        # no class takes v: undo the previous placement, try its next class
        v -= 1
        if not v:
            return None
        c = assign[v] - 1
        masks[c] &= ~(1 << v)
        blocked[c] = saved[v]
        c += 1


def nae_two_coloring(
    t: Tournament, budget: Optional[int] = None
) -> Optional[Coloring]:
    """A 2-coloring with no monochromatic cyclic triangle, or None.

    Valid for tournaments only: there a class is transitive iff it spans no
    cyclic triangle, so propriety is exactly one not-all-equal constraint
    per cyclic triangle. For general oriented graphs this equivalence
    fails, hence the tournament precondition.
    """
    solution = nae.solve_tournament(t, budget=budget)
    if solution is None:
        return None
    coloring = Coloring(tuple(v + 1 for v in solution), 2)
    if not verify_coloring(t, coloring):
        raise AuditError("NAE solver returned an improper coloring")
    return coloring


def chromatic_number(t: OrientedGraph, budget: Optional[int] = None) -> int:
    """Least k admitting a proper k-coloring."""
    if t.n == 0:
        return 0
    for k in range(1, t.n + 1):
        if acyclic_k_coloring(t, k, budget=budget) is not None:
            return k
    raise AssertionError("unreachable: n singleton classes are always proper")


def classify(h: OrientedGraph, budget: Optional[int] = None) -> str:
    """'easy' iff the pattern has a proper 2-coloring, else 'hard'."""
    return "easy" if acyclic_k_coloring(h, 2, budget=budget) is not None else "hard"


def _transitive(out: Sequence[int], members: int) -> bool:
    """Do the vertices of the mask ``members`` induce a transitive
    subtournament of the tournament with out-masks ``out``? They do
    exactly when their scores inside the mask are distinct (Landau)."""
    seen = 0
    rest = members
    while rest:
        low = rest & -rest
        score = 1 << (out[low.bit_length() - 1] & members).bit_count()
        if seen & score:
            return False
        seen |= score
        rest ^= low
    return True


@lru_cache(maxsize=1)
def smallest_non_two_colorable_tournament() -> Tournament:
    """First non-2-colorable tournament in the (n, bit-code) scan order.

    Scans vertex counts upward and, within each n, the codes of
    ``tournament_from_bits`` in bit order. The minimum n is discovered,
    not assumed. Cached for the process lifetime.

    The masks are stepped in place: code 0 orients every pair j -> i, and
    going from code b - 1 to code b reverses the pairs whose bits change,
    the first ``(b & -b).bit_length()`` in lexicographic order. The classes
    of the last 2-coloring found are kept. While each class still has
    distinct scores inside it, it is still transitive, so that coloring
    stays proper and the code is skipped. Otherwise the tournament is
    built (and audited) and searched; a coloring replaces the kept
    classes, and no coloring ends the scan. Every skipped code has a
    proper coloring as witness, so the first code whose search fails is
    the first non-2-colorable code.
    """
    n = 1
    while True:
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        out = [0] * (n + 1)
        inn = [0] * (n + 1)
        for i, j in pairs:
            out[j] |= 1 << i
            inn[i] |= 1 << j
        full = _span(1, n)
        # code 0 is transitive: one class holding every vertex colors it
        first, second = full, 0
        for code in range(1 << len(pairs)):
            for i, j in pairs[: (code & -code).bit_length()]:
                # exactly one of i -> j and j -> i holds: toggling both swaps them
                out[i] ^= 1 << j
                out[j] ^= 1 << i
                inn[i] ^= 1 << j
                inn[j] ^= 1 << i
            if _transitive(out, first) and _transitive(out, second):
                continue
            t = Tournament._from_masks(n, out, inn)
            coloring = acyclic_k_coloring(t, 2)
            if coloring is None:
                return t
            first = sum(1 << v for v, c in enumerate(coloring.assignment, 1) if c == 1)
            second = full ^ first
        n += 1
