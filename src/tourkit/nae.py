"""Not-all-equal constraint solver over boolean variables.

One clause is a triple of variables that must not all receive the same
value. This is exactly the clause form of 2-coloring a tournament without
a monochromatic cyclic triangle, and of the triangle-free-cut problem for
undirected graphs.

The search keeps two bit masks, ``side[0]`` and ``side[1]``: the variables
assigned 0 and 1. For variables v and u, ``link(v, u)`` is the mask of the
w with {v, u, w} a clause. Assigning v := x forces every w in the OR of
``link(v, u)`` over the partners u already in ``side[x]`` to 1 - x, and it
conflicts exactly when that forced set meets ``side[x]``. Propagation runs
this rule to a fixed point, which does not depend on the order the forced
variables are visited in; undoing an assignment restores the two masks.

Branching picks the unassigned variable occurring in the most clauses
(ties to the smallest index). The first branching decision is pinned to a
single value, which is sound because complementing every variable
preserves all NAE clauses.

Two fronts run the one search:

- ``solve_nae`` takes a clause list and builds the ``link`` masks from it
  once.
- ``solve_tournament`` takes a tournament T, whose clauses are its cyclic
  triangles, and reads ``link`` off T's adjacency masks without listing
  them: if v -> u, ``link(v, u)`` is ``out[u] & inn[v]``, otherwise
  ``out[v] & inn[u]``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .digraphs import Tournament
from .errors import BudgetExceeded

__all__ = ["solve_nae", "solve_tournament"]

# clause degree per variable, and link[v][u] for each partner u of v
_Links = tuple[list[int], list[dict[int, int]]]


def solve_nae(
    num_vars: int,
    clauses: Sequence[tuple[int, int, int]],
    budget: Optional[int] = None,
) -> Optional[list[int]]:
    """Satisfying 0/1 assignment for the NAE triples, or None.

    Variables are 1..num_vars. ``budget`` caps the number of branching
    nodes; exhausting it raises BudgetExceeded (never returns None).
    """
    for c in clauses:
        if len(c) != 3 or len(set(c)) != 3:
            raise ValueError(f"clause {c} is not a triple of distinct variables")
        for v in c:
            if not 1 <= v <= num_vars:
                raise ValueError(f"variable {v} outside 1..{num_vars}")

    return _search(num_vars, *_clause_links(num_vars, clauses), budget)


def solve_tournament(
    t: Tournament, budget: Optional[int] = None
) -> Optional[list[int]]:
    """``solve_nae`` over the cyclic triangles of ``t``, without listing them.

    Entry v-1 of the result is the value of vertex v. The search, its node
    count and its result are those of ``solve_nae(t.n, clauses)`` for the
    cyclic-triangle clauses, since the degrees and ``link`` masks are the
    same.
    """
    if not isinstance(t, Tournament):
        raise ValueError("NAE 2-coloring requires a tournament")
    return _search(t.n, *_tournament_links(t), budget)


def _clause_links(num_vars: int, clauses: Sequence[tuple[int, int, int]]) -> _Links:
    degree = [0] * (num_vars + 1)
    link: list[dict[int, int]] = [{} for _ in range(num_vars + 1)]
    for a, b, c in clauses:
        for v, u, w in ((a, b, c), (b, c, a), (c, a, b)):
            degree[v] += 1
            link[v][u] = link[v].get(u, 0) | (1 << w)
            link[v][w] = link[v].get(w, 0) | (1 << u)
    return degree, link


def _tournament_links(t: Tournament) -> _Links:
    """``_clause_links`` of the cyclic triangles of t, read off its masks.

    The cyclic triangles through v are the v -> u -> w -> v with u in
    out[v], so v's degree sums popcount(out[u] & inn[v]) over them.
    """
    out, inn = t.out, t.inn
    degree = [0] * (t.n + 1)
    link: list[dict[int, int]] = [{} for _ in range(t.n + 1)]
    for v in t.vertices:
        links = link[v]
        m = out[v]
        while m:
            low = m & -m
            u = low.bit_length() - 1
            w = out[u] & inn[v]
            if w:
                links[u] = w
                degree[v] += w.bit_count()
            m ^= low
        m = inn[v]
        while m:
            low = m & -m
            u = low.bit_length() - 1
            w = out[v] & inn[u]
            if w:
                links[u] = w
            m ^= low
    return degree, link


def _search(
    num_vars: int,
    degree: list[int],
    link: list[dict[int, int]],
    budget: Optional[int],
) -> Optional[list[int]]:
    """The one NAE search over clause degrees and ``link`` masks."""
    side = [0, 0]
    partners = [0] * (num_vars + 1)
    for v in range(1, num_vars + 1):
        for u in link[v]:
            partners[v] |= 1 << u
    by_degree = sorted(range(1, num_vars + 1), key=lambda v: (-degree[v], v))
    nodes = 0

    def assign(v: int, x: int) -> bool:
        side[x] |= 1 << v
        queue = [(v, x)]
        while queue:
            v, x = queue.pop()
            links = link[v]
            forced = 0
            m = side[x] & partners[v]
            while m:
                low = m & -m
                forced |= links[low.bit_length() - 1]
                m ^= low
            if forced & side[x]:
                return False
            y = 1 - x
            new = forced & ~side[y]
            if new:
                side[y] |= new
                while new:
                    low = new & -new
                    queue.append((low.bit_length() - 1, y))
                    new ^= low
        return True

    def search(first: bool, start: int) -> bool:
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceeded("NAE search budget exhausted", nodes=nodes)
        # assignments only grow along a branch, so the scan resumes at start
        assigned = side[0] | side[1]
        while start < num_vars and (assigned >> by_degree[start]) & 1:
            start += 1
        if start == num_vars:
            return True
        v = by_degree[start]
        saved = side[:]
        for value in (0,) if first else (0, 1):
            if assign(v, value) and search(False, start + 1):
                return True
            side[:] = saved
        return False

    if search(True, 0):
        return [(side[1] >> v) & 1 for v in range(1, num_vars + 1)]
    return None
