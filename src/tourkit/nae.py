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

Two fronts run the one search, each with its own forced-set rule:

- ``solve_nae`` takes a clause list and builds the ``link`` masks from it
  once.
- ``solve_tournament`` takes a tournament T, whose clauses are its cyclic
  triangles, and lists neither them nor ``link``: if v -> u,
  ``link(v, u)`` is ``out[u] & inn[v]``, otherwise ``out[v] & inn[u]``,
  so the forced set is ``inn[v] & OR out[u]`` over the partners u in
  ``out[v]``, joined with ``out[v] & OR inn[u]`` over those in ``inn[v]``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .digraphs import Tournament, _gather
from .errors import BudgetExceeded

__all__ = ["solve_nae", "solve_tournament"]


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

    degree = [0] * (num_vars + 1)
    # link[v][u] for each partner u of v, and the mask of those partners
    link: list[dict[int, int]] = [{} for _ in range(num_vars + 1)]
    partners = [0] * (num_vars + 1)
    for a, b, c in clauses:
        for v, u, w in ((a, b, c), (b, c, a), (c, a, b)):
            degree[v] += 1
            link[v][u] = link[v].get(u, 0) | (1 << w)
            link[v][w] = link[v].get(w, 0) | (1 << u)
            partners[v] |= (1 << u) | (1 << w)

    def forced(v: int, same: int) -> int:
        return _gather(same & partners[v], link[v])

    return _search(num_vars, degree, forced, budget)


def solve_tournament(
    t: Tournament, budget: Optional[int] = None
) -> Optional[list[int]]:
    """``solve_nae`` over the cyclic triangles of ``t``, without listing them.

    Entry v-1 of the result is the value of vertex v. The search, its node
    count and its result are those of ``solve_nae(t.n, clauses)`` for the
    cyclic-triangle clauses, since the degrees and forced sets are the
    same.
    """
    if not isinstance(t, Tournament):
        raise ValueError("NAE 2-coloring requires a tournament")
    out, inn = t.out, t.inn
    degree, partners = _triangle_partners(t)

    def forced(v: int, same: int) -> int:
        same &= partners[v]
        return inn[v] & _gather(same & out[v], out) | out[v] & _gather(
            same & inn[v], inn
        )

    return _search(t.n, degree, forced, budget)


def _triangle_partners(t: Tournament) -> tuple[list[int], list[int]]:
    """The number of cyclic triangles through each vertex, and the mask of
    the vertices sharing one with it. Those through v are the
    v -> u -> w -> v with u in out[v] and w in out[u] & inn[v]."""
    out, inn = t.out, t.inn
    degree = [0] * (t.n + 1)
    partners = [0] * (t.n + 1)
    for v in t.vertices:
        m = out[v]
        while m:
            low = m & -m
            u = low.bit_length() - 1
            w = out[u] & inn[v]
            if w:
                degree[v] += w.bit_count()
                partners[v] |= low
                partners[u] |= 1 << v
            m ^= low
    return degree, partners


def _search(
    num_vars: int,
    degree: list[int],
    forced: Callable[[int, int], int],
    budget: Optional[int],
) -> Optional[list[int]]:
    """The one NAE search over clause degrees and a front's forced-set rule:
    ``forced(v, same)`` is the OR of ``link(v, u)`` over the u in the mask
    ``same``."""
    side = [0, 0]
    by_degree = sorted(range(1, num_vars + 1), key=lambda v: (-degree[v], v))
    nodes = 0

    def assign(v: int, x: int) -> bool:
        side[x] |= 1 << v
        queue = [(v, x)]
        while queue:
            v, x = queue.pop()
            new = forced(v, side[x])
            if new & side[x]:
                return False
            y = 1 - x
            new &= ~side[y]
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
