"""Not-all-equal constraint solver over boolean variables.

One clause is a triple of variables that must not all receive the same
value. This is exactly the clause form of 2-coloring a tournament without
a monochromatic cyclic triangle, and of the triangle-free-cut problem for
undirected graphs.

The search keeps two bit masks, ``side[0]`` and ``side[1]``: the variables
assigned 0 and 1. For variables v and u, ``link(v, u)`` is the mask of the
w with {v, u, w} a clause. Assigning v := x forces to 1 - x every w outside
``side[1 - x]`` in the OR of ``link(v, u)`` over the partners u already in
``side[x]``, and it conflicts exactly when that forced set meets
``side[x]``. A front computes it as ``forced(v, same, opp)`` with
``same = side[x]`` and ``opp = side[1 - x]``; it may keep or drop the bits
in ``opp``, which are 1 - x already and disjoint from ``side[x]``.
Propagation runs this rule to a fixed point, which does not depend on the
order the forced variables are visited in; undoing an assignment restores
the two masks. The search is a loop over an explicit stack, so the number
of variables is not bounded by Python's recursion limit.

Branching picks the unassigned variable occurring in the most clauses
(ties to the smallest index) and tries 0, then 1. The first branching
decision is pinned to 0, which is sound because complementing every
variable preserves all NAE clauses.

A level is one branching decision with the propagation that follows it.
Each assigned variable records its level, its place in the assignment
order and the variable whose forced set assigned it. A conflict is a
clause {v, u, g} with all three on one side. It is explained by walking
its variables of the current level back through the forced sets that
assigned them: w, assigned by the forced set of s, goes back to s and to
one u with {s, u, w} a clause and u on the side of s. That u is from an
earlier level when one is, else from this level and assigned before w,
so the walk never goes round in a circle. What remains is the decision
and a set of earlier levels' variables, which with the decision's value
force the conflict. When both values of a level have failed, the union
of their two sets rules out the values that the earlier levels gave
those variables. The search returns to the deepest level h holding one
of them and skips the untried values of every level in between: each
assignment below them keeps levels 1..h, so none satisfies the clauses.
Level h's variables in the union are explained in turn by earlier ones
and count against h's current value; an empty union means that no
assignment exists. Only subtrees without a satisfying assignment are
skipped, and the rest are visited in the same order, so the assignment
found is the one backtracking one level at a time finds: the first in
branching order, 0 before 1.

A node is one level entered, plus the final check that finds every
variable assigned, and a budget counts nodes. A backjump only removes
nodes, so a search never takes more than backtracking one level at a
time would.

Two fronts run the one search, each with its own forced-set rule and a
rule ``third(f, z)`` giving ``link(f, z)`` for the explanations:

- ``solve_nae`` takes a clause list and builds the ``link`` masks from it
  once; its forced rule ignores ``opp``.
- ``solve_tournament`` takes a tournament T, whose clauses are its cyclic
  triangles, and lists neither them nor ``link``: if v -> u,
  ``link(v, u)`` is ``out[u] & inn[v]``, otherwise ``out[v] & inn[u]``.
  So the out-half of the forced set is the w in ``inn[v]`` outside
  ``opp`` with an edge u -> w from a partner u in ``same & out[v]``, and
  the in-half swaps ``out`` and ``inn``. Each half is reached from
  either end of those edges, by ORing ``out[u]`` over the u or by
  testing ``inn[w]`` for each w, and walks the smaller of the two masks.
  The clause degrees and partner masks likewise come from one walk of the
  smaller of ``out[v]`` and ``inn[v]`` per vertex, and ``third(f, z)`` is
  ``(out[f] & inn[z]) | (inn[f] & out[z])``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .digraphs import Tournament, _bits, _gather
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

    def forced(v: int, same: int, opp: int) -> int:
        return _gather(same & partners[v], link[v])

    def third(f: int, z: int) -> int:
        return link[f].get(z, 0)

    return _search(num_vars, degree, forced, third, budget)


def solve_tournament(
    t: Tournament, budget: Optional[int] = None
) -> Optional[list[int]]:
    """``solve_nae`` over the cyclic triangles of ``t``, without listing them.

    Entry v-1 of the result is the value of vertex v. The search, its node
    count and its result are those of ``solve_nae(t.n, clauses)`` for the
    cyclic-triangle clauses, since the degrees, the forced sets and the
    ``third`` masks that explain each conflict, and so every backjump, are
    the same.
    """
    if not isinstance(t, Tournament):
        raise ValueError("NAE 2-coloring requires a tournament")
    degree, forced = _tournament_rule(t)
    out, inn = t.out, t.inn

    def third(f: int, z: int) -> int:
        # the w of a cyclic triangle f -> z -> w -> f or z -> f -> w -> z
        return (out[f] & inn[z]) | (inn[f] & out[z])

    return _search(t.n, degree, forced, third, budget)


def _tournament_rule(
    t: Tournament,
) -> tuple[list[int], Callable[[int, int, int], int]]:
    """The cyclic-triangle degrees of ``t`` and its forced-set rule.

    The out-half of ``forced(v, same, opp)`` is the set of w in
    C = ``partners[v] & inn[v] & ~opp`` reached by an edge u -> w from
    some u in A = ``same & partners[v] & out[v]``: either ``C & OR out[u]``
    over the u in A, or the w in C whose ``inn[w]`` meets A. Each half
    walks the smaller of A and C; the in-half swaps ``out`` and ``inn``.
    """
    out, inn = t.out, t.inn
    degree, partners = _triangle_partners(t)

    def half(a: int, c: int, fwd: list[int], back: list[int]) -> int:
        # the w in c with back[w] & a, i.e. c & OR fwd[u] over the u in a
        if a.bit_count() <= c.bit_count():
            return c & _gather(a, fwd)
        hit = 0
        while c:
            low = c & -c
            if back[low.bit_length() - 1] & a:
                hit |= low
            c ^= low
        return hit

    def forced(v: int, same: int, opp: int) -> int:
        p = partners[v]
        same &= p
        p &= ~opp
        return half(same & out[v], p & inn[v], out, inn) | half(
            same & inn[v], p & out[v], inn, out
        )

    return degree, forced


def _triangle_partners(t: Tournament) -> tuple[list[int], list[int]]:
    """The number of cyclic triangles through each vertex, and the mask of
    the vertices sharing one with it. Those through v are the
    v -> u -> w -> v with u in out[v] and w in inn[v], one per edge u -> w
    from out[v] into inn[v]. Walking the u in out[v], the w form the mask
    ``out[u] & inn[v]``; walking the w in inn[v], the u form
    ``inn[w] & out[v]``. Either walk finds the partners on the walked
    side, those on the other side as the OR of the masks and the degree
    as the sum of their sizes, so each vertex walks its smaller side."""
    out, inn = t.out, t.inn
    degree = [0] * (t.n + 1)
    partners = [0] * (t.n + 1)
    for v in t.vertices:
        walk, other = out[v], inn[v]
        table = out
        if walk.bit_count() > other.bit_count():
            walk, other, table = other, walk, inn
        count = shared = 0
        while walk:
            low = walk & -walk
            x = table[low.bit_length() - 1] & other
            if x:
                count += x.bit_count()
                shared |= low | x
            walk ^= low
        degree[v] = count
        partners[v] = shared
    return degree, partners


def _search(
    num_vars: int,
    degree: list[int],
    forced: Callable[[int, int, int], int],
    third: Callable[[int, int], int],
    budget: Optional[int],
) -> Optional[list[int]]:
    """The one NAE search over clause degrees and a front's two rules.

    ``forced(v, same, opp)`` is called with v in ``side[x]``, ``same`` =
    ``side[x]`` and ``opp`` = ``side[1 - x]``. It returns the OR of
    ``link(v, u)`` over the u in ``same``, restricted to the variables
    outside ``opp``; bits in ``opp`` may be kept or dropped.
    ``third(f, z)`` is ``link(f, z)``: the mask of the w with {f, z, w} a
    clause. The search is a loop over an explicit stack of open levels,
    so its depth is not bounded by Python's recursion limit.
    """
    side = [0, 0]
    by_degree = sorted(range(1, num_vars + 1), key=lambda v: (-degree[v], v))
    # for each assigned variable: the level it was assigned at, its place
    # in the assignment order (one step per forced set), and the variable
    # whose forced set assigned it (0 for a level's decision)
    level = [0] * (num_vars + 1)
    order = [0] * (num_vars + 1)
    setter = [0] * (num_vars + 1)
    tick = 0

    def partner(f: int, z: int, mask: int, before: int, limit: int) -> int:
        # a u in mask completing a clause with f and z: the lowest in
        # before if there is one, else the lowest placed before limit
        cands = third(f, z) & mask
        low = cands & before
        if low:
            return low & -low
        while True:
            low = cands & -cands
            if order[low.bit_length() - 1] < limit:
                return low
            cands ^= low

    def explain(todo: int, before: int) -> int:
        # walk the assigned variables in todo back through the forced sets
        # that assigned them, stopping at those in before; the ones reached
        seen = 0
        while todo:
            low = todo & -todo
            seen |= low
            w = low.bit_length() - 1
            s = setter[w]
            if s and not low & before:
                todo |= (1 << s) | partner(
                    s, w, side[(side[1] >> s) & 1], before, order[w]
                )
            todo &= ~seen
        return seen & before

    def assign(d: int, x: int, depth: int) -> Optional[int]:
        # None, or on a conflict the earlier levels' variables behind it
        nonlocal tick
        before = side[0] | side[1]
        side[x] |= 1 << d
        level[d], order[d], setter[d] = depth, tick, 0
        tick += 1
        queue = [(d, x)]
        while queue:
            v, x = queue.pop()
            y = 1 - x
            new = forced(v, side[x], side[y])
            clash = new & side[x]
            if clash:
                # the clause {v, u, g} has all three on side x
                g = clash & before or clash
                g &= -g
                u = partner(v, g.bit_length() - 1, side[x], before, tick)
                return explain((1 << v) | g | u, before)
            new &= ~side[y]
            if new:
                side[y] |= new
                while new:
                    low = new & -new
                    w = low.bit_length() - 1
                    level[w], order[w], setter[w] = depth, tick, v
                    queue.append((w, y))
                    new ^= low
                tick += 1
        return None

    # each open level: the position in by_degree, the two masks to restore,
    # the value it holds and the earlier levels' variables behind the
    # failure of its value 0
    stack: list[tuple[int, int, int, int, int]] = []
    start = nodes = 0
    while True:
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceeded("NAE search budget exhausted", nodes=nodes)
        # assignments only grow along a branch, so the scan resumes at start
        assigned = side[0] | side[1]
        while start < num_vars and (assigned >> by_degree[start]) & 1:
            start += 1
        if start == num_vars:
            return [(side[1] >> v) & 1 for v in range(1, num_vars + 1)]
        zero, one = side
        value = why = 0
        while True:
            conflict = assign(by_degree[start], value, len(stack) + 1)
            if conflict is None:
                break
            why |= conflict
            # the root pins its variable to 0; a level whose values both
            # failed returns to the deepest level behind the failures and
            # explains that level's variables among them by earlier ones
            while value or not stack:
                if not why:
                    return None
                depth = max(level[w] for w in _bits(why))
                start, zero, one, value, held = stack[depth - 1]
                del stack[depth - 1 :]
                why = held | explain(why, zero | one)
            value = 1
            side[0], side[1] = zero, one
        stack.append((start, zero, one, value, why))
        start += 1
