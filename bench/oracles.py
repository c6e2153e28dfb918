"""Independent output checks for the benchmark.

Nothing here imports tourkit: every check re-derives its verdict from
the raw input or output text with plain loops, so a fault in a library
routine cannot hide itself by also breaking its check.
"""

from __future__ import annotations

from fractions import Fraction


def report_values(stdout: str) -> dict[str, str]:
    """The ``key: value`` section that follows the ``---`` line."""
    lines = stdout.splitlines()
    if "---" not in lines:
        raise ValueError("report has no key: value section")
    values = {}
    for line in lines[lines.index("---") + 1 :]:
        key, sep, value = line.partition(": ")
        if not sep:
            raise ValueError(f"malformed report line {line!r}")
        values[key] = value
    return values


def parse_arcs(text: str) -> tuple[int, set[tuple[int, int]]]:
    """Vertex count and arc set of a graph file in ``edges`` or ``matrix`` form."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    n = int(lines[0])
    arcs: set[tuple[int, int]] = set()
    if lines[1] == "edges":
        for ln in lines[2:]:
            u, v = ln.split()
            arcs.add((int(u), int(v)))
    elif lines[1] == "matrix":
        for i, row in enumerate(lines[2:], start=1):
            arcs.update((i, j) for j, ch in enumerate(row, start=1) if ch == "1")
    else:
        raise ValueError(f"unknown graph style {lines[1]!r}")
    return n, arcs


def is_tournament(n: int, arcs: set[tuple[int, int]]) -> bool:
    """Complete and antisymmetric on 1..n: one arc per pair, no loops."""
    if len(arcs) != n * (n - 1) // 2:
        return False
    for u, v in arcs:
        if not (1 <= u <= n and 1 <= v <= n) or u == v or (v, u) in arcs:
            return False
    return True


def is_acyclic(vertices, arcs: set[tuple[int, int]]) -> bool:
    """Kahn peel of the subgraph induced on ``vertices``."""
    members = set(vertices)
    indeg = {v: 0 for v in members}
    succ: dict[int, list[int]] = {v: [] for v in members}
    for u, v in arcs:
        if u in members and v in members:
            indeg[v] += 1
            succ[u].append(v)
    ready = [v for v in members if indeg[v] == 0]
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return seen == len(members)


def proper_coloring(n: int, arcs, classes: list[list[int]]) -> bool:
    """The classes partition 1..n and each induces an acyclic subgraph."""
    flat = sorted(v for cls in classes for v in cls)
    if flat != list(range(1, n + 1)):
        return False
    return all(is_acyclic(cls, arcs) for cls in classes)


def two_colorable(n: int, arcs) -> bool:
    """Brute force over all 2^n vertex 2-colorings."""
    for code in range(1 << n):
        side = [[v for v in range(1, n + 1) if (code >> (v - 1)) & 1 == bit] for bit in (0, 1)]
        if is_acyclic(side[0], arcs) and is_acyclic(side[1], arcs):
            return True
    return False


def graph_triangles(n: int, edges) -> list[int]:
    """Triangles of an undirected graph, each as a bit mask of its vertices.

    Bit masks of neighbours keep this fast: the reduction set-up calls it
    on some 24,000 random graphs a run.
    """
    adj = [0] * (n + 1)
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    triangles = []
    for a, b in edges:
        if a > b:
            a, b = b, a
        # each triangle once: from its two lowest vertices
        common = adj[a] & adj[b] & -(2 << b)
        while common:
            low = common & -common
            triangles.append((1 << a) | (1 << b) | low)
            common ^= low
    return triangles


def has_triangle_free_cut(n: int, triangles: list[int]) -> bool:
    """Scan all 2^n cuts for one splitting every triangle."""
    for code in range(1 << n):
        side = code << 1
        if all(0 != (mask & side) != mask for mask in triangles):
            return True
    return False


def count_embeddings(n: int, arcs, k: int, pattern_arcs) -> int:
    """Injections of the pattern mapping every pattern arc onto a host arc."""
    out = {v: set() for v in range(1, n + 1)}
    for u, v in arcs:
        out[u].add(v)
    need = [
        [(j, (j, i) in pattern_arcs, (i, j) in pattern_arcs) for j in range(1, i)]
        for i in range(1, k + 1)
    ]
    image = [0] * (k + 1)

    def extend(i: int, used: set) -> int:
        if i > k:
            return 1
        total = 0
        for w in range(1, n + 1):
            if w in used:
                continue
            if all(
                (not fwd or w in out[image[j]]) and (not back or image[j] in out[w])
                for j, fwd, back in need[i - 1]
            ):
                image[i] = w
                used.add(w)
                total += extend(i + 1, used)
                used.discard(w)
        return total

    return extend(1, set())


def fraction_of(value: str) -> Fraction:
    """Exact value of a report field printed as ``p/q (~x)`` or ``p``."""
    return Fraction(value.split(" ")[0])
