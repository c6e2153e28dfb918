"""Line-oriented text formats.

Every parser reports violations with the offending line number. The
oriented-graph and k-partite formats also have a serializer, and every
serializer round-trips through its parser. Formats:

* oriented graph / tournament: first line ``n``, then either ``matrix``
  followed by n rows of 0/1 characters (entry (i,j) = 1 means i -> j), or
  ``edges`` followed by ``u v`` lines meaning u -> v;
* labeled graph: ``vertices: <sorted labels>``, then ``i j`` edge lines
  with i < j;
* undirected graph: first line ``n``, then ``i j`` edge lines, where
  ``j i`` is the same edge;
* k-partite tournament: header ``parts: m k``, then cross-edge lines
  ``i.a j.b`` meaning vertex a of part i -> vertex b of part j.

A parser checks its format's own rules: tokens, headers, ``i < j`` and
the matrix shape. The graph's constructor checks the pairs, in list
order, and names the first bad one (a repeat included); the parser
reports it on that pair's line.
"""

from __future__ import annotations

from .digraphs import OrientedGraph, Tournament, _BadPair
from .forcing import KPartiteTournament, _check_parts
from .orderedhom import LabeledGraph

__all__ = [
    "ParseError",
    "parse_oriented_graph",
    "parse_tournament",
    "serialize_oriented_graph",
    "parse_labeled_graph",
    "parse_undirected_graph",
    "parse_kpartite",
    "serialize_kpartite",
]


class ParseError(ValueError):
    """Input violates a format or a type invariant; carries the line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _lines(text: str) -> list[tuple[int, str]]:
    """The numbered lines that are neither blank nor comments; at least one."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            out.append((i, stripped))
    if not out:
        raise ParseError(1, "empty input")
    return out


def _int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"{what} must be an integer, got {token!r}")


def _pair(line: str, line_no: int, form: str) -> tuple[int, int]:
    """The two integer endpoints of an edge line written as ``form``."""
    parts = line.split()
    if len(parts) != 2:
        raise ParseError(line_no, f"edge line must be {form!r}")
    a, b = parts
    return _int(a, line_no, "edge endpoint"), _int(b, line_no, "edge endpoint")


def parse_oriented_graph(text: str) -> OrientedGraph:
    lines = _lines(text)
    first_no, first = lines[0]
    n = _int(first, first_no, "vertex count")
    if n < 0:
        raise ParseError(first_no, "vertex count must be nonnegative")
    if len(lines) < 2:
        if n == 0:
            return OrientedGraph(0, [])
        raise ParseError(first_no, "missing 'matrix' or 'edges' section")
    mode_no, mode = lines[1]
    body = lines[2:]
    if mode == "matrix":
        if len(body) != n:
            raise ParseError(mode_no, f"expected {n} matrix rows, got {len(body)}")
        edges = []
        for i, (line_no, row) in enumerate(body, start=1):
            if len(row) != n or any(ch not in "01" for ch in row):
                raise ParseError(line_no, f"row must be {n} characters of 0/1")
            edges.extend((i, j) for j, ch in enumerate(row, start=1) if ch == "1")
    elif mode == "edges":
        edges = [_pair(line, line_no, "u v") for line_no, line in body]
    else:
        raise ParseError(mode_no, f"expected 'matrix' or 'edges', got {mode!r}")
    try:
        return OrientedGraph(n, edges)
    except _BadPair as exc:
        # an edge line is its own pair; a matrix pair (u, v) is on row u
        at = edges[exc.index][0] - 1 if mode == "matrix" else exc.index
        raise ParseError(body[at][0], str(exc))


def parse_tournament(text: str) -> Tournament:
    g = parse_oriented_graph(text)
    try:
        return Tournament.from_oriented(g)
    except ValueError as exc:
        # a missing pair needs the whole input: report the last content line
        raise ParseError(_lines(text)[-1][0], str(exc))


def serialize_oriented_graph(g: OrientedGraph, style: str = "edges") -> str:
    if style == "matrix":
        rows = [
            "".join("1" if g.has_edge(i, j) else "0" for j in g.vertices)
            for i in g.vertices
        ]
        return "\n".join([str(g.n), "matrix", *rows]) + "\n"
    if style == "edges":
        lines = [str(g.n), "edges"]
        lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown style {style!r}")


def parse_labeled_graph(text: str) -> LabeledGraph:
    lines = _lines(text)
    first_no, first = lines[0]
    if not first.startswith("vertices:"):
        raise ParseError(first_no, "first line must be 'vertices: <labels>'")
    tokens = first[len("vertices:") :].split()
    vertices = [_int(tok, first_no, "vertex label") for tok in tokens]
    if sorted(vertices) != vertices:
        raise ParseError(first_no, "labels must be listed in increasing order")
    if len(set(vertices)) != len(vertices):
        raise ParseError(first_no, "labels must be distinct")
    if vertices and vertices[0] < 1:
        raise ParseError(first_no, "labels must be positive integers")
    body = lines[1:]
    edges = []
    for line_no, line in body:
        a, b = _pair(line, line_no, "i j")
        if a >= b:
            raise ParseError(line_no, "edges must be written with i < j")
        edges.append((a, b))
    try:
        return LabeledGraph(vertices, edges)
    except _BadPair as exc:
        raise ParseError(body[exc.index][0], str(exc))


def parse_undirected_graph(text: str) -> LabeledGraph:
    lines = _lines(text)
    first_no, first = lines[0]
    n = _int(first, first_no, "vertex count")
    if n < 0:
        raise ParseError(first_no, "vertex count must be nonnegative")
    body = lines[1:]
    edges = [_pair(line, line_no, "i j") for line_no, line in body]
    try:
        return LabeledGraph(range(1, n + 1), edges)
    except _BadPair as exc:
        raise ParseError(body[exc.index][0], str(exc))


def parse_kpartite(text: str) -> KPartiteTournament:
    lines = _lines(text)
    first_no, first = lines[0]
    tokens = first.split()
    if len(tokens) != 3 or tokens[0] != "parts:":
        raise ParseError(first_no, "header must be 'parts: m k'")
    m = _int(tokens[1], first_no, "part size")
    k = _int(tokens[2], first_no, "part count")
    try:
        _check_parts(k, m)
    except ValueError as exc:
        raise ParseError(first_no, str(exc))
    body = lines[1:]
    edges = []
    for line_no, line in body:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(line_no, "cross-edge line must be 'i.a j.b'")
        try:
            (pi, ai), (pj, bj) = (tuple(map(int, p.split("."))) for p in parts)
        except ValueError:
            raise ParseError(line_no, "endpoints must look like 'part.index'")
        for part, idx in ((pi, ai), (pj, bj)):
            if not (1 <= part <= k and 1 <= idx <= m):
                raise ParseError(line_no, f"endpoint {part}.{idx} out of range")
        edges.append(((pi - 1) * m + ai, (pj - 1) * m + bj))
    try:
        return KPartiteTournament(k, m, edges)
    except _BadPair as exc:
        raise ParseError(body[exc.index][0], str(exc))
    except ValueError as exc:
        # every pair is fine, but one is missing: that needs the whole input
        raise ParseError(lines[-1][0], str(exc))


def serialize_kpartite(f: KPartiteTournament) -> str:
    lines = [f"parts: {f.m} {f.k}"]
    for u, v in sorted(f.edges):
        pu, au = f.part_of(u), (u - 1) % f.m + 1
        pv, av = f.part_of(v), (v - 1) % f.m + 1
        lines.append(f"{pu}.{au} {pv}.{av}")
    return "\n".join(lines) + "\n"
