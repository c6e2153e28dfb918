"""Text format round-trips and line-numbered error reporting."""

import itertools
import random

import pytest

from tourkit.digraphs import (
    OrientedGraph,
    cyclic_triangle,
    distance_to_h_free,
    random_tournament,
)
from tourkit.forcing import KPartiteTournament
from tourkit.hardness import reduce_graph
from tourkit.formats import (
    ParseError,
    parse_kpartite,
    parse_labeled_graph,
    parse_oriented_graph,
    parse_tournament,
    parse_undirected_graph,
    serialize_kpartite,
    serialize_oriented_graph,
)
from tourkit.orderedhom import LabeledGraph

from conftest import random_labeled_graph, random_oriented_graph

STYLES = ("edges", "matrix")


class TestOrientedGraphFormat:
    def test_edges_roundtrip(self, rng):
        t = random_tournament(6, rng)
        text = serialize_oriented_graph(t, style="edges")
        assert parse_oriented_graph(text).edges == t.edges

    def test_matrix_roundtrip(self, rng):
        t = random_tournament(5, rng)
        text = serialize_oriented_graph(t, style="matrix")
        assert parse_tournament(text).edges == t.edges

    def test_matrix_semantics(self):
        text = "3\nmatrix\n010\n001\n100\n"
        assert parse_oriented_graph(text).edges == cyclic_triangle().edges

    def test_bad_vertex_count(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_oriented_graph("x\nedges\n")

    def test_bad_mode(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_oriented_graph("3\nwhat\n")

    def test_bad_matrix_row(self):
        with pytest.raises(ParseError, match="line 4"):
            parse_oriented_graph("2\nmatrix\n01\n2x\n")

    def test_double_orientation(self):
        with pytest.raises(ParseError):
            parse_oriented_graph("2\nedges\n1 2\n2 1\n")

    def test_incomplete_tournament_rejected(self):
        with pytest.raises(ParseError):
            parse_tournament("3\nedges\n1 2\n")

    def test_comment_and_blank_lines_ignored(self):
        text = "# a triangle\n3\n\nedges\n1 2\n2 3\n3 1\n"
        assert parse_oriented_graph(text).edges == cyclic_triangle().edges

    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("3\nedges\n1 2\n2 3\n", 4),
            # a trailing comment is not the last line that counts
            ("3\nmatrix\n010\n000\n100\n# no 2 -> 3\n", 5),
        ],
    )
    def test_non_tournament_reports_its_line(self, text, line_no):
        assert parse_oriented_graph(text).n == 3
        with pytest.raises(ParseError, match="not a tournament") as exc:
            parse_tournament(text)
        assert exc.value.line_no == line_no
        assert str(exc.value).startswith(f"line {line_no}:")


def check_roundtrip(g):
    for style in STYLES:
        parsed = parse_oriented_graph(serialize_oriented_graph(g, style))
        assert parsed == g and parsed.inn == g.inn


class TestOrientedGraphRoundTrip:
    def test_seeded_random_graphs(self):
        rng = random.Random(0x5E41)
        for n in range(10):
            check_roundtrip(random_oriented_graph(n, rng))
            check_roundtrip(random_tournament(n, rng))

    def test_mask_built_graphs(self):
        rng = random.Random(0x5E42)
        for _ in range(6):
            g = random_labeled_graph(range(1, rng.randrange(4, 7)), 0.6, rng)
            t = reduce_graph(g).tournament
            check_roundtrip(t)
            pairs = [tuple(rng.sample(t.vertices, 2)) for _ in range(5)]
            check_roundtrip(t.flip_pairs(pairs))
            check_roundtrip(t.induced(rng.sample(t.vertices, t.n // 2)))

    def test_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def graphs(draw):
            n = draw(st.integers(0, 9))
            complete = draw(st.booleans())
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            # per pair: 0 no edge, 1 u -> v, 2 v -> u
            states = draw(
                st.lists(
                    st.integers(1 if complete else 0, 2),
                    min_size=len(pairs),
                    max_size=len(pairs),
                )
            )
            g = OrientedGraph(
                n,
                [(u, v) if s == 1 else (v, u) for (u, v), s in zip(pairs, states) if s],
            )
            if not complete or n < 2:
                return g
            flips = draw(st.lists(st.sampled_from(pairs), max_size=6))
            return parse_tournament(serialize_oriented_graph(g)).flip_pairs(flips)

        @hypothesis.settings(
            max_examples=200, deadline=None, derandomize=True, database=None
        )
        @hypothesis.given(graphs())
        def check(g):
            check_roundtrip(g)

        check()


class TestEdgeLineOrder:
    """An edge section is a set: the order of its lines changes neither
    the order of the parsed graph's ``edges`` nor a search that reads it."""

    def test_a_reordered_triangle_gives_the_pinned_flips(self):
        host = random_tournament(11, random.Random(0))
        flips = [(1, 3), (3, 6), (4, 6), (5, 6), (7, 8), (7, 10), (6, 11), (3, 4)]
        flips += [(2, 11), (5, 10)]
        for lines in itertools.permutations(["1 2", "2 3", "3 1"]):
            pattern = parse_oriented_graph("3\nedges\n" + "\n".join(lines) + "\n")
            assert distance_to_h_free(host, pattern).flips == tuple(flips)

    def test_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        host = random_tournament(5, random.Random(0))

        @hypothesis.settings(
            max_examples=200, deadline=None, derandomize=True, database=None
        )
        @hypothesis.given(st.randoms(use_true_random=False))
        def check(rng):
            g = random_oriented_graph(rng.randrange(1, 6), rng)
            text = serialize_oriented_graph(g)  # edge lines in sorted order
            lines = text.splitlines()
            body = lines[2:]
            rng.shuffle(body)
            g = parse_oriented_graph("\n".join(lines[:2] + body) + "\n")
            expected = parse_oriented_graph(text)
            assert list(g.edges) == list(expected.edges)
            # a node budget keeps patterns that embed everywhere cheap
            assert distance_to_h_free(host, g, node_budget=500) == distance_to_h_free(
                host, expected, node_budget=500
            )

        check()


class TestLabeledGraphFormat:
    def test_roundtrip(self):
        g = LabeledGraph([2, 5, 9], [(2, 9), (5, 9)])
        assert parse_labeled_graph("vertices: 2 5 9\n2 9\n5 9\n") == g
        assert parse_labeled_graph("# no edges\nvertices: 4\n") == LabeledGraph([4], [])

    def test_header_required(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_labeled_graph("2 5 9\n2 9\n")

    def test_edges_must_be_increasing(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_labeled_graph("vertices: 1 2\n2 1\n")

    def test_unknown_label(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_labeled_graph("vertices: 1 2\n1 3\n")

    def test_nonpositive_label_reported_on_the_header(self):
        with pytest.raises(ParseError, match="line 1: labels must be positive"):
            parse_labeled_graph("vertices: 0 1\n")

    def test_nonpositive_label_reported_before_an_edge_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_labeled_graph("vertices: -2 3\n0 1\n")

    def test_repeated_edge_line_is_rejected(self):
        with pytest.raises(ParseError, match=r"edge \(2,9\) given twice") as exc:
            parse_labeled_graph("vertices: 2 5 9\n2 9\n5 9\n# again\n2 9\n")
        assert exc.value.line_no == 5


class TestUndirectedFormat:
    def test_roundtrip(self):
        g = LabeledGraph(range(1, 5), [(1, 2), (2, 3), (1, 4)])
        assert parse_undirected_graph("4\n1 2\n2 3\n1 4\n") == g
        assert parse_undirected_graph("2\n") == LabeledGraph([1, 2], [])

    def test_normalizes_order(self):
        g = parse_undirected_graph("3\n2 1\n3 2\n")
        assert g.edges == frozenset({(1, 2), (2, 3)})

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_undirected_graph("3\n1 1\n")

    def test_out_of_range(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_undirected_graph("3\n1 2\n1 4\n")

    def test_repeated_edge_line_is_rejected(self):
        with pytest.raises(ParseError, match=r"edge \(1,2\) given twice") as exc:
            parse_undirected_graph("3\n1 2\n2 3\n1 2\n")
        assert exc.value.line_no == 4
        # j i is the edge i j
        with pytest.raises(ParseError, match=r"edge \(2,1\) given twice") as exc:
            parse_undirected_graph("3\n1 2\n2 1\n2 3\n")
        assert exc.value.line_no == 3


class TestKPartiteFormat:
    def test_roundtrip(self):
        f = KPartiteTournament(2, 2, [(1, 3), (3, 2), (2, 4), (4, 1)])
        parsed = parse_kpartite(serialize_kpartite(f))
        assert parsed.k == f.k and parsed.m == f.m
        assert set(parsed.cross_edges()) == set(f.cross_edges())

    def test_header_checked(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_kpartite("sizes: 2 2\n")

    @pytest.mark.parametrize("header", ["parts: 0 2", "parts: 2 1", "parts: 2 0"])
    def test_bad_part_shape_is_reported_on_the_header(self, header):
        with pytest.raises(ParseError, match=r"need k >= 2 parts") as exc:
            parse_kpartite(f"# shape\n{header}\n1.1 2.1\n1.1 1.2\n")
        assert exc.value.line_no == 2

    def test_endpoint_syntax(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_kpartite("parts: 2 2\n1:1 2:1\n")

    def test_missing_pairs_rejected(self):
        with pytest.raises(ParseError):
            parse_kpartite("parts: 2 2\n1.1 2.1\n")


def pad(rng, lines, target):
    """Interleave blank and comment lines at random; return the text and
    the line number that ``lines[target]`` lands on."""
    out = []
    for i, line in enumerate(lines):
        out.extend(rng.choice(["", "   ", "# note", "\t# x"]) for _ in range(rng.randrange(3)))
        if i == target:
            line_no = len(out) + 1
        out.append(line)
    out.extend("# end" for _ in range(rng.randrange(2)))
    return "\n".join(out) + "\n", line_no


def corrupt_oriented_graph(rng):
    """A serialized random oriented graph with one invalid edge line or
    matrix row; returns its lines and the index of the bad one."""
    n = rng.randrange(2, 8)
    g = random_oriented_graph(n, rng)
    if rng.randrange(2):
        lines = serialize_oriented_graph(g, "edges").splitlines()
        at = rng.randrange(2, len(lines) + 1)
        u = rng.randrange(1, n + 1)
        bad = [f"{u} {n + 1}", f"0 {u}", f"{u} {u}"]
        if at > 2:  # an earlier edge to reverse or to repeat
            a, b = lines[rng.randrange(2, at)].split()
            bad.extend([f"{b} {a}", f"{a} {b}"])
        lines.insert(at, rng.choice(bad))
        return lines, at
    lines = serialize_oriented_graph(g, "matrix").splitlines()
    # a 1 on the diagonal, or in a later row against an earlier row's 1
    fixes = [(i, i) for i in g.vertices] + [(v, u) for u, v in g.edges if u < v]
    i, j = rng.choice(fixes)
    row = lines[i + 1]
    lines[i + 1] = row[: j - 1] + "1" + row[j:]
    return lines, i + 1


def corrupt_kpartite(rng):
    """A serialized random k-partite tournament with one invalid cross-edge
    line inserted; returns its lines and the index of the bad one."""
    k, m = rng.randrange(2, 4), rng.randrange(1, 4)
    edges = [
        (u, v) if rng.randrange(2) else (v, u)
        for u, v in itertools.combinations(range(1, k * m + 1), 2)
        if (u - 1) // m != (v - 1) // m
    ]
    lines = serialize_kpartite(KPartiteTournament(k, m, edges)).splitlines()
    at = rng.randrange(1, len(lines) + 1)
    p, a = rng.randrange(1, k + 1), rng.randrange(1, m + 1)
    bad = [f"{p}.{a} {p}.{a}", f"{p}.{a} {k + 1}.1"]
    if m >= 2:
        bad.append(f"{p}.{a} {p}.{a % m + 1}")  # an inner pair
    if at > 1:  # an earlier cross edge, given twice or reversed
        x, y = lines[rng.randrange(1, at)].split()
        bad.extend([f"{x} {y}", f"{y} {x}"])
    lines.insert(at, rng.choice(bad))
    return lines, at


class TestEdgeErrorLines:
    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("3\nedges\n1 5\n1 2\n2 3\n", 3),  # a vertex out of range
            ("3\nedges\n1 2\n2 2\n2 3\n", 4),  # a loop
            ("3\nedges\n1 2\n2 3\n2 1\n1 3\n", 5),  # both directions
            ("3\nmatrix\n011\n101\n000\n", 4),  # both directions, row 2
            ("3\nedges\n1 2\n2 3\n# again\n1 2\n", 6),  # an edge given twice
        ],
    )
    def test_oriented_graph(self, text, line_no):
        with pytest.raises(ParseError) as exc:
            parse_oriented_graph(text)
        assert exc.value.line_no == line_no

    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("parts: 2 2\n1.1 1.2\n1.1 2.1\n1.1 2.2\n1.2 2.1\n1.2 2.2\n", 2),
            ("parts: 2 2\n1.1 2.1\n1.1 2.2\n1.1 2.1\n1.2 2.1\n1.2 2.2\n", 4),
            ("parts: 2 2\n1.1 2.1\n2.1 1.1\n1.1 2.2\n1.2 2.1\n1.2 2.2\n", 3),
        ],
    )
    def test_kpartite(self, text, line_no):
        with pytest.raises(ParseError) as exc:
            parse_kpartite(text)
        assert exc.value.line_no == line_no

    def test_end_of_input_errors_stay_on_the_last_line(self):
        with pytest.raises(ParseError, match="expected 4") as exc:
            parse_kpartite("parts: 2 2\n1.1 2.1\n1.1 2.2\n# done\n")
        assert exc.value.line_no == 3
        with pytest.raises(ParseError, match="not a tournament") as exc:
            parse_tournament("3\nedges\n1 2\n2 3\n# done\n")
        assert exc.value.line_no == 4

    def test_repeated_edge_line_is_rejected(self):
        with pytest.raises(ParseError, match=r"edge \(2,3\) given twice") as exc:
            parse_oriented_graph("3\nedges\n2 3\n1 2\n2 3\n3 1\n")
        assert exc.value.line_no == 5
        # the first repeat, in input order, before a later bad edge
        with pytest.raises(ParseError, match="given twice") as exc:
            parse_oriented_graph("3\nedges\n1 2\n1 2\n3 3\n")
        assert exc.value.line_no == 4

    def test_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(
            max_examples=300, deadline=None, derandomize=True, database=None
        )
        @hypothesis.given(st.randoms(use_true_random=False), st.booleans())
        def check(rng, kpartite):
            if kpartite:
                lines, at = corrupt_kpartite(rng)
                parse = parse_kpartite
            else:
                lines, at = corrupt_oriented_graph(rng)
                parse = parse_oriented_graph
            text, line_no = pad(rng, lines, at)
            with pytest.raises(ParseError) as exc:
                parse(text)
            assert exc.value.line_no == line_no
            assert str(exc.value).startswith(f"line {line_no}:")

        check()

