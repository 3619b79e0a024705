"""The checked insert paths of `Graph`, pairs and rows, and the edge-list writer."""

import itertools
import random
from fractions import Fraction

import pytest

from degreeintervals import (
    DomainError,
    Graph,
    build_near_extremal,
    build_split_extremal,
    format_edge_list,
    parse_edge_list,
    realize,
)
from degreeintervals import graphs
from degreeintervals.graphs import _edge_list_rows
from test_extremal import split_parity_ok


def reference_format_edge_list(g):
    """The writer as it was before it wrote a vertex at a time: every edge
    sorted as a tuple, then one f-string per edge.  Kept as the reference
    for the bytes of `format_edge_list`."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def random_graph(n, p, rng, isolated=0):
    """G(n, p) with the first `isolated` vertices of a random order kept
    isolated, the edges given in random order and orientation."""
    keep_out = set(rng.sample(range(n), min(isolated, n)))
    edges = [(u, v) if rng.random() < 0.5 else (v, u)
             for u, v in itertools.combinations(range(n), 2)
             if u not in keep_out and v not in keep_out and rng.random() < p]
    rng.shuffle(edges)
    return Graph(n, edges)


def small_constructions():
    """Every graph the construction tests of test_extremal.py build at small n."""
    for n in range(3, 11):
        for m in range(1, n * (n - 1) // 2):
            if split_parity_ok(n, m):
                yield build_split_extremal(n, m).graph
    for n, m, dp in [(4, 3, 3), (10, 27, 8), (10, 12, Fraction(15, 2)), (12, 18, 9),
                     (10, 25, Fraction(17, 2)), (12, 36, Fraction(51, 5)),
                     (10, 12, 9), (12, 18, Fraction(54, 5)), (30, 100, 20.0),
                     (40, 200, 25.5), (50, 300, 40.0), (50, 312, 30.0)]:
        yield build_near_extremal(n, m, dp).graph


class TestWriter:
    def test_random_graphs_match_the_reference(self):
        rng = random.Random(1901)
        for n in range(41):
            for p in (0.0, 0.1, 0.5, 0.9, 1.0):
                for isolated in (0, 1, n // 3):
                    g = random_graph(n, p, rng, isolated)
                    assert format_edge_list(g) == reference_format_edge_list(g), (n, p, isolated)

    def test_constructions_match_the_reference(self):
        count = 0
        for g in small_constructions():
            assert format_edge_list(g) == reference_format_edge_list(g), g
            count += 1
        assert count > 20

    def test_complete_complement_and_realize_match_the_reference(self):
        rng = random.Random(1902)
        for n in range(12):
            g = random_graph(n, 0.4, rng)
            for h in (Graph.complete(n), g.complement(), realize(g.degrees())):
                assert format_edge_list(h) == reference_format_edge_list(h), n

    def test_rows_join_to_the_writer(self):
        rng = random.Random(1903)
        graphs = [random_graph(n, 0.3, rng, n // 4) for n in range(25)]
        for g in itertools.chain(graphs, small_constructions()):
            rows = list(_edge_list_rows(g))
            assert all(row.endswith("\n") for row in rows), g
            assert "".join(rows) == format_edge_list(g) == reference_format_edge_list(g), g


@pytest.mark.parametrize("build", [
    lambda: build_split_extremal(1000, 249750).graph,
    lambda: Graph.complete(300),
    lambda: build_near_extremal(1500, 500000, 1200).graph,
], ids=["split-1000", "complete-300", "near-1500"])
def test_row_insert_shares_one_int_per_vertex(build):
    # Iterating a range makes a new int for every entry above 256; the
    # row insert slices its one list of vertices instead.
    g = build()
    assert len({id(x) for s in g._adj for x in s}) <= g.n


def error_texts(n, edges):
    """The ValueError text from building in one call, from parsing the
    edge list and from `add_edge` one edge at a time."""
    texts = []
    with pytest.raises(ValueError) as one_call:
        Graph(n, edges)
    texts.append(str(one_call.value))
    text = "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])
    with pytest.raises(ValueError) as parsed:
        parse_edge_list(text)
    texts.append(str(parsed.value))
    g = Graph(n)
    with pytest.raises(ValueError) as by_edge:
        for u, v in edges:
            g.add_edge(u, v)
    texts.append(str(by_edge.value))
    return texts


class TestInsertLoop:
    @pytest.mark.parametrize("edges, text", [
        ([(0, 1), (2, 4)], "edge (2, 4) outside vertex range 0..3"),
        ([(4, 0)], "edge (4, 0) outside vertex range 0..3"),
        ([(0, 1), (-1, 2)], "edge (-1, 2) outside vertex range 0..3"),
        ([(1, -3)], "edge (1, -3) outside vertex range 0..3"),
        ([(0, 1), (2, 2)], "loop at vertex 2 not allowed"),
        ([(0, 1), (1, 2), (0, 1)], "duplicate edge (0, 1)"),
        ([(0, 1), (1, 0)], "duplicate edge (1, 0)"),
        ([(2, 3), (0, 1), (3, 2)], "duplicate edge (3, 2)"),
    ])
    def test_every_path_gives_the_same_error(self, edges, text):
        assert error_texts(4, edges) == [text] * 3

    def test_vertex_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(graphs, "HARD_VERTEX_LIMIT", 4)
        assert Graph(4).n == 4
        with pytest.raises(DomainError, match="^5 vertices above the graph limit 4$"):
            Graph(5)

    def test_empty_order_rejects_every_edge(self):
        assert error_texts(0, [(0, 0)]) == ["edge (0, 0) outside vertex range 0..-1"] * 3

    @pytest.mark.parametrize("v", [-1, -3, 3, 4])
    def test_vertex_reads_check_the_range(self, v):
        # A negative index would read a vertex from the end of the adjacency list.
        g = Graph(3, [(0, 1)])
        for read in (g.degree, g.neighbors):
            with pytest.raises(ValueError, match=f"^vertex {v} outside vertex range 0..2$"):
                read(v)
        assert (g.degree(0), g.neighbors(0), g.degree(2), g.neighbors(2)) == (1, {1}, 0, set())

    def test_first_bad_line_is_reported(self):
        # a loop before a malformed line: the loop is the first fault
        with pytest.raises(ValueError, match="loop at vertex 1"):
            parse_edge_list("3 2\n1 1\n0 1 2\n")
        with pytest.raises(ValueError, match="edge line must be 'u v'"):
            parse_edge_list("3 2\n0 1 2\n1 1\n")

    def test_one_call_equals_edge_by_edge_in_any_order(self):
        rng = random.Random(1904)
        for n in range(25):
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3]
            whole = Graph(n, edges)
            shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
            rng.shuffle(shuffled)
            piecewise = Graph(n)
            for u, v in shuffled:
                piecewise.add_edge(u, v)
            assert whole.edges() == piecewise.edges() == sorted(edges), n
            assert whole.degrees() == piecewise.degrees(), n

    def test_complete_and_complement(self):
        for n in range(8):
            k = Graph.complete(n)
            assert k.m == n * (n - 1) // 2
            assert k.complement().m == 0
            assert Graph(n).complement().edges() == k.edges()


def row_error_text(n, rows):
    """The ValueError text from inserting `rows` in one `_add_rows` call."""
    g = Graph(n)
    with pytest.raises(ValueError) as raised:
        g._add_rows(rows)
    return str(raised.value)


def random_rows(edges, rng):
    """The edges as rows (u, vs) in random orientation, each vertex's
    neighbours cut into random chunks, the rows shuffled, and a chunk of
    consecutive vertices given as a range."""
    by_vertex = {}
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        by_vertex.setdefault(u, []).append(v)
    rows = []
    for u, vs in by_vertex.items():
        rng.shuffle(vs)
        while vs:
            cut = rng.randint(1, len(vs))
            chunk, vs = vs[:cut], vs[cut:]
            if len(chunk) > 1 and rng.random() < 0.5:
                chunk.sort()
                if chunk == list(range(chunk[0], chunk[-1] + 1)):
                    chunk = range(chunk[0], chunk[-1] + 1)
            rows.append((u, chunk))
    rng.shuffle(rows)
    return rows


class TestRowInsert:
    @pytest.mark.parametrize("rows, text", [
        ([(0, [1]), (2, [4])], "edge (2, 4) outside vertex range 0..3"),
        ([(4, range(0, 2))], "edge (4, 0) outside vertex range 0..3"),
        ([(0, [1]), (-1, [2])], "edge (-1, 2) outside vertex range 0..3"),
        ([(1, [0, -3])], "edge (1, -3) outside vertex range 0..3"),
        ([(0, [1]), (2, [3, 2, 1])], "loop at vertex 2 not allowed"),
        ([(2, range(1, 4))], "loop at vertex 2 not allowed"),
        ([(0, [2, 1, 2, 3])], "duplicate edge (0, 2)"),
        ([(0, range(1, 3)), (1, [3]), (0, [3, 1])], "duplicate edge (0, 1)"),
        ([(0, [1, 2]), (1, [0])], "duplicate edge (1, 0)"),
        ([(2, [3]), (0, [1]), (3, range(0, 3))], "duplicate edge (3, 2)"),
        ([(0, range(2, 6))], "edge (0, 4) outside vertex range 0..3"),
        ([(0, range(1, 4, 2)), (1, range(3, -1, -2))], "loop at vertex 1 not allowed"),
        ([(3, range(0, 3, 2)), (2, range(3, 4))], "duplicate edge (2, 3)"),
    ])
    def test_rows_give_the_pair_loop_error(self, rows, text):
        pairs = [(u, v) for u, vs in rows for v in vs]
        assert row_error_text(4, rows) == text
        assert error_texts(4, pairs) == [text] * 3

    def test_empty_order_rejects_every_row(self):
        text = "edge (0, 0) outside vertex range 0..-1"
        assert row_error_text(0, [(0, [0])]) == text
        assert row_error_text(0, [(0, range(1))]) == text
        assert row_error_text(0, [(-1, [0])]) == "edge (-1, 0) outside vertex range 0..-1"

    def test_rows_equal_pairs_in_any_order(self):
        rng = random.Random(2001)
        for n in range(30):
            for p in (0.0, 0.3, 1.0):
                edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
                by_rows = Graph(n)
                by_rows._add_rows(random_rows(edges, rng))
                shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
                rng.shuffle(shuffled)
                by_pairs = Graph(n, shuffled)
                assert by_rows.edges() == by_pairs.edges() == edges, (n, p)
                assert by_rows.degrees() == by_pairs.degrees(), (n, p)
