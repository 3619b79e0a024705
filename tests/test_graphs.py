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

    def test_complement_is_every_non_edge(self):
        rng = random.Random(1904)
        for n in (0, 1, 2, 30, 61):
            for p in (0.0, 0.2, 0.7, 1.0):
                g = random_graph(n, p, rng)
                h = g.complement()
                assert h.edges() == [e for e in itertools.combinations(range(n), 2)
                                     if not g.has_edge(*e)], (n, p)
                assert h.complement().edges() == g.edges(), (n, p)

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
    lambda: Graph(600).complement(),
], ids=["split-1000", "complete-300", "near-1500", "complement-600"])
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


def reference_parse_edge_list(text):
    """The reader as it was before it read a chunk at a time: every
    stripped, non-blank line in one list, the edge count checked against
    that list, then the pairs fed to `Graph`.  Kept as the reference for
    the graph read and for every error, its type, its text and which
    fault is reported first."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'n m', got {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(lines) - 1}")

    def pairs():
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise ValueError(f"edge line must be 'u v', got {ln!r}")
            yield int(parts[0]), int(parts[1])
    return Graph(n, pairs())


def read_outcome(parse, text):
    """(n, edges) of the graph read, or (type, text) of the error raised."""
    try:
        g = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return g.n, g.edges()


def edge_text(n, edges, sep="\n", count=None):
    lines = [f"{n} {len(edges) if count is None else count}"] + [f"{u} {v}" for u, v in edges]
    return sep.join(lines) + sep


SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029"]


def reader_corpus():
    """Edge-list texts, valid and faulty, on which the reader must act as
    the reference does."""
    (mark,) = TestInsertLoop.test_every_path_gives_the_same_error.pytestmark
    for edges, _ in mark.args[1]:
        yield edge_text(4, edges)
    yield edge_text(0, [(0, 0)])
    # the first bad line wins, malformed or an invalid edge
    yield "3 2\n1 1\n0 1 2\n"
    yield "3 2\n0 1 2\n1 1\n"
    # a wrong edge count wins over a bad edge, a malformed line, a
    # non-integer token and an order `Graph` refuses
    yield "3 3\n0 1\n1 1\n"
    yield "3 1\n0 1\n0 1\n"
    yield "3 3\n0 1 2\n"
    yield "3 2\n0 x\n"
    yield "3 0\n0 5\n"
    yield "-1 1\n"
    yield "-1 0\n0 1\n"
    # non-integer tokens with the right count
    yield "3 1\nx 1\n"
    yield "3 1\n0 1.5\n"
    yield "3 1\n0 0x1\n"
    # blank and whitespace-only lines, and every line separator
    rng = random.Random(2901)
    g = random_graph(9, 0.4, rng)
    for sep in SEPARATORS:
        yield edge_text(g.n, g.edges(), sep)
        yield f"{sep} \t{sep}" + edge_text(g.n, g.edges(), f"  {sep}{sep}\t{sep}")
    yield "".join(f"{u} {v}{rng.choice(SEPARATORS)}"
                  for u, v in [(9, g.m)] + g.edges())
    yield "5 2\r\n0 1\r\n\r\n\r\n1 2\r\n"
    yield "5 2\n\r0 1\n\r1 2"
    yield "5 1\n0 1\n1 2 3"
    # bad headers, empty input, the empty graph and a negative order
    yield "3\n"
    yield "3\n0 1\n"
    yield "3 2 1\n0 1\n"
    yield "x 1\n0 1\n"
    yield "3 y\n"
    yield ""
    yield " \n\t\r\n\x0c"
    yield "0 0\n"
    yield "-2 0\n"


class TestReader:
    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, graphs._CHUNK])
    def test_corpus_matches_the_reference(self, chunk, monkeypatch):
        # Small chunks put a boundary at every position of the corpus.
        monkeypatch.setattr(graphs, "_CHUNK", chunk)
        count = 0
        for text in reader_corpus():
            want = read_outcome(reference_parse_edge_list, text)
            assert read_outcome(parse_edge_list, text) == want, text
            count += 1
        assert count > 40

    def test_faults_keep_their_order(self):
        # The count error, then the order, then the first bad line.
        for text, msg in [("3 3\n0 1\n1 1\n", "header promises 3 edges, found 2"),
                          ("-1 1\n", "header promises 1 edges, found 0"),
                          ("-1 0\n", "order must be a non-negative integer, got -1"),
                          ("3 2\n1 1\n0 1 2\n", "loop at vertex 1 not allowed"),
                          ("3 1\nx 1\n", "invalid literal for int() with base 10: 'x'")]:
            assert read_outcome(parse_edge_list, text)[1] == msg, text

    def test_separators_across_the_real_chunk_boundary(self):
        # Input longer than one chunk, shifted one character at a time so
        # that a "\r\n" and a blank line each straddle the boundary.
        rng = random.Random(2902)
        g = random_graph(300, 0.2, rng)
        body = "".join(f"{u} {v}\r\n" + ("\r\n \n" if i % 2 else "")
                       for i, (u, v) in enumerate(g.edges()))
        straddles = set()
        for pad in range(24):
            text = f"{g.n} {g.m}" + " " * pad + "\r\n" + body
            assert len(text) > graphs._CHUNK
            straddles.add(text[graphs._CHUNK - 1:graphs._CHUNK + 1])
            want = read_outcome(reference_parse_edge_list, text)
            assert read_outcome(parse_edge_list, text) == want == (g.n, g.edges()), pad
        assert {"\r\n", "\n\r", "\n "} <= straddles

    def test_order_above_the_vertex_limit(self, monkeypatch):
        monkeypatch.setattr(graphs, "HARD_VERTEX_LIMIT", 4)
        for text in ["4 1\n0 3\n", "5 0\n", "5 1\n0 1\n", "5 1\n", "5 0\n0 1\n"]:
            want = read_outcome(reference_parse_edge_list, text)
            assert read_outcome(parse_edge_list, text) == want, text
        assert read_outcome(parse_edge_list, "5 1\n0 1\n") == (
            DomainError, "5 vertices above the graph limit 4")

    def test_read_graph_shares_one_int_per_vertex(self):
        # int() makes a new object per token above 256; the reader takes
        # both endpoints from one list of vertices instead.
        g = random_graph(1000, 0.02, random.Random(2903))
        h = parse_edge_list(format_edge_list(g))
        assert h.edges() == g.edges()
        assert len({id(x) for s in h._adj for x in s}) <= h.n
