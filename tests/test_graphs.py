"""Graph container, parsers, and constructions."""

import numpy as np
import pytest

import thetaiso as th
from thetaiso.graphs import parse_graph, parse_dimacs, parse_graph_text


def test_graph_basics():
    g = th.Graph(4, [(0, 1), (2, 1), (1, 2), (1, 0)])
    # A graph is its adjacency: the edge count and equality read it, and the
    # edge set is read off it on first use, normalised (i < j, no repeats).
    assert set(vars(g)) == {"n", "adjacency"}
    assert g.n == 4
    assert g.num_edges == 2 and type(g.num_edges) is int
    assert g == th.Graph(4, [(1, 2), (0, 1)])
    assert "edges" not in vars(g)
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert g.edges is g.edges
    with pytest.raises(AttributeError):
        g.edges = frozenset()
    with pytest.raises(AttributeError):
        g.n = 5
    assert g.has_edge(1, 0) and g.has_edge(1, 2)
    assert not g.has_edge(0, 2)
    assert g.degrees() == (1, 2, 1, 0)
    assert g.adjacency.dtype == bool
    assert (g.adjacency == g.adjacency.T).all()
    assert not g.adjacency.flags.writeable


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        th.Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        th.Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        th.Graph(3, [(-1, 0)])
    with pytest.raises(ValueError):
        th.Graph(0, [])
    # A vertex id must be an integer; numpy would reject 0.5 and 1.0 only as
    # indices, with an IndexError that names no value.
    for edge, value in [((0.5, 1), "0.5"), ((1.0, 2.0), "1.0"), ((0, "1"), "'1'")]:
        with pytest.raises(ValueError, match=f"vertex id {value} is not an integer"):
            th.Graph(3, [edge])
    assert th.Graph(3, [(np.int64(0), np.int32(2))]).edges == frozenset({(0, 2)})
    # So must the vertex count, which numpy would reject with a TypeError.
    for n, value in [(3.0, "3.0"), ("3", "'3'"), (None, "None")]:
        with pytest.raises(ValueError, match=f"vertex count {value} is not an integer"):
            th.Graph(n)
    assert type(th.Graph(np.int64(3)).n) is int


def test_has_edge_rejects_a_vertex_outside_the_graph():
    # numpy would wrap -1 round to vertex 3 and answer True for the edge
    # (3, 2), and reject 4 and 0.5 with an IndexError that names no value.
    g = th.path_graph(4)
    for i, j in [(-1, 2), (2, -1), (4, 0), (0, 4)]:
        with pytest.raises(ValueError, match="out of range for n=4"):
            g.has_edge(i, j)
    with pytest.raises(ValueError, match="vertex id 0.5 is not an integer"):
        g.has_edge(0.5, 1)
    assert g.has_edge(np.int64(3), 2) and not g.has_edge(0, 3)


def test_graph_equality_and_hash():
    a = th.Graph(3, [(0, 1)])
    b = th.Graph(3, [(1, 0)])
    c = th.Graph(3, [(0, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != c
    # Equal graphs from different edge orders hash alike, and neither the
    # hash nor == builds the edge set.
    d = th.Graph(5, [(0, 1), (2, 3), (1, 2), (4, 0)])
    e = th.Graph(5, [(3, 2), (0, 4), (2, 1), (1, 0), (0, 1)])
    assert d == e and hash(d) == hash(e)
    assert d != th.Graph(4, [(0, 1), (2, 3), (1, 2)])
    assert "edges" not in vars(d) and "edges" not in vars(e)


def test_parse_edge_list():
    text = "# a comment\n4 3\n0 1\n\n1 2\n2 3\n"
    g = parse_graph(text)
    assert g.n == 4
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 3)})


def test_parse_edge_list_duplicates_collapse():
    g = parse_graph("3 3\n0 1\n1 0\n1 2\n")
    assert g.num_edges == 2


@pytest.mark.parametrize("text,fragment", [
    ("", "empty"),
    ("4\n0 1\n", "header"),
    ("x y\n0 1\n", "header"),
    ("2 1\n0 2\n", "line 2"),
    ("2 1\n0 0\n", "line 2"),
    ("2 1\n0 1\n1 0\n", "line 3"),
    ("3 2\n0 1\n", "expected 2 edge lines"),
    ("2 1\n0 1 junk\n", "line 2"),
    # int() reads these; a graph file means none of them.
    ("12 1\n0 1_0\n", "line 2: non-integer edge line"),
    ("12 1\n0 \u0661\n", "line 2: non-integer edge line"),
    ("1_2 1\n0 1\n", "line 1: non-integer header"),
    ("12 1\n+0 1\n", "line 2: non-integer edge line"),
    ("12 1\n0 1.0\n", "line 2: non-integer edge line"),
    # A leading '-' still parses, so these keep their own messages.
    ("2 -1\n", "edge count must be nonnegative, got -1"),
    ("2 1\n-1 0\n", "vertex id out of range in (-1,0)"),
])
def test_parse_edge_list_errors(text, fragment):
    with pytest.raises(th.GraphParseError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


def test_parse_dimacs():
    text = "c comment line\np edge 4 2\ne 1 2\ne 3 4\n"
    g = parse_dimacs(text)
    assert g.n == 4
    assert g.edges == frozenset({(0, 1), (2, 3)})


def test_parse_dimacs_errors():
    with pytest.raises(th.GraphParseError):
        parse_dimacs("p edge 2 1\ne 0 1\n")  # 1-based indices required
    with pytest.raises(th.GraphParseError):
        parse_dimacs("e 1 2\n")  # missing problem line
    with pytest.raises(th.GraphParseError, match="expected 3 edge lines, found 1"):
        parse_graph_text("p edge 4 3\ne 1 2\n")  # truncated, like the edge-list dialect
    with pytest.raises(th.GraphParseError, match="edge count must be nonnegative"):
        parse_dimacs("p edge 2 -1\n")
    with pytest.raises(th.GraphParseError, match="out of range in \\(-1,2\\)"):
        parse_dimacs("p edge 2 1\ne -1 2\n")
    # Tokens int() reads but a graph file does not mean: '1_0' would read 10
    # and the Arabic-Indic digits 3 and 1.
    for text, what in [("p edge 12 1\ne 1 1_0\n", "line 2: non-integer edge line"),
                       ("p edge \u0663 0\n", "line 1: non-integer problem line"),
                       ("p edge 3 1\ne 1 \u0661\n", "line 2: non-integer edge line")]:
        with pytest.raises(th.GraphParseError, match=what):
            parse_dimacs(text)
    # Each edge listed in both directions is still one declared edge.
    assert parse_dimacs("p edge 3 2\ne 1 2\ne 2 1\ne 2 3\ne 3 2\n") == th.path_graph(3)


def test_parse_sniffs_format():
    dimacs = "p edge 3 1\ne 1 3\n"
    plain = "3 1\n0 2\n"
    assert parse_graph_text(dimacs) == parse_graph_text(plain)


def test_dimacs_accepts_hash_comments():
    # parse_graph_text skips '#' lines while sniffing, so the DIMACS parser
    # it hands the text to must skip them too.
    text = "# hi\n\np edge 2 1\n# between\ne 1 2\n"
    assert parse_graph_text(text) == th.Graph(2, [(0, 1)])
    assert parse_dimacs(text) == th.Graph(2, [(0, 1)])


def test_load_graph_roundtrip(tmp_path):
    g = th.petersen_graph()
    path = tmp_path / "g.txt"
    lines = [f"{g.n} {g.num_edges}"] + [f"{a} {b}" for a, b in sorted(g.edges)]
    path.write_text("\n".join(lines) + "\n")
    assert th.load_graph(str(path)) == g


def test_complement():
    g = th.path_graph(3)
    gc = th.complement(g)
    assert gc.edges == frozenset({(0, 2)})
    assert th.complement(gc) == g
    n = 7
    g = th.cycle_graph(n)
    assert g.num_edges + th.complement(g).num_edges == n * (n - 1) // 2


def test_relabel_is_isomorphic():
    g = th.cycle_graph(6)
    sigma = (2, 4, 0, 5, 1, 3)
    h = th.relabel(g, sigma)
    assert th.is_isomorphism(sigma, g, h)
    assert sorted(g.degrees()) == sorted(h.degrees())


def test_disjoint_union():
    g = th.disjoint_union(th.cycle_graph(3), th.path_graph(2))
    assert g.n == 5
    assert g.edges == frozenset({(0, 1), (0, 2), (1, 2), (3, 4)})


def test_constructors():
    assert th.empty_graph(3).num_edges == 0
    assert th.complete_graph(5).num_edges == 10
    assert th.cycle_graph(4).degrees() == (2, 2, 2, 2)
    with pytest.raises(ValueError):
        th.cycle_graph(2)
    assert th.path_graph(5).num_edges == 4
    star = th.star_graph(6)
    assert star.degrees()[0] == 5
    assert sorted(star.degrees()) == [1, 1, 1, 1, 1, 5]


def test_petersen_properties():
    g = th.petersen_graph()
    assert g.n == 10
    assert g.num_edges == 15
    assert set(g.degrees()) == {3}
    # strongly regular with parameters (10, 3, 0, 1): adjacent vertices
    # share no neighbor, non-adjacent share exactly one, so A^2 = 2I + J - A
    A = g.adjacency.astype(int)
    I = np.eye(10, dtype=int)
    J = np.ones((10, 10), dtype=int)
    assert np.array_equal(A @ A, 2 * I + J - A)


def test_association_graph_small():
    # K2 vs empty-on-2: every pair of assignments conflicts either by a
    # shared vertex or by the edge/non-edge mismatch, so the association
    # graph on the 4 pair-vertices is complete.
    g = th.association_graph(th.complete_graph(2), th.empty_graph(2))
    assert g.n == 4
    assert g.num_edges == 6

    # identical K2: (0,0)-(1,1) and (0,1)-(1,0) are compatible; pair (i,j)
    # is vertex 2i + j
    h = th.association_graph(th.complete_graph(2), th.complete_graph(2))
    assert h.num_edges == 4
    assert not h.has_edge(0, 3)
    assert not h.has_edge(1, 2)
