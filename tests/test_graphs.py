"""Graph container, parsers, and constructions."""

import numpy as np
import pytest

import thetaiso as th
from thetaiso.graphs import parse_graph, parse_dimacs, parse_graph_text


def test_graph_basics():
    g = th.Graph(4, [(0, 1), (2, 1), (1, 2)])
    assert g.n == 4
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert g.num_edges == 2
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


def test_graph_equality_and_hash():
    a = th.Graph(3, [(0, 1)])
    b = th.Graph(3, [(1, 0)])
    c = th.Graph(3, [(0, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != c


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


def test_vertex_pair_index():
    idx = th.VertexPairIndex(4)
    assert idx.size == 17
    assert idx.omega == 16
    seen = set()
    for i in range(4):
        for j in range(4):
            f = idx.index(i, j)
            assert idx.pair(f) == (i, j)
            seen.add(f)
    assert seen == set(range(16))
    with pytest.raises(ValueError):
        idx.index(4, 0)
    assert idx.pair(idx.omega) is None
    with pytest.raises(ValueError):
        idx.pair(17)


def test_association_graph_small():
    # K2 vs empty-on-2: every pair of assignments conflicts either by a
    # shared vertex or by the edge/non-edge mismatch, so the association
    # graph on the 4 pair-vertices is complete.
    g = th.association_graph(th.complete_graph(2), th.empty_graph(2))
    assert g.n == 4
    assert g.num_edges == 6

    # identical K2: (0,0)-(1,1) and (0,1)-(1,0) are compatible
    h = th.association_graph(th.complete_graph(2), th.complete_graph(2))
    assert h.num_edges == 4
    idx = th.VertexPairIndex(2)
    assert not h.has_edge(idx.index(0, 0), idx.index(1, 1))
    assert not h.has_edge(idx.index(0, 1), idx.index(1, 0))
