"""Simple undirected graphs, file parsing, and the conflicts of a graph pair.

Vertices are 0-based integers.  A graph is its adjacency table; the edge set
is read off that table on first use.  Graphs are immutable after
construction and safe to share between threads (two threads that read the
edge set first at once may each build it, equal both times).
``conflict_pairs`` is the one definition of which assignment pairs
conflict; the association graph, the compiled program and the feasibility
check all read it.
"""

from __future__ import annotations

import operator
import re
from functools import cached_property

import numpy as np

from .oracle import is_permutation, pair_order

__all__ = [
    "Graph",
    "GraphParseError",
    "parse_graph",
    "parse_dimacs",
    "parse_graph_text",
    "load_graph",
    "complement",
    "conflict_pairs",
    "association_graph",
    "relabel",
    "empty_graph",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "disjoint_union",
    "petersen_graph",
]


class GraphParseError(ValueError):
    """Malformed graph input.  Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Stored as a symmetric, read-only boolean adjacency table.  ``edges``,
    the set of vertex pairs (i, j) with i < j, is read off that table the
    first time it is asked for.  The vertex count and vertex ids must be
    integers (int or numpy integer, not bool); self-loops are rejected.
    """

    def __init__(self, n, edges=()):
        n = _vertex(n, "vertex count")
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        adj = np.zeros((n, n), dtype=bool)
        for i, j in edges:
            i, j = _vertex(i), _vertex(j)
            if i == j:
                raise ValueError(f"self-loop ({i},{i}) not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
            adj[i, j] = adj[j, i] = True
        adj.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adjacency", adj)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @cached_property
    def edges(self):
        i, j = np.nonzero(np.triu(self.adjacency, 1))
        return frozenset(zip(i.tolist(), j.tolist()))

    def has_edge(self, i, j):
        i, j = _vertex(i), _vertex(j)
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"vertex pair ({i},{j}) out of range for n={self.n}")
        return bool(self.adjacency[i, j])

    def degrees(self):
        """Vertex degrees as a tuple of ints."""
        return tuple(int(d) for d in self.adjacency.sum(axis=1))

    @property
    def num_edges(self):
        return int(np.count_nonzero(self.adjacency)) // 2

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.adjacency, other.adjacency)

    def __hash__(self):
        return hash((self.n, self.adjacency.tobytes()))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges})"


def _vertex(v, what="vertex id"):
    """v as an int if it is an integer (int or numpy integer, not a bool);
    else a ValueError that names it as what."""
    if type(v) is bool:
        raise ValueError(f"{what} {v!r} is not an integer")
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"{what} {v!r} is not an integer") from None


_INTEGER_TOKEN = re.compile(r"-?[0-9]+")


def _integers(tokens, what, line, lineno):
    """The tokens of a graph file line as ints.  Each must be ASCII decimal
    digits with an optional leading '-': int() would also read '1_0' or
    non-ASCII digits, which no graph file means."""
    values = [int(t) for t in tokens if _INTEGER_TOKEN.fullmatch(t)]
    if len(values) != len(tokens):
        raise GraphParseError(f"non-integer {what} {line!r}", lineno)
    return values


def _data_lines(text, comment_chars):
    """Yield (line_number, stripped_line) skipping blanks and comments."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in comment_chars:
            continue
        yield lineno, line


def parse_graph(text):
    """Parse the plain edge-list dialect.

    The first non-comment line is "n m"; the following m lines each hold one
    edge "i j" with distinct endpoints in [0, n).  Lines starting with '#' and
    blank lines are ignored.  Duplicate edges collapse.
    """
    lines = _data_lines(text, "#")
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise GraphParseError("empty input: expected 'n m' header") from None
    parts = header.split()
    if len(parts) != 2:
        raise GraphParseError(f"expected 'n m' header, got {header!r}", lineno)
    n, m = _integers(parts, "header", header, lineno)
    if n < 1:
        raise GraphParseError(f"vertex count must be positive, got {n}", lineno)
    if m < 0:
        raise GraphParseError(f"edge count must be nonnegative, got {m}", lineno)

    edges = []
    count = 0
    for lineno, line in lines:
        if count >= m:
            raise GraphParseError(f"unexpected extra line {line!r}", lineno)
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected 'i j' edge line, got {line!r}", lineno)
        i, j = _integers(parts, "edge line", line, lineno)
        if i == j:
            raise GraphParseError(f"self-loop ({i},{j}) not allowed", lineno)
        if not (0 <= i < n and 0 <= j < n):
            raise GraphParseError(f"vertex id out of range in ({i},{j}), n={n}", lineno)
        edges.append((i, j))
        count += 1
    if count < m:
        raise GraphParseError(f"expected {m} edge lines, found {count}")
    return Graph(n, edges)


def parse_dimacs(text):
    """Parse the DIMACS dialect: "p edge n m" then m lines "e i j", 1-based.

    Lines starting with 'c' or '#' and blank lines are ignored.  A file may
    list each edge in both directions, so it needs at least m "e" lines and
    at most m distinct edges.
    """
    n = None
    edges = []
    declared = 0
    for lineno, line in _data_lines(text, "c#"):
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphParseError("duplicate problem line", lineno)
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphParseError(f"expected 'p edge n m', got {line!r}", lineno)
            n, declared = _integers(parts[2:], "problem line", line, lineno)
            if n < 1:
                raise GraphParseError(f"vertex count must be positive, got {n}", lineno)
            if declared < 0:
                raise GraphParseError(f"edge count must be nonnegative, got {declared}", lineno)
        elif parts[0] == "e":
            if n is None:
                raise GraphParseError("edge line before problem line", lineno)
            if len(parts) != 3:
                raise GraphParseError(f"expected 'e i j', got {line!r}", lineno)
            i, j = _integers(parts[1:], "edge line", line, lineno)
            if i == j:
                raise GraphParseError(f"self-loop ({i},{j}) not allowed", lineno)
            if not (1 <= i <= n and 1 <= j <= n):
                raise GraphParseError(f"vertex id out of range in ({i},{j}), n={n}", lineno)
            edges.append((i - 1, j - 1))
        else:
            raise GraphParseError(f"unrecognized line {line!r}", lineno)
    if n is None:
        raise GraphParseError("missing 'p edge' problem line")
    if len(edges) < declared:
        raise GraphParseError(f"expected {declared} edge lines, found {len(edges)}")
    g = Graph(n, edges)
    if g.num_edges > declared:
        raise GraphParseError(f"found {g.num_edges} distinct edges, declared {declared}")
    return g


def parse_graph_text(text):
    """Parse either dialect, sniffing DIMACS from its 'p'/'c' leading lines."""
    for _, line in _data_lines(text, "#"):
        if line[0] in "pc":
            return parse_dimacs(text)
        break
    return parse_graph(text)


def load_graph(path):
    with open(path, encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def complement(g):
    """Graph with edge (i,j), i != j, exactly where g has none."""
    n = g.n
    i, j = np.triu_indices(n, k=1)
    missing = ~g.adjacency[i, j]
    return Graph(n, zip(i[missing].tolist(), j[missing].tolist()))


def _cross(left, right, n):
    """Assignment pairs {(a,j), (b,l)} for each left pair (a,b) against each
    right pair (c,d) in both orientations (j,l) = (c,d), (d,c); a < b, so the
    first flat index is always the smaller one."""
    a, b = left
    c, d = right
    j = np.stack([c, d], axis=1)
    l = np.stack([d, c], axis=1)
    r = a[:, None, None] * n + j[None, :, :]
    s = b[:, None, None] * n + l[None, :, :]
    return r.reshape(-1), s.reshape(-1)


def conflict_pairs(g1, g2):
    """Conflicting assignment pairs of two equal-size graphs, by kind.

    Assignment (i,j), meaning "map i to j", has flat index i*n + j, its row
    and column in the lifted matrix.  Returns a dict kind -> (r, s) of int
    arrays with r < s elementwise.  The four kinds are disjoint and together cover every
    conflict: "row-orth" pairs share a source vertex (ordered by that vertex,
    then target pair j < k), "col-orth" pairs share a target vertex (by that
    vertex, then source pair j < k), and the two mismatch kinds pair
    assignments i -> j, k -> l with i != k, j != l whose adjacency disagrees:
    "edge-mismatch-1" takes each edge of g1 (sorted) against each non-edge
    of g2, "edge-mismatch-2" each non-edge of g1 against each edge of g2.
    """
    n = pair_order(g1, g2)
    lo, hi = np.triu_indices(n, k=1)
    base = np.arange(n)[:, None]
    adj1 = g1.adjacency[lo, hi]
    adj2 = g2.adjacency[lo, hi]
    edges1, non1 = (lo[adj1], hi[adj1]), (lo[~adj1], hi[~adj1])
    edges2, non2 = (lo[adj2], hi[adj2]), (lo[~adj2], hi[~adj2])
    return {
        "row-orth": ((base * n + lo).reshape(-1), (base * n + hi).reshape(-1)),
        "col-orth": ((lo * n + base).reshape(-1), (hi * n + base).reshape(-1)),
        "edge-mismatch-1": _cross(edges1, non2, n),
        "edge-mismatch-2": _cross(non1, edges2, n),
    }


def association_graph(g1, g2):
    """Pairwise-conflict graph on the n^2 assignment pairs of two graphs.

    Vertex (i,j), meaning "map i to j", has index i*n + j as in
    ``conflict_pairs``; edges are the pairs of ``conflict_pairs``.  Non-edges
    are exactly the compatible assignment pairs.
    """
    groups = conflict_pairs(g1, g2).values()
    r = np.concatenate([r for r, _ in groups])
    s = np.concatenate([s for _, s in groups])
    return Graph(g1.n * g1.n, zip(r.tolist(), s.tolist()))


def relabel(g, sigma):
    """Apply a vertex bijection: edge (i,j) becomes (sigma[i], sigma[j])."""
    if not is_permutation(sigma, g.n):
        raise ValueError(f"sigma is not a bijection on the vertex set: {sigma}")
    return Graph(g.n, ((sigma[i], sigma[j]) for i, j in g.edges))


def empty_graph(n):
    return Graph(n)


def complete_graph(n):
    return Graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def cycle_graph(n):
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def path_graph(n):
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def star_graph(n):
    """Star on n vertices: center 0 joined to 1..n-1."""
    return Graph(n, ((0, i) for i in range(1, n)))


def disjoint_union(g, h):
    """Disjoint union; h's vertices are shifted up by g.n."""
    shifted = ((i + g.n, j + g.n) for i, j in h.edges)
    return Graph(g.n + h.n, list(g.edges) + list(shifted))


def petersen_graph():
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -> i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph(10, edges)
