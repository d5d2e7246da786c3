"""Compiled program: constraint counts, zero pattern, objective, serialization."""

import hashlib
import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import thetaiso as th
import thetaiso.lifts
from thetaiso.cli import dumps_json
from thetaiso.program import build_program, objective_value, program_to_json_dict

from conftest import paley_graph, rook_graph, shrikhande_graph


def expected_counts(g1, g2):
    n = g1.n
    m1 = g1.num_edges
    m2 = g2.num_edges
    nonpairs1 = n * (n - 1) // 2 - m1
    nonpairs2 = n * (n - 1) // 2 - m2
    return {
        "omega-norm": 1,
        "diag-link": n * n,
        "row-orth": n * n * (n - 1) // 2,
        "col-orth": n * n * (n - 1) // 2,
        "edge-mismatch-1": 2 * m1 * nonpairs2,
        "edge-mismatch-2": 2 * nonpairs1 * m2,
    }


@pytest.mark.parametrize("g1,g2", [
    (th.complete_graph(2), th.complete_graph(2)),
    (th.complete_graph(2), th.empty_graph(2)),
    (th.cycle_graph(4), th.cycle_graph(4)),
    (th.path_graph(4), th.star_graph(4)),
    (th.cycle_graph(5), th.relabel(th.cycle_graph(5), (1, 3, 0, 4, 2))),
    (th.petersen_graph(), th.petersen_graph()),
])
def test_constraint_counts(g1, g2):
    p = build_program(g1, g2)
    assert p.constraint_counts() == expected_counts(g1, g2)
    assert p.dim == g1.n ** 2 + 1
    assert p.omega == g1.n ** 2


def reference_conflicts(g1, g2):
    """Conflict kind of every assignment pair, straight from the definition.

    Assignments (i,j) and (k,l), meaning i -> j and k -> l, conflict when they
    share a source vertex, share a target vertex, or disagree on adjacency;
    a mismatch is of kind 1 when g1 supplies the edge, kind 2 when g2 does.
    """
    n = g1.n
    kinds = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    r, s = i * n + j, k * n + l
                    if r >= s:
                        continue
                    if i == k:
                        kinds[r, s] = "row-orth"
                    elif j == l:
                        kinds[r, s] = "col-orth"
                    elif g1.has_edge(i, k) and not g2.has_edge(j, l):
                        kinds[r, s] = "edge-mismatch-1"
                    elif g2.has_edge(j, l) and not g1.has_edge(i, k):
                        kinds[r, s] = "edge-mismatch-2"
    return kinds


def test_conflict_pairs_match_brute_force():
    """Every conflict appears exactly once, with r < s, under its own kind."""
    cases = [
        (th.cycle_graph(4), th.cycle_graph(4)),
        (th.path_graph(4), th.star_graph(4)),
        (th.cycle_graph(6), th.disjoint_union(th.cycle_graph(3), th.cycle_graph(3))),
        (th.complete_graph(3), th.empty_graph(3)),
    ]
    for g1, g2 in cases:
        found = {}
        for kind, (r, s) in th.conflict_pairs(g1, g2).items():
            assert len(r) == len(s)
            assert (r < s).all()
            for pair in zip(r.tolist(), s.tolist()):
                assert pair not in found, (pair, kind, found.get(pair))
                found[pair] = kind
        assert found == reference_conflicts(g1, g2)
        assert th.association_graph(g1, g2).edges == set(found)
        assert build_program(g1, g2).zero_pair_set() == set(found)


def test_zero_pairs_are_deduplicated():
    p = build_program(th.cycle_graph(4), th.cycle_graph(4))
    pairs = [pair for r, s in p.conflicts.values() for pair in zip(r.tolist(), s.tolist())]
    assert len(pairs) == len(set(pairs))
    # both triangles present
    flat = [(int(f) // p.dim, int(f) % p.dim) for f in p.zero_index]
    assert len(flat) == len(set(flat)) == 2 * len(pairs)
    assert set(flat) == {(r, s) for r, s in pairs} | {(s, r) for r, s in pairs}


def row_matrix(row, dim):
    A = np.zeros((dim, dim))
    for r, s, v in row["entries"]:
        A[r, s] += v
    return A


def written_program(p):
    """The compiled program as a user reads it: its JSON text, parsed."""
    return json.loads(dumps_json(program_to_json_dict(p)))


@pytest.fixture(scope="module")
def program_pairs(corpus_entries):
    """(name, g1, g2, isomorphic) for the corpus pairs, plus K1, K2 and K3
    against themselves: K1 has no conflict rows, K2 and K3 no mismatch rows."""
    small = [(f"k{k}", th.complete_graph(k), th.complete_graph(k), True) for k in (1, 2, 3)]
    return corpus_entries + small


def test_constraints_hold_on_isomorphism_lift(program_pairs):
    for name, g1, g2, isomorphic in program_pairs:
        if not isomorphic:
            continue
        p = build_program(g1, g2)
        sigma = th.enumerate_isomorphisms(g1, g2, cap=1)[0]
        Y = th.lift(sigma).extended()
        rows = written_program(p)["constraints"]
        assert len(rows) == sum(p.constraint_counts().values()), name
        for row in rows:
            assert abs(np.sum(row_matrix(row, p.dim) * Y) - row["rhs"]) == 0.0, (name, row)


def test_constraint_matrices_are_symmetric_halves(program_pairs):
    for name, g1, g2, _ in program_pairs:
        p = build_program(g1, g2)
        for row in written_program(p)["constraints"]:
            A = row_matrix(row, p.dim)
            assert np.array_equal(A, A.T), (name, row)


# sha256 of the compiled JSON text; these lock the row order and formatting.
GOLDEN_DIGESTS = {
    ("c4_a.txt", "c4_b.txt"):
        "7c727ab3bcb4b97ce0a051c59d02d3dae7f3b71e9946652c8236fd88b3025378",
    ("petersen_a.txt", "petersen_b.col"):
        "bc3b8d0eed51e4a24dece5a6e856142ad9811d24e0189e4b0736bda2ab5f91b9",
    ("tree6_pair_a.txt", "tree6_pair_b.txt"):
        "dd325713bd89d42a307cac2d6b8fb11b7d06208eb326e1355ac8d7106ca68175",
}


# The same for pairs built in code: more rows than one writer slice, the
# largest programs the compile benchmark writes (rook 5x5 has 95,626 rows),
# and the edge cases where every conflict kind (K1) or both mismatch kinds
# (K3) are empty.
BUILT_GOLDEN_DIGESTS = {
    "rook4-shrikhande":
        ((rook_graph(4), shrikhande_graph()),
         "f61d0f0cf677cef0ebc3dd0f1fcafc50d3776ee8e3b6d03f68bf65868dbbdb3d"),
    "rook5":
        ((rook_graph(5), rook_graph(5)),
         "37c9b8bb3931e8c655304a263e91ac5e60816d29d8d1fa042e1e7480ac2a3620"),
    "paley17":
        ((paley_graph(17), paley_graph(17)),
         "80cae5467c613996ad99bfa97139018ea4aaab56d364739fdc66e2673344bd0b"),
    "c20":
        ((th.cycle_graph(20), th.cycle_graph(20)),
         "863afd9636193c7a65f70570491e355b1e8011ab0d5a62ae7d1e3f2f7ded6d43"),
    "k1":
        ((th.Graph(1, []), th.Graph(1, [])),
         "a0fc498c9586a2027d1a174ec1c18163845111e99c1b63f6ea5d9d4bca5a6a80"),
    "k3":
        ((th.complete_graph(3), th.complete_graph(3)),
         "780f05e81b8ee3e6eb938612d9eac40bc05388165b0289fb16888d2a60b60fe5"),
}


def program_digest(g1, g2):
    text = dumps_json(program_to_json_dict(build_program(g1, g2)))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("files", sorted(GOLDEN_DIGESTS))
def test_program_json_golden_digest(files):
    g1, g2 = (th.load_graph(os.path.join(th.corpus_path(), f)) for f in files)
    assert program_digest(g1, g2) == GOLDEN_DIGESTS[files]


@pytest.mark.parametrize("name", sorted(BUILT_GOLDEN_DIGESTS))
def test_built_program_json_golden_digest(name):
    (g1, g2), digest = BUILT_GOLDEN_DIGESTS[name]
    assert program_digest(g1, g2) == digest


def test_objective_value_of_lift():
    g = th.cycle_graph(4)
    p = build_program(g, g)
    sigma = (0, 1, 2, 3)
    L = th.lift(sigma)
    assert objective_value(L.extended(), p) == 4.0
    with pytest.raises(ValueError):
        objective_value(np.zeros((5, 5)), p)
    with pytest.raises(ValueError):
        objective_value(np.zeros(p.dim), p)


def test_mixture_objective_is_n():
    g = th.cycle_graph(5)
    autos = th.enumerate_isomorphisms(g, g)
    p = build_program(g, g)
    Y = 0.3 * th.lift(autos[0]).extended() + 0.7 * th.lift(autos[3]).extended()
    assert objective_value(Y, p) == pytest.approx(5.0, abs=1e-12)


def assert_zero_pattern_is_one(p):
    """p's zero_index is the ascending flat indices of both triangles of its
    conflicts, and neither form takes a write."""
    upper = [r * p.dim + s for r, s in p.conflicts.values()]
    lower = [s * p.dim + r for r, s in p.conflicts.values()]
    assert np.array_equal(p.zero_index, np.sort(np.concatenate(upper + lower)))
    assert (np.diff(p.zero_index) > 0).all()
    assert not p.zero_index.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        p.zero_index[:1] = 0
    for r, s in p.conflicts.values():
        assert (r < s).all()
        assert not r.flags.writeable and not s.flags.writeable
    with pytest.raises(TypeError):
        p.conflicts["row-orth"] = (np.arange(1), np.arange(1))
    with pytest.raises(TypeError):
        del p.conflicts["row-orth"]


def test_program_immutable():
    p = build_program(th.complete_graph(2), th.complete_graph(2))
    with pytest.raises(AttributeError):
        p.n = 3
    assert not p.pair_diag.flags.writeable
    counts = p.constraint_counts()
    assert_zero_pattern_is_one(p)
    assert p.constraint_counts() == counts
    # n = 1 has no conflict of any kind, so an empty zero pattern.
    single = build_program(th.empty_graph(1), th.empty_graph(1))
    assert list(single.conflicts) == list(th.conflict_pairs(th.empty_graph(1), th.empty_graph(1)))
    assert single.zero_index.size == 0 and single.zero_pair_set() == set()
    assert_zero_pattern_is_one(single)


def test_zero_index_is_built_by_the_first_read():
    # Writing a program and counting its rows never build the solver's flat
    # index; the solve that reads it builds it once and keeps it.
    p = build_program(th.complete_graph(2), th.empty_graph(2))
    program_to_json_dict(p)
    written_program(p)
    p.constraint_counts()
    p.zero_pair_set()
    assert "zero_index" not in vars(p)
    th.solve(p)
    first = vars(p)["zero_index"]
    assert p.zero_index is first
    assert_zero_pattern_is_one(p)
    with pytest.raises(AttributeError):
        p.zero_index = np.arange(3)
    assert p.zero_index is first


def test_json_serialization():
    g1 = th.complete_graph(2)
    p = build_program(g1, g1)
    back = written_program(p)
    assert back["dim"] == 5
    assert back["n"] == 2
    assert back["index"]["omega"] == 4
    kinds = [c["kind"] for c in back["constraints"]]
    assert kinds.count("diag-link") == 4
    assert kinds.count("omega-norm") == 1
    assert kinds.count("row-orth") + kinds.count("col-orth") == 4
    # objective: identity on the 4 pair-diagonal entries
    assert sorted(back["objective"]) == [[d, d, 1.0] for d in range(4)]


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        build_program(th.path_graph(3), th.path_graph(4))


# ------------------------------------------------------------ branch programs

def test_full_layout_index_map_and_graphs():
    g1, g2 = th.cycle_graph(5), th.relabel(th.cycle_graph(5), (1, 3, 0, 4, 2))
    p = build_program(g1, g2)
    assert p.pin is None and p.graphs == (g1, g2)
    assert np.array_equal(p.index, np.arange(p.dim))
    assert np.array_equal(p.pair_diag, np.arange(25))
    assert not p.index.flags.writeable
    # The index map against permutation_vector: pair (i, sigma(i)) sits at
    # i*n + sigma(i), the entries where the permutation vector is 1.
    sigma = (1, 3, 0, 4, 2)
    vec = th.lifts.permutation_vector(sigma)
    assert np.flatnonzero(vec).tolist() == [p.index[i * 5 + j] for i, j in enumerate(sigma)]


def test_branch_program_layout_on_rook_against_shrikhande():
    # Pinning rook's vertex 0 to Shrikhande's vertex k keeps the 118 pairs of
    # equal pinned colour (1 + 6*6 + 9*9), and omega comes last.
    g1, g2 = rook_graph(4), shrikhande_graph()
    full = build_program(g1, g2)
    conflicts = th.conflict_pairs(g1, g2)
    assert_zero_pattern_is_one(full)
    for k in (0, 5):
        p = th.branch_program(full, 0, k)
        assert p.pin == (0, k) and p.graphs == (g1, g2)
        assert (p.n, p.dim, p.omega) == (16, 119, 118)
        assert np.array_equal(p.pair_diag, np.arange(118))
        assert p.index[-1] == 256 and (np.diff(p.index) > 0).all()
        assert p.constraint_counts()["diag-link"] == 118
        # The zero rows are exactly the full program's conflicts between kept
        # pairs, renumbered.
        position = {int(f): a for a, f in enumerate(p.index[:-1])}
        expected = {(position[r], position[s]) for r, s in full.zero_pair_set()
                    if r in position and s in position}
        assert p.zero_pair_set() == expected
        assert_zero_pattern_is_one(p)
        # Cut from the full layout's conflicts, they keep conflict_pairs' order
        # kind by kind, as filtering conflict_pairs itself would.
        keep = np.zeros(256, dtype=bool)
        keep[p.index[:-1]] = True
        renumber = np.cumsum(keep) - 1
        rows = [renumber[r[keep[r] & keep[s]]] for r, s in conflicts.values()]
        cols = [renumber[s[keep[r] & keep[s]]] for r, s in conflicts.values()]
        assert list(p.conflicts) == list(conflicts)
        assert [p.constraint_counts()[kind] for kind in conflicts] == [len(r) for r in rows]
        for (r, s), want_r, want_s in zip(p.conflicts.values(), rows, cols):
            assert np.array_equal(r, want_r) and np.array_equal(s, want_s)
    with pytest.raises(ValueError, match="full layout"):
        th.branch_program(th.branch_program(full, 0, 0), 0, 0)


def test_branch_program_has_no_json_form():
    g1, g2 = rook_graph(4), shrikhande_graph()
    with pytest.raises(ValueError, match="branch"):
        program_to_json_dict(th.branch_program(build_program(g1, g2), 0, 3))


def test_objective_value_checks_the_programs_own_shape():
    g = th.cycle_graph(4)
    p = th.branch_program(build_program(g, g), 0, 0)
    assert p.dim < 17
    assert objective_value(np.eye(p.dim), p) == p.dim - 1
    with pytest.raises(ValueError, match=f"{p.dim} x {p.dim}"):
        objective_value(np.eye(17), p)


@st.composite
def relabelled_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    slots = list(itertools.combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    g = th.Graph(n, [e for e, keep in zip(slots, mask) if keep])
    sigma = tuple(draw(st.permutations(range(n))))
    return g, sigma, draw(st.integers(0, n - 1))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(relabelled_graphs())
def test_branch_keeps_every_pair_of_an_isomorphism_through_its_pin(case):
    # sigma maps g onto its relabelling; branch (v, sigma(v)) keeps each
    # (i, sigma(i)), and sigma's lift read through the index map meets every
    # zero row of the branch.
    g, sigma, v = case
    h = th.relabel(g, sigma)
    n = g.n
    p = th.branch_program(build_program(g, h), v, sigma[v])
    assert p is not None
    kept = set(p.index.tolist())
    assert all(i * n + sigma[i] in kept for i in range(n))
    Y = th.lift(sigma).extended()[np.ix_(p.index, p.index)]
    assert not Y.reshape(-1)[p.zero_index].any()
    assert objective_value(Y, p) == n
