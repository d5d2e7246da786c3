"""Compiled program: constraint counts, zero pattern, objective, serialization."""

import hashlib
import json
import os

import numpy as np
import pytest

import thetaiso as th
from thetaiso.cli import dumps_json
from thetaiso.program import build_program, objective_value, program_to_json_dict

from conftest import rook_graph, shrikhande_graph


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
    pairs = list(zip(p.zero_rows.tolist(), p.zero_cols.tolist()))
    assert len(pairs) == len(set(pairs))
    # both triangles present
    assert {(r, s) for r, s in pairs} == {(s, r) for r, s in pairs}


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


# The same for pairs built in code: more rows than one writer slice, and the
# edge cases where every conflict kind (K1) or both mismatch kinds (K3) are empty.
BUILT_GOLDEN_DIGESTS = {
    "rook4-shrikhande":
        ((rook_graph(4), shrikhande_graph()),
         "f61d0f0cf677cef0ebc3dd0f1fcafc50d3776ee8e3b6d03f68bf65868dbbdb3d"),
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


def test_program_immutable():
    p = build_program(th.complete_graph(2), th.complete_graph(2))
    with pytest.raises(AttributeError):
        p.n = 3
    assert not p.pair_diag.flags.writeable
    assert not p.zero_rows.flags.writeable
    counts = p.constraint_counts()
    with pytest.raises(TypeError):
        p.zero_counts["row-orth"] = 0
    assert p.constraint_counts() == counts


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
