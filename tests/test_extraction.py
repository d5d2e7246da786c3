"""Diagonal rounding, Birkhoff peeling, consistent sets, and the verdict ladder."""

import gc
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import thetaiso as th
import thetaiso.extraction
import thetaiso.lifts
import thetaiso.program
import thetaiso.solver
from thetaiso.extraction import (
    birkhoff_decompose,
    consistent_set_search,
    decide,
    stochastic_deviation,
)
from thetaiso.lifts import _consistent_set, diagonal_matrix
from thetaiso.program import decision_threshold
from thetaiso.solver import SolverConfig, SolverResult
from conftest import (
    CYCLIC_LATIN_5, NON_GROUP_LATIN_5, cfi_k4_graph, chang_graph, failing_eigh_backend,
    latin_square_graph, random_doubly_stochastic, recording_eigh_backend, rook_graph,
    shrikhande_graph, t8_graph,
)


def fake_result(Y, objective, stop_reason="tolerance", upper_bound=math.inf,
                permutation=None):
    return SolverResult(
        objective=objective, Y=Y, iterations=1,
        primal_residual=1e-9, dual_residual=1e-9, solve_seconds=0.0,
        stop_reason=stop_reason, upper_bound=upper_bound, permutation=permutation,
    )


def perm_matrix(sigma):
    n = len(sigma)
    P = np.zeros((n, n))
    P[np.arange(n), list(sigma)] = 1.0
    return P


def test_diagonal_matrix_of_lift():
    sigma = (2, 0, 3, 1)
    X = diagonal_matrix(th.lift(sigma).extended())
    assert np.array_equal(X, perm_matrix(sigma))
    assert stochastic_deviation(X) == 0.0


def test_diagonal_matrix_linearity_and_zero():
    a = th.lift((0, 1, 2)).extended()
    b = th.lift((1, 2, 0)).extended()
    X = diagonal_matrix(0.25 * a + 0.75 * b)
    assert np.allclose(X, 0.25 * perm_matrix((0, 1, 2)) + 0.75 * perm_matrix((1, 2, 0)))
    Z = diagonal_matrix(np.zeros((10, 10)))
    assert Z.shape == (3, 3) and np.all(Z == 0.0) and stochastic_deviation(Z) == 1.0
    with pytest.raises(ValueError):
        diagonal_matrix(np.zeros((8, 8)))


def test_stochastic_deviation_worst_of_rows_columns_and_sign():
    P = perm_matrix((1, 2, 0))
    assert stochastic_deviation(P) == 0.0
    rows_off = P.copy()
    rows_off[0, 1] = 1.25  # row 0 and column 1 both sum to 1.25
    assert stochastic_deviation(rows_off) == 0.25
    negative = np.array([[1.5, -0.5], [-0.5, 1.5]])  # sums are exact, an entry is not
    assert stochastic_deviation(negative) == 0.5


def test_birkhoff_identity():
    res = birkhoff_decompose(np.eye(4))
    assert res.complete
    assert res.terms == ((1.0, (0, 1, 2, 3)),)


def test_birkhoff_two_disjoint():
    X = 0.5 * perm_matrix((1, 0, 2)) + 0.5 * perm_matrix((2, 1, 0))
    res = birkhoff_decompose(X)
    assert res.complete
    assert sorted(res.terms) == [(0.5, (1, 0, 2)), (0.5, (2, 1, 0))]


def test_birkhoff_uniform_third():
    """Every permutation ties, so no order is promised; any three disjoint
    permutations peel the matrix."""
    res = birkhoff_decompose(np.full((3, 3), 1.0 / 3.0))
    assert res.complete
    assert len(res.terms) == 3 and len({sigma for _, sigma in res.terms}) == 3
    assert all(abs(w - 1.0 / 3.0) < 1e-12 for w, _ in res.terms)
    assert abs(res.weight_sum() - 1.0) < 1e-12


def test_birkhoff_roundtrip_random():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        X, _ = random_doubly_stochastic(rng, n)
        res = birkhoff_decompose(X)
        assert res.complete
        assert np.abs(res.matrix() - X).max() <= n * 1e-6
        assert abs(res.weight_sum() - 1.0) <= 1e-6


def test_birkhoff_one_assignment_solve_per_round(monkeypatch):
    import scipy.optimize
    solves = []
    original = scipy.optimize.linear_sum_assignment

    def counting(*args, **kwargs):
        solves.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", counting)
    rng = np.random.default_rng(3)
    for n in (3, 5, 8):
        solves.clear()
        X, _ = random_doubly_stochastic(rng, n)
        res = birkhoff_decompose(X)
        assert res.complete and res.rounds == len(res.terms) >= 2
        assert solves == [(n, n)] * res.rounds


def test_birkhoff_heaviest_first():
    X = 0.7 * perm_matrix((1, 2, 0)) + 0.3 * perm_matrix((0, 1, 2))
    res = birkhoff_decompose(X)
    assert res.terms[0] == (pytest.approx(0.7), (1, 2, 0))


def test_birkhoff_failure_flag():
    # doubly stochastic, but the eps-support pins rows 0 and 1 to column 0
    X = np.array([
        [0.4, 0.3, 0.3],
        [0.4, 0.3, 0.3],
        [0.2, 0.4, 0.4],
    ])
    res = birkhoff_decompose(X, eps=0.35)
    assert not res.complete
    assert res.terms == ()


def test_birkhoff_rejects_non_stochastic():
    with pytest.raises(ValueError):
        birkhoff_decompose(np.full((3, 3), 0.5))
    with pytest.raises(ValueError):
        birkhoff_decompose(np.zeros((2, 3)))


def test_consistent_set_on_lift():
    sigma = (3, 0, 2, 1)
    assert consistent_set_search(th.lift(sigma).extended()) == sigma


def test_consistent_set_on_mixture():
    g = th.cycle_graph(5)
    autos = th.enumerate_isomorphisms(g, g)
    s1, s2 = autos[1], autos[4]
    Y = 0.6 * th.lift(s1).extended() + 0.4 * th.lift(s2).extended()
    found = consistent_set_search(Y)
    assert found in (s1, s2)
    # the returned set really is pairwise supported
    n = 5
    for i in range(n):
        for k in range(n):
            assert Y[i * n + found[i], k * n + found[k]] > 1e-6


def test_consistent_set_none_when_cross_terms_vanish():
    Y = 0.5 * np.eye(5)  # n=2: diagonal mass but zero cross entries
    assert consistent_set_search(Y) is None
    with pytest.raises(ValueError):
        consistent_set_search(np.zeros((7, 7)))


def test_consistent_set_budget_stops_the_search():
    # Each row of a lift's diagonal has one candidate, so the search tests
    # exactly n of them; a budget of n - 1 runs out one row short.
    sigma = (3, 0, 2, 1)
    Y = th.lift(sigma).extended()
    assert consistent_set_search(Y, budget=4) == sigma
    assert consistent_set_search(Y, budget=3) is None
    assert consistent_set_search(Y, budget=0) is None


def _loop_consistent_set_search(Y, eps, budget=None):
    """The search as a plain loop: each candidate's cross entries are read
    one at a time against the pairs already chosen."""
    diag = diagonal_matrix(Y)
    n = len(diag)
    order = [list(np.argsort(-diag[i], kind="stable")) for i in range(n)]
    chosen = []
    tries = 0

    def grow(i):
        nonlocal tries
        if i == n:
            return True
        used = set(chosen)
        for j in order[i]:
            if j in used or diag[i, j] <= eps:
                continue
            if budget is not None and tries >= budget:
                return False
            tries += 1
            if all(Y[i * n + j, k * n + chosen[k]] > eps for k in range(i)):
                chosen.append(int(j))
                if grow(i + 1):
                    return True
                chosen.pop()
        return False

    return tuple(chosen) if grow(0) else None


def _scattered(X, p):
    """X, a matrix in the layout of p, placed in the full layout through
    ``p.index`` with every other pair 0: the reference input for the search
    read in a branch's own layout."""
    full = np.zeros((p.n * p.n + 1,) * 2)
    full[np.ix_(p.index, p.index)] = X
    return full


def test_consistent_set_search_matches_the_loop_search():
    # The vectorized search tries the same candidates in the same order and
    # counts them the same way, so it agrees with the loop under any budget,
    # on symmetric and unsymmetric matrices.  Entries sit on both sides of
    # eps and exactly at it.  A third matrix has one row whose pair-diagonal
    # entries are all at or below eps, so no column is a candidate there;
    # the search gives up on it at once and the loop fails on it.  Each
    # matrix is also cut to the branch layouts of a cycle (an edge for
    # n = 2) against a relabelling, pinned at (0, 0) and (0, n - 1); the
    # search read in such a layout agrees with the search of the cut
    # placed back in the full layout with the dropped pairs 0.
    eps = 1e-6
    outcomes = {"found": 0, "none": 0}
    in_layout = {"found": 0, "none": 0}
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        dim = n * n + 1
        g = th.cycle_graph(n) if n >= 3 else th.complete_graph(n)
        full = th.build_program(g, th.relabel(g, tuple(rng.permutation(n).tolist())))
        branches = [th.branch_program(full, 0, k) for k in (0, n - 1)]
        values = np.array([0.0, 0.5 * eps, eps, 2.0 * eps, 0.3, 1.0])
        p = rng.dirichlet(np.ones(len(values)))
        Y = rng.choice(values, size=(dim, dim), p=p)
        empty_row = Y.copy()
        pairs = int(rng.integers(n)) * n + np.arange(n)
        empty_row[pairs, pairs] = rng.choice(values[:3], size=n)
        for matrix in (Y, np.triu(Y) + np.triu(Y, 1).T, empty_row):
            for budget in (None, 0, 3, n, n * n):
                expected = _loop_consistent_set_search(matrix, eps, budget)
                assert consistent_set_search(matrix, eps, budget) == expected, (seed, budget)
                outcomes["found" if expected else "none"] += 1
                for q in branches:
                    X = matrix[np.ix_(q.index, q.index)]
                    expected = consistent_set_search(_scattered(X, q), eps, budget)
                    assert _consistent_set(X, q.index, eps, budget) == expected, (
                        seed, q.pin, budget)
                    in_layout["found" if expected else "none"] += 1
    assert min(outcomes.values()) >= 100, outcomes
    assert min(in_layout.values()) >= 100, in_layout


def test_consistent_set_search_frees_its_input():
    # No reference cycle outlives the call, so Y goes as soon as the caller
    # drops it, without waiting for the cyclic garbage collector.
    gc.disable()
    try:
        Y = th.lift((2, 0, 3, 1)).extended()
        ref = weakref.ref(Y)
        assert consistent_set_search(Y) == (2, 0, 3, 1)
        del Y
        assert ref() is None

        Y = 0.5 * np.eye(5)
        ref = weakref.ref(Y)
        assert consistent_set_search(Y) is None
        del Y
        assert ref() is None
    finally:
        gc.enable()


def test_threshold_formula():
    for n in (1, 2, 4, 6, 10, 12):
        assert decision_threshold(n) == n - 1.0 / (4.0 * n ** 4)


def test_decide_not_converged_is_inconclusive():
    g = th.cycle_graph(4)
    res = fake_result(np.zeros((17, 17)), 0.0, stop_reason="max-iter")
    v = decide(res, g, g)
    assert v.kind is th.VerdictKind.INCONCLUSIVE
    assert v.decided_by is None
    assert res.status is th.SolverStatus.MAX_ITER


@pytest.mark.parametrize("stop", ["max-iter", "diverged"])
@pytest.mark.parametrize("pair, truth", [
    ((th.cycle_graph(6), th.disjoint_union(th.cycle_graph(3), th.cycle_graph(3))), False),
    ((th.cycle_graph(4), th.relabel(th.cycle_graph(4), (2, 0, 3, 1))), True),
], ids=["c6-2c3", "c4-relabel"])
def test_decide_oracle_fallback_settles_unfinished_solves(pair, truth, stop, monkeypatch):
    # A solve cut off at the cap, or by a failing eigendecomposition, before
    # any bound or lift check leaves nothing to decide on: Inconclusive, and
    # with the fallback, the exact search's answer.  C4 against its
    # relabelling is 2-WL equivalent, so its full layout is never iterated:
    # the solve is that of its branch 0.
    g1, g2 = pair
    if stop == "diverged":
        monkeypatch.setattr(thetaiso.solver, "eigh_backend", failing_eigh_backend(1))
    p = th.build_program(g1, g2)
    if truth:
        p = th.branch_program(p, 0, 0)
    res = th.solve(p, SolverConfig(max_iter=1))
    assert res.stop_reason == stop and res.permutation is None

    v = decide(res, g1, g2)
    assert v.kind is th.VerdictKind.INCONCLUSIVE and v.decided_by is None

    v = decide(res, g1, g2, SolverConfig(oracle_fallback=True))
    expected = th.VerdictKind.ISOMORPHIC if truth else th.VerdictKind.NON_ISOMORPHIC
    assert v.kind is expected
    assert v.decided_by == "oracle"
    assert "stop_reason" not in v.diagnostics
    if truth:
        assert th.is_isomorphism(v.permutation, g1, g2)


def test_decide_primal_objective_alone_never_separates():
    # A maximization's primal objective only bounds the optimum from below,
    # so a converged objective far under the threshold proves nothing
    # without a certified upper bound.
    g1 = th.cycle_graph(4)
    g2 = th.path_graph(4)
    v = decide(fake_result(np.zeros((17, 17)), 0.0, upper_bound=math.inf), g1, g2)
    assert v.kind is not th.VerdictKind.NON_ISOMORPHIC
    assert v.decided_by != "bound"
    assert "upper_bound" not in v.to_json_dict()   # the bound is the result's alone

    v = decide(fake_result(np.zeros((17, 17)), 0.0, upper_bound=3.5), g1, g2)
    assert v.kind is th.VerdictKind.NON_ISOMORPHIC
    assert v.decided_by == "bound"


def test_decide_bound_branch(solved_corpus):
    g1, g2, truth, program, result, verdict = solved_corpus["c6_vs_2c3"]
    assert not truth
    assert verdict.kind is th.VerdictKind.NON_ISOMORPHIC
    assert verdict.decided_by == "bound"
    assert verdict.permutation is None
    assert result.upper_bound < verdict.threshold
    assert "separation" not in verdict.diagnostics
    assert verdict.diagnostics["cp_rank_bound"] == 36 * 37 // 2
    assert verdict.diagnostics["realization_dim_bound"] == 6 ** 4


def test_decide_extraction_branch(solved_corpus):
    g1, g2, truth, program, result, verdict = solved_corpus["c5"]
    assert truth
    assert verdict.kind is th.VerdictKind.ISOMORPHIC
    assert verdict.decided_by == "extraction"
    assert th.is_isomorphism(verdict.permutation, g1, g2)


def test_decide_n1_identity():
    g = th.empty_graph(1)
    res = th.solve(th.build_program(g, g))
    v = decide(res, g, g)
    assert v.kind is th.VerdictKind.ISOMORPHIC
    assert v.permutation == (0,)


def test_decide_never_trusts_uncertified_candidates():
    """A carried permutation that is not an isomorphism stays Inconclusive
    without the oracle, NonIsomorphic with it."""
    g1 = th.cycle_graph(6)
    g2 = th.disjoint_union(th.cycle_graph(3), th.cycle_graph(3))
    sigma = (0, 1, 2, 3, 4, 5)
    res = fake_result(th.lift(sigma).extended(), 6.0, stop_reason="verified-lift",
                      permutation=sigma)
    v = decide(res, g1, g2)
    assert v.kind is th.VerdictKind.INCONCLUSIVE
    assert v.permutation is None
    assert v.diagnostics["candidates_tried"] == 1

    v = decide(res, g1, g2, SolverConfig(oracle_fallback=True))
    assert v.kind is th.VerdictKind.NON_ISOMORPHIC
    assert v.decided_by == "oracle"


def test_decide_checks_the_carried_permutation_not_y():
    # Y is the lift of an isomorphism, but no permutation was carried, so
    # nothing is extracted from it.
    g1 = th.cycle_graph(6)
    g2 = th.relabel(g1, (5, 0, 2, 4, 1, 3))
    Y = th.lift(th.enumerate_isomorphisms(g1, g2, cap=1)[0]).extended()
    v = decide(fake_result(Y, 6.0), g1, g2)
    assert v.kind is th.VerdictKind.INCONCLUSIVE
    assert v.diagnostics["candidates_tried"] == 0


def test_decide_oracle_fallback_on_isomorphic_pair():
    """If extraction only surfaces non-isomorphisms, the oracle settles it."""
    g = th.cycle_graph(4)
    sigma = (1, 0, 2, 3)  # a transposition, not an automorphism of C4
    assert not th.is_isomorphism(sigma, g, g)
    Y = th.lift(sigma).extended()
    v = decide(fake_result(Y, 4.0), g, g, SolverConfig(oracle_fallback=True))
    assert v.kind is th.VerdictKind.ISOMORPHIC
    assert v.decided_by == "oracle"
    assert th.is_isomorphism(v.permutation, g, g)


def test_verdict_serialization(solved_corpus):
    _, _, _, _, _, verdict = solved_corpus["c4"]
    doc = verdict.to_json_dict()
    assert doc["kind"] == "Isomorphic"
    assert isinstance(doc["permutation"], list)
    assert doc["decided_by"] == "extraction"
    assert list(doc) == ["kind", "permutation", "threshold", "decided_by", "diagnostics"]
    assert doc["diagnostics"] == {"candidates_tried": 1}


# A Converged solve that did not lift, for C6 against 2 C3: Y mixes the lifts
# of two non-isomorphisms, so its pair diagonal is doubly stochastic.
NON_LIFTING_RESULT = """
c6 = th.cycle_graph(6)
two_c3 = th.disjoint_union(th.cycle_graph(3), th.cycle_graph(3))
mix = 0.5 * (th.lift((0, 1, 2, 3, 4, 5)).extended()
             + th.lift((1, 2, 3, 4, 5, 0)).extended())
stopped = th.SolverResult(objective=6.0, Y=mix, iterations=13, primal_residual=1e-9,
                          dual_residual=1e-9, solve_seconds=0.0, stop_reason="tolerance")
"""


def test_import_and_decide_leave_scipy_optimize_unloaded(monkeypatch):
    # scipy.optimize takes most of a cold start to import; only Birkhoff
    # peeling and convex_decompose need it, so plain use must not load it.
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, thetaiso as th\n"
        "g = th.path_graph(4)\n"
        "h = th.relabel(g, (2, 0, 3, 1))\n"
        "v = th.decide(th.solve(th.build_program(g, h)), g, h)\n"
        "assert v.kind is th.VerdictKind.ISOMORPHIC, v\n"
        + NON_LIFTING_RESULT +
        "v = th.decide(stopped, c6, two_c3)\n"
        "assert v.kind is th.VerdictKind.INCONCLUSIVE, v\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

    # decide reads no permutation out of Y itself.
    def unreachable(*args, **kwargs):
        raise AssertionError("decide searched Y for a permutation")

    for name in ("consistent_set_search", "stochastic_deviation", "birkhoff_decompose"):
        monkeypatch.setattr(thetaiso.extraction, name, unreachable)
    monkeypatch.setattr(thetaiso.lifts, "diagonal_matrix", unreachable)
    g = th.path_graph(4)
    h = th.relabel(g, (2, 0, 3, 1))
    assert decide(th.solve(th.build_program(g, h)), g, h).kind is th.VerdictKind.ISOMORPHIC
    scope = {"th": th}
    exec(NON_LIFTING_RESULT, scope)
    v = decide(scope["stopped"], scope["c6"], scope["two_c3"])
    assert v.kind is th.VerdictKind.INCONCLUSIVE
    assert v.diagnostics["candidates_tried"] == 0


# ------------------------------------------------------------------ branches

def orbit_of(i, generators):
    """The orbit of vertex i under the group the permutations generate."""
    orbit, frontier = {i}, [i]
    while frontier:
        j = frontier.pop()
        for a in generators:
            if a[j] not in orbit:
                orbit.add(a[j])
                frontier.append(a[j])
    return orbit


def assert_pruned_by_verified_automorphisms(res, g2):
    """Every automorphism row lies in the orbit of a branch its bound
    refuted, under res.automorphisms, and carries that branch's bound; each
    automorphism holds edge by edge."""
    for a in res.automorphisms:
        assert th.is_isomorphism(a, g2, g2), a
    refuted = [b for b in res.branches if b["stop_reason"] == "dual-bound"]
    for b in res.branches:
        if b["stop_reason"] == "automorphism":
            assert b["dim"] is None and b["iterations"] == 0, b
            assert any(b["k"] in orbit_of(r["k"], res.automorphisms)
                       and b["upper_bound"] == r["upper_bound"] for r in refuted), b


def test_rook_against_shrikhande_is_decided_by_branch_bounds():
    # 2-WL cannot separate the pair, so it branches before the solve.
    # Branch 0 is certified below the threshold, and the
    # Shrikhande graph is vertex-transitive: automorphisms found by short
    # solves of it against itself carry that refutation to every other
    # branch, which leaves no isomorphism.
    g1, g2 = rook_graph(4), shrikhande_graph()
    res = th.solve(th.build_program(g1, g2))
    assert res.stop_reason == "branch-bound" and res.iterations == 0
    assert res.status is th.SolverStatus.CERTIFIED
    assert res.permutation is None and res.upper_bound < decision_threshold(16)
    v = decide(res, g1, g2)
    assert v.kind is th.VerdictKind.NON_ISOMORPHIC and v.decided_by == "branch-bound"
    assert v.permutation is None
    branches = res.branches
    assert [b["k"] for b in branches] == list(range(16))
    for b in branches:
        assert set(b) == {"k", "dim", "iterations", "stop_reason", "upper_bound"}
    [solved] = [b for b in branches if b["stop_reason"] != "automorphism"]
    assert solved["stop_reason"] == "dual-bound" and solved["dim"] == 119
    assert solved["upper_bound"] < v.threshold
    assert res.automorphisms
    for b in branches:
        assert b["upper_bound"] == solved["upper_bound"], b
    assert_pruned_by_verified_automorphisms(res, g2)
    # The solve's bound is the largest branch bound, not the unpinned cap n.
    assert res.upper_bound == max(b["upper_bound"] for b in branches) < v.threshold
    assert v.diagnostics == {"candidates_tried": 0}


def traced_solve(p, cfg=None):
    """solve(p, cfg) and the peak of the Python memory traced during it."""
    tracemalloc.start()
    try:
        res = th.solve(p, cfg)
        return res, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The automorphisms of the twisted CFI(K4) graph the rung finds against the
# untwisted one, which map vertex 0 to 4, 7 and 10.
CFI_K4_AUTOMORPHISMS = (
    (4, 3, 5, 6, 9, 8, 1, 7, 2, 0, 34, 35, 36, 33, 30, 31, 32, 39, 38, 37,
     19, 11, 18, 16, 14, 15, 13, 17, 12, 10, 24, 25, 23, 26, 29, 21, 28, 20, 22, 27),
    (7, 2, 5, 8, 9, 6, 1, 4, 3, 0, 24, 25, 26, 23, 20, 21, 22, 29, 28, 27,
     19, 11, 16, 18, 17, 15, 12, 14, 13, 10, 34, 35, 33, 36, 39, 31, 38, 30, 32, 37),
    (10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
     20, 22, 21, 23, 24, 26, 25, 29, 28, 27, 30, 32, 31, 33, 34, 36, 35, 39, 38, 37),
)


def test_cfi_k4_untwisted_against_twisted_is_decided_by_branch_bounds():
    # 2-WL cannot separate the CFI pair over K4 (n = 40, dim 1601), so it
    # branches: pinned refinement refutes the 24 branches that pin vertex 0,
    # a subset vertex, to an edge end, one branch is certified by its bound,
    # and automorphisms of the twisted graph cover the other 15.  The tries
    # search by individualisation-refinement, in integers, so the three
    # automorphisms they find do not depend on the BLAS thread count; each
    # is also checked.  The certified branch stops at iteration 68, at one
    # BLAS thread and at two.  The solve's bound is the largest branch
    # bound.  No array of the full layout is made: the traced peak
    # stays below one dim-1601 square of floats, since branches are rounded
    # in their own layout and a branch-bound stop returns no Y.
    g1, g2 = cfi_k4_graph(False), cfi_k4_graph(True)
    p = th.build_program(g1, g2)
    assert (p.n, p.dim) == (40, 1601)
    res, peak = traced_solve(p, SolverConfig(max_iter=4000))
    assert peak < p.dim ** 2 * np.dtype(float).itemsize, peak
    assert res.stop_reason == "branch-bound" and res.iterations == 0
    assert Counter(b["stop_reason"] for b in res.branches) == {
        "refinement": 24, "automorphism": 15, "dual-bound": 1}
    assert res.automorphisms == CFI_K4_AUTOMORPHISMS
    assert_pruned_by_verified_automorphisms(res, g2)
    [solved] = [b for b in res.branches if b["stop_reason"] == "dual-bound"]
    assert (solved["k"], solved["dim"], solved["iterations"]) == (0, 263, 68)
    largest = max(b["upper_bound"] for b in res.branches)
    assert round(largest, 2) == 39.93
    assert res.upper_bound == largest < decision_threshold(40)
    v = decide(res, g1, g2)
    assert v.kind is th.VerdictKind.NON_ISOMORPHIC and v.decided_by == "branch-bound"


def test_cfi_k4_against_a_relabelling_lifts_with_no_full_layout_array():
    # The relabelled CFI pair branches too, and branch 0 lifts at iteration
    # 2.  The solve returns the permutation and no Y, and builds no lift, so
    # the traced peak stays below one dim-1601 square of floats.
    g1 = cfi_k4_graph(False)
    g2 = th.relabel(g1, tuple(np.random.default_rng(0).permutation(40).tolist()))
    p = th.build_program(g1, g2)
    res, peak = traced_solve(p)
    assert peak < p.dim ** 2 * np.dtype(float).itemsize, peak
    assert res.stop_reason == "verified-lift" and res.iterations == 0 and res.Y is None
    assert [(b["k"], b["dim"], b["iterations"]) for b in res.branches] == [(0, 263, 2)]
    assert res.objective == res.upper_bound == 40.0
    assert th.is_isomorphism(res.permutation, g1, g2)


# The automorphisms of the Shrikhande graph the rung finds on rook 4x4 vs
# Shrikhande; none depends on the BLAS thread count.  The tries found the
# same three when they were short ADMM solves of (G2, G2).
ROOK_SHRIKHANDE_AUTOMORPHISMS = (
    (1, 0, 3, 2, 6, 5, 4, 7, 11, 10, 9, 8, 12, 15, 14, 13),
    (2, 1, 0, 3, 7, 6, 5, 4, 8, 11, 10, 9, 13, 12, 15, 14),
    (4, 0, 12, 8, 7, 3, 15, 11, 6, 2, 14, 10, 5, 1, 13, 9),
)


def test_rook_against_shrikhande_branches_before_any_full_layout_iteration(monkeypatch):
    # The rung runs before the solve, so no eigh sees the dim-257 full
    # layout: branch 0 (dim 119) is certified at iteration 12, its first
    # bound check below the threshold, and the rest are covered by the same
    # three automorphisms the rung has always found.  The result carries no
    # Y and no objective (NaN): no full-layout point was iterated.  It holds
    # the largest branch bound and no residuals.
    dims = []
    monkeypatch.setattr(thetaiso.solver, "eigh_backend",
                        recording_eigh_backend(lambda M: dims.append(M.shape[0])))
    p = th.build_program(rook_graph(4), shrikhande_graph())
    res = th.solve(p)
    assert res.stop_reason == "branch-bound" and res.iterations == 0
    assert p.dim == 257 and dims and max(dims) == 119
    assert [(b["k"], b["dim"], b["iterations"], b["stop_reason"]) for b in res.branches] == (
        [(0, 119, 12, "dual-bound")] + [(k, None, 0, "automorphism") for k in range(1, 16)])
    assert res.automorphisms == ROOK_SHRIKHANDE_AUTOMORPHISMS
    assert res.Y is None
    assert math.isnan(res.objective)
    assert res.upper_bound == res.branches[0]["upper_bound"] < decision_threshold(16)
    assert res.primal_residual == res.dual_residual == math.inf


def test_a_branch_in_a_refuted_orbit_is_not_built(monkeypatch):
    # The orbit test runs before the pinned build, so on rook 4x4 vs
    # Shrikhande only branch 0 and the three branches offered to a try are
    # built, and every try searches the Shrikhande graph against itself.
    # The rows are those of building every branch first: each
    # covered branch passes pinned refinement (the automorphism that covers
    # it preserves pinned colour histograms), so building it first would
    # have come to the same orbit test and the same row.
    g1, g2 = rook_graph(4), shrikhande_graph()
    p = th.build_program(g1, g2)
    built, tries = [], []
    pinned = thetaiso.solver.branch_program
    attempt = thetaiso.solver._automorphism_try

    def recording_build(q, v, k):
        if q is p:
            built.append(k)
        return pinned(q, v, k)

    def recording_try(g, r, k):
        tries.append(k)
        assert g is g2
        return attempt(g, r, k)

    monkeypatch.setattr(thetaiso.solver, "branch_program", recording_build)
    monkeypatch.setattr(thetaiso.solver, "_automorphism_try", recording_try)
    res = th.solve(p)
    assert res.stop_reason == "branch-bound"
    assert built == [0] + tries and len(built) == 4
    # The full layout is not iterated, so it builds no flat zero index.
    assert "zero_index" not in vars(p)
    [solved, *covered] = res.branches
    assert (solved["k"], solved["dim"], solved["stop_reason"]) == (0, 119, "dual-bound")
    assert [b["k"] for b in covered] == list(range(1, 16))
    for b in covered:
        assert b == {"k": b["k"], "dim": None, "iterations": 0,
                     "stop_reason": "automorphism", "upper_bound": solved["upper_bound"]}
        assert pinned(p, 0, b["k"]) is not None, b


def test_rook_against_shrikhande_tries_build_no_program_and_make_no_eigh(monkeypatch):
    # The tries search the Shrikhande graph against itself by refinement:
    # every program built during the solve is a branch of (rook, Shrikhande),
    # the loop runs once, on branch 0, and every eigh is one of its 12
    # iterations.
    g1, g2 = rook_graph(4), shrikhande_graph()
    p = th.build_program(g1, g2)
    built, solved, dims = [], [], []
    init, admm = thetaiso.program.Program.__init__, thetaiso.solver._admm

    def recording_init(self, graphs, *args, **kwargs):
        built.append(graphs)
        init(self, graphs, *args, **kwargs)

    def recording_admm(q, cfg):
        solved.append(q.pin)
        return admm(q, cfg)

    monkeypatch.setattr(thetaiso.program.Program, "__init__", recording_init)
    monkeypatch.setattr(thetaiso.solver, "_admm", recording_admm)
    monkeypatch.setattr(thetaiso.solver, "eigh_backend",
                        recording_eigh_backend(lambda M: dims.append(M.shape[0])))
    res = th.solve(p)
    assert res.stop_reason == "branch-bound"
    assert res.automorphisms == ROOK_SHRIKHANDE_AUTOMORPHISMS
    assert len(built) == 4 and all(graphs is p.graphs for graphs in built)
    assert solved == [(0, 0)]
    assert dims == [119] * 12 == [res.branches[0]["dim"]] * res.branches[0]["iterations"]


def transposition(r, k):
    """The transposition of r and k, which maps r to k but is no automorphism
    of the Shrikhande graph (no two of its vertices have the same
    neighbours)."""
    a = list(range(16))
    a[r], a[k] = k, r
    return tuple(a)


@pytest.mark.parametrize("offered", [transposition, lambda r, k: tuple(range(16))],
                         ids=["non-automorphism", "identity"])
def test_a_try_that_does_not_map_r_to_k_by_an_automorphism_prunes_no_branch(
        monkeypatch, offered):
    # Each try returns a permutation that fails one of the rung's checks:
    # the transposition fails the edge-by-edge check, and the identity, a
    # real automorphism, does not map r to k.  So every branch is solved, as
    # it was before pruning.
    tries = []

    def offering(g, r, k):
        tries.append((r, k))
        return offered(r, k)

    monkeypatch.setattr(thetaiso.solver, "_automorphism_try", offering)
    g1, g2 = rook_graph(4), shrikhande_graph()
    res = th.solve(th.build_program(g1, g2))
    assert res.stop_reason == "branch-bound" and res.automorphisms == ()
    assert [b["k"] for b in res.branches] == list(range(16))
    for b in res.branches:
        assert b["stop_reason"] == "dual-bound" and b["dim"] == 119, b
    # Every solved branch is refuted and is an orbit of its own, so each k
    # is offered one try from every earlier branch, and all of them fail.
    assert tries == [(r, k) for k in range(1, 16) for r in range(k)]
    v = decide(res, g1, g2)
    assert v.kind is th.VerdictKind.NON_ISOMORPHIC and v.decided_by == "branch-bound"


def test_a_branch_outside_every_refuted_orbit_is_solved(monkeypatch):
    # The Shrikhande graph is the Cayley graph of Z4 x Z4 with vertex
    # 4a + b.  The tries are cut down to the translations by (x, y) with
    # x + y even, real automorphisms whose two orbits are the vertices with
    # a + b even and odd; a try for odd x + y lifts to the identity, which
    # does not map r to k.  Branch 0 is solved and refuted at 12
    # iterations; branch 1, in the other orbit, gets no automorphism from 0
    # and is solved too; every later branch falls in the orbit of 0 or of 1.
    # Branch 2 is covered from 0, branch 3 by the same translation from 1,
    # and branch 4 from 1 after the try from 0 fails.
    tries = []

    def even_translation(g, r, k):
        tries.append((r, k))
        x, y = (k // 4 - r // 4) % 4, (k % 4 - r % 4) % 4
        if (x + y) % 2:
            return tuple(range(16))
        return tuple(4 * ((i // 4 + x) % 4) + (i % 4 + y) % 4 for i in range(16))

    monkeypatch.setattr(thetaiso.solver, "_automorphism_try", even_translation)
    g1, g2 = rook_graph(4), shrikhande_graph()
    res = th.solve(th.build_program(g1, g2))
    assert res.stop_reason == "branch-bound"
    solved = [b for b in res.branches if b["stop_reason"] != "automorphism"]
    assert [b["k"] for b in solved] == [0, 1]
    assert all(b["stop_reason"] == "dual-bound" and b["dim"] == 119 for b in solved)
    assert solved[0]["iterations"] == 12
    assert tries == [(0, 1), (0, 2), (0, 4), (1, 4)]   # no automorphism at (0, 1)
    assert_pruned_by_verified_automorphisms(res, g2)
    parity = {k: (k // 4 + k % 4) % 2 for k in range(16)}
    for b in res.branches:
        assert b["upper_bound"] == solved[parity[b["k"]]]["upper_bound"], b
    for a in res.automorphisms:
        assert all(parity[a[i]] == parity[i] for i in range(16)), a
    v = decide(res, g1, g2)
    assert v.kind is th.VerdictKind.NON_ISOMORPHIC and v.decided_by == "branch-bound"
    assert res.upper_bound == max(b["upper_bound"] for b in solved)


@pytest.mark.parametrize("pair, most_solves", [
    (lambda: (latin_square_graph(CYCLIC_LATIN_5), latin_square_graph(NON_GROUP_LATIN_5)), 3),
    (lambda: (t8_graph(), chang_graph()), 2),
], ids=["latin-5", "t8-chang"])
def test_a_failed_try_leaves_later_branches_their_tries(pair, most_solves):
    # The second graph of each pair has fewer automorphisms than the first,
    # so the first try from branch 0 finds none and that branch's k is
    # solved.  Every later k is still offered a try from each refuted
    # orbit, and verified automorphisms cover all but a few branches.
    g1, g2 = pair()
    res = th.solve(th.build_program(g1, g2))
    assert res.stop_reason == "branch-bound" and res.iterations == 0
    solved = [b for b in res.branches if b["dim"] is not None]
    assert 1 < len(solved) <= most_solves
    assert all(b["stop_reason"] == "dual-bound" for b in solved)
    assert [b["k"] for b in res.branches] == list(range(g1.n))
    assert res.automorphisms
    assert_pruned_by_verified_automorphisms(res, g2)
    v = decide(res, g1, g2)
    assert v.kind is th.VerdictKind.NON_ISOMORPHIC and v.decided_by == "branch-bound"


def relabelled_rook():
    """Rook 4x4 and a relabelling of it, a 2-WL equivalent pair that goes to
    its branches."""
    g1 = rook_graph(4)
    sigma = tuple(np.random.default_rng(7).permutation(16).tolist())
    return g1, th.relabel(g1, sigma)


def test_relabelled_rook_lifts_in_a_branch(monkeypatch):
    # The control pair branches like rook vs Shrikhande; a branch pins vertex
    # 0 to its image and lifts there, so the solve stops on that permutation
    # with no Y (its point is the lift) and no iteration of the full layout,
    # and decide checks it through thetaiso.extraction.is_isomorphism.
    g1, g2 = relabelled_rook()
    checked = []

    def recording(s, a, b):
        checked.append(s)
        return th.is_isomorphism(s, a, b)

    monkeypatch.setattr(thetaiso.extraction, "is_isomorphism", recording)
    res = th.solve(th.build_program(g1, g2))
    assert res.stop_reason == "verified-lift" and res.iterations == 0
    assert res.status is th.SolverStatus.CONVERGED
    assert res.Y is None
    report = th.check_feasible(th.lift(res.permutation).extended(), g1, g2)
    assert report.feasible, report.describe()
    assert res.objective == res.upper_bound == 16.0
    v = decide(res, g1, g2)
    assert v.kind is th.VerdictKind.ISOMORPHIC and v.decided_by == "extraction"
    assert th.is_isomorphism(v.permutation, g1, g2)
    assert checked == [v.permutation]
    branch = res.branches[-1]
    assert branch["stop_reason"] == "verified-lift"
    assert v.permutation[0] == branch["k"]
    assert v.diagnostics["candidates_tried"] == 1
    # The rung returns its lifting branch's own result, with iterations 0
    # and the rung's rows and automorphisms.
    alone = thetaiso.solver._admm(th.branch_program(th.build_program(g1, g2), 0, branch["k"]),
                                  SolverConfig())
    assert alone.iterations == branch["iterations"]
    assert res == replace(alone, iterations=0, branches=res.branches,
                          automorphisms=res.automorphisms, solve_seconds=res.solve_seconds)


def test_relabelled_rook_lifts_in_its_first_branch(monkeypatch):
    # No branch is refuted before branch 0 lifts, so the control pair makes
    # no automorphism try and stops in its first branch, and no eigh ever
    # sees the full layout.
    def no_try(g, r, k):
        raise AssertionError("an automorphism was tried")

    dims = []
    monkeypatch.setattr(thetaiso.solver, "_automorphism_try", no_try)
    monkeypatch.setattr(thetaiso.solver, "eigh_backend",
                        recording_eigh_backend(lambda M: dims.append(M.shape[0])))
    g1, g2 = relabelled_rook()
    p = th.build_program(g1, g2)
    res = th.solve(p)
    [branch] = res.branches
    assert branch["k"] == 0 and branch["stop_reason"] == "verified-lift"
    assert res.stop_reason == "verified-lift" and res.permutation[0] == 0
    assert res.automorphisms == ()
    assert res.iterations == 0
    assert dims == [branch["dim"]] * branch["iterations"] and branch["dim"] < p.dim


def test_branches_refuted_by_colour_histograms_need_no_solve(monkeypatch):
    # C6 against 2 C3 is 2-WL separated, so its 2-WL test is held open to
    # drive the solver's branch step: every pinned 1-WL histogram differs,
    # so neither a branch nor the full layout is solved.
    def no_solve(p, cfg):
        raise AssertionError("a program was solved")

    monkeypatch.setattr(thetaiso.solver, "_two_wl_equivalent", lambda p: True)
    g1 = th.cycle_graph(6)
    g2 = th.disjoint_union(th.cycle_graph(3), th.cycle_graph(3))
    p = th.build_program(g1, g2)
    monkeypatch.setattr(thetaiso.solver, "_admm", no_solve)
    res = th.solve(p)
    assert res.stop_reason == "branch-bound" and res.iterations == 0
    assert res.status is th.SolverStatus.CERTIFIED
    v = decide(res, g1, g2)
    assert v.kind is th.VerdictKind.NON_ISOMORPHIC and v.decided_by == "branch-bound"
    assert res.upper_bound == -math.inf
    assert list(res.branches) == [
        {"k": k, "dim": None, "iterations": 0, "stop_reason": "refinement",
         "upper_bound": -math.inf}
        for k in range(6)
    ]


def test_an_open_branch_does_not_end_the_rung(monkeypatch):
    # With branch 0's lift refused, C4's branch 0 stops at tolerance with its
    # bound at n, which neither lifts nor refutes it.  The rung records it
    # and goes on; branch 1 lifts, with no iteration of the full layout.
    g1 = th.cycle_graph(4)
    g2 = th.relabel(g1, (2, 0, 3, 1))
    verified_lift = thetaiso.solver._verified_lift
    monkeypatch.setattr(thetaiso.solver, "_verified_lift",
                        lambda X, q: None if q.pin == (0, 0) else verified_lift(X, q))
    res = th.solve(th.build_program(g1, g2))
    assert [(b["k"], b["stop_reason"]) for b in res.branches] == [
        (0, "tolerance"), (1, "verified-lift")]
    assert res.branches[0]["upper_bound"] >= decision_threshold(4)
    assert res.stop_reason == "verified-lift" and res.iterations == 0
    assert res.permutation == (1, 2, 0, 3)
    v = decide(res, g1, g2)
    assert v.kind is th.VerdictKind.ISOMORPHIC and v.decided_by == "extraction"


def test_a_rung_with_open_branches_and_no_lift_ends_branch_open():
    # Rook 4x4 vs Shrikhande with every branch solve cut at 3 iterations:
    # no branch is refuted, so none is an orbit source and every one is
    # solved.  The rung ends branch-open, with no iteration of the full
    # layout; that proves nothing, so decide is Inconclusive, and the
    # fallback's exact search settles it.
    g1, g2 = rook_graph(4), shrikhande_graph()
    res = th.solve(th.build_program(g1, g2), SolverConfig(max_iter=3))
    assert [(b["k"], b["iterations"], b["stop_reason"]) for b in res.branches] == [
        (k, 3, "max-iter") for k in range(16)]
    assert res.stop_reason == "branch-open" and res.status is th.SolverStatus.CONVERGED
    assert res.iterations == 0 and res.Y is None and res.permutation is None
    assert math.isnan(res.objective)
    assert res.primal_residual == res.dual_residual == math.inf
    assert res.automorphisms == ()
    assert res.upper_bound == max(b["upper_bound"] for b in res.branches)
    assert res.upper_bound >= decision_threshold(16)
    v = decide(res, g1, g2)
    assert v.kind is th.VerdictKind.INCONCLUSIVE and v.decided_by is None
    v = decide(res, g1, g2, SolverConfig(oracle_fallback=True))
    assert v.kind is th.VerdictKind.NON_ISOMORPHIC and v.decided_by == "oracle"


def test_a_pair_that_branches_never_iterates_its_full_layout(solved_corpus):
    # Every 2-WL equivalent pair is decided, or left open, by its branches
    # alone.
    results = [result for _, _, _, _, result, _ in solved_corpus.values()]
    for g1, g2 in [(rook_graph(4), shrikhande_graph()), relabelled_rook(),
                   (cfi_k4_graph(False), cfi_k4_graph(True))]:
        results.append(th.solve(th.build_program(g1, g2)))
    assert sum(bool(res.branches) for res in results) >= 4
    for res in results:
        if res.branches:
            assert res.iterations == 0, res.stop_reason


def test_branch_solves_are_never_polished(monkeypatch):
    # With every branch's lift refused, each of C4's four branches stops at
    # tolerance and the rung ends open.  The rung reads no Y, so each branch
    # makes one eigh an iteration and no polish sweep, and no eigh sees the
    # full layout.  solve on the same branch program returns its Y, so it
    # polishes: more eighs than iterations.
    g1 = th.cycle_graph(4)
    p = th.build_program(g1, th.relabel(g1, (2, 0, 3, 1)))
    monkeypatch.setattr(thetaiso.solver, "_verified_lift", lambda X, q: None)
    dims = []
    monkeypatch.setattr(thetaiso.solver, "eigh_backend",
                        recording_eigh_backend(lambda M: dims.append(M.shape[0])))
    res = th.solve(p)
    assert res.stop_reason == "branch-open" and res.iterations == 0
    assert [b["stop_reason"] for b in res.branches] == ["tolerance"] * 4
    branch = res.branches[0]
    assert branch["dim"] < p.dim
    assert dims == [branch["dim"]] * sum(b["iterations"] for b in res.branches)
    dims.clear()
    q = th.branch_program(p, 0, branch["k"])
    alone = th.solve(q)
    assert alone.stop_reason == "tolerance" and alone.iterations == branch["iterations"]
    assert len(dims) > alone.iterations
    assert thetaiso.solver._admm(q, SolverConfig()).Y.tobytes() != alone.Y.tobytes()


def test_branch_lift_goes_through_the_index_map(monkeypatch):
    # A branch's rounding reads its iterate through the index map, and a
    # rounded isomorphism that keeps to the branch's pairs is accepted.
    # The lift itself is never built in the branch's layout; that the index
    # map cuts the full lift is held by tests/test_program.py.
    g1 = rook_graph(4)
    sigma = tuple(np.random.default_rng(3).permutation(16).tolist())
    g2 = th.relabel(g1, sigma)
    p = th.branch_program(th.build_program(g1, g2), 0, sigma[0])
    X = np.zeros((p.dim, p.dim))
    indices = []

    def search(X, index, eps, budget):
        indices.append(index)
        return sigma

    monkeypatch.setattr(thetaiso.solver, "_consistent_set", search)
    assert thetaiso.solver._verified_lift(X, p) == sigma
    [index] = indices
    assert index is p.index
