"""Diagonal rounding, Birkhoff peeling, consistent sets, and the verdict ladder."""

import gc
import math
import os
import pathlib
import subprocess
import sys
import weakref

import numpy as np
import pytest

import thetaiso as th
import thetaiso.extraction
import thetaiso.solver
from thetaiso.extraction import (
    birkhoff_decompose,
    consistent_set_search,
    decide,
    decision_threshold,
    diagonal_matrix,
    stochastic_deviation,
)
from thetaiso.solver import SolverConfig, SolverResult
from conftest import (
    failing_eigh_backend, random_doubly_stochastic, rook_graph, shrikhande_graph,
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


def test_consistent_set_search_matches_the_loop_search():
    # The vectorized search tries the same candidates in the same order and
    # counts them the same way, so it agrees with the loop under any budget,
    # on symmetric and unsymmetric matrices.  Entries sit on both sides of
    # eps and exactly at it.  A third matrix has one row whose pair-diagonal
    # entries are all at or below eps, so no column is a candidate there;
    # the search gives up on it at once and the loop fails on it.
    eps = 1e-6
    outcomes = {"found": 0, "none": 0}
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        dim = n * n + 1
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
    assert min(outcomes.values()) >= 100, outcomes


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
    # with the fallback, the exact search's answer.
    g1, g2 = pair
    if stop == "diverged":
        monkeypatch.setattr(thetaiso.solver, "eigh_backend", failing_eigh_backend(1))
    res = th.solve(th.build_program(g1, g2), SolverConfig(max_iter=1))
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
    assert v.to_json_dict()["upper_bound"] is None

    v = decide(fake_result(np.zeros((17, 17)), 0.0, upper_bound=3.5), g1, g2)
    assert v.kind is th.VerdictKind.NON_ISOMORPHIC
    assert v.decided_by == "bound"


def test_decide_bound_branch(solved_corpus):
    g1, g2, truth, program, result, verdict = solved_corpus["c6_vs_2c3"]
    assert not truth
    assert verdict.kind is th.VerdictKind.NON_ISOMORPHIC
    assert verdict.decided_by == "bound"
    assert verdict.permutation is None
    assert verdict.upper_bound < verdict.threshold
    assert verdict.diagnostics["separation"] == verdict.threshold - verdict.upper_bound
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
    assert list(doc) == ["kind", "permutation", "upper_bound", "threshold", "decided_by",
                         "diagnostics"]
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

    for name in ("consistent_set_search", "diagonal_matrix", "stochastic_deviation",
                 "birkhoff_decompose"):
        monkeypatch.setattr(thetaiso.extraction, name, unreachable)
    g = th.path_graph(4)
    h = th.relabel(g, (2, 0, 3, 1))
    assert decide(th.solve(th.build_program(g, h)), g, h).kind is th.VerdictKind.ISOMORPHIC
    scope = {"th": th}
    exec(NON_LIFTING_RESULT, scope)
    v = decide(scope["stopped"], scope["c6"], scope["two_c3"])
    assert v.kind is th.VerdictKind.INCONCLUSIVE
    assert v.diagnostics["candidates_tried"] == 0


# ------------------------------------------------------------------ branches

def test_rook_against_shrikhande_is_decided_by_branch_bounds():
    # 2-WL cannot separate the pair, so the unpinned solve branches at
    # iteration 16; every one of the 16 pinned branches is certified below
    # the threshold, which leaves no isomorphism.
    g1, g2 = rook_graph(4), shrikhande_graph()
    res = th.solve(th.build_program(g1, g2))
    assert res.stop_reason == "branch-bound" and res.iterations == 16
    assert res.status is th.SolverStatus.CERTIFIED
    assert res.permutation is None and res.upper_bound >= decision_threshold(16)
    v = decide(res, g1, g2)
    assert v.kind is th.VerdictKind.NON_ISOMORPHIC and v.decided_by == "branch-bound"
    assert v.permutation is None
    branches = res.branches
    assert [b["k"] for b in branches] == list(range(16))
    for b in branches:
        assert b["dim"] == 119 and b["stop_reason"] == "dual-bound", b
        assert b["upper_bound"] < v.threshold, b
        assert set(b) == {"k", "dim", "iterations", "stop_reason", "upper_bound"}
    # The verdict's bound is the largest branch bound, not the unpinned one.
    assert v.upper_bound == max(b["upper_bound"] for b in branches) < v.threshold
    assert v.diagnostics == {"candidates_tried": 0}


def test_relabelled_rook_lifts_in_a_branch(monkeypatch):
    # With the lift switched off for the full layout only, the control pair
    # branches like rook vs Shrikhande; branch 0 pins vertex 0 to its image
    # and lifts there, so the solve stops on the full-layout lift of that
    # permutation, which decide checks through
    # thetaiso.extraction.is_isomorphism.
    g1 = rook_graph(4)
    sigma = tuple(np.random.default_rng(7).permutation(16).tolist())
    g2 = th.relabel(g1, sigma)
    verified_lift = thetaiso.solver._verified_lift
    monkeypatch.setattr(thetaiso.solver, "_verified_lift",
                        lambda X, p: verified_lift(X, p) if p.pin is not None else None)
    checked = []

    def recording(s, a, b):
        checked.append(s)
        return th.is_isomorphism(s, a, b)

    monkeypatch.setattr(thetaiso.extraction, "is_isomorphism", recording)
    res = th.solve(th.build_program(g1, g2))
    assert res.stop_reason == "verified-lift" and res.iterations == 16
    assert res.status is th.SolverStatus.CONVERGED
    assert res.Y.tobytes() == th.lift(res.permutation).extended().tobytes()
    assert res.objective == res.upper_bound == 16.0
    v = decide(res, g1, g2)
    assert v.kind is th.VerdictKind.ISOMORPHIC and v.decided_by == "extraction"
    assert th.is_isomorphism(v.permutation, g1, g2)
    assert checked == [v.permutation]
    branch = res.branches[-1]
    assert branch["stop_reason"] == "verified-lift"
    assert v.permutation[0] == branch["k"]
    assert v.diagnostics["candidates_tried"] == 1


def test_branches_refuted_by_colour_histograms_need_no_solve(monkeypatch):
    # C6 against 2 C3 is 2-WL separated and its bound certifies at 16, so
    # both are held open to drive the solver's branch step: every pinned
    # 1-WL histogram differs, so no branch is solved.
    def no_solve(p, cfg=None):
        raise AssertionError("a refuted branch was solved")

    monkeypatch.setattr(thetaiso.solver, "_dual_upper_bound", lambda p, rho, U: math.inf)
    monkeypatch.setattr(thetaiso.solver, "_two_wl_equivalent", lambda p: True)
    g1 = th.cycle_graph(6)
    g2 = th.disjoint_union(th.cycle_graph(3), th.cycle_graph(3))
    p = th.build_program(g1, g2)
    monkeypatch.setattr(thetaiso.solver, "solve", no_solve)
    res = th.solve(p)
    assert res.stop_reason == "branch-bound" and res.iterations == 16
    assert res.status is th.SolverStatus.CERTIFIED
    v = decide(res, g1, g2)
    assert v.kind is th.VerdictKind.NON_ISOMORPHIC and v.decided_by == "branch-bound"
    assert v.upper_bound == -math.inf and v.to_json_dict()["upper_bound"] is None
    assert list(res.branches) == [
        {"k": k, "dim": None, "iterations": 0, "stop_reason": "refinement",
         "upper_bound": -math.inf}
        for k in range(6)
    ]


def assert_same_solve(a, b):
    assert a.Y.tobytes() == b.Y.tobytes()
    assert (a.iterations, a.stop_reason, a.upper_bound, a.permutation) == (
        b.iterations, b.stop_reason, b.upper_bound, b.permutation)


def test_branches_left_open_leave_the_solve_as_if_it_never_branched(monkeypatch):
    # Without any lift, C4's first branch converges at tolerance with its
    # bound at n, which leaves the pair open.  The solve runs on from
    # iteration 17 and matches, bit for bit, the same solve whose 2-WL check
    # reports the pair separated; only its branch rows differ.
    g1 = th.cycle_graph(4)
    g2 = th.relabel(g1, (2, 0, 3, 1))
    monkeypatch.setattr(thetaiso.solver, "_verified_lift", lambda X, p: None)
    p = th.build_program(g1, g2)
    res = th.solve(p)
    [branch] = res.branches
    assert branch["k"] == 0 and branch["stop_reason"] == "tolerance"
    assert branch["upper_bound"] >= decision_threshold(4)
    assert res.stop_reason == "tolerance" and res.iterations > 16
    monkeypatch.setattr(thetaiso.solver, "_two_wl_equivalent", lambda p: False)
    shut = th.solve(p)
    assert shut.branches == ()
    assert_same_solve(res, shut)
    v = decide(res, g1, g2)
    assert v.kind is th.VerdictKind.INCONCLUSIVE and v.decided_by is None
    assert v == decide(shut, g1, g2)
    v = decide(res, g1, g2, SolverConfig(oracle_fallback=True))
    assert v.kind is th.VerdictKind.ISOMORPHIC and v.decided_by == "oracle"


def lift_after_the_gate(monkeypatch):
    """Refuse the lift in every branch and at the full layout's first four
    checks (iterations 2, 4, 8 and 16); returns the list of full-layout
    checks made."""
    verified_lift = thetaiso.solver._verified_lift
    full_checks = []

    def late_lift(X, p):
        if p.pin is not None:
            return None
        full_checks.append(p)
        return verified_lift(X, p) if len(full_checks) > 4 else None

    monkeypatch.setattr(thetaiso.solver, "_verified_lift", late_lift)
    return full_checks


def test_an_isomorphic_pair_left_open_by_its_branches_lifts_as_the_solve_runs_on(monkeypatch):
    # The lift is refused at the four checks up to iteration 16 and in every
    # branch, so branch 0 leaves the pair open.  The same solve lifts at its
    # next check, iteration 32, exactly as the solve whose 2-WL check reports
    # the pair separated does.
    g1 = th.cycle_graph(4)
    g2 = th.relabel(g1, (2, 0, 3, 1))
    p = th.build_program(g1, g2)
    full_checks = lift_after_the_gate(monkeypatch)
    res = th.solve(p)
    assert res.stop_reason == "verified-lift" and res.iterations == 32
    assert len(full_checks) == 5
    assert [b["stop_reason"] for b in res.branches] == ["tolerance"]
    full_checks.clear()
    monkeypatch.setattr(thetaiso.solver, "_two_wl_equivalent", lambda p: False)
    shut = th.solve(p)
    assert shut.branches == () and len(full_checks) == 5
    assert_same_solve(res, shut)
    v = decide(res, g1, g2)
    assert v.kind is th.VerdictKind.ISOMORPHIC and v.decided_by == "extraction"
    assert th.is_isomorphism(v.permutation, g1, g2)


def test_a_diverged_branch_leaves_the_pair_to_the_running_solve(monkeypatch):
    # eigh fails at the first branch's first call: the branch row records
    # the divergence, and the solve, whose own eighs succeed, runs on and
    # lifts at iteration 32.
    g1 = th.cycle_graph(4)
    g2 = th.relabel(g1, (2, 0, 3, 1))
    monkeypatch.setattr(thetaiso.solver, "eigh_backend", failing_eigh_backend(17))
    lift_after_the_gate(monkeypatch)
    res = th.solve(th.build_program(g1, g2))
    [branch] = res.branches
    assert branch["stop_reason"] == "diverged" and branch["iterations"] == 1
    assert res.stop_reason == "verified-lift" and res.iterations == 32
    v = decide(res, g1, g2)
    assert v.kind is th.VerdictKind.ISOMORPHIC and "branches" not in v.diagnostics


def test_branch_lift_goes_through_the_index_map(monkeypatch):
    # A rounded permutation that uses a pair the branch dropped is no lift of
    # the branch, even an isomorphism; one that keeps to the branch's pairs
    # lifts to the full lift read through the index map.
    g1 = rook_graph(4)
    sigma = tuple(np.random.default_rng(3).permutation(16).tolist())
    g2 = th.relabel(g1, sigma)
    p = th.branch_program(th.build_program(g1, g2), 0, sigma[0])
    # sigma after the row shift u -> u + 4 (mod 16), an automorphism of rook
    # 4x4: an isomorphism too, but one that maps vertex 0 elsewhere.
    other = tuple(sigma[(i + 4) % 16] for i in range(16))
    assert th.is_isomorphism(other, g1, g2) and other[0] != sigma[0]
    X = np.zeros((p.dim, p.dim))
    for candidate, expected in ((other, None), (sigma, sigma)):
        monkeypatch.setattr(thetaiso.solver, "consistent_set_search",
                            lambda Y, eps, budget=None, c=candidate: c)
        lifted = thetaiso.solver._verified_lift(X, p)
        if expected is None:
            assert lifted is None
        else:
            s, Y = lifted
            assert s == sigma
            full = th.lift(sigma).extended()
            assert Y.tobytes() == full[np.ix_(p.index, p.index)].tobytes()
