"""Projection operators and the splitting solver's output contracts."""

import numpy as np
import pytest

import thetaiso as th
import thetaiso.solver
from thetaiso.eigensolver import symmetric_eigh
from thetaiso.program import build_program, decision_threshold, program_to_json_dict
from thetaiso.solver import (
    _dual_upper_bound,
    SolverConfig,
    SolverStatus,
    initial_point,
    project_affine,
    project_psd,
    solve,
)

# Doubly nonnegative optima for fixture pairs, confirmed independently with
# an interior-point solver (SCS at eps=1e-9) and, for the first two, by the
# closed form of the tiny program (all cross terms zeroed leaves an arrow
# matrix whose Schur complement caps the diagonal sum at 1).
KNOWN_OPTIMA = {
    "k2_vs_empty": 1.0,
    "n1": 1.0,
    "c6_vs_2c3": 4.0,
    "p4_vs_k13": 3.0,
    "tree6_pair": 5.0,
}


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol"):
            SolverConfig(tol=value)
    cfg = SolverConfig()
    assert cfg.tol == 1e-7 and cfg.max_iter == 50000


def test_project_psd_worked_examples():
    out = project_psd(np.diag([1.0, -1.0]))
    assert np.abs(out - np.diag([1.0, 0.0])).max() <= 1e-10

    rng = np.random.default_rng(1)
    B = rng.standard_normal((4, 4))
    psd = B @ B.T
    assert np.abs(project_psd(psd) - psd).max() <= 1e-10

    out = project_psd(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.abs(out - 0.5 * np.ones((2, 2))).max() <= 1e-10


def test_project_psd_properties():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((6, 6))
    A = 0.5 * (A + A.T)
    P = project_psd(A)
    scale = float(np.linalg.norm(A))
    assert np.linalg.eigvalsh(P)[0] >= -1e-10 * scale
    # idempotence and contraction toward the cone
    P2 = project_psd(P)
    assert np.abs(P2 - P).max() <= 1e-10
    assert np.linalg.norm(P2 - P) <= np.linalg.norm(P - A)


def test_project_psd_matches_symmetric_eigh_reference():
    # The same clip-and-rebuild done through the dependency-free reference
    # eigensolver gives the same projection.
    rng = np.random.default_rng(5)
    A = rng.standard_normal((30, 30))
    A = 0.5 * (A + A.T)
    w, V = symmetric_eigh(A)
    reference = (V * np.maximum(w, 0.0)) @ V.T
    assert np.abs(project_psd(A) - reference).max() <= 1e-9


def test_project_psd_rejects():
    with pytest.raises(ValueError):
        project_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not symmetric
    with pytest.raises(ValueError):
        project_psd(np.full((2, 2), np.inf))
    with pytest.raises(ValueError):
        project_psd(np.zeros((2, 3)))


def test_project_affine_worked_examples():
    g1 = th.cycle_graph(4)
    g2 = th.relabel(g1, (2, 0, 3, 1))
    p = build_program(g1, g2)
    sigma = th.enumerate_isomorphisms(g1, g2, cap=1)[0]

    feasible = th.lift(sigma).extended()
    assert np.abs(project_affine(feasible, p) - feasible).max() <= 1e-10

    M = feasible.copy()
    M[p.omega, p.omega] = 3.0
    assert project_affine(M, p)[p.omega, p.omega] == 1.0

    # an uncoupled diagonal/omega pair averages: (0.2, 0.4) -> both 0.3
    d = int(p.pair_diag[np.argmax(np.diag(feasible)[:-1])])  # a diagonal 1
    M = feasible.copy()
    M[d, p.omega] = M[p.omega, d] = 0.2
    M[d, d] = 0.4
    out = project_affine(M, p)
    assert abs(out[d, p.omega] - 0.3) <= 1e-10
    assert abs(out[p.omega, d] - 0.3) <= 1e-10
    assert abs(out[d, d] - 0.3) <= 1e-10


def test_project_affine_idempotent_and_zeroing():
    g1 = th.path_graph(4)
    g2 = th.star_graph(4)
    p = build_program(g1, g2)
    rng = np.random.default_rng(3)
    M = rng.standard_normal((p.dim, p.dim))
    M = 0.5 * (M + M.T)
    out = project_affine(M, p)
    assert np.abs(out[p.zero_rows, p.zero_cols]).max() == 0.0
    assert out[p.omega, p.omega] == 1.0
    d = p.pair_diag
    assert np.abs(out[d, p.omega] - out[d, d]).max() == 0.0
    again = project_affine(out, p)
    assert np.abs(again - out).max() <= 1e-10


def test_project_affine_rejects():
    p = build_program(th.complete_graph(2), th.complete_graph(2))
    with pytest.raises(ValueError):
        project_affine(np.zeros((4, 4)), p)


def test_initial_point_is_affine_feasible():
    p = build_program(th.cycle_graph(4), th.cycle_graph(4))
    Z = initial_point(p)
    assert np.abs(project_affine(Z, p) - Z).max() == 0.0


def test_solve_c4_reaches_n():
    g1 = th.cycle_graph(4)
    g2 = th.relabel(g1, (2, 0, 3, 1))
    res = solve(build_program(g1, g2))
    assert res.status is SolverStatus.CONVERGED
    assert abs(res.objective - 4.0) <= 1e-4


def test_solve_n1():
    g = th.empty_graph(1)
    res = solve(build_program(g, g))
    assert res.status is SolverStatus.CONVERGED
    assert abs(res.objective - KNOWN_OPTIMA["n1"]) <= 1e-6


def test_solve_k2_vs_empty():
    res = solve(build_program(th.complete_graph(2), th.empty_graph(2)))
    assert res.status is SolverStatus.CERTIFIED
    assert KNOWN_OPTIMA["k2_vs_empty"] <= res.upper_bound < decision_threshold(2)


def test_solve_known_non_isomorphic_optima(solved_corpus):
    for name in ("c6_vs_2c3", "p4_vs_k13", "tree6_pair"):
        _, _, _, program, result, _ = solved_corpus[name]
        assert result.status is SolverStatus.CERTIFIED, name
        assert KNOWN_OPTIMA[name] <= result.upper_bound < decision_threshold(program.n), name


def test_converged_results_meet_invariants(solved_corpus):
    cfg = SolverConfig()
    for name in ("c6_vs_2c3", "p4_vs_k13", "tree6_pair"):
        assert solved_corpus[name][4].status is SolverStatus.CERTIFIED, name
    for name, (g1, g2, truth, program, result, _) in solved_corpus.items():
        if truth:
            assert result.status is SolverStatus.CONVERGED, name
        if result.status is not SolverStatus.CONVERGED:
            continue
        n = program.n
        assert result.objective <= n + 10.0 * cfg.tol, name
        assert np.array_equal(result.Y, result.Y.T), name
        report = th.check_feasible(result.Y, g1, g2, tol=cfg.tol)
        assert report.max_violation <= 10.0 * cfg.tol, (
            name, report.describe()
        )


def test_isomorphic_objective_lower_bound(solved_corpus):
    for name, (g1, g2, truth, program, result, _) in solved_corpus.items():
        if truth:
            assert result.objective >= program.n - 1e-4, name


def test_upper_bound_never_below_isomorphic_optimum(solved_corpus):
    # An isomorphic pair has optimum exactly n, so a valid bound is >= n.
    for name, (g1, g2, truth, program, result, _) in solved_corpus.items():
        if truth:
            assert result.upper_bound >= program.n, (name, result.upper_bound)


def _reference_upper_bound(p, rho, U2, U3):
    """The same bound built densely from the explicit rows of
    program_to_json_dict: S = sum_i y_i A_i - C - N."""
    doc = program_to_json_dict(p)
    C = np.zeros((p.dim, p.dim))
    for r, c, coeff in doc["objective"]:
        C[r, c] += coeff
    N = np.maximum(rho * 0.5 * (U3 + U3.T), 0.0)
    T = C + rho * 0.5 * (U2 + U2.T) + N
    omega = p.omega
    S = -C - N
    for row in doc["constraints"]:
        if row["kind"] == "omega-norm":
            y = T[omega, omega]
            y_omega = y
        elif row["kind"] == "diag-link":
            d = row["entries"][2][0]
            y = (2.0 * T[d, omega] - 2.0 * T[d, d]) / 3.0
        else:
            r, c = row["entries"][0][:2]
            y = 2.0 * T[r, c]
        for r, c, coeff in row["entries"]:
            S[r, c] += y * coeff
    lam = np.linalg.eigvalsh(S)[0]
    delta = p.dim ** 2 * np.finfo(float).eps * np.linalg.norm(S)
    return y_omega + (p.n + 1) * max(0.0, delta - lam)


def test_dual_upper_bound_matches_explicit_rows_for_any_duals():
    # Weak duality does not need optimal duals: any rho, U2 and U3 give a
    # bound, the same one the explicit constraint rows give, and never below
    # the optimum n of an isomorphic pair.
    g1 = th.cycle_graph(4)
    p = build_program(g1, th.relabel(g1, (2, 0, 3, 1)))
    rng = np.random.default_rng(4)
    for _ in range(50):
        rho = rng.uniform(0.1, 4.0)
        U2 = rng.standard_normal((p.dim, p.dim)) * rng.uniform(0.0, 3.0)
        U3 = rng.standard_normal((p.dim, p.dim))
        bound = _dual_upper_bound(p, rho, U2, U3)
        assert bound == pytest.approx(_reference_upper_bound(p, rho, U2, U3), rel=1e-9)
        assert bound >= 4.0


def test_petersen_vs_prism_certified_early():
    # Its primal iterate stalls far from convergence (and scores above n at
    # the stopping point), yet the dual bound separates it within 128 iterations.
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    prism = th.Graph(10, outer + inner + [(i, 5 + i) for i in range(5)])
    petersen = th.petersen_graph()
    res = solve(build_program(petersen, prism))
    assert res.status is SolverStatus.CERTIFIED
    assert res.iterations <= 128
    verdict = th.decide(res, petersen, prism)
    assert verdict.kind is th.VerdictKind.NON_ISOMORPHIC
    assert verdict.decided_by == "bound"
    assert verdict.upper_bound < verdict.threshold


def test_max_iter_status():
    g1 = th.cycle_graph(4)
    g2 = th.relabel(g1, (2, 0, 3, 1))
    res = solve(build_program(g1, g2), SolverConfig(max_iter=5))
    assert res.status is SolverStatus.MAX_ITER
    assert res.iterations == 5


def test_determinism_bitwise():
    g1 = th.cycle_graph(5)
    g2 = th.relabel(g1, (1, 3, 0, 4, 2))
    p1 = build_program(g1, g2)
    p2 = build_program(g1, g2)
    r1 = solve(p1)
    r2 = solve(p2)
    assert r1.iterations == r2.iterations
    assert r1.objective == r2.objective
    assert np.array_equal(r1.Y, r2.Y)


def test_eigh_hook_sees_every_solver_eigendecomposition(monkeypatch):
    # A wrapper set on thetaiso.solver.eigh_backend sees one eigh per
    # iteration, plus one per polish sweep after convergence.  A profiler
    # reads polish sweeps as eigh calls - iterations.
    calls = []
    backend = thetaiso.solver.eigh_backend

    def counting_backend(name):
        eigh = backend(name)

        def counted(M):
            calls.append(M.shape[0])
            return eigh(M)

        return counted

    monkeypatch.setattr(thetaiso.solver, "eigh_backend", counting_backend)

    res = solve(build_program(th.complete_graph(2), th.empty_graph(2)))
    assert res.status is SolverStatus.CERTIFIED
    assert len(calls) == res.iterations

    calls.clear()
    g1 = th.cycle_graph(4)
    res = solve(build_program(g1, th.relabel(g1, (2, 0, 3, 1))))
    assert res.status is SolverStatus.CONVERGED
    assert len(calls) > res.iterations


def test_against_interior_point_solver():
    cp = pytest.importorskip("cvxpy")
    g1 = th.path_graph(4)
    g2 = th.star_graph(4)
    p = build_program(g1, g2)
    Y = cp.Variable((p.dim, p.dim), symmetric=True)
    d = p.pair_diag
    cons = [Y >> 0, Y >= 0, Y[p.omega, p.omega] == 1,
            Y[d, p.omega] == cp.diag(Y)[d],
            Y[p.zero_rows, p.zero_cols] == 0]
    prob = cp.Problem(cp.Maximize(cp.sum(cp.diag(Y)[d])), cons)
    prob.solve(solver=cp.SCS, eps=1e-8, max_iters=100000)
    res = solve(p)
    assert prob.value <= res.upper_bound
