"""Projection operators and the splitting solver's output contracts."""

import itertools
import json
import math

import numpy as np
import pytest

import thetaiso as th
import thetaiso.extraction
import thetaiso.solver
from thetaiso.cli import dumps_json
from thetaiso.program import (
    branch_program, build_program, decision_threshold, program_to_json_dict,
)
from thetaiso.solver import (
    POLISH_RELAXATION,
    _bound_screen,
    _dual_upper_bound,
    _polish,
    _project_polyhedral,
    _psd_part,
    _verified_lift,
    _zero_index,
    SolverConfig,
    SolverStatus,
    eigh_backend,
    initial_point,
    project_affine,
    project_psd,
    solve,
)

from conftest import (
    cfi_k4_graph, cube_graph, failing_eigh_backend, recording_eigh_backend, rook_graph,
    shrikhande_graph, wagner_graph,
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
    assert SolverConfig(tol=np.float32(0.5), oracle_fallback=True).tol == 0.5


@pytest.mark.parametrize("value", [2.5, 3.0, "5", True, np.float64(5.0)])
def test_config_rejects_non_integer_max_iter(value):
    # range() in solve would fail on a float, and True would run one sweep.
    with pytest.raises(ValueError, match="max_iter"):
        SolverConfig(max_iter=value)


@pytest.mark.parametrize("field, value", [
    ("tol", True), ("tol", "1e-7"), ("tol", None), ("tol", 1j),
    ("oracle_fallback", "no"), ("oracle_fallback", 1), ("oracle_fallback", None),
])
def test_config_rejects_bad_tol_and_oracle_fallback(field, value):
    # True used to pass as a tolerance of 1.0, "1e-7" died with a TypeError in
    # math.isfinite, and a truthy "no" turned the exact search on.
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value})


def test_config_accepts_numpy_integer_max_iter():
    cfg = SolverConfig(max_iter=np.int64(5))
    res = solve(build_program(th.path_graph(4), th.star_graph(4)), cfg)
    assert res.stop_reason == "max-iter" and res.iterations == 5


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


def test_project_psd_moreau_decomposition():
    # Moreau (1962): M = P - Q with P, Q the projections of M and -M onto the
    # PSD cone, both PSD and orthogonal.  Those three facts pin the
    # projection uniquely, so no second eigensolver is needed to check it.
    rng = np.random.default_rng(5)
    for size in (1, 5, 30, 101):
        M = rng.standard_normal((size, size))
        M = 0.5 * (M + M.T)
        P = project_psd(M)
        Q = project_psd(-M)
        norm = float(np.linalg.norm(M))
        assert np.linalg.norm(M - (P - Q)) <= 1e-12 * norm, size
        assert np.linalg.eigvalsh(P)[0] >= -1e-12 * norm, size
        assert np.linalg.eigvalsh(Q)[0] >= -1e-12 * norm, size
        assert abs(float(np.sum(P * Q))) <= 1e-12 * norm ** 2, size


def test_project_psd_rebuild_is_exactly_symmetric():
    # The rebuild B @ B.T from the positive factor is a rank-k update with
    # an exactly symmetric result; an input that is already positive
    # semidefinite is only symmetrised, never rebuilt.
    rng = np.random.default_rng(6)
    for size in (1, 5, 30, 101):
        M = rng.standard_normal((size, size))
        M = M + M.T
        P = project_psd(M)
        assert np.array_equal(P, P.T), size
        B = rng.standard_normal((size, size))
        psd = B @ B.T + np.eye(size)
        psd[0, -1] += 1e-13   # a tiny asymmetry, averaged away
        assert np.array_equal(project_psd(psd), 0.5 * (psd + psd.T)), size


def test_project_psd_rejects():
    with pytest.raises(ValueError):
        project_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not symmetric
    with pytest.raises(ValueError):
        project_psd(np.full((2, 2), np.inf))
    with pytest.raises(ValueError):
        project_psd(np.zeros((2, 3)))


def test_backend_selection():
    assert eigh_backend("numpy") is np.linalg.eigh
    with pytest.raises(ValueError):
        eigh_backend("builtin")


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
    assert res.stop_reason == "verified-lift"
    assert abs(res.objective - 4.0) <= 1e-4


def test_solve_n1():
    g = th.empty_graph(1)
    res = solve(build_program(g, g))
    assert res.status is SolverStatus.CONVERGED
    assert abs(res.objective - KNOWN_OPTIMA["n1"]) <= 1e-6


def test_solve_k2_vs_empty():
    res = solve(build_program(th.complete_graph(2), th.empty_graph(2)))
    assert res.status is SolverStatus.CERTIFIED
    assert res.stop_reason == "dual-bound"
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
    # An isomorphic pair has optimum exactly n, so a valid bound is >= n; no
    # feasible Y scores above n, so the reported bound is capped there.
    for name, (g1, g2, truth, program, result, _) in solved_corpus.items():
        assert result.upper_bound <= program.n, (name, result.upper_bound)
        if truth:
            assert result.upper_bound == program.n, (name, result.upper_bound)


def _reference_upper_bound(p, rho, U):
    """The same bound built densely from the explicit rows of the written
    program: S = sum_i y_i A_i - C - N, with N kept off the entries of the
    omega-norm and diag-link rows."""
    doc = json.loads(dumps_json(program_to_json_dict(p)))
    C = np.zeros((p.dim, p.dim))
    for r, c, coeff in doc["objective"]:
        C[r, c] += coeff
    G = -rho * 0.5 * (U + U.T)
    support = np.zeros((p.dim, p.dim), dtype=bool)
    for row in doc["constraints"]:
        if row["kind"] in ("omega-norm", "diag-link"):
            for r, c, _ in row["entries"]:
                support[r, c] = True
    N = np.where(support, 0.0, np.maximum(-G, 0.0))
    T = C + G + N
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
    # Weak duality does not need optimal duals: any rho and U give a bound,
    # the same one the explicit constraint rows give, and never below the
    # optimum n of an isomorphic pair.
    g1 = th.cycle_graph(4)
    p = build_program(g1, th.relabel(g1, (2, 0, 3, 1)))
    rng = np.random.default_rng(4)
    for _ in range(50):
        rho = rng.uniform(0.1, 4.0)
        U = rng.standard_normal((p.dim, p.dim)) * rng.uniform(0.0, 3.0)
        bound = _dual_upper_bound(p, rho, U, _zero_index(p))
        assert bound == pytest.approx(_reference_upper_bound(p, rho, U), rel=1e-9)
        assert bound >= 4.0


def test_petersen_vs_prism_certified_early():
    # Its primal iterate is far from converging when the dual bound already
    # separates it, at iteration 11.
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    prism = th.Graph(10, outer + inner + [(i, 5 + i) for i in range(5)])
    petersen = th.petersen_graph()
    res = solve(build_program(petersen, prism))
    assert res.status is SolverStatus.CERTIFIED
    assert res.iterations <= 16
    verdict = th.decide(res, petersen, prism)
    assert verdict.kind is th.VerdictKind.NON_ISOMORPHIC
    assert verdict.decided_by == "bound"
    assert res.upper_bound < verdict.threshold


def test_max_iter_status():
    # P4 vs K1,3 is undecided at iteration 5: its exit bound is 4.0.
    res = solve(build_program(th.path_graph(4), th.star_graph(4)), SolverConfig(max_iter=5))
    assert res.status is SolverStatus.MAX_ITER
    assert res.stop_reason == "max-iter"
    assert res.iterations == 5
    assert res.upper_bound >= decision_threshold(4)


def test_a_cap_stop_whose_exit_bound_certifies_is_a_dual_bound_stop():
    # Only the exit bound sees iteration 7, below the loop's first check at 8;
    # it reads 3.9598 against the threshold 3.9990.
    res = solve(build_program(th.path_graph(4), th.star_graph(4)), SolverConfig(max_iter=7))
    assert res.status is SolverStatus.CERTIFIED
    assert res.stop_reason == "dual-bound"
    assert res.iterations == 7
    assert res.upper_bound < decision_threshold(4)


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
    monkeypatch.setattr(thetaiso.solver, "eigh_backend",
                        recording_eigh_backend(lambda M: calls.append(M.shape[0])))

    res = solve(build_program(th.complete_graph(2), th.empty_graph(2)))
    assert res.status is SolverStatus.CERTIFIED
    assert len(calls) == res.iterations

    # A lifted solve stops without a polish.  C4 against a relabelling is
    # 2-WL equivalent, so it lifts in its first branch (dim 7) before any
    # iteration of the full layout; the plain loop lifts the full layout.
    calls.clear()
    g1 = th.cycle_graph(4)
    p = build_program(g1, th.relabel(g1, (2, 0, 3, 1)))
    res = solve(p)
    assert res.stop_reason == "verified-lift" and res.iterations == 0
    [branch] = res.branches
    assert calls == [branch["dim"]] * branch["iterations"] and branch["dim"] < p.dim
    calls.clear()
    res = thetaiso.solver._admm(p, SolverConfig())
    assert res.stop_reason == "verified-lift"
    assert calls == [p.dim] * res.iterations

    # The polish makes exactly one eigh per sweep: replaying as many relaxed
    # sweeps W <- psd(W + beta (proj_P(W) - W)) by hand gives the same bits.
    # The start is an iterate short of P, from a solve kept past its lift.
    monkeypatch.setattr(thetaiso.solver, "_verified_lift", lambda X, p: None)
    Z = solve(p, SolverConfig(max_iter=10)).Y
    calls.clear()
    polished = _polish(Z, p, thetaiso.solver.eigh_backend("numpy"), _zero_index(p))
    assert len(calls) >= 2
    W = Z.copy()
    for _ in calls:
        P = _project_polyhedral(W.copy(), p, _zero_index(p))
        W = _psd_part(W + POLISH_RELAXATION * (P - W), np.linalg.eigh)
    assert W.tobytes() == polished.tobytes()


def test_every_eigh_input_is_exactly_symmetric(monkeypatch):
    # The sweep hands U + X_hat, and the polish its relaxed step, to eigh
    # without a symmetrising pass, so each must be symmetric to the bit.
    seen = []
    monkeypatch.setattr(thetaiso.solver, "eigh_backend",
                        recording_eigh_backend(lambda M: seen.append(np.array_equal(M, M.T))))
    monkeypatch.setattr(thetaiso.solver, "_verified_lift", lambda X, p: None)
    monkeypatch.setattr(thetaiso.solver, "_two_wl_equivalent", lambda p: False)
    g1 = th.cycle_graph(4)
    res = solve(build_program(g1, th.relabel(g1, (2, 0, 3, 1))))
    assert res.stop_reason == "tolerance"
    assert len(seen) > res.iterations   # the main loop and the polish
    assert all(seen)
    assert np.array_equal(res.Y, res.Y.T)


def test_checks_run_on_their_schedules(monkeypatch):
    # The lift is tried at iterations 2, 4, 8, 16, ... (iteration 1 cannot
    # lift: its X has no positive entry between two distinct pairs) and the
    # bound is checked at every iteration from 8; at a shared iteration the
    # bound goes first.  A check whose y_omega already reaches the threshold
    # goes no further, one that passes runs the Cholesky screen, and only a
    # screen that passes computes the bound's eigvalsh (numpy's own
    # cholesky and eigvalsh are counted).  The 2-WL test runs
    # once, before iteration 1.  C10 vs 2C5 is 2-WL separated, so it does
    # not branch, makes no lift try (no permutation can lift) and is
    # certified at iteration 17, after screens at 12 to 16 that reject; the
    # loop run on its own, with its lift tries, stops there too.
    eighs, checks = [], []

    def recording(label, f):
        def recorded(*args):
            checks.append((label, len(eighs)))
            return f(*args)
        return recorded

    monkeypatch.setattr(thetaiso.solver, "eigh_backend", recording_eigh_backend(eighs.append))
    for label, module, name in (("gate", thetaiso.solver, "_two_wl_equivalent"),
                                ("lift", thetaiso.solver, "_verified_lift"),
                                ("bound", thetaiso.solver, "_dual_upper_bound"),
                                ("screen", np.linalg, "cholesky"),
                                ("eigvalsh", np.linalg, "eigvalsh")):
        monkeypatch.setattr(module, name, recording(label, getattr(module, name)))
    c10 = th.cycle_graph(10)
    two_c5 = th.Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])
    p = build_program(c10, two_c5)
    res = solve(p)
    assert res.stop_reason == "dual-bound" and res.iterations == 17
    assert checks == [("gate", 0),
                      ("bound", 8), ("bound", 9), ("bound", 10), ("bound", 11),
                      ("bound", 12), ("screen", 12), ("bound", 13), ("screen", 13),
                      ("bound", 14), ("screen", 14), ("bound", 15), ("screen", 15),
                      ("bound", 16), ("screen", 16),
                      ("bound", 17), ("screen", 17), ("eigvalsh", 17)]
    checks.clear()
    eighs.clear()
    res = thetaiso.solver._admm(p, SolverConfig())
    assert res.stop_reason == "dual-bound" and res.iterations == 17
    assert checks == [("lift", 2), ("lift", 4),
                      ("bound", 8), ("lift", 8), ("bound", 9), ("bound", 10), ("bound", 11),
                      ("bound", 12), ("screen", 12), ("bound", 13), ("screen", 13),
                      ("bound", 14), ("screen", 14), ("bound", 15), ("screen", 15),
                      ("bound", 16), ("screen", 16), ("lift", 16),
                      ("bound", 17), ("screen", 17), ("eigvalsh", 17)]


@pytest.mark.parametrize("pair", ["cube-wagner", "petersen-prism"])
def test_the_bound_certifies_at_its_only_eigvalsh(pair, monkeypatch):
    # Screens that reject cost no eigvalsh, so each of these pairs makes
    # exactly one, the one that certifies, at iteration 11.
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(S):
        calls.append(S.shape[0])
        return eigvalsh(S)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    prism = th.Graph(10, outer + inner + [(i, 5 + i) for i in range(5)])
    g1, g2 = {"cube-wagner": (cube_graph(), wagner_graph()),
              "petersen-prism": (th.petersen_graph(), prism)}[pair]
    p = build_program(g1, g2)
    res = solve(p)
    assert res.stop_reason == "dual-bound" and res.iterations == 11
    assert calls == [p.dim]
    assert res.upper_bound < decision_threshold(p.n)


def test_skipped_bound_checks_could_not_have_certified(solved_corpus, monkeypatch):
    # A check returns inf before building S when y_omega = -rho U_ww already
    # reaches the threshold; the bound is never below y_omega, so each
    # skipped check would have left the solve running.  Checked on the corpus
    # and on the branches and tries of rook 4x4 vs Shrikhande.
    skipped = []

    def checked(p, rho, U, zero_index, threshold=math.inf):
        bound = _dual_upper_bound(p, rho, U, zero_index, threshold)
        if -rho * U[p.omega, p.omega] >= threshold:
            skipped.append(bound == math.inf
                           and _dual_upper_bound(p, rho, U, zero_index) >= threshold)
        return bound

    monkeypatch.setattr(thetaiso.solver, "_dual_upper_bound", checked)
    for _, _, _, program, _, _ in solved_corpus.values():
        solve(program)
    assert solve(build_program(rook_graph(4), shrikhande_graph())).stop_reason == "branch-bound"
    assert skipped and all(skipped)


def test_the_cholesky_screen_never_vetoes_a_certificate(solved_corpus, monkeypatch):
    # A check skips the bound when y_omega = -rho U_ww already reaches the
    # threshold (the bound is never below y_omega), and otherwise screens it
    # by a Cholesky factorization before its eigvalsh.  Every check that
    # returns inf spared a bound that would not have certified; every other
    # check returns, bit for bit, the bound computed with no threshold.
    # Checked on the corpus, the benchmark's pairs, the branches and tries of
    # rook 4x4 vs Shrikhande and branch 0 of CFI(K4), untwisted vs twisted.
    skipped, rejected, passed = [], [], []

    def checked(p, rho, U, zero_index, threshold=math.inf):
        bound = _dual_upper_bound(p, rho, U, zero_index, threshold)
        if math.isfinite(threshold):
            unscreened = _dual_upper_bound(p, rho, U, zero_index)
            if -rho * U[p.omega, p.omega] >= threshold:
                skipped.append(bound == math.inf and unscreened >= threshold)
            elif bound == math.inf:
                rejected.append(unscreened >= threshold)
            else:
                passed.append(bound == unscreened)
        return bound

    monkeypatch.setattr(thetaiso.solver, "_dual_upper_bound", checked)
    for _, _, _, program, _, _ in solved_corpus.values():
        solve(program)
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    prism = th.Graph(10, outer + inner + [(i, 5 + i) for i in range(5)])
    for k in (4, 5):
        two_ck = th.Graph(2 * k, [(i, (i + 1) % k) for i in range(k)]
                          + [(k + i, k + (i + 1) % k) for i in range(k)])
        assert solve(build_program(th.cycle_graph(2 * k), two_ck)).stop_reason == "dual-bound"
    for g1, g2 in ((cube_graph(), wagner_graph()), (th.petersen_graph(), prism)):
        assert solve(build_program(g1, g2)).stop_reason == "dual-bound"
    for g in (cube_graph(), th.path_graph(8), th.cycle_graph(12), th.path_graph(10)):
        perm = tuple(np.random.default_rng(g.n).permutation(g.n).tolist())
        assert solve(build_program(g, th.relabel(g, perm))).stop_reason == "verified-lift"
    assert solve(build_program(rook_graph(4), shrikhande_graph())).stop_reason == "branch-bound"
    branch = branch_program(build_program(cfi_k4_graph(False), cfi_k4_graph(True)), 0, 0)
    assert thetaiso.solver._admm(branch, SolverConfig(max_iter=4000)).stop_reason == "dual-bound"
    assert skipped and all(skipped)
    assert rejected and all(rejected)
    assert passed and all(passed)


def test_the_cholesky_screen_on_hand_made_slack_matrices():
    # mu = (threshold - y_omega) / (n + 1) - delta <= 0 still factors
    # S + (mu + delta) I: a positive definite S passes, and its bound
    # certifies; an S with a negative eigenvalue is rejected, and its bound
    # does not.  The screen leaves S as it is.  A non-finite S gives inf,
    # checked or not.
    n = 3
    p = build_program(th.path_graph(n), th.path_graph(n))
    threshold = decision_threshold(n)
    Q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((p.dim, p.dim)))
    for lam_min, passes in ((0.5, True), (-1e-3, False)):
        S = (Q * np.linspace(lam_min, 2.0, p.dim)) @ Q.T
        S = 0.5 * (S + S.T)
        lam = np.linalg.eigvalsh(S)[0]
        delta = p.dim ** 2 * np.finfo(float).eps * np.linalg.norm(S)
        y_omega = threshold - 0.5 * (n + 1) * delta
        assert (threshold - y_omega) / (n + 1) - delta <= 0.0
        before = S.copy()
        assert _bound_screen(y_omega, S, threshold, n) is passes
        assert S.tobytes() == before.tobytes()
        bound = y_omega + (n + 1) * max(0.0, delta - lam)
        assert (bound < threshold) == passes
    U = np.zeros((p.dim, p.dim))
    for bad in (math.nan, math.inf, -math.inf):
        U[1, 2] = U[2, 1] = bad
        assert _dual_upper_bound(p, 1.0, U, _zero_index(p), threshold) == math.inf
        assert _dual_upper_bound(p, 1.0, U, _zero_index(p)) == math.inf


@pytest.mark.parametrize("fail", ["raise", "nan"])
def test_eigen_failure_ends_as_diverged(fail, monkeypatch):
    # A failed or non-finite eigendecomposition stops the solve at once with
    # the last finite iterate, instead of a traceback or a NaN run to the cap.
    # C4 lifts at iteration 2, so the lift is switched off to reach the third,
    # and its branches are switched off so that the third eigh is the solve's.
    g1 = th.cycle_graph(4)
    p = build_program(g1, th.relabel(g1, (2, 0, 3, 1)))
    monkeypatch.setattr(thetaiso.solver, "_verified_lift", lambda X, p: None)
    monkeypatch.setattr(thetaiso.solver, "_two_wl_equivalent", lambda p: False)
    before = solve(p, SolverConfig(max_iter=2))
    monkeypatch.setattr(thetaiso.solver, "eigh_backend", failing_eigh_backend(3, fail))
    res = solve(p, SolverConfig(max_iter=50))
    assert res.status is SolverStatus.DIVERGED
    assert res.stop_reason == "diverged"
    assert res.iterations == 3
    assert res.Y.tobytes() == before.Y.tobytes()
    assert res.primal_residual == before.primal_residual
    assert math.isfinite(res.objective) and math.isfinite(res.upper_bound)
    verdict = th.decide(res, g1, th.relabel(g1, (2, 0, 3, 1)))
    assert verdict.kind is th.VerdictKind.INCONCLUSIVE


@pytest.mark.parametrize("fail", ["raise", "nan"])
def test_polish_failure_ends_as_diverged(fail, monkeypatch):
    # C4 forced past its lift and its 2-WL gate converges at tolerance and
    # then polishes; an eigendecomposition that fails in the polish returns
    # the converged iterate as Diverged.
    g1 = th.cycle_graph(4)
    p = build_program(g1, th.relabel(g1, (2, 0, 3, 1)))
    monkeypatch.setattr(thetaiso.solver, "_polish", lambda Z, p, eigh, zero_index: Z)
    monkeypatch.setattr(thetaiso.solver, "_verified_lift", lambda X, p: None)
    monkeypatch.setattr(thetaiso.solver, "_two_wl_equivalent", lambda p: False)
    unpolished = solve(p)
    assert unpolished.stop_reason == "tolerance"
    monkeypatch.setattr(thetaiso.solver, "_polish", _polish)
    monkeypatch.setattr(
        thetaiso.solver, "eigh_backend", failing_eigh_backend(unpolished.iterations + 2, fail)
    )
    res = solve(p)
    assert res.status is SolverStatus.DIVERGED
    assert res.stop_reason == "diverged"
    assert res.iterations == unpolished.iterations
    assert res.Y.tobytes() == unpolished.Y.tobytes()


def test_dual_upper_bound_survives_an_eigvalsh_failure(monkeypatch):
    def fail(S):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    p = build_program(th.cycle_graph(4), th.cycle_graph(4))
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    assert _dual_upper_bound(p, 1.0, np.zeros((p.dim, p.dim)), _zero_index(p)) == math.inf


def test_relaxed_sweep_keeps_the_psd_multiplier_psd(monkeypatch):
    # The relaxed step still leaves U the negative part of X_hat + U, so
    # G = -rho sym(U), the bound's PSD multiplier, is PSD at every check.
    seen = []

    def capturing(p, rho, U, zero_index, threshold=math.inf):
        seen.append(U.copy())
        return _dual_upper_bound(p, rho, U, zero_index, threshold)

    monkeypatch.setattr(thetaiso.solver, "_dual_upper_bound", capturing)
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    prism = th.Graph(10, outer + inner + [(i, 5 + i) for i in range(5)])
    assert solve(build_program(th.petersen_graph(), prism)).stop_reason == "dual-bound"
    checks = len(seen)
    assert checks >= 1
    g1 = th.cycle_graph(4)
    monkeypatch.setattr(thetaiso.solver, "_verified_lift", lambda X, p: None)
    monkeypatch.setattr(thetaiso.solver, "_two_wl_equivalent", lambda p: False)
    assert solve(build_program(g1, th.relabel(g1, (2, 0, 3, 1)))).stop_reason == "tolerance"
    assert len(seen) >= checks + 2   # the checks from iteration 8 and the one at exit
    for U in seen:
        lam = float(np.linalg.eigvalsh(-0.5 * (U + U.T))[0])
        assert lam >= -1e-12 * (1.0 + float(np.linalg.norm(U))), lam


def test_verified_lift_is_exactly_feasible_and_optimal(solved_corpus):
    g1, g2, _, _, petersen, _ = solved_corpus["petersen"]
    c12 = th.cycle_graph(12)
    c12_relabel = th.relabel(c12, (3, 7, 11, 0, 5, 9, 1, 10, 2, 6, 4, 8))
    pairs = [(g1, g2, petersen), (c12, c12_relabel, solve(build_program(c12, c12_relabel)))]
    for g1, g2, res in pairs:
        n = g1.n
        assert res.status is SolverStatus.CONVERGED
        assert res.stop_reason == "verified-lift"
        # Both pairs are 2-WL equivalent: branch 0 lifts at the first check,
        # iteration 2, before any iteration of the full layout.
        assert res.iterations == 0
        assert [(b["k"], b["iterations"], b["stop_reason"]) for b in res.branches] == [
            (0, 2, "verified-lift")]
        verdict = th.decide(res, g1, g2)
        assert verdict.kind is th.VerdictKind.ISOMORPHIC and verdict.decided_by == "extraction"
        assert res.Y.tobytes() == th.lift(verdict.permutation).extended().tobytes()
        assert res.objective == n and res.upper_bound == n
        assert res.primal_residual == 0.0 and res.dual_residual == 0.0
        report = th.check_feasible(res.Y, g1, g2)
        assert all(report.magnitudes[c] == 0.0 for c in range(2, 9)), report.describe()
        # A positive zero, so describe() prints 0.000e+00, not -0.000e+00.
        assert all(math.copysign(1.0, report.magnitudes[c]) == 1.0 for c in range(2, 9))
        # The psd condition reads eigvalsh rounding, so it is tiny, not 0.
        assert report.magnitudes[1] <= 1e-12, report.describe()


def test_verified_lift_of_lift_combination():
    # A convex combination of isomorphism lifts, a point of the optimal face
    # of an isomorphic pair, rounds to one of the isomorphisms it mixes.
    g1 = th.cycle_graph(6)
    g2 = th.relabel(g1, (5, 0, 2, 4, 1, 3))
    p = build_program(g1, g2)
    isos = th.enumerate_isomorphisms(g1, g2)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(4))
        chosen = [isos[i] for i in rng.choice(len(isos), 4, replace=False)]
        X = sum(w * th.lift(s).extended() for w, s in zip(weights, chosen))
        sigma, Y = thetaiso.solver._verified_lift(X, p)
        assert sigma in chosen
        assert Y.tobytes() == th.lift(sigma).extended().tobytes()


@pytest.mark.parametrize("name, stop", [("c4", "tolerance"), ("p5", "tolerance")])
def test_converged_exit_tries_the_lift(corpus_entries, monkeypatch, name, stop):
    # At a loose tolerance these pairs converge before iteration 16.  The
    # tries at 2, 4 and 8 are declined, so the solve reaches its convergence
    # test; the exit then rounds the last polyhedral iterate instead.  The
    # branch rung, whose lift tries would be counted too, is left open, so
    # the full layout of this 2-WL equivalent pair is solved with its tries.
    g1, g2 = next((g1, g2) for entry, g1, g2, _ in corpus_entries if entry == name)
    cfg = SolverConfig(tol=0.1)
    p = build_program(g1, g2)
    monkeypatch.setattr(thetaiso.solver, "_branch", lambda p, cfg: (None, None, (), ()))
    monkeypatch.setattr(thetaiso.solver, "_verified_lift", lambda X, p: None)
    plain = solve(p, cfg)
    assert plain.stop_reason == stop and plain.iterations < 16
    assert plain.permutation is None

    in_loop = plain.iterations.bit_length() - 1   # the powers of two 2 .. iterations
    tries = []

    def exit_only_lift(X, p):
        tries.append(X)
        return _verified_lift(X, p) if len(tries) > in_loop else None

    monkeypatch.setattr(thetaiso.solver, "_verified_lift", exit_only_lift)
    res = solve(p, cfg)
    assert len(tries) == in_loop + 1
    assert res.iterations == plain.iterations
    assert res.stop_reason == "verified-lift" and res.status is SolverStatus.CONVERGED
    assert res.Y.tobytes() == th.lift(res.permutation).extended().tobytes()
    assert res.objective == p.n and res.upper_bound == p.n
    verdict = th.decide(res, g1, g2, cfg)
    assert verdict.kind is th.VerdictKind.ISOMORPHIC and verdict.decided_by == "extraction"
    assert verdict.permutation == res.permutation


def test_rounded_non_isomorphism_never_stops_the_solve(monkeypatch):
    # A rounded permutation whose lift hits a zeroed pair is discarded: the
    # solve runs on to the same iterations and the same Y bits as a solve
    # whose rounding never finds anything.  Both then take the non-lift exit,
    # where the polish holds the objective ceiling and feasibility.  The
    # branch rung is left open so that both reach it with their lift tries.
    g1 = th.cycle_graph(4)
    g2 = th.relabel(g1, (2, 0, 3, 1))
    p = build_program(g1, g2)
    monkeypatch.setattr(thetaiso.solver, "_branch", lambda p, cfg: (None, None, (), ()))
    bad = next(s for s in itertools.permutations(range(4)) if not th.is_isomorphism(s, g1, g2))
    calls = []

    def rounding_to(sigma):
        def search(Y, eps, budget=None):
            calls.append(budget)
            return sigma
        return search

    monkeypatch.setattr(thetaiso.solver, "consistent_set_search", rounding_to(None))
    plain = solve(p)
    assert calls
    calls.clear()
    monkeypatch.setattr(thetaiso.solver, "consistent_set_search", rounding_to(bad))
    rounded = solve(p)
    assert calls and set(calls) == {16}  # budget n^2
    tol = SolverConfig().tol
    for res in (plain, rounded):
        assert res.status is SolverStatus.CONVERGED
        assert res.stop_reason == "tolerance"
        assert res.objective <= p.n + 10.0 * tol
        report = th.check_feasible(res.Y, g1, g2, tol=tol)
        assert report.max_violation <= 10.0 * tol, report.describe()
    assert rounded.iterations == plain.iterations
    assert rounded.Y.tobytes() == plain.Y.tobytes()


def test_a_2wl_separated_full_layout_makes_no_lift_try(corpus_entries, monkeypatch):
    # Cube vs Wagner: 2-WL separates them, so no permutation lifts and the
    # solve rounds nothing, in the loop or at exit; it still certifies by the
    # bound.  An isomorphic pair's branches still lift.
    def unreachable(X, p):
        raise AssertionError("lift tried on a 2-WL separated full layout")

    p = build_program(cube_graph(), wagner_graph())
    plain = solve(p)
    with monkeypatch.context() as mp:
        mp.setattr(thetaiso.solver, "_verified_lift", unreachable)
        res = solve(p)
    assert res.stop_reason == "dual-bound" and res.branches == ()
    assert (res.iterations, res.upper_bound) == (plain.iterations, plain.upper_bound)
    assert res.Y.tobytes() == plain.Y.tobytes()
    g1, g2 = next((g1, g2) for entry, g1, g2, _ in corpus_entries if entry == "petersen")
    assert solve(build_program(g1, g2)).stop_reason == "verified-lift"


def test_verified_lift_does_not_reach_into_extraction(monkeypatch):
    # The solver rounds with thetaiso.lifts' search, not decide's patch point.
    def unreachable(*args, **kwargs):
        raise AssertionError("solve called thetaiso.extraction.consistent_set_search")

    monkeypatch.setattr(thetaiso.extraction, "consistent_set_search", unreachable)
    g1 = th.petersen_graph()
    res = solve(build_program(g1, th.relabel(g1, (3, 7, 0, 9, 5, 1, 8, 2, 6, 4))))
    assert res.stop_reason == "verified-lift" and res.status is SolverStatus.CONVERGED


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
