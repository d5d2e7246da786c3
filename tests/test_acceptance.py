"""Acceptance gate: one test per shipped guarantee, at the shipped tolerance.

Run ``pytest tests/test_acceptance.py -v`` to get a single pass/fail line
per criterion.  The criteria, in order:

1. every bundled isomorphic pair solves to objective n within 1e-4 and is
   certified with an exact permutation (Petersen, n=10, in under two minutes);
2. exhaustive agreement on 4 vertices: a permutation's lift passes the
   feasibility audit iff the permutation is an isomorphism;
3. the objective-gap branch is sound: it never fires on a pair the exact
   search proves isomorphic, and every NonIsomorphic verdict matches the
   exact search;
4. the degree-matched non-isomorphic pairs are never called Isomorphic, and
   the bench report records their objective and whether the gap alone
   decided them;
5. points in the hull of isomorphism lifts decompose back over those lifts
   (residual 1e-6 for synthetic combinations, 1e-4 for the lifts of the
   permutations solves return);
6. 1000 randomized united-vector families factor through the nonnegative
   orthant with Gram error at most 1e-9;
7. 100 random doubly stochastic matrices round-trip through the
   permutation-matrix decomposition within n*1e-6;
8. both projections are idempotent, match their worked examples at 1e-10,
   and no converged corpus run exceeds the objective ceiling n + 1e-6;
9. repeating the criterion-1 solves reproduces every serialized digit of
   the objectives and identical verdicts.
"""

import itertools
import os

import numpy as np
import pytest

import thetaiso as th
from thetaiso.cli import dumps_json, main as cli_main

from conftest import united_family, random_doubly_stochastic

ISO_NAMES = ["p5", "c4", "c5", "c6", "c7", "c8", "k5", "petersen"]
NON_ISO_NAMES = ["c6_vs_2c3", "p4_vs_k13", "tree6_pair"]


def test_criterion_1_isomorphic_pairs_certified_at_optimum(solved_corpus):
    for name in ISO_NAMES:
        g1, g2, truth, program, result, verdict = solved_corpus[name]
        n = g1.n
        assert truth
        assert result.status is th.SolverStatus.CONVERGED, name
        assert abs(result.objective - n) <= 1e-4, (
            f"{name}: objective {result.objective} not within 1e-4 of {n}")
        assert verdict.kind is th.VerdictKind.ISOMORPHIC, (
            f"{name}: verdict {verdict.kind}")
        assert verdict.permutation is not None, name
        assert th.is_isomorphism(verdict.permutation, g1, g2), (
            f"{name}: certified permutation is not an exact isomorphism")
    # Runtime budget: the 101x101 instance must finish in under two minutes.
    petersen_result = solved_corpus["petersen"][4]
    assert petersen_result.solve_seconds < 120.0, (
        f"petersen solve took {petersen_result.solve_seconds:.1f}s")


def test_criterion_2_lift_feasible_iff_isomorphism_on_four_vertices(zoo4):
    names = sorted(zoo4)
    pairs = [(a, b) for a, b in itertools.combinations_with_replacement(names, 2)]
    assert len(pairs) >= 6
    discrepancies = []
    for a, b in pairs:
        g1, g2 = zoo4[a], zoo4[b]
        for sigma in itertools.permutations(range(4)):
            truth = th.is_isomorphism(sigma, g1, g2)
            report = th.check_feasible(th.lift(sigma).extended(), g1, g2)
            if report.feasible != truth:
                discrepancies.append((a, b, sigma, truth, report.max_violation))
    assert discrepancies == [], (
        f"{len(discrepancies)} lift/isomorphism disagreements: "
        f"{discrepancies[:5]}")


def test_criterion_3_gap_branch_sound_against_exact_search(solved_corpus):
    for name, (g1, g2, truth, program, result, verdict) in solved_corpus.items():
        exact_iso = bool(th.enumerate_isomorphisms(g1, g2, cap=1, size_limit=None))
        assert exact_iso == truth, f"{name}: manifest truth disagrees with search"
        if exact_iso:
            assert verdict.decided_by != "bound", (
                f"{name}: gap branch fired on an isomorphic pair")
            assert verdict.kind is not th.VerdictKind.NON_ISOMORPHIC, name
        if verdict.kind is th.VerdictKind.NON_ISOMORPHIC:
            assert not exact_iso, (
                f"{name}: NonIsomorphic verdict on an isomorphic pair")


def test_criterion_4_non_isomorphic_pairs_end_to_end(solved_corpus, tmp_path, capsys):
    for name in NON_ISO_NAMES:
        verdict = solved_corpus[name][5]
        assert verdict.kind is not th.VerdictKind.ISOMORPHIC, (
            f"{name}: non-isomorphic pair was called Isomorphic")
    # The bench report must record, per pair, the objective and whether the
    # objective gap alone decided the verdict.
    report_path = str(tmp_path / "bench.json")
    code = cli_main(["bench", th.corpus_path(), "--json", report_path])
    capsys.readouterr()
    assert code == 0
    import json
    with open(report_path) as fh:
        doc = json.load(fh)
    rows = {row["name"]: row for row in doc["pairs"]}
    for name in NON_ISO_NAMES:
        row = rows[name]
        assert row["verdict"] != "Isomorphic", name
        assert isinstance(row["objective"], float), name
        assert isinstance(row["threshold_decided"], bool), name
        assert row["agree"] in (True, None), f"{name}: verdict contradicts truth"


def test_criterion_5_hull_membership_decomposes(solved_corpus):
    rng = np.random.default_rng(20240824)
    lift_cache = {}
    for name in ISO_NAMES:
        g1, g2 = solved_corpus[name][0], solved_corpus[name][1]
        isos = th.enumerate_isomorphisms(g1, g2, size_limit=None)
        lift_cache[name] = [th.lift(sigma) for sigma in isos]

    # Synthetic members of the hull recover with residual <= 1e-6.
    for trial in range(20):
        name = ISO_NAMES[trial % len(ISO_NAMES)]
        lifts = lift_cache[name]
        take = min(len(lifts), int(rng.integers(2, 6)))
        chosen = rng.choice(len(lifts), size=take, replace=False)
        weights = rng.dirichlet(np.ones(take))
        Y = sum(w * lifts[int(i)].extended() for w, i in zip(weights, chosen))
        res = th.convex_decompose(Y, lifts)
        assert res.success and res.residual <= 1e-6, (
            f"{name} trial {trial}: residual {res.residual}")

    # Solver outputs at objective within 1e-4 of n lie in the hull to 1e-4.
    # Each of these solves stops on a verified lift, which returns no Y: its
    # point is the lift of its permutation.
    for name in ISO_NAMES:
        g1, _, _, _, result, _ = solved_corpus[name]
        assert abs(result.objective - g1.n) <= 1e-4
        assert result.Y is None, name
        res = th.convex_decompose(th.lift(result.permutation).extended(), lift_cache[name])
        assert res.success and res.residual <= 1e-4, (
            f"{name}: solver output residual {res.residual}")


def test_criterion_6_united_vector_property_suite():
    rng = np.random.default_rng(6)
    for trial in range(1000):
        k = int(rng.integers(1, 6))
        m = k + 1 + int(rng.integers(0, 4))
        full_mass = trial % 2 == 0
        us, w, a = united_family(rng, k, m, full_mass=full_mass)
        for u in us:
            assert th.is_united(u, w, tol=1e-9)
        if full_mass:
            assert np.max(np.abs(sum(us) - w)) <= 1e-9, (
                f"trial {trial}: full-mass family does not sum to w")
        factors = th.cp_factor_united(us, w, tol=1e-9)
        assert np.min(factors) >= 0.0, f"trial {trial}: negative factor entry"
        original = np.vstack(us + [w])
        gram_error = np.max(np.abs(original @ original.T - factors @ factors.T))
        assert gram_error <= 1e-9, f"trial {trial}: Gram error {gram_error}"


def test_criterion_7_birkhoff_round_trip():
    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(2, 9))
        X, _ = random_doubly_stochastic(rng, n)
        res = th.birkhoff_decompose(X)
        assert res.complete, f"trial {trial}: decomposition incomplete"
        back = np.zeros((n, n))
        total = 0.0
        for weight, sigma in res.terms:
            back[np.arange(n), list(sigma)] += weight
            total += weight
        assert np.max(np.abs(back - X)) <= n * 1e-6, f"trial {trial}"
        assert abs(total - 1.0) <= 1e-6, f"trial {trial}: weight sum {total}"


def test_criterion_8_projection_contracts_and_objective_ceiling(solved_corpus):
    # project_psd worked examples at 1e-10.
    out = th.project_psd(np.diag([1.0, -1.0]))
    assert np.max(np.abs(out - np.diag([1.0, 0.0]))) <= 1e-10
    psd = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert np.max(np.abs(th.project_psd(psd) - psd)) <= 1e-10
    out = th.project_psd(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.max(np.abs(out - np.full((2, 2), 0.5))) <= 1e-10

    # project_affine worked examples at 1e-10, on a real program.
    program = solved_corpus["c4"][3]
    omega = program.omega
    feasible = th.initial_point(program)
    assert np.max(np.abs(th.project_affine(feasible, program) - feasible)) <= 1e-10
    corner = feasible.copy()
    corner[omega, omega] = 3.0
    assert abs(th.project_affine(corner, program)[omega, omega] - 1.0) <= 1e-10
    lopsided = np.zeros_like(feasible)
    d = program.pair_diag[0]
    lopsided[d, omega] = lopsided[omega, d] = 0.2
    lopsided[d, d] = 0.4
    averaged = th.project_affine(lopsided, program)
    assert abs(averaged[d, d] - 0.3) <= 1e-10
    assert abs(averaged[d, omega] - 0.3) <= 1e-10

    # Idempotence of both projections at 1e-10.
    rng = np.random.default_rng(8)
    M = rng.standard_normal((12, 12))
    M = 0.5 * (M + M.T)
    once = th.project_psd(M)
    assert np.max(np.abs(th.project_psd(once) - once)) <= 1e-10
    N = rng.standard_normal(feasible.shape)
    N = 0.5 * (N + N.T)
    affine_once = th.project_affine(N, program)
    affine_twice = th.project_affine(affine_once, program)
    assert np.max(np.abs(affine_twice - affine_once)) <= 1e-10

    # Objective ceiling on every converged corpus run.
    for name, (g1, _, _, _, result, _) in solved_corpus.items():
        if result.status is th.SolverStatus.CONVERGED:
            assert result.objective <= g1.n + 1e-6, (
                f"{name}: objective {result.objective} above ceiling")


def test_criterion_9_determinism_of_repeat_runs(solved_corpus):
    for name in ISO_NAMES:
        g1, g2, _, _, first_result, first_verdict = solved_corpus[name]
        rerun = th.solve(th.build_program(g1, g2))
        verdict = th.decide(rerun, g1, g2)
        assert dumps_json(rerun.objective) == dumps_json(first_result.objective), (
            f"{name}: serialized objectives differ")
        assert dumps_json(verdict.to_json_dict()) == \
            dumps_json(first_verdict.to_json_dict()), (
            f"{name}: verdicts differ between identical runs")
