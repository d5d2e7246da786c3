"""Turning a solve into an exact verdict, and the rounding tools around it.

Two routes out of a solve.  A certified upper bound on the relaxation's
optimum below n - 1/(4 n^4) proves that no isomorphism exists: an isomorphic
pair always admits a feasible point of value exactly n.  The bound is the
solver's weak-duality ``upper_bound``, built from its dual variables; the
primal objective never decides, because a maximization's primal iterate only
bounds the optimum from below.  Isomorphic rests on the permutation the
solver carries when it stopped on a verified lift (``SolverResult.permutation``);
``decide`` checks it exactly against both edge sets before it is believed and
never reads Y.  A solve that stopped as unseparated (2-WL cannot tell the
graphs apart, so the bound is not expected to) goes on to branches: vertex
0 of the first graph is pinned to each vertex k of the second in turn, and
a smaller program per branch (``program.branch_program``) is solved.  A
branch's verified lift that is an isomorphism decides Isomorphic; bounds
below the threshold in every branch decide NonIsomorphic ("branch-bound").
Branches that leave the pair open hand it back to the full solve, rerun
without the gate, so that the branches never end a pair worse than the full
solve alone would.  If no route decides, the verdict is inconclusive, or,
with the oracle fallback, settled by exact search; the solver's status
(converged, out of iterations, diverged) changes none of these steps.

``birkhoff_decompose`` and ``stochastic_deviation`` are tools on doubly
stochastic matrices, such as the n x n pair diagonal of a solved Y; no
verdict depends on them.  ``consistent_set_search`` and ``diagonal_matrix``
are re-exported from ``lifts``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .lifts import ZERO_EPS, consistent_set_search, diagonal_matrix
from .oracle import enumerate_isomorphisms, is_isomorphism
from .program import branch_program, build_program, decision_threshold
from .solver import SolverConfig, solve

__all__ = [
    "diagonal_matrix",
    "stochastic_deviation",
    "BirkhoffResult",
    "birkhoff_decompose",
    "consistent_set_search",
    "VerdictKind",
    "Verdict",
    "decision_threshold",
    "decide",
]


def stochastic_deviation(X):
    """Worst deviation of a square array from doubly stochastic: the largest
    distance of a row or column sum from 1, or of an entry below 0."""
    X = np.asarray(X, dtype=float)
    return max(
        float(np.abs(X.sum(axis=1) - 1.0).max()),
        float(np.abs(X.sum(axis=0) - 1.0).max()),
        max(0.0, -float(X.min())),
    )


@dataclass(frozen=True)
class BirkhoffResult:
    """Convex combination of permutations approximating a doubly stochastic
    matrix; complete is False when a round found no perfect matching on the
    remaining support (the partial terms are still returned)."""

    terms: tuple       # of (weight, sigma tuple), in extraction order
    complete: bool
    rounds: int

    def weight_sum(self):
        return float(sum(w for w, _ in self.terms))

    def matrix(self):
        if not self.terms:
            raise ValueError("empty decomposition has no matrix")
        n = len(self.terms[0][1])
        M = np.zeros((n, n))
        for w, sigma in self.terms:
            M[np.arange(n), list(sigma)] += w
        return M


def _max_weight_matching(X, support):
    """Heaviest perfect matching inside the support mask, or None.

    One assignment solve (scipy's ``linear_sum_assignment``).  Off the support
    the weight is a finite -BIG, which sinks any matching that uses such an
    entry below every matching on the support (scipy rejects -inf).  Among
    equally heavy matchings the solver's choice stands: deterministic for a
    given X, but in no promised order.
    """
    from scipy.optimize import linear_sum_assignment  # slow import, needed only here
    BIG = float(X.max()) * X.shape[0] + 1.0
    _, cols = linear_sum_assignment(np.where(support, X, -BIG), maximize=True)
    if not support[np.arange(X.shape[0]), cols].all():
        return None
    return tuple(cols.tolist())


def birkhoff_decompose(X, eps=ZERO_EPS):
    """Peel a doubly stochastic matrix into permutations, heaviest first.

    X must be doubly stochastic within 10 * eps.  Each round restricts to
    entries above eps, finds the heaviest perfect matching on that support
    with one assignment solve, and subtracts the minimum matched entry.
    Stops when the remaining mass is below eps or no perfect matching survives.
    Terms come heaviest matching first; between matchings of equal weight the
    order is the assignment solver's, the same on every run but unspecified.
    """
    X = np.array(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError(f"expected a square matrix, got {X.shape}")
    n = X.shape[0]
    dev = stochastic_deviation(X)
    if dev > 10.0 * eps:
        raise ValueError(
            f"matrix is not doubly stochastic within {10 * eps:.1e} (deviation {dev:.3e})"
        )
    np.clip(X, 0.0, None, out=X)

    terms = []
    complete = True
    max_rounds = (n - 1) * (n - 1) + 1
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        if float(X.max()) <= eps:
            rounds -= 1
            break
        support = X > eps
        sigma = _max_weight_matching(X, support)
        if sigma is None:
            complete = False
            break
        w = float(min(X[i, j] for i, j in enumerate(sigma)))
        terms.append((w, sigma))
        for i, j in enumerate(sigma):
            X[i, j] -= w
    else:
        complete = float(X.max()) <= eps
    return BirkhoffResult(terms=tuple(terms), complete=complete, rounds=rounds)


class VerdictKind(str, Enum):
    ISOMORPHIC = "Isomorphic"
    NON_ISOMORPHIC = "NonIsomorphic"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    permutation: tuple | None
    objective: float
    # The certified bound: the solver's (inf if none), or with branch-bound
    # the largest branch bound (-inf if refinement refuted every branch).
    upper_bound: float
    threshold: float
    decided_by: str | None        # 'bound', 'branch-bound', 'extraction', 'oracle', or None
    oracle_used: bool = False
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "kind": self.kind.value,
            "permutation": list(self.permutation) if self.permutation is not None else None,
            "objective": float(self.objective),
            "upper_bound": _finite_or_none(self.upper_bound),
            "threshold": float(self.threshold),
            "decided_by": self.decided_by,
            "oracle_used": bool(self.oracle_used),
            "diagnostics": self.diagnostics,
        }


def _finite_or_none(x):
    """A float for a JSON report, which holds no inf or NaN."""
    return float(x) if math.isfinite(x) else None


def decide(result, g1, g2, cfg=None):
    """Turn a solver result into a verdict for the graph pair.

    Ladder: a certified ``result.upper_bound`` strictly below the separation
    threshold is a sound NonIsomorphic; then the permutation the solver
    carries (``result.permutation``), if any, is checked edge by edge and
    decides Isomorphic when it is an isomorphism; then, after an
    unseparated stop only, the branches; then, when cfg.oracle_fallback is
    set, exact search settles the pair.  Anything else is inconclusive.  No
    step reads the solver status, so a MaxIter or Diverged solve goes down
    the same ladder as a Converged one.

    Branch k pins vertex 0 of g1 to vertex k of g2.  Unequal pinned colour
    histograms refute it with no solve; otherwise ``solve(branch, cfg)``
    runs.  The first branch whose verified lift passes ``is_isomorphism``
    decides Isomorphic ("extraction"); a branch whose bound is below the
    threshold is refuted; the first branch that does neither ends the
    branching undecided.  With every branch refuted the verdict is
    NonIsomorphic ("branch-bound") and its ``upper_bound`` the largest
    branch bound: an isomorphism sigma with sigma(0) = k keeps the pinned
    colours, so its lift is a feasible point of value n in branch k.
    Undecided branching (a branch that converged, ran out of iterations or
    diverged with its bound at or above the threshold) reruns the full layout with
    ``solve(..., gate=False)`` and returns the verdict of that solve, which
    is the verdict of a solve without the gate; its diagnostics describe the
    rerun and add ``gated_at``, the iteration the first solve stopped at.
    ``diagnostics["branches"]`` has one row per branch tried.
    """
    if cfg is None:
        cfg = SolverConfig()
    if g1.n != g2.n:
        raise ValueError(f"graph sizes differ: {g1.n} != {g2.n}")
    n = g1.n
    threshold = decision_threshold(n)
    diagnostics = {
        "status": result.status.value,
        "stop_reason": result.stop_reason,
        # None when the solve diverged before any iteration finished
        "primal_residual": _finite_or_none(result.primal_residual),
        "dual_residual": _finite_or_none(result.dual_residual),
        "iterations": int(result.iterations),
        "candidates_tried": 0,
    }

    def verdict(kind, decided_by, permutation=None, oracle_used=False,
                upper_bound=result.upper_bound):
        return Verdict(
            kind=kind,
            permutation=permutation,
            objective=float(result.objective),
            upper_bound=float(upper_bound),
            threshold=threshold,
            decided_by=decided_by,
            oracle_used=oracle_used,
            diagnostics=diagnostics,
        )

    if result.upper_bound < threshold:
        # Any isomorphism would give a feasible point of value exactly n, and
        # no feasible point scores above the upper bound.
        diagnostics["separation"] = float(threshold - result.upper_bound)
        diagnostics["cp_rank_bound"] = n * n * (n * n + 1) // 2
        diagnostics["realization_dim_bound"] = n ** 4
        return verdict(VerdictKind.NON_ISOMORPHIC, "bound")

    sigma = result.permutation
    if sigma is not None:
        diagnostics["candidates_tried"] = 1
        if is_isomorphism(sigma, g1, g2):
            return verdict(VerdictKind.ISOMORPHIC, "extraction", sigma)

    if result.stop_reason == "unseparated":
        full = build_program(g1, g2)
        branches = diagnostics["branches"] = []
        largest = -math.inf
        for k in range(n):
            program = branch_program(full, 0, k)
            if program is None:
                branches.append({"k": k, "dim": None, "iterations": 0, "stop_reason": None,
                                 "upper_bound": None, "refuted_by": "refinement"})
                continue
            branch = solve(program, cfg)
            branches.append({
                "k": k, "dim": program.dim, "iterations": branch.iterations,
                "stop_reason": branch.stop_reason,
                "upper_bound": _finite_or_none(branch.upper_bound),
            })
            if branch.permutation is not None:
                diagnostics["candidates_tried"] += 1
                if is_isomorphism(branch.permutation, g1, g2):
                    return verdict(VerdictKind.ISOMORPHIC, "extraction", branch.permutation)
            if not branch.upper_bound < threshold:
                break
            largest = max(largest, branch.upper_bound)
        else:
            return verdict(VerdictKind.NON_ISOMORPHIC, "branch-bound", upper_bound=largest)
        # The branches left the pair open; an isomorphic pair may still lift
        # later in the full solve, so it runs on as if there were no gate.
        rerun = decide(solve(full, cfg, gate=False), g1, g2, cfg)
        rerun.diagnostics["candidates_tried"] += diagnostics["candidates_tried"]
        rerun.diagnostics.update(branches=branches, gated_at=result.iterations)
        return rerun

    if cfg.oracle_fallback:
        isos = enumerate_isomorphisms(g1, g2, cap=1, size_limit=None)
        diagnostics["note"] = "settled by exact search"
        if isos:
            return verdict(VerdictKind.ISOMORPHIC, "oracle", isos[0], oracle_used=True)
        return verdict(VerdictKind.NON_ISOMORPHIC, "oracle", oracle_used=True)

    diagnostics["note"] = "no certified bound and no verified isomorphism"
    return verdict(VerdictKind.INCONCLUSIVE, None)
