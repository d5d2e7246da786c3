"""Rounding a solved matrix into an exact verdict.

Three routes out of a solve.  A certified upper bound on the relaxation's
optimum below n - 1/(4 n^4) proves that no isomorphism exists: an isomorphic
pair always admits a feasible point of value exactly n.  The bound is the
solver's weak-duality ``upper_bound``, built from its dual variables; the
primal objective never decides, because a maximization's primal iterate only
bounds the optimum from below.  Otherwise the code tries to read a
permutation out of the matrix: first through a consistent-set search
directly on the entries of Y, then through a Birkhoff decomposition of the
diagonal reshaped to an n x n doubly stochastic matrix.  Every candidate
permutation is checked exactly against both edge sets before it is
believed; if nothing certifies, the verdict is inconclusive (optionally
escalated to the exact search oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .oracle import enumerate_isomorphisms, is_isomorphism
from .program import decision_threshold
from .solver import SolverConfig, SolverStatus

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

# Entries at or below this read as zero when extracting a permutation from Y;
# decide skips Birkhoff peeling on a diagonal more than 10 * ZERO_EPS from
# doubly stochastic.
ZERO_EPS = 1e-6


def diagonal_matrix(Y, n):
    """Extract the pair-diagonal of Y into an n x n assignment array."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] != Y.shape[1] or Y.shape[0] < n * n:
        raise ValueError(f"expected at least a {n * n} square matrix, got {Y.shape}")
    d = np.arange(n * n)
    return Y[d, d].reshape(n, n)


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

    Ties are broken toward the lexicographically smallest permutation by
    fixing rows one at a time: a column is kept for row i only if some
    completion through it still attains the unrestricted optimum.
    """
    from scipy.optimize import linear_sum_assignment  # slow import, needed only here
    n = X.shape[0]
    if (support.sum(axis=1) == 0).any() or (support.sum(axis=0) == 0).any():
        return None
    BIG = float(X.max()) * n + 1.0
    W = np.where(support, X, -BIG)

    def best_total(fixed):
        """Optimal total weight with rows < len(fixed) pinned to fixed cols."""
        k = len(fixed)
        total = float(sum(W[i, j] for i, j in enumerate(fixed)))
        if k == n:
            return total, True
        free_cols = np.array([j for j in range(n) if j not in set(fixed)], dtype=int)
        sub = W[np.ix_(np.arange(k, n), free_cols)]
        rows, cols = linear_sum_assignment(sub, maximize=True)
        sub_total = float(sub[rows, cols].sum())
        chosen = sub[rows, cols]
        ok = bool((chosen > -BIG / 2).all())
        return total + sub_total, ok

    target, ok = best_total([])
    if not ok:
        return None
    fixed = []
    tol = 1e-12 * (1.0 + abs(target))
    for i in range(n):
        used = set(fixed)
        placed = False
        for j in range(n):
            if j in used or not support[i, j]:
                continue
            total, ok = best_total(fixed + [j])
            if ok and total >= target - tol:
                fixed.append(j)
                placed = True
                break
        if not placed:
            return None
    return tuple(fixed)


def birkhoff_decompose(X, eps=ZERO_EPS):
    """Peel a doubly stochastic matrix into permutations, heaviest first.

    X must be doubly stochastic within 10 * eps.  Each round restricts to
    entries above eps, finds the heaviest perfect matching on that support
    (smallest permutation on ties), and subtracts the minimum matched entry.
    Stops when the remaining mass is below eps or no perfect matching survives.
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


def consistent_set_search(Y, eps=ZERO_EPS):
    """Read a permutation out of Y by growing a pairwise-supported set.

    Picks one (row, column) pair per row 0..n-1, trying columns in order of
    decreasing diagonal mass, requiring the diagonal entry and every cross
    entry against the pairs already chosen to exceed eps, with all columns
    distinct.  Returns the permutation or None.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] != Y.shape[1]:
        raise ValueError(f"expected a square matrix, got {Y.shape}")
    n = int(round(np.sqrt(Y.shape[0])))
    if n * n not in (Y.shape[0], Y.shape[0] - 1):
        raise ValueError(f"matrix size {Y.shape[0]} is not n^2 or n^2+1")

    diag = diagonal_matrix(Y, n)
    order = [list(np.argsort(-diag[i], kind="stable")) for i in range(n)]

    chosen = []

    def grow(i):
        if i == n:
            return True
        used = set(chosen)
        for j in order[i]:
            if j in used or diag[i, j] <= eps:
                continue
            if all(Y[i * n + j, k * n + chosen[k]] > eps for k in range(i)):
                chosen.append(int(j))
                if grow(i + 1):
                    return True
                chosen.pop()
        return False

    if grow(0):
        return tuple(chosen)
    return None


class VerdictKind(str, Enum):
    ISOMORPHIC = "Isomorphic"
    NON_ISOMORPHIC = "NonIsomorphic"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    permutation: tuple | None
    objective: float
    upper_bound: float            # the solver's certified bound; inf if none
    threshold: float
    decided_by: str | None        # 'bound', 'extraction', 'oracle', or None
    oracle_used: bool = False
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "kind": self.kind.value,
            "permutation": list(self.permutation) if self.permutation is not None else None,
            "objective": float(self.objective),
            "upper_bound": float(self.upper_bound) if math.isfinite(self.upper_bound) else None,
            "threshold": float(self.threshold),
            "decided_by": self.decided_by,
            "oracle_used": bool(self.oracle_used),
            "diagnostics": self.diagnostics,
        }


def decide(result, g1, g2, cfg=None):
    """Turn a solver result into a verdict for the graph pair.

    Ladder: a certified ``result.upper_bound`` strictly below the separation
    threshold is a sound NonIsomorphic, whatever the solver status; apart
    from that, non-converged solves are inconclusive; otherwise candidate
    permutations from the consistent-set search and the Birkhoff peeling are
    checked exactly, and the first certified one decides Isomorphic.
    Anything else is inconclusive, or settled exactly when
    cfg.oracle_fallback is set.
    """
    if cfg is None:
        cfg = SolverConfig()
    if g1.n != g2.n:
        raise ValueError(f"graph sizes differ: {g1.n} != {g2.n}")
    n = g1.n
    threshold = decision_threshold(n)
    diagnostics = {
        "status": result.status.value,
        "primal_residual": float(result.primal_residual),
        "dual_residual": float(result.dual_residual),
        "iterations": int(result.iterations),
        "candidates_tried": 0,
    }

    def verdict(kind, decided_by, permutation=None, oracle_used=False):
        return Verdict(
            kind=kind,
            permutation=permutation,
            objective=float(result.objective),
            upper_bound=float(result.upper_bound),
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

    if result.status is not SolverStatus.CONVERGED:
        diagnostics["note"] = "solver did not converge; no sound decision available"
        return verdict(VerdictKind.INCONCLUSIVE, None)

    tried = []

    def certify(sigma, method):
        if sigma is None or tuple(sigma) in tried:
            return None
        tried.append(tuple(sigma))
        diagnostics["candidates_tried"] = len(tried)
        if is_isomorphism(sigma, g1, g2):
            diagnostics["extraction_method"] = method
            return verdict(VerdictKind.ISOMORPHIC, "extraction", tuple(sigma))
        return None

    found = certify(consistent_set_search(result.Y, ZERO_EPS), "consistent-set")
    if found is not None:
        return found

    X = diagonal_matrix(result.Y, n)
    deviation = stochastic_deviation(X)
    diagnostics["stochastic_deviation"] = deviation
    if deviation <= 10.0 * ZERO_EPS:
        bvn = birkhoff_decompose(X, ZERO_EPS)
        diagnostics["birkhoff_terms"] = len(bvn.terms)
        diagnostics["birkhoff_complete"] = bool(bvn.complete)
        for _, sigma in bvn.terms:
            found = certify(sigma, "birkhoff")
            if found is not None:
                return found
    else:
        diagnostics["birkhoff_skipped"] = "diagonal is not doubly stochastic"

    if cfg.oracle_fallback:
        isos = enumerate_isomorphisms(g1, g2, cap=1, size_limit=None)
        diagnostics["note"] = "settled by exact search after extraction failed"
        if isos:
            return verdict(VerdictKind.ISOMORPHIC, "oracle", isos[0], oracle_used=True)
        return verdict(VerdictKind.NON_ISOMORPHIC, "oracle", oracle_used=True)

    diagnostics["note"] = (
        "objective within the threshold window but no candidate certified"
    )
    return verdict(VerdictKind.INCONCLUSIVE, None)
