"""Turning a solve into an exact verdict, and the rounding tools around it.

Two routes out of a solve.  A certified upper bound on the relaxation's
optimum below n - 1/(4 n^4) proves that no isomorphism exists: an isomorphic
pair always admits a feasible point of value exactly n.  The bound is the
solver's weak-duality ``upper_bound``, built from its dual variables; the
primal objective never decides, because a maximization's primal iterate only
bounds the optimum from below.  Isomorphic rests on the permutation the
solver carries when it stopped on a verified lift (``SolverResult.permutation``);
``decide`` checks it exactly against both edge sets before it is believed and
never reads Y.  A pair that 2-WL cannot tell apart branches before its
full layout is solved (see ``solver``).  Its branch-bound stop, every pinned branch
refuted, is NonIsomorphic, and its ``upper_bound`` is the largest branch
bound (a branch an automorphism of the second graph covers carries the
bound of the refuted branch it maps from); a branch's lift reaches
``decide`` as the solve's permutation and is checked like any other.  If
no route decides, the verdict is inconclusive, or, with the oracle
fallback, settled by exact search; the solver's status (converged, out of
iterations, diverged) changes none of these steps.

``birkhoff_decompose`` and ``stochastic_deviation`` are tools on doubly
stochastic matrices, such as the n x n pair diagonal of a solved Y; no
verdict depends on them.  ``benchmarks/tracing.py`` patches three names
here: ``is_isomorphism``, which ``decide`` calls, and
``consistent_set_search`` (re-exported from ``lifts``) and
``birkhoff_decompose``, which it does not; CI's traced benchmark runs fail
without them until ROADMAP item 2, the benchmark refresh, updates the tracer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .lifts import ZERO_EPS, consistent_set_search
from .oracle import enumerate_isomorphisms, is_isomorphism, pair_order
from .program import decision_threshold
from .solver import SolverConfig

__all__ = [
    "stochastic_deviation",
    "BirkhoffResult",
    "birkhoff_decompose",
    "consistent_set_search",
    "VerdictKind",
    "Verdict",
    "decide",
]


def stochastic_deviation(X):
    """Worst deviation of a non-empty square matrix from doubly stochastic:
    the largest distance of a row or column sum from 1, or of an entry
    below 0."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1] or X.shape[0] == 0:
        raise ValueError(f"expected a non-empty square matrix, got {X.shape}")
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
    dev = stochastic_deviation(X)      # rejects all but a non-empty square matrix
    n = X.shape[0]
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
    """The decision on a pair; the solve it rests on, and the certified
    bound of a NonIsomorphic verdict, are the ``SolverResult``'s."""

    kind: VerdictKind
    permutation: tuple | None
    threshold: float
    decided_by: str | None        # 'bound', 'branch-bound', 'extraction', 'oracle', or None
    diagnostics: dict = field(default_factory=dict)   # what decide adds, never the solve's

    def to_json_dict(self):
        return {
            "kind": self.kind.value,
            "permutation": list(self.permutation) if self.permutation is not None else None,
            "threshold": float(self.threshold),
            "decided_by": self.decided_by,
            "diagnostics": self.diagnostics,
        }


def decide(result, g1, g2, cfg=None):
    """Turn a solver result into a verdict for the graph pair.

    Ladder: a branch-bound stop is NonIsomorphic ("branch-bound"); then a
    certified ``result.upper_bound`` strictly below the separation
    threshold is a sound NonIsomorphic ("bound"); then the permutation the
    solver carries (``result.permutation``), if any, is checked edge by
    edge and decides Isomorphic ("extraction") when it is an isomorphism;
    then, when cfg.oracle_fallback is set, exact search settles the pair.
    Anything else is inconclusive.  No step reads the solver status, so a
    MaxIter or Diverged solve goes down the same ladder as a Converged one.

    Every NonIsomorphic verdict but the oracle's rests on
    ``result.upper_bound``, on a branch-bound stop the largest branch bound
    (``solve`` says why it holds); the verdict keeps no copy of it.
    ``diagnostics`` holds only what this ladder adds (``candidates_tried``,
    the bound's rank and dimension figures, the ``note``); the solve's own
    record is ``result``.
    """
    if cfg is None:
        cfg = SolverConfig()
    n = pair_order(g1, g2)
    threshold = decision_threshold(n)
    diagnostics = {"candidates_tried": 0}

    def verdict(kind, decided_by, permutation=None):
        return Verdict(kind, permutation, threshold, decided_by, diagnostics)

    if result.stop_reason == "branch-bound":
        return verdict(VerdictKind.NON_ISOMORPHIC, "branch-bound")

    if result.upper_bound < threshold:
        # Any isomorphism would give a feasible point of value exactly n, and
        # no feasible point scores above the upper bound.
        diagnostics["cp_rank_bound"] = n * n * (n * n + 1) // 2
        diagnostics["realization_dim_bound"] = n ** 4
        return verdict(VerdictKind.NON_ISOMORPHIC, "bound")

    sigma = result.permutation
    if sigma is not None:
        diagnostics["candidates_tried"] = 1
        if is_isomorphism(sigma, g1, g2):
            return verdict(VerdictKind.ISOMORPHIC, "extraction", sigma)

    if cfg.oracle_fallback:
        isos = enumerate_isomorphisms(g1, g2, cap=1, size_limit=None)
        diagnostics["note"] = "settled by exact search"
        if isos:
            return verdict(VerdictKind.ISOMORPHIC, "oracle", isos[0])
        return verdict(VerdictKind.NON_ISOMORPHIC, "oracle")

    diagnostics["note"] = "no certified bound and no verified isomorphism"
    return verdict(VerdictKind.INCONCLUSIVE, None)
