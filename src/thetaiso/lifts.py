"""Rank-one permutation lifts, feasibility checking, and decompositions.

A permutation sigma on n vertices lifts to the rank-one matrix p p^T where p
is the row-major vectorization of the permutation matrix (p[i*n+j] = 1 iff
sigma(i) = j).  Appending a 1 for the omega coordinate gives the extended lift
q q^T, which is the canonical feasible point of the program built by
``build_program`` exactly when sigma is an isomorphism.  This module also
implements the united-vector test and its explicit completely positive
factorization, nonnegative-least-squares decomposition of a matrix into a
convex combination of given lifts, and the way back: reading a permutation
out of a lifted matrix (``diagonal_matrix``, ``consistent_set_search``).

Every lifted matrix here is (n^2+1)-square with n >= 1: pair (i, j) at
i*n + j, omega last.  ``_lifted_order`` is the one check of that shape.
The search behind ``consistent_set_search`` also reads a branch's layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import conflict_pairs
from .oracle import is_permutation, pair_order

__all__ = [
    "PermutationLift",
    "lift",
    "FeasibilityViolation",
    "FeasibilityReport",
    "check_feasible",
    "is_united",
    "cp_factor_united",
    "ConvexCombination",
    "DecompositionResult",
    "convex_decompose",
    "diagonal_matrix",
    "consistent_set_search",
]

# Entries at or below this read as zero when a permutation is read out of Y
# (the solver's verified lift) or a doubly stochastic matrix is peeled.
ZERO_EPS = 1e-6

CONDITION_NAMES = {
    1: "psd",
    2: "nonnegative",
    3: "omega-norm",
    4: "diag-link",
    5: "row-orth",
    6: "col-orth",
    7: "edge-mismatch-1",
    8: "edge-mismatch-2",
}


def permutation_vector(sigma):
    """Row-major 0/1 vectorization of the permutation matrix of sigma.  An
    entry must be integral and not a bool: 1.0 reads as 1; 1.9 and True fail."""
    values = tuple(sigma)
    sigma = tuple(int(v) for v in values if not isinstance(v, (bool, np.bool_)))
    n = len(sigma)
    if n < 1 or sigma != values or not is_permutation(sigma, n):
        raise ValueError(f"not a permutation of 0..n-1 with n >= 1: {values}")
    p = np.zeros(n * n)
    for i, j in enumerate(sigma):
        p[i * n + j] = 1.0
    return p


def _lifted_order(Y):
    """n for a lifted matrix Y of side n^2 + 1 with n >= 1; else ValueError."""
    shape = np.shape(Y)
    side = shape[0] if len(shape) == 2 and shape[0] == shape[1] else 0
    n = math.isqrt(max(side - 1, 0))
    if n < 1 or n * n + 1 != side:
        raise ValueError(f"expected an (n^2+1)-square matrix with n >= 1, got shape {shape}")
    return n


@dataclass(frozen=True)
class PermutationLift:
    """The rank-one lift of one permutation."""

    sigma: tuple
    n: int

    def extended(self):
        """(n^2+1)-square lift q q^T, q the permutation vector with omega's 1 appended."""
        q = np.append(permutation_vector(self.sigma), 1.0)
        return np.outer(q, q)


def lift(sigma):
    sigma = tuple(sigma)
    permutation_vector(sigma)  # rejects a non-permutation here, not at first use
    return PermutationLift(sigma=tuple(int(v) for v in sigma), n=len(sigma))


@dataclass(frozen=True)
class FeasibilityViolation:
    condition: int          # 1..8
    kind: str               # name from CONDITION_NAMES
    where: tuple | None     # offending index pair, or None for psd
    magnitude: float


@dataclass(frozen=True)
class FeasibilityReport:
    """Worst violation per condition, plus the list of those above tolerance."""

    tol: float
    magnitudes: dict        # condition number -> worst magnitude (always all 8)
    worst_where: dict       # condition number -> index of the worst entry
    violations: tuple       # FeasibilityViolation for conditions above tolerance

    @property
    def feasible(self):
        return not self.violations

    @property
    def max_violation(self):
        return max(self.magnitudes.values())

    def describe(self):
        lines = []
        for cond in sorted(self.magnitudes):
            mark = "FAIL" if any(v.condition == cond for v in self.violations) else "ok"
            lines.append(
                f"({cond}) {CONDITION_NAMES[cond]:>15s}: worst {self.magnitudes[cond]:.3e} [{mark}]"
            )
        return "\n".join(lines)


def _worst_at(Y, rows, cols):
    """Largest |Y[r,s]| over paired index arrays and where it first occurs."""
    if not len(rows):
        return 0.0, None
    vals = np.abs(Y[rows, cols])
    k = int(np.argmax(vals))
    return float(vals[k]), (int(rows[k]), int(cols[k]))


def check_feasible(Y, g1, g2, tol=1e-6):
    """Check a candidate matrix against all eight feasibility conditions.

    Y must be finite and symmetric of size (n^2+1) with n = g1.n = g2.n.
    Conditions 2-8 flag entries whose deviation exceeds tol; the eigenvalue
    condition uses the relative slack tol * (1 + ||Y||_F).  The report always
    records the worst magnitude for every condition, violated or not.
    """
    n = pair_order(g1, g2)
    Y = np.asarray(Y, dtype=float)
    order = _lifted_order(Y)
    if order != n:
        raise ValueError(f"matrix is for n = {order}, graphs have n = {n}")
    if not np.isfinite(Y).all():
        raise ValueError("matrix contains non-finite entries")
    dim = n * n + 1
    asym = float(np.abs(Y - Y.T).max())
    if asym > tol:
        raise ValueError(f"matrix is not symmetric: max |Y - Y^T| = {asym:.3e}")
    Y = 0.5 * (Y + Y.T)
    omega = n * n

    magnitudes = {}
    worst_where = {}

    norm = float(np.linalg.norm(Y))
    eigs = np.linalg.eigvalsh(Y)
    magnitudes[1] = float(max(0.0, -eigs[0]))
    worst_where[1] = None

    neg = np.minimum(Y, 0.0)
    k = int(np.argmin(neg))
    magnitudes[2] = max(0.0, -float(neg.flat[k]))  # +0.0, never -0.0
    worst_where[2] = (k // dim, k % dim)

    magnitudes[3] = abs(float(Y[omega, omega]) - 1.0)
    worst_where[3] = (omega, omega)

    d = np.arange(n * n)
    link = np.abs(Y[d, omega] - Y[d, d])
    k = int(np.argmax(link))
    magnitudes[4] = float(link[k])
    worst_where[4] = (k, omega)

    conflicts = conflict_pairs(g1, g2)
    for cond in (5, 6, 7, 8):
        rows, cols = conflicts[CONDITION_NAMES[cond]]
        magnitudes[cond], worst_where[cond] = _worst_at(Y, rows, cols)

    thresholds = {c: tol for c in range(1, 9)}
    thresholds[1] = tol * (1.0 + norm)
    violations = tuple(
        FeasibilityViolation(c, CONDITION_NAMES[c], worst_where[c], magnitudes[c])
        for c in range(1, 9)
        if magnitudes[c] > thresholds[c]
    )
    return FeasibilityReport(
        tol=tol, magnitudes=magnitudes, worst_where=worst_where, violations=violations
    )


def is_united(u, w, tol=1e-9):
    """A vector u is united with w when u.w equals u.u within tol."""
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if u.shape != w.shape or u.ndim != 1:
        raise ValueError(f"shape mismatch: {u.shape} vs {w.shape}")
    return abs(float(u @ w) - float(u @ u)) <= tol


def cp_factor_united(us, w, tol=1e-9):
    """Explicit nonnegative factors for orthogonal united vectors.

    Given pairwise-orthogonal nonzero vectors u_1..u_k each united with a unit
    vector w, returns a (k+1) x (k+1) array whose rows are replacement factors
    u'_1..u'_k, w' with all the same pairwise inner products as the originals
    and nonnegative entries: u'_i = sqrt(a_i) e_i with a_i = u_i . w, and
    w' = (sqrt(a_1), ..., sqrt(a_k), sqrt(1 - sum a_i)).
    """
    w = np.asarray(w, dtype=float)
    us = [np.asarray(u, dtype=float) for u in us]
    k = len(us)
    if k == 0:
        raise ValueError("need at least one united vector")
    wn = float(w @ w)
    if abs(wn - 1.0) > tol:
        raise ValueError(f"w must be a unit vector: |w|^2 = {wn}")
    a = np.empty(k)
    for i, u in enumerate(us):
        if u.shape != w.shape:
            raise ValueError("all vectors must share one dimension")
        uu = float(u @ u)
        if uu <= tol:
            raise ValueError(f"united vector {i} is numerically zero")
        if not is_united(u, w, tol):
            raise ValueError(f"vector {i} is not united with w")
        a[i] = float(u @ w)
    for i in range(k):
        for j in range(i + 1, k):
            dot = float(us[i] @ us[j])
            if abs(dot) > tol:
                raise ValueError(f"vectors {i} and {j} are not orthogonal: {dot}")
    rest = 1.0 - float(a.sum())
    if rest < -tol:
        raise ValueError(f"united weights exceed |w|^2: sum a_i = {a.sum()}")
    out = np.zeros((k + 1, k + 1))
    roots = np.sqrt(a)
    for i in range(k):
        out[i, i] = roots[i]
    out[k, :k] = roots
    out[k, k] = np.sqrt(max(rest, 0.0))
    return out


@dataclass(frozen=True)
class ConvexCombination:
    """Positive weights on permutation lifts, summing to one."""

    terms: tuple  # of (weight, PermutationLift)

    def matrix(self):
        """The recombined (n^2+1)-square matrix."""
        return sum(w * L.extended() for w, L in self.terms)

    def weight_sum(self):
        return float(sum(w for w, _ in self.terms))


@dataclass(frozen=True)
class DecompositionResult:
    success: bool
    residual: float         # max-entry deviation of the recombination
    combination: ConvexCombination | None


def convex_decompose(Y, lifts, tol=1e-4):
    """Express Y as a convex combination of the given lifts, if possible.

    Y is (n^2+1)-square, and the fit and its residual cover all of it: the
    pair block, omega's row and column, and the corner.  Solves a
    nonnegative least-squares fit of the vectorized extended lifts to Y with
    the sum-to-one condition appended as a heavily weighted extra row, prunes
    negligible weights, renormalizes, and reports the max-entry deviation of
    the recombined matrix.  Lifts may be linearly dependent; only the
    recombination is meaningful, not the individual weights.
    """
    if not lifts:
        raise ValueError("need at least one candidate lift")
    Y = np.asarray(Y, dtype=float)
    n = _lifted_order(Y)
    if any(L.n != n for L in lifts):
        raise ValueError(f"every lift must have n = {n}, the matrix's")

    from scipy.optimize import nnls  # slow import, needed only here
    mu = 1e5  # weight of the sum-to-one row relative to the entrywise fit
    A = np.empty((Y.size + 1, len(lifts)))
    for c, L in enumerate(lifts):
        A[:-1, c] = L.extended().reshape(-1)
    A[-1, :] = mu
    b = np.append(Y.reshape(-1), mu)
    weights, _ = nnls(A, b)

    keep = weights > 1e-12
    if not keep.any():
        return DecompositionResult(success=False, residual=float("inf"), combination=None)
    weights = weights * keep
    total = float(weights.sum())
    weights = weights / total
    recomposed = (A[:-1, :] @ weights).reshape(Y.shape)
    residual = float(np.abs(recomposed - Y).max())
    if residual > tol:
        return DecompositionResult(success=False, residual=residual, combination=None)
    terms = tuple(
        (float(w), L) for w, L in zip(weights, lifts) if w > 1e-12
    )
    return DecompositionResult(
        success=True, residual=residual, combination=ConvexCombination(terms=terms)
    )


def diagonal_matrix(Y):
    """The pair-diagonal of an (n^2+1)-square Y as an n x n assignment array."""
    Y = np.asarray(Y, dtype=float)
    n = _lifted_order(Y)
    d = np.arange(n * n)
    return Y[d, d].reshape(n, n)


def consistent_set_search(Y, eps=ZERO_EPS, budget=None):
    """Read a permutation out of an (n^2+1)-square Y by growing a
    pairwise-supported set.

    Picks one (row, column) pair per row 0..n-1, trying columns in order of
    decreasing diagonal mass, requiring the diagonal entry and every cross
    entry against the pairs already chosen to exceed eps, with all columns
    distinct.  Returns the permutation or None: at once when some row has
    no diagonal entry above eps, and with a budget, also once that many
    candidate pairs have had their cross entries tested.
    """
    Y = np.asarray(Y, dtype=float)
    n = _lifted_order(Y)
    return _consistent_set(Y, np.arange(n * n + 1), eps, budget)


def _consistent_set(X, index, eps, budget):
    """``consistent_set_search`` on X, whose row a holds the full-layout
    index index[a] (``Program.index``: kept pairs increasing, omega n^2
    last).  For eps >= 0 this is the search on X placed in the full layout
    with every other pair 0, which holds no candidate and is never built:
    each row's candidates are its kept pairs above eps, by decreasing
    diagonal mass, ties by column.
    """
    n = math.isqrt(int(index[-1]))
    kept = len(index) - 1
    diag = X.diagonal()[:kept]
    rows, cols = np.divmod(index[:kept], n)
    order = [[] for _ in range(n)]  # per row, its candidates (a, column)
    for a in np.lexsort((-diag, rows)):  # stable: equal mass keeps column order
        if diag[a] > eps:
            order[rows[a]].append((int(a), int(cols[a])))
    if not all(order):
        return None
    # Row a of `support` marks the pairs b with X[b, a] > eps: the cross
    # entries a later pair b must clear once pair a is chosen.  The search
    # carries the rows of the chosen pairs ANDed together as `allowed`.
    support = (X[:kept, :kept] > eps).T.copy()
    chosen = []
    used = [False] * n
    tries = 0

    def grow(i, allowed):
        nonlocal tries
        if i == n:
            return True
        for a, j in order[i]:
            if used[j]:
                continue
            if budget is not None and tries >= budget:
                return False
            tries += 1
            if allowed[a]:
                chosen.append(j)
                used[j] = True
                if grow(i + 1, allowed & support[a]):
                    return True
                chosen.pop()
                used[j] = False
        return False

    found = grow(0, np.ones(kept, dtype=bool))
    del grow  # it refers to itself; breaking the cycle frees `support` at once
    return tuple(chosen) if found else None
