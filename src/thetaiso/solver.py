"""Projection-splitting solver for the doubly nonnegative relaxation.

Consensus ADMM over three copies of the variable: one projected onto the
affine rows of the compiled program, one onto the positive semidefinite cone,
one onto the nonnegative orthant.  Each sweep averages the copies, updates the
scaled dual offsets, and rebalances the step size when the primal and dual
residuals drift apart.  The maximization objective enters through the affine
copy: each sweep adds 1 / rho to the pair diagonal before projecting.

``project_affine`` and ``project_psd`` are also the public single-step
operators; the affine one replaces each constrained entry group by its plain
average, which is the nearest point when every entry is counted once.
Internally the sweep uses a variant weighted by matrix multiplicity (the
mirrored omega column counts twice), so the three projections measure
distance in the same Frobenius geometry and the splitting converges like the
textbook method.

Every power-of-two iteration from 16 on, and once at exit, ``solve`` turns
the scaled duals into a weak-duality upper bound on the relaxation's optimum
(``SolverResult.upper_bound``).  Once that bound falls below ``decision_threshold``
no isomorphism is possible, so the solve stops there with status Certified,
however far the primal iterate still is from converging.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .program import decision_threshold, objective_value

__all__ = [
    "SolverStatus",
    "SolverConfig",
    "SolverResult",
    "project_psd",
    "project_affine",
    "solve",
    "initial_point",
]


class SolverStatus(str, Enum):
    CONVERGED = "Converged"
    CERTIFIED = "Certified"
    MAX_ITER = "MaxIter"
    DIVERGED = "Diverged"


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-7               # primal and dual residual tolerance
    max_iter: int = 50000
    oracle_fallback: bool = False   # read by decide: settle Inconclusive exactly

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class SolverResult:
    status: SolverStatus
    objective: float
    Y: np.ndarray
    iterations: int
    primal_residual: float
    dual_residual: float
    solve_seconds: float
    upper_bound: float = math.inf   # certified bound on the optimum; inf if never computed

    @property
    def converged(self):
        return self.status is SolverStatus.CONVERGED


def eigh_backend(name):
    """The eigh of ``solve`` and ``project_psd``; only "numpy" is accepted.

    Both look it up here at call time, so a wrapper set on this attribute sees
    every eigendecomposition.  The name parameter stays because the benchmark
    tracer's wrapper (``benchmarks/tracing.py``) takes and passes it through.
    """
    if name != "numpy":
        raise ValueError(f"unknown eigensolver backend: {name!r} (use 'numpy')")
    return np.linalg.eigh


def project_psd(M):
    """Nearest positive semidefinite matrix in Frobenius norm.

    M must be symmetric (a tiny numerical asymmetry is averaged away);
    negative eigenvalues are clipped to zero and the matrix rebuilt.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix contains non-finite entries")
    asym = float(np.abs(M - M.T).max())
    scale = 1.0 + float(np.abs(M).max())
    if asym > 1e-8 * scale:
        raise ValueError(f"matrix is not symmetric: max |M - M^T| = {asym:.3e}")
    return _psd_part(M, eigh_backend("numpy"))


def _psd_part(W, eigh):
    """Symmetrise W and clip its negative eigenvalues to zero; a matrix that
    is already positive semidefinite comes back symmetrised but not rebuilt."""
    W = 0.5 * (W + W.T)
    w, V = eigh(W)
    if w[0] >= 0.0:
        return W
    out = (V * np.maximum(w, 0.0)) @ V.T
    return 0.5 * (out + out.T)


def _apply_affine(M, p, link_weight):
    """Overwrite the affine-row entries of M in place.

    Each zeroed pair, the omega corner, and each diagonal/omega link group is
    replaced by the point nearest in a weighted least-squares sense; the
    diagonal entry of a link group carries weight 1 and the omega pair carries
    weight ``link_weight`` (1 treats each stored value once, 2 counts the
    mirrored matrix entry twice, i.e. plain Frobenius distance).
    """
    d = p.pair_diag
    omega = p.omega
    x = 0.5 * (M[d, omega] + M[omega, d])
    y = M[d, d]
    m = (link_weight * x + y) / (link_weight + 1.0)
    M[d, omega] = m
    M[omega, d] = m
    M[d, d] = m
    M[omega, omega] = 1.0
    M[p.zero_rows, p.zero_cols] = 0.0
    return M


def project_affine(M, p):
    """Project onto the affine rows of a program, treating each constrained
    entry group as a single averaged value."""
    M = np.asarray(M, dtype=float)
    if M.shape != (p.dim, p.dim):
        raise ValueError(f"expected a {p.dim} x {p.dim} matrix, got {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix contains non-finite entries")
    return _apply_affine(M.copy(), p, link_weight=1.0)


def initial_point(p):
    """Affine-feasible starting matrix: uniform diagonal mass 1/n with the
    matching omega column and unit corner."""
    n = p.n
    Z = np.zeros((p.dim, p.dim))
    d = p.pair_diag
    Z[d, d] = 1.0 / n
    Z[d, p.omega] = 1.0 / n
    Z[p.omega, d] = 1.0 / n
    Z[p.omega, p.omega] = 1.0
    return Z


def _polish(Z, p, eigh, max_sweeps=2000):
    """Restore feasibility of a converged iterate by cyclic projections.

    The consensus average sits a hair outside every set, which can leave the
    reported objective above the true ceiling n.  Cycling nonneg -> affine ->
    psd walks it into the feasible region (the last step keeps it exactly
    positive semidefinite); the walk covers a distance of the order of the
    final primal residual, so the objective moves well within tolerance.
    """
    d = p.pair_diag
    omega = p.omega
    W = Z.copy()
    for sweep in range(1, max_sweeps + 1):
        np.clip(W, 0.0, None, out=W)
        _apply_affine(W, p, link_weight=2.0)
        W = _psd_part(W, eigh)
        viol = max(
            float(np.abs(W[p.zero_rows, p.zero_cols]).max(initial=0.0)),
            float(np.abs(W[d, omega] - W[d, d]).max()),
            abs(float(W[omega, omega]) - 1.0),
            max(0.0, -float(W.min())),
        )
        excess = objective_value(W, p) - p.n
        if viol <= 1e-10 and excess <= 5e-7:
            break
    return W


def _dual_upper_bound(p, rho, U2, U3):
    """Weak-duality upper bound on the optimum from scaled duals U2, U3.

    C is the objective, the identity on the pair diagonal.  N = max(rho
    sym(U3), 0) prices nonnegativity and T = C + rho sym(U2) + N is the
    matrix the affine multipliers y should reproduce: y_omega = T_ww, each
    zero-pair multiplier matches T on its pair, and each link multiplier is
    (2 T_dw - 2 T_dd) / 3, the least-squares fit over its three entries.
    With S = A*(y) - C - N (so S = -N off the affine support), every feasible
    Y has <C, Y> = y_omega - <S, Y> - <N, Y> <= y_omega - lambda_min(S) tr Y,
    and tr Y <= n + 1 there: for each row i, x = e_omega - sum_j e_(i,j)
    gives 0 <= x^T Y x = 1 - sum_j Y_(ij)(ij).  The eigenvalue's rounding
    error is covered by dim^2 eps ||S||_F (Jansson, Chaykin & Keil, SIAM J.
    Numer. Anal. 2007).  Only y_omega has a nonzero right-hand side, so the
    other multipliers can be taken as the exact values that give the stored S.
    """
    d = p.pair_diag
    omega = p.omega
    P = rho * (0.5 * (U2 + U2.T))
    N = np.maximum(rho * (0.5 * (U3 + U3.T)), 0.0)
    T = P.copy()
    T[d, d] += 1.0
    T += N
    y_omega = T[omega, omega]
    y_link = (2.0 * T[d, omega] - 2.0 * T[d, d]) / 3.0

    S = -N
    S[p.zero_rows, p.zero_cols] = P[p.zero_rows, p.zero_cols]
    S[omega, omega] = y_omega - N[omega, omega]
    S[d, omega] = S[omega, d] = 0.5 * y_link - N[d, omega]
    S[d, d] = -y_link - 1.0 - N[d, d]
    if not np.isfinite(S).all():
        return math.inf
    lam = float(np.linalg.eigvalsh(S)[0])
    delta = p.dim ** 2 * float(np.finfo(float).eps) * float(np.linalg.norm(S))
    bound = float(y_omega) + (p.n + 1) * max(0.0, delta - lam)
    return math.nextafter(bound, math.inf)  # round the last sum upward


def solve(p, cfg=None):
    """Run the splitting iteration on a compiled program.

    Stops at convergence, at the iteration cap, on divergence, or as soon as
    the dual upper bound, checked at iterations 16, 32, 64, ..., falls below
    ``decision_threshold(n)`` (status Certified, no polish).  The bound is
    computed once more at exit and returned as ``upper_bound``.
    """
    if cfg is None:
        cfg = SolverConfig()
    t0 = time.perf_counter()
    eigh = eigh_backend("numpy")
    n = p.n
    dim = p.dim
    rho = 1.0

    Z = initial_point(p)
    U1 = np.zeros((dim, dim))
    U2 = np.zeros((dim, dim))
    U3 = np.zeros((dim, dim))
    threshold = decision_threshold(n)
    upper_bound = math.inf

    sqrt3 = np.sqrt(3.0)
    status = SolverStatus.MAX_ITER
    r_norm = s_norm = float("inf")
    best_combined = float("inf")
    it = 0
    for it in range(1, cfg.max_iter + 1):
        W = Z - U1
        W[p.pair_diag, p.pair_diag] += 1.0 / rho   # tilt C / rho, C = pair-diagonal I
        X1 = _apply_affine(W, p, link_weight=2.0)
        X2 = _psd_part(Z - U2, eigh)
        X3 = np.maximum(Z - U3, 0.0)

        Z_new = (X1 + X2 + X3 + U1 + U2 + U3) / 3.0
        s_norm = rho * sqrt3 * float(np.linalg.norm(Z_new - Z))
        U1 += X1 - Z_new
        U2 += X2 - Z_new
        U3 += X3 - Z_new
        Z = Z_new
        r_norm = max(
            float(np.linalg.norm(X1 - Z)),
            float(np.linalg.norm(X2 - Z)),
            float(np.linalg.norm(X3 - Z)),
        )

        if it >= 16 and it & (it - 1) == 0:
            upper_bound = _dual_upper_bound(p, rho, U2, U3)
            if upper_bound < threshold:
                status = SolverStatus.CERTIFIED
                break

        scale = min(1.0 + float(np.linalg.norm(Z)), 8.0)
        if r_norm <= cfg.tol * scale and s_norm <= cfg.tol * scale:
            status = SolverStatus.CONVERGED
            break
        # A primal-feasible point cannot score above n, so hitting n with a
        # small primal residual already pins the optimum.
        if r_norm <= cfg.tol * scale and objective_value(Z, p) >= n - 1e-8:
            status = SolverStatus.CONVERGED
            break

        combined = max(r_norm, s_norm)
        if it >= 50:
            if combined > 1e6 * best_combined:
                status = SolverStatus.DIVERGED
                break
        best_combined = min(best_combined, combined)

        if it % 10 == 0:
            if r_norm > 10.0 * s_norm and rho < 1e6:
                rho *= 2.0
                U1 *= 0.5
                U2 *= 0.5
                U3 *= 0.5
            elif s_norm > 10.0 * r_norm and rho > 1e-6:
                rho *= 0.5
                U1 *= 2.0
                U2 *= 2.0
                U3 *= 2.0

    if status is not SolverStatus.CERTIFIED:
        upper_bound = _dual_upper_bound(p, rho, U2, U3)
    Y = 0.5 * (Z + Z.T)
    if status is SolverStatus.CONVERGED:
        Y = _polish(Y, p, eigh)
    return SolverResult(
        status=status,
        objective=objective_value(Y, p),
        Y=Y,
        iterations=it,
        primal_residual=r_norm,
        dual_residual=s_norm,
        solve_seconds=time.perf_counter() - t0,
        upper_bound=upper_bound,
    )
