"""Two-block ADMM for the doubly nonnegative relaxation.

The feasible set is P ∩ PSD, where P holds the affine rows of the compiled
program and Y >= 0.  Both act entry by entry, so P has an exact closed-form
Frobenius projection.  Each sweep projects onto P (with the objective tilt
C / rho, i.e. 1 / rho added to the pair diagonal), over-relaxes that
projection X toward the previous PSD iterate Z as X_hat = alpha X +
(1 - alpha) Z with alpha = ``RELAXATION`` (Eckstein & Bertsekas 1992; Boyd
et al. 2011, section 3.4.3), projects X_hat + U onto the positive semidefinite
cone, updates the one scaled dual U, and rebalances the step size when the
primal and dual residuals drift apart.  The residuals and every check read
the unrelaxed X.

``project_affine`` and ``project_psd`` are also the public single-step
operators; the affine one replaces each constrained entry group by its plain
average, which is the nearest point when every entry is counted once.
Internally the sweep uses a variant weighted by matrix multiplicity (the
mirrored omega column counts twice), which is the plain Frobenius projection.

Each stage is described where it is defined:
- the loop (``_admm``) runs one program to one of the stops of
  ``STOP_STATUS`` (``SolverResult.stop_reason``); convergence is the
  primal-dual tolerance test alone (Boyd et al. 2011, section 3.3);
- the bound (``_dual_upper_bound``): the loop turns the scaled dual into a
  weak-duality upper bound on the optimum (``SolverResult.upper_bound``),
  and one below ``decision_threshold`` ends the solve as Certified, however
  far the primal iterate still is from converging;
- the lift (``_verified_lift``): on a branch program the loop rounds the
  polyhedral iterate to a permutation whose lift is exactly feasible, an
  isomorphism, which scores n, the optimum; the solve ends as Converged with
  that permutation (``SolverResult.permutation``) and no Y.  This is the
  only place a permutation is read out of a solve;
- the rung (``_branch``): ``solve`` iterates a full layout only when 2-WL
  separates its graphs (``refine.wl2_separates``), which leaves no
  isomorphism to round to.  Any other full layout has optimum n (Mancinska,
  Roberson, Samal, Severini & Varvitsiotis, ICALP 2017), so its bound could
  never certify; its rung pins vertex 0 of the first graph to each vertex
  of the second, solves each branch program by the loop and prunes
  branches by automorphisms of the second graph;
- the polish (``_polish``): only ``solve`` polishes, and only a tolerance
  stop it returns; a branch solve, whose Y the rung drops, never is.
A non-finite residual or a failed eigendecomposition, in the loop or the
polish, ends the solve as Diverged with the last finite iterate.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .lifts import ZERO_EPS, _consistent_set
from .oracle import is_isomorphism
from .program import branch_program, decision_threshold, objective_value
from .refine import pinned_isomorphism, wl2_separates

__all__ = [
    "SolverStatus",
    "SolverConfig",
    "SolverResult",
    "project_psd",
    "project_affine",
    "solve",
    "initial_point",
]


# Over-relaxation of the main sweep (alpha in (0, 2)) and of the polish's
# projection onto P (beta in (0, 2)); both keep the fixed points unchanged.
RELAXATION = 1.6
POLISH_RELAXATION = 1.9
POLISH_MAX_SWEEPS = 2000        # the polish's sweep cap

# Node cap of a branch rung's automorphism try.  A node is one integer
# refinement and makes no eigh, so a rung's at most n(n - 1)/2 tries cost
# little beside its branch solves.
AUTOMORPHISM_TRY_NODES = 16


class SolverStatus(str, Enum):
    CONVERGED = "Converged"
    CERTIFIED = "Certified"
    MAX_ITER = "MaxIter"
    DIVERGED = "Diverged"


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-7               # primal and dual residual tolerance
    max_iter: int = 50000          # per program solved: each branch has its own
    oracle_fallback: bool = False   # read by decide: settle Inconclusive exactly

    def __post_init__(self):
        if (isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real)
                or not (math.isfinite(self.tol) and self.tol > 0)):
            raise ValueError(f"tol must be a positive finite number, got {self.tol!r}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, (int, np.integer)):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not isinstance(self.oracle_fallback, bool):
            raise ValueError(f"oracle_fallback must be True or False, got {self.oracle_fallback!r}")


# Each reason a solve can stop for, and the status it reports.  "tolerance"
# is the convergence test, "verified-lift" an isomorphism's lift found
# mid-solve, in a branch or at convergence, "branch-bound" every branch
# refuted, "branch-open" a rung with no lift that left some branch open.
STOP_STATUS = {
    "tolerance": SolverStatus.CONVERGED,
    "verified-lift": SolverStatus.CONVERGED,
    "branch-open": SolverStatus.CONVERGED,
    "dual-bound": SolverStatus.CERTIFIED,
    "branch-bound": SolverStatus.CERTIFIED,
    "max-iter": SolverStatus.MAX_ITER,
    "diverged": SolverStatus.DIVERGED,
}


@dataclass(frozen=True)
class SolverResult:
    objective: float
    # The last iterate, which solve polishes after a tolerance stop (branch
    # solves never polish); None on a verified-lift or branch-rung stop.
    Y: np.ndarray | None
    iterations: int
    primal_residual: float
    dual_residual: float
    solve_seconds: float
    stop_reason: str                # why the solve stopped: a key of STOP_STATUS
    # The certified bound every NonIsomorphic verdict rests on: the dual
    # bound capped at n, or on a branch-bound or branch-open stop the largest
    # branch bound (-inf if refinement refuted all); inf if never computed.
    upper_bound: float = math.inf
    permutation: tuple | None = None  # the isomorphism of a verified-lift stop
    branches: tuple = ()            # one row per branch the rung tried
    automorphisms: tuple = ()       # the verified automorphisms of G2 that pruned branches

    @property
    def status(self):
        return STOP_STATUS[self.stop_reason]


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
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise ValueError(f"expected a non-empty square matrix, got {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix contains non-finite entries")
    asym = float(np.abs(M - M.T).max())
    scale = 1.0 + float(np.abs(M).max())
    if asym > 1e-8 * scale:
        raise ValueError(f"matrix is not symmetric: max |M - M^T| = {asym:.3e}")
    return _psd_part(0.5 * (M + M.T), eigh_backend("numpy"))


def _psd_part(W, eigh):
    """Clip the negative eigenvalues of the exactly symmetric W to zero; a
    matrix that is already positive semidefinite comes back as a copy, not
    rebuilt.  Every matrix the solver passes is exactly symmetric: the
    projection onto P writes both triangles alike and the rebuild below
    is exactly symmetric, so no symmetrising pass is needed here."""
    w, V = eigh(W)
    if w[0] >= 0.0:
        return W.copy()
    # Rebuild from the positive factor B: B @ B.T runs as a rank-k update
    # whose result is exactly symmetric.
    k = int(np.searchsorted(w, 0.0, side="right"))
    B = V[:, k:] * np.sqrt(w[k:])
    return B @ B.T


def _apply_affine(M, p, link_weight):
    """Overwrite the affine-row entries of M in place.

    Each zeroed pair, the omega corner, and each diagonal/omega link group is
    replaced by the point nearest in a weighted least-squares sense; the
    diagonal entry of a link group carries weight 1 and the omega pair carries
    weight ``link_weight`` (1 treats each stored value once, 2 counts the
    mirrored matrix entry twice, i.e. plain Frobenius distance).  The zeroed
    pairs are written through ``p.zero_index`` into the flat view of M, which
    is C-contiguous: every caller passes a fresh array.
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
    M.reshape(-1)[p.zero_index] = 0.0
    return M


def project_affine(M, p):
    """Project onto the affine rows of a program, treating each constrained
    entry group as a single averaged value."""
    M = np.asarray(M, dtype=float)
    if M.shape != (p.dim, p.dim):
        raise ValueError(f"expected a {p.dim} x {p.dim} matrix, got {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix contains non-finite entries")
    return _apply_affine(M.copy(), p, 1.0)


def _project_polyhedral(W, p):
    """Frobenius projection onto P = {affine rows, Y >= 0}; overwrites W.

    Every entry group of P is independent: a zeroed pair is 0, the corner is
    1, a link group is max(mean of its three entries, 0), any other entry is
    clipped at 0.
    """
    return np.maximum(_apply_affine(W, p, 2.0), 0.0, out=W)


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


def _polish(Z, p, eigh):
    """Restore feasibility of a converged iterate by alternating projections.

    The positive semidefinite iterate sits a hair outside P, which can leave
    the reported objective above n, a score no feasible point exceeds.
    Relaxed alternating projections W <- psd(W + beta (proj_P(W) - W)) walk
    it into the feasible region (the last step keeps it exactly positive
    semidefinite).  With beta < 2 the relaxed projection is averaged, so its
    composition with the PSD projection has exactly P ∩ PSD as fixed points
    (Bauschke & Combettes, Prop. 4.49).  The walk covers a distance of the order of the final primal
    residual, so the objective moves well within tolerance.  A non-finite
    iterate raises LinAlgError, like a failed eigendecomposition.
    """
    d = p.pair_diag
    omega = p.omega
    W = Z
    for sweep in range(1, POLISH_MAX_SWEEPS + 1):
        W = W + POLISH_RELAXATION * (_project_polyhedral(W.copy(), p) - W)
        W = _psd_part(W, eigh)
        viol = max(
            float(np.abs(W.reshape(-1)[p.zero_index]).max(initial=0.0)),
            float(np.abs(W[d, omega] - W[d, d]).max()),
            abs(float(W[omega, omega]) - 1.0),
            max(0.0, -float(W.min())),
        )
        excess = objective_value(W, p) - p.n
        if not (math.isfinite(viol) and math.isfinite(excess)):
            raise np.linalg.LinAlgError("non-finite polish iterate")
        if viol <= 1e-10 and excess <= 5e-7:
            break
    return W


def _dual_upper_bound(p, rho, U, threshold=math.inf):
    """Weak-duality upper bound on the optimum from the scaled dual U.

    C is the objective, the identity on the pair diagonal.  G = -rho sym(U)
    is the PSD multiplier (positive semidefinite at every iterate), and the
    affine multipliers y are fitted to G + C: y_omega = G_ww, each zero-pair
    multiplier matches G on its pair, and each link multiplier is
    (2 G_dw - 2 G_dd - 2) / 3, the least-squares fit over its three entries.
    N = max(-G, 0) prices nonnegativity off the affine support and is zero
    on it.  With S = A*(y) - C - N (so S = min(G, 0) off the affine support),
    every feasible Y has <C, Y> = y_omega - <S, Y> - <N, Y>
    <= y_omega - lambda_min(S) tr Y, and tr Y <= n + 1 there: for each row
    i, x = e_omega - sum_j e_(i,j) gives 0 <= x^T Y x = 1 - sum_j Y_(ij)(ij).
    The eigenvalue's rounding error is covered by
    delta = dim^2 eps ||S||_F (Jansson, Chaykin & Keil, SIAM J. Numer.
    Anal. 2007).  Only y_omega has a nonzero right-hand side, so the other
    multipliers can be taken as the exact values that give the stored S.  A
    branch program needs no change: each kept pair index lies in exactly one
    row i, so the same x_i over the kept pairs of row i still give
    tr Y <= n + 1.  The bound is inf when S is not finite or its eigenvalues
    fail.

    With a finite ``threshold`` (the loop's checks) the bound is also inf
    where it could not fall below the threshold, found before the
    eigenvalues: the bound is never below y_omega, which costs nothing to
    read, and its sum rounds upward, so where y_omega alone reaches the
    threshold the bound does too and S is not built; else one Cholesky
    factorization (``_bound_screen``) shows whether lambda_min(S) is high
    enough.
    """
    d = p.pair_diag
    omega = p.omega
    y_omega = float(-rho * U[omega, omega])
    if y_omega >= threshold:
        return math.inf
    G = -rho * (0.5 * (U + U.T))
    y_link = (2.0 * G[d, omega] - 2.0 * G[d, d] - 2.0) / 3.0

    # -N, C-ordered for its flat view; the support entries are overwritten below.
    S = np.minimum(G, 0.0, order="C")
    S.reshape(-1)[p.zero_index] = G.reshape(-1)[p.zero_index]
    S[omega, omega] = y_omega
    S[d, omega] = S[omega, d] = 0.5 * y_link
    S[d, d] = -y_link - 1.0
    if not np.isfinite(S).all():
        return math.inf
    if math.isfinite(threshold) and not _bound_screen(y_omega, S, threshold, p.n):
        return math.inf
    try:
        lam = float(np.linalg.eigvalsh(S)[0])
    except np.linalg.LinAlgError:
        return math.inf
    delta = p.dim ** 2 * float(np.finfo(float).eps) * float(np.linalg.norm(S))
    bound = y_omega + (p.n + 1) * max(0.0, delta - lam)
    return math.nextafter(bound, math.inf)  # round the last sum upward


def _bound_screen(y_omega, S, threshold, n):
    """Whether the dual bound of (y_omega, S) may fall below threshold, by one
    Cholesky factorization of S + ((threshold - y_omega) / (n + 1)) I, a
    shifted copy: S is left as it is.

    The bound falls below threshold exactly when lambda_min(S) > -mu, with
    mu = (threshold - y_omega) / (n + 1) - delta (``_dual_upper_bound``); mu
    may be <= 0.  The factorization asks whether lambda_min(S) > -(mu + delta):
    the margin delta, the bound's own allowance for rounding, also covers
    the factorization's, so where it fails the bound would not have
    certified either, up to rounding.  S must be finite.
    """
    shifted = S.copy()
    shifted.flat[::S.shape[0] + 1] += (threshold - y_omega) / (n + 1)
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _verified_lift(X, p):
    """A permutation read off X whose lift is exactly feasible for p, i.e.
    an isomorphism of p's graphs, else None; no lift is built.

    The consistent-set search runs on X in place, each row read as its
    full-layout pair through ``p.index``, with n^2 candidate tries; it picks
    only pairs that p keeps.  The lift q q^T, q the permutation vector with
    omega's 1 appended, read through ``p.index``, is then PSD, nonnegative
    and meets the omega and diag-link rows.  No two pairs of its support
    share a row or a column, so of the zero rows only the edge-mismatch
    ones can meet it, and they miss it exactly when ``is_isomorphism`` holds.
    """
    sigma = _consistent_set(X, p.index, ZERO_EPS, p.n * p.n)
    if sigma is None or not is_isomorphism(sigma, *p.graphs):
        return None
    return sigma


def _two_wl_equivalent(p):
    """Whether p is a full-layout program of two graphs that 2-WL cannot
    separate, the test by which ``solve`` sends p to the branch rung."""
    return p.pin is None and not wl2_separates(*p.graphs)


def _automorphism_try(g2, r, k):
    """An automorphism of g2 that maps r to k, found by ``pinned_isomorphism``
    within ``AUTOMORPHISM_TRY_NODES`` nodes, else None.  The rung still
    checks a(r) = k and every edge before it prunes with it."""
    return pinned_isomorphism(g2, g2, [(r, k)], AUTOMORPHISM_TRY_NODES)[0]


def _branch(p, cfg):
    """The branch rung of the full layout p: vertex 0 of the first graph
    pinned to each vertex k of the second in turn.

    When k lies in the orbit of a refuted branch r under the automorphisms
    of G2 found so far, the branch is refuted with no build or solve: an
    isomorphism sigma with sigma(0) = k = a(r) would give a^-1 sigma with
    0 -> r.  (Branch r passed pinned refinement, and a preserves pinned
    colour histograms, so the check below could not have refuted k first.)
    Else unequal pinned colour histograms refute the branch with no solve.
    Else, once some branch is refuted, an individualisation-refinement
    search of (G2, G2) pinned at (r, k) looks for an automorphism a with
    a(r) = k (``_automorphism_try``, from the first refuted branch r of each
    orbit until one is found), and one that maps r to k and that
    ``is_isomorphism`` accepts joins every i to a(i) in the orbits.  A try
    visits at most ``AUTOMORPHISM_TRY_NODES`` nodes and makes no eigh, and
    each k gets at most one try per refuted branch before it, so a rung
    makes at most n(n - 1)/2 tries.  Making all of them took 0.5 s on the
    non-group Latin square graph of order 5, 0.7 s on the Chang graph and
    3.7 s on twisted CFI(K3,3) (one BLAS thread, 2-CPU Xeon), where one
    branch solve of those pairs takes 0.08-3.0 s.  A k still outside every
    refuted orbit is solved, ``_admm(branch, cfg)``, and its bound below the
    threshold refutes it.  An open branch, solved but neither lifted nor
    refuted, is no orbit source; the rung goes on past it.

    Returns the rung's ``SolverResult``, with iterations 0 (no point of p is
    iterated), ``branches`` one row per branch tried and ``automorphisms``
    the automorphisms used, in the order found:
    - the first branch that lifts ends the rung with its own result:
      verified-lift, status Converged, ``permutation`` the permutation, Y
      None, objective and upper bound exactly n, both residuals 0;
    - with no lift, Y is None, the objective NaN, both residuals inf and the
      upper bound the largest row bound (-inf when refinement refuted every
      branch).  A bound below the threshold means every branch is refuted:
      branch-bound, status Certified.  Each row bounds its branch, and an
      isomorphism sigma keeps the pinned colours of branch sigma(0), where
      its lift is a point of value n, so no isomorphism exists.  Else some
      branch is open: branch-open, status Converged.
    Each row has the keys k, dim, iterations, stop_reason and upper_bound;
    refinement's reads "refinement", None, 0 and -inf (no isomorphism maps
    0 to k), an orbit's "automorphism", None, 0 and the bound of the refuted
    branch r whose orbit holds k (branch k is branch a(r) relabelled by a,
    so that bound holds for it too).
    """
    n = p.n
    g2 = p.graphs[1]
    threshold = decision_threshold(n)
    parent = list(range(n))     # union-find forest of the orbits found

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    rows, refuted, automorphisms = [], [], []
    for k in range(n):
        sources = {}            # the first refuted branch of each orbit
        for row in refuted:
            sources.setdefault(root(row["k"]), row)
        covering = sources.get(root(k))
        if covering is None:
            program = branch_program(p, 0, k)
            if program is None:
                rows.append({"k": k, "dim": None, "iterations": 0,
                             "stop_reason": "refinement", "upper_bound": -math.inf})
                continue
            for row in sources.values():
                r = row["k"]
                a = _automorphism_try(g2, r, k)
                if a is not None and a[r] == k and is_isomorphism(a, g2, g2):
                    automorphisms.append(a)
                    for i, j in enumerate(a):
                        parent[root(i)] = root(j)
                    covering = row
                    break
        if covering is not None:
            rows.append({"k": k, "dim": None, "iterations": 0,
                         "stop_reason": "automorphism",
                         "upper_bound": covering["upper_bound"]})
            continue
        branch = _admm(program, cfg)
        row = {"k": k, "dim": program.dim, "iterations": branch.iterations,
               "stop_reason": branch.stop_reason, "upper_bound": branch.upper_bound}
        rows.append(row)
        if branch.permutation is not None:
            return replace(branch, iterations=0, branches=tuple(rows),
                           automorphisms=tuple(automorphisms))
        if branch.upper_bound < threshold:
            refuted.append(row)
    bound = max(row["upper_bound"] for row in rows)
    return SolverResult(
        objective=math.nan, Y=None, iterations=0, primal_residual=math.inf,
        dual_residual=math.inf, solve_seconds=0.0,
        stop_reason="branch-bound" if bound < threshold else "branch-open",
        upper_bound=bound, branches=tuple(rows), automorphisms=tuple(automorphisms),
    )


def solve(p, cfg=None):
    """Solve a compiled program: by its branch rung where it applies, else
    by the splitting iteration.

    A full-layout program whose graphs 2-WL cannot separate gets its rung's
    result (``_branch``), with iterations 0 and no iteration of the full
    layout; any other program gets ``_admm``'s.  A tolerance stop, which
    only ``_admm`` returns here, is polished (``_polish``); a polish that
    fails makes it diverged, with the last Y.  ``solve_seconds`` covers the
    branches and the polish too.
    """
    if cfg is None:
        cfg = SolverConfig()
    t0 = time.perf_counter()
    result = _branch(p, cfg) if _two_wl_equivalent(p) else _admm(p, cfg)
    if result.stop_reason == "tolerance":
        try:
            Y = _polish(result.Y, p, eigh_backend("numpy"))
            result = replace(result, Y=Y, objective=objective_value(Y, p))
        except np.linalg.LinAlgError:
            result = replace(result, stop_reason="diverged")
    return replace(result, solve_seconds=time.perf_counter() - t0)


def _admm(p, cfg):
    """Run the splitting iteration on one program.

    Stops at convergence, at the iteration cap, on divergence (residuals that
    blow up or turn non-finite, or an eigendecomposition that fails; the last
    finite iterate is returned), or at one of the checks:
    - at every iteration from 8 on, the dual upper bound falls below
      ``decision_threshold(n)``: status Certified.  A check that cannot
      certify stops before the eigenvalues (``_dual_upper_bound``);
    - on a branch program (``p.pin`` set), the polyhedral iterate rounds to
      a permutation whose lift is exactly feasible (``_verified_lift``):
      stop reason verified-lift, status Converged, ``permutation`` the
      permutation, Y None, objective and upper bound exactly n, both
      residuals 0.  S_0 = sum_i x_i x_i^T below is an exact dual certificate
      of value n, so the lift is optimal; it is fixed by the permutation
      and never built.  The rounding is tried at iterations 2, 4, 8, 16, ...
      and at the iteration that converges, once each (a converging power of
      two is rounded once), after the bound where both run.  Iteration 1 is
      not tried: its iterate has no positive entry between two distinct
      pairs, so it cannot round to a lift for n >= 2.  A full layout is
      never rounded: ``solve`` iterates one only when 2-WL separates it, and
      then no permutation lifts.
    Otherwise the bound is computed once more at exit and returned as
    ``upper_bound``, capped at n: for each row i, x_i = e_omega - sum_j e_(i,j)
    gives 0 <= x_i^T Y x_i = 1 - sum_j Y_(ij)(ij), so no feasible Y scores
    above n.  A cap stop whose exit bound falls below the threshold is a
    dual-bound stop.  ``stop_reason`` records which stop ended the solve.
    Y is the last PSD iterate, unpolished: only ``solve`` polishes.
    """
    eigh = eigh_backend("numpy")
    n = p.n
    rho = 1.0

    Z = initial_point(p)
    U = np.zeros((p.dim, p.dim))
    threshold = decision_threshold(n)
    upper_bound = math.inf

    stop_reason = "max-iter"
    permutation = None
    r_norm = s_norm = best_combined = float("inf")
    it = 0
    for it in range(1, cfg.max_iter + 1):
        W = Z - U
        W[p.pair_diag, p.pair_diag] += 1.0 / rho   # tilt C / rho, C = pair-diagonal I
        X = _project_polyhedral(W, p)
        # The PSD step's input U + X_hat, X_hat = alpha X + (1 - alpha) Z, is
        # built in U itself, so the relaxation keeps no extra dim x dim array.
        U += Z
        U += RELAXATION * (X - Z)
        try:
            Z_new = _psd_part(U, eigh)
        except np.linalg.LinAlgError:
            stop_reason = "diverged"
            break
        r = float(np.linalg.norm(X - Z_new))
        s = rho * float(np.linalg.norm(Z_new - Z))
        if not (math.isfinite(r) and math.isfinite(s)):
            stop_reason = "diverged"
            break
        U -= Z_new
        r_norm, s_norm, Z = r, s, Z_new

        # No pair measured certifies before iteration 8, and a check there
        # would cost a fair share of a sweep.
        if it >= 8:
            upper_bound = _dual_upper_bound(p, rho, U, threshold)
            if upper_bound < threshold:
                stop_reason = "dual-bound"
                break

        # The test needs r_norm <= tol * scale with scale <= 8, so the norm
        # of Z is taken only when that can hold.
        converged = False
        if r_norm <= 8.0 * cfg.tol:
            scale = min(1.0 + float(np.linalg.norm(Z)), 8.0)
            converged = r_norm <= cfg.tol * scale and s_norm <= cfg.tol * scale
        if p.pin is not None and (converged or (it >= 2 and it & (it - 1) == 0)):
            permutation = _verified_lift(X, p)
            if permutation is not None:
                stop_reason = "verified-lift"
                break
        if converged:
            stop_reason = "tolerance"
            break

        combined = max(r_norm, s_norm)
        if it >= 50:
            if combined > 1e6 * best_combined:
                stop_reason = "diverged"
                break
        best_combined = min(best_combined, combined)

        if it % 10 == 0:
            if r_norm > 10.0 * s_norm and rho < 1e6:
                rho *= 2.0
                U *= 0.5
            elif s_norm > 10.0 * r_norm and rho > 1e-6:
                rho *= 0.5
                U *= 2.0

    Y = Z
    if stop_reason == "verified-lift":
        # The lift meets every constraint exactly and scores n, the optimum.
        Y, r_norm, s_norm, upper_bound = None, 0.0, 0.0, float(n)
    elif stop_reason != "dual-bound":
        # The bound of the last iteration stands on that stop.  After a
        # failed step U holds U + X_hat, which is finite; the bound is valid
        # for any U.  A cap below the first check can still stop on a bound
        # that certifies.
        upper_bound = _dual_upper_bound(p, rho, U)
        if stop_reason == "max-iter" and upper_bound < threshold:
            stop_reason = "dual-bound"
    return SolverResult(
        objective=float(n) if Y is None else objective_value(Y, p),
        Y=Y,
        iterations=it,
        primal_residual=r_norm,
        dual_residual=s_norm,
        solve_seconds=0.0,          # timed by solve
        stop_reason=stop_reason,
        upper_bound=min(upper_bound, float(n)),
        permutation=permutation,
    )
