"""Self-contained dense symmetric eigensolver.

Householder reduction to tridiagonal form followed by the implicit-shift QL
iteration with accumulated rotations.  Double precision throughout; the
accumulated eigenvector basis stays orthonormal to about 1e-12 in the
max-entry norm (covered by tests).  ``symmetric_eigh`` mirrors the calling
convention of ``numpy.linalg.eigh``: ascending eigenvalues, eigenvectors in
columns.  It is the reference routine that tests compare the solver's PSD
projection against; the solver itself decomposes with ``numpy.linalg.eigh``
(see ``solver.eigh_backend``).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["householder_tridiagonal", "ql_implicit_shift", "symmetric_eigh"]

_EPS = float(np.finfo(float).eps)


def householder_tridiagonal(A):
    """Orthogonal reduction A = Q T Q^T with T symmetric tridiagonal.

    Returns (d, e, Q): diagonal d (length n), subdiagonal e (length n-1), and
    the accumulated orthogonal Q.  A is not modified.
    """
    A = np.array(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"expected a square matrix, got {A.shape}")
    Q = np.eye(n)
    for k in range(n - 2):
        x = A[k + 1:, k]
        alpha = float(np.linalg.norm(x))
        if alpha == 0.0:
            continue
        if x[0] > 0.0:
            alpha = -alpha  # choose the sign that avoids cancellation
        v = x.copy()
        v[0] -= alpha
        vnorm2 = float(v @ v)
        if vnorm2 == 0.0:
            continue
        beta = 2.0 / vnorm2
        # Two-sided update A <- H A H with H = I - beta v v^T, written as a
        # symmetric rank-two correction A -= v w^T + w v^T.
        sub = A[k + 1:, k + 1:]
        p = sub @ v
        w = beta * p - (beta * beta * float(v @ p) / 2.0) * v
        sub -= np.outer(v, w) + np.outer(w, v)
        A[k + 1:, k] = 0.0
        A[k, k + 1:] = 0.0
        A[k + 1, k] = A[k, k + 1] = alpha
        Q[:, k + 1:] -= np.outer(Q[:, k + 1:] @ v, beta * v)
    d = np.diag(A).copy()
    e = np.diag(A, -1).copy()
    return d, e, Q


def ql_implicit_shift(d, e, Q, max_sweeps=60):
    """Diagonalize a symmetric tridiagonal matrix in place.

    d and e are the diagonal and subdiagonal (e[i] couples rows i and i+1);
    Q accumulates the plane rotations (pass the Householder basis to get
    eigenvectors of the original dense matrix).  Returns (eigenvalues, Q)
    sorted ascending.
    """
    d = np.asarray(d, dtype=float).copy()
    n = d.size
    e = np.append(np.asarray(e, dtype=float), 0.0)
    if e.size != n:
        raise ValueError(f"subdiagonal length must be {n - 1}, got {e.size - 1}")
    Q = np.array(Q, dtype=float)

    for l in range(n):
        sweeps = 0
        while True:
            # Find the first negligible coupling at or beyond l.
            for m in range(l, n - 1):
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= _EPS * dd:
                    break
            else:
                m = n - 1
            if m == l:
                break
            sweeps += 1
            if sweeps > max_sweeps:
                raise RuntimeError(f"QL iteration failed to converge at row {l}")
            # Implicit Wilkinson-style shift from the leading 2x2.
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                # Rotate eigenvector columns i and i+1.
                col = Q[:, i].copy()
                Q[:, i] = c * col - s * Q[:, i + 1]
                Q[:, i + 1] = s * col + c * Q[:, i + 1]
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0

    order = np.argsort(d, kind="stable")
    return d[order], Q[:, order]


def symmetric_eigh(A):
    """Eigendecomposition of a symmetric matrix: ascending values, column vectors."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix contains non-finite entries")
    n = A.shape[0]
    if n == 1:
        return A[:1, 0].astype(float).copy(), np.ones((1, 1))
    A = 0.5 * (A + A.T)
    d, e, Q = householder_tridiagonal(A)
    return ql_implicit_shift(d, e, Q)

