"""Built-in symmetric eigensolver against the documented accuracy contract."""

import numpy as np
import pytest

from thetaiso.eigensolver import (
    householder_tridiagonal,
    ql_implicit_shift,
    symmetric_eigh,
)
from thetaiso.solver import eigh_backend


def random_symmetric(rng, n):
    A = rng.standard_normal((n, n))
    return 0.5 * (A + A.T)


def check_decomposition(A, tol_orth=1e-12, tol_rec=5e-13):
    n = A.shape[0]
    w, V = symmetric_eigh(A)
    scale = max(1.0, float(np.abs(A).max()))
    assert np.abs(V.T @ V - np.eye(n)).max() <= tol_orth
    assert np.abs((V * w) @ V.T - A).max() <= tol_rec * scale * n
    assert (np.diff(w) >= 0.0).all()
    ref = np.linalg.eigvalsh(A)
    assert np.abs(w - ref).max() <= 1e-10 * scale * n
    return w, V


def test_small_fixed_matrices():
    w, V = symmetric_eigh(np.array([[2.0]]))
    assert w[0] == 2.0 and V[0, 0] == 1.0

    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    w, V = check_decomposition(A)
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)

    A = np.diag([3.0, -1.0, 2.0])
    w, _ = check_decomposition(A)
    assert np.allclose(w, [-1.0, 2.0, 3.0], atol=1e-14)


def test_random_dense():
    rng = np.random.default_rng(2)
    for n in (3, 5, 10, 24, 40):
        check_decomposition(random_symmetric(rng, n))


def test_rank_deficient_psd():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((12, 4))
    A = B @ B.T  # rank 4, eight zero eigenvalues
    w, V = check_decomposition(A, tol_rec=5e-12)
    assert (w >= -1e-10).all()
    assert np.sum(w > 1e-8) == 4


def test_clustered_eigenvalues():
    rng = np.random.default_rng(4)
    Q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    target = np.array([1.0] * 4 + [1.0 + 1e-9] * 3 + [5.0] * 3)
    A = (Q * target) @ Q.T
    check_decomposition(0.5 * (A + A.T))


def test_already_tridiagonal():
    n = 15
    d = np.arange(1.0, n + 1)
    e = np.full(n - 1, 0.5)
    A = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    check_decomposition(A)


def test_householder_step():
    rng = np.random.default_rng(6)
    A = random_symmetric(rng, 9)
    d, e, Q = householder_tridiagonal(A)
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert np.abs(Q @ T @ Q.T - A).max() < 1e-13
    assert np.abs(Q.T @ Q - np.eye(9)).max() < 1e-14


def test_ql_on_tridiagonal_only():
    d = np.array([2.0, -1.0, 0.5, 3.0])
    e = np.array([1.0, 0.0, -2.0])  # a decoupled block in the middle
    w, V = ql_implicit_shift(d, e, np.eye(4))
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert np.abs((V * w) @ V.T - T).max() < 1e-13


def test_input_validation():
    with pytest.raises(ValueError):
        symmetric_eigh(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        symmetric_eigh(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_backend_selection():
    assert eigh_backend("numpy") is np.linalg.eigh
    with pytest.raises(ValueError):
        eigh_backend("builtin")


def test_determinism():
    rng = np.random.default_rng(9)
    A = random_symmetric(rng, 20)
    w1, V1 = symmetric_eigh(A)
    w2, V2 = symmetric_eigh(A.copy())
    assert np.array_equal(w1, w2)
    assert np.array_equal(V1, V2)
