"""Shared fixtures: the graph zoo and cached solver runs over the corpus."""

import itertools
import json
import os

import numpy as np
import pytest

import thetaiso as th
import thetaiso.solver


def four_vertex_zoo():
    """Named 4-vertex graphs used by the exhaustive lift checks."""
    return {
        "p4": th.path_graph(4),
        "c4": th.cycle_graph(4),
        "k4": th.complete_graph(4),
        "k13": th.star_graph(4),
        "e4": th.empty_graph(4),
        "p3+k1": th.Graph(4, [(0, 1), (1, 2)]),
        "triangle+k1": th.Graph(4, [(0, 1), (1, 2), (0, 2)]),
    }


def rook_graph(k):
    """K_k x K_k: cells of a k x k board, adjacent when sharing a row or column."""
    return th.Graph(k * k, [
        (u, v) for u in range(k * k) for v in range(u + 1, k * k)
        if u // k == v // k or u % k == v % k
    ])


def cube_graph():
    return th.Graph(8, ((v, v ^ bit) for v in range(8) for bit in (1, 2, 4)))


def wagner_graph():
    """Moebius ladder on 8 vertices: C8 plus the four long diagonals; cubic like the cube."""
    return th.Graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])


def paley_graph(q):
    """Paley graph on Z_q, q prime and 1 mod 4: adjacent when the difference is a square."""
    squares = {(x * x) % q for x in range(1, q)}
    return th.Graph(q, [(i, j) for i in range(q) for j in range(i + 1, q) if (j - i) % q in squares])


def shrikhande_graph():
    """Cayley graph of Z4 x Z4 on ±(1,0), ±(0,1), ±(1,1): SRG(16,6,2,2) like rook 4x4."""
    return th.Graph(16, [
        (4 * a + b, 4 * ((a + x) % 4) + (b + y) % 4)
        for a in range(4) for b in range(4) for x, y in ((1, 0), (0, 1), (1, 1))
    ])


def cfi_k4_graph(twisted):
    """The Cai-Fuerer-Immerman graph over K4 (n = 40): each base vertex v
    becomes the even subsets of its incident edges plus two ends (v, e, 0)
    and (v, e, 1) per incident edge e, a subset S joined to (v, e, [e in S]);
    the ends of each base edge are joined bit to bit, and across for the
    first base edge when twisted."""
    base = list(itertools.combinations(range(4), 2))
    ids = {}                    # vertex key -> number, in order of first use
    pairs = []
    for v in range(4):
        incident = [e for e in base if v in e]
        for S in [()] + list(itertools.combinations(incident, 2)):
            pairs += [(("set", v, S), ("end", v, e, int(e in S))) for e in incident]
    for e in base:
        flip = int(twisted and e == base[0])
        pairs += [(("end", e[0], e, i), ("end", e[1], e, i ^ flip)) for i in (0, 1)]
    edges = [tuple(ids.setdefault(key, len(ids)) for key in pair) for pair in pairs]
    return th.Graph(len(ids), edges)


@pytest.fixture(scope="session")
def zoo4():
    return four_vertex_zoo()


@pytest.fixture(scope="session")
def corpus_entries():
    """Manifest entries of the bundled corpus with graphs loaded."""
    root = th.corpus_path()
    with open(os.path.join(root, "manifest.json")) as fh:
        manifest = json.load(fh)
    out = []
    for entry in manifest["pairs"]:
        g1 = th.load_graph(os.path.join(root, entry["g1"]))
        g2 = th.load_graph(os.path.join(root, entry["g2"]))
        out.append((entry["name"], g1, g2, bool(entry["isomorphic"])))
    return out


@pytest.fixture(scope="session")
def solved_corpus(corpus_entries):
    """One solve per corpus pair per session: name -> (g1, g2, truth,
    program, result, verdict)."""
    cache = {}
    for name, g1, g2, truth in corpus_entries:
        program = th.build_program(g1, g2)
        result = th.solve(program)
        verdict = th.decide(result, g1, g2)
        cache[name] = (g1, g2, truth, program, result, verdict)
    return cache


def united_family(rng, k, m, full_mass=False):
    """Random orthogonal united vectors u_1..u_k and unit w in R^m.

    Built from canonical factors (sqrt(a_i) e_i and the vector of roots) and
    rotated by a random orthogonal matrix, which preserves every inner
    product.  With full_mass=True the weights a_i sum to exactly 1, making
    the family maximal (the u_i sum to w).
    """
    assert m >= k + 1
    if full_mass:
        a = rng.dirichlet(np.ones(k))
        a = a / a.sum()
    else:
        a = rng.dirichlet(np.ones(k + 1))[:k]
    roots = np.sqrt(a)
    us = np.zeros((k, m))
    us[np.arange(k), np.arange(k)] = roots
    w = np.zeros(m)
    w[:k] = roots
    # sqrt of the ~1e-16 rounding residue would leave a spurious ~1e-8
    # coordinate, so the full-mass case pins the slack to exactly zero.
    w[k] = 0.0 if full_mass else np.sqrt(1.0 - a.sum())
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return [Q @ u for u in us], Q @ w, a


def random_doubly_stochastic(rng, n, terms=None):
    """Known convex combination of permutation matrices and its weights."""
    if terms is None:
        terms = int(rng.integers(2, n + 3))
    weights = rng.dirichlet(np.ones(terms))
    perms = [tuple(rng.permutation(n).tolist()) for _ in range(terms)]
    X = np.zeros((n, n))
    for w, sigma in zip(weights, perms):
        X[np.arange(n), list(sigma)] += w
    return X, list(zip(weights.tolist(), perms))


def recording_eigh_backend(record):
    """A stand-in for ``thetaiso.solver.eigh_backend`` whose eigh passes
    each matrix to ``record`` before decomposing it."""
    backend = thetaiso.solver.eigh_backend

    def recording(name):
        eigh = backend(name)

        def wrapped(M):
            record(M)
            return eigh(M)

        return wrapped

    return recording


def failing_eigh_backend(call, fail="raise"):
    """A stand-in for ``thetaiso.solver.eigh_backend`` whose eigh behaves on
    every call but the given one, where it raises LinAlgError (fail="raise")
    or returns NaN (fail="nan")."""
    backend = thetaiso.solver.eigh_backend
    count = [0]

    def failing(name):
        eigh = backend(name)

        def wrapped(M):
            count[0] += 1
            if count[0] == call:
                if fail == "raise":
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
                return np.full(M.shape[0], np.nan), np.full(M.shape, np.nan)
            return eigh(M)

        return wrapped

    return failing
