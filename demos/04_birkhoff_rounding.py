"""
Peel a doubly stochastic matrix into permutations
=================================================

The n^2 diagonal entries of an optimal matrix, reshaped to n x n, form a
doubly stochastic matrix.  Peeling off maximum-weight perfect matchings
(the Birkhoff-von Neumann construction) writes it as a convex combination
of permutation matrices.  ``birkhoff_decompose`` is a tool on such
matrices, not a decision stage: a verdict of Isomorphic rests only on the
permutation the solver lifts and carries in ``SolverResult.permutation``.
"""

import numpy as np

import thetaiso as th

rng = np.random.default_rng(4)

# A known mixture of permutation matrices on 5 vertices.
perms = [(0, 1, 2, 3, 4), (1, 0, 3, 2, 4), (4, 2, 0, 1, 3)]
weights = [0.55, 0.30, 0.15]
X = np.zeros((5, 5))
for w, sigma in zip(weights, perms):
    X[np.arange(5), list(sigma)] += w
print("doubly stochastic input:")
print(X)

res = th.birkhoff_decompose(X)
print(f"\ncomplete: {res.complete}, rounds: {res.rounds}")
for weight, sigma in res.terms:
    print(f"  weight {weight:.6f}  permutation {sigma}")

back = np.zeros_like(X)
for weight, sigma in res.terms:
    back[np.arange(5), list(sigma)] += weight
print("reconstruction error:", np.max(np.abs(back - X)))

# The same machinery on a random mixture: the peeled weights always sum
# to one and the support always shrinks, so at most (n-1)^2 + 1 rounds.
n = 7
sigmas = [tuple(rng.permutation(n).tolist()) for _ in range(6)]
mix = rng.dirichlet(np.ones(6))
Z = np.zeros((n, n))
for w, sigma in zip(mix, sigmas):
    Z[np.arange(n), list(sigma)] += w
res = th.birkhoff_decompose(Z)
total = sum(w for w, _ in res.terms)
print(f"\nrandom 7x7 mixture: {len(res.terms)} terms, weight sum {total:.12f}")

# An end-to-end solve on an isomorphic pair stops once it rounds its
# iterate to a verified isomorphism, and returns that permutation and its
# lift: the lift's diagonal is a single permutation matrix and peels into
# one term, the permutation the solver carries.
g1 = th.path_graph(5)
g2 = th.relabel(g1, (4, 2, 0, 3, 1))
result = th.solve(th.build_program(g1, g2))
diag = th.diagonal_matrix(result.Y)
print(f"\nsolver stopped by {result.stop_reason} with permutation {result.permutation}; "
      f"row/column sums drift from 1 by {th.stochastic_deviation(diag):.2e}")
res = th.birkhoff_decompose(diag)
print("solver diagonal for a relabeled path peels into:")
for weight, sigma in res.terms:
    print(f"  weight {weight:.6f}  permutation {sigma}  "
          f"isomorphism: {th.is_isomorphism(sigma, g1, g2)}")

# Any convex combination of isomorphism lifts is optimal too.  An even mix of
# two lifts that share some pairs ties several matchings on its diagonal, and
# the peel may cross between the two lifts, so every term is only a candidate.
# The consistent-set search also reads the off-diagonal entries, which are
# zero between pairs of different lifts, and so recovers one of them.
g1 = th.cycle_graph(6)
g2 = th.relabel(g1, (5, 0, 2, 4, 1, 3))
lifts = [(0, 2, 4, 1, 3, 5), (0, 5, 3, 1, 4, 2)]
Y = sum(0.5 * th.lift(sigma).extended() for sigma in lifts)
res = th.birkhoff_decompose(th.diagonal_matrix(Y))
print(f"\neven mix of the 6-cycle isomorphisms {lifts[0]} and {lifts[1]} peels into:")
for weight, sigma in res.terms:
    print(f"  weight {weight:.6f}  permutation {sigma}  "
          f"isomorphism: {th.is_isomorphism(sigma, g1, g2)}")
sigma = th.consistent_set_search(Y)
print(f"consistent-set search reads {sigma}, "
      f"isomorphism: {th.is_isomorphism(sigma, g1, g2)}")
