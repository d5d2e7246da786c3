"""
Solve a relabeled pair and certify the isomorphism
==================================================

For isomorphic graphs the relaxation reaches its maximum value n.  The
solver splits the feasible set into two blocks: P, the affine constraints
together with Y >= 0, which has a closed-form projection, and the positive
semidefinite cone.  Two-block ADMM alternates between the two projections
and a scaled dual that pulls them together.  Every so often it
rounds its iterate to a permutation; once that permutation is an
isomorphism it stops and returns it, with no matrix: the permutation's lift
``lift(result.permutation).extended()`` is an optimal matrix of value
exactly n, fixed by the permutation alone.  The decision stage then
verifies the permutation exactly against the adjacency structure.

2-WL never separates a relabelled pair, so before the full solve the
solver pins vertex 0 of the first graph to each vertex of the second in
turn and solves the smaller pinned program.  Here the first branch lifts,
so the full layout is never iterated: its iteration count reads 0 and the
work shows in the branch row.
"""

import numpy as np

import thetaiso as th

g1 = th.petersen_graph()
g2 = th.relabel(g1, (3, 7, 0, 9, 4, 1, 6, 2, 8, 5))
print(f"Petersen graph twice, n = {g1.n}, edges = {g1.num_edges}")

program = th.build_program(g1, g2)
result = th.solve(program)
print(f"\nstatus          : {result.status.value}")
print(f"objective       : {result.objective:.9f}  (target n = {g1.n})")
print(f"iterations      : {result.iterations} (stopped by {result.stop_reason})")
for b in result.branches:
    print(f"branch k = {b['k']:<5} : dim {b['dim']}, {b['iterations']} iterations "
          f"({b['stop_reason']})")
print(f"primal residual : {result.primal_residual:.2e}")
print(f"dual residual   : {result.dual_residual:.2e}")
print(f"wall time       : {result.solve_seconds:.2f} s")

# The solve returns no matrix (result.Y is None); the optimal one is the
# lift of its permutation, and it is feasible: nonnegative, unit omega
# corner, diagonal tied to the omega row, forced zeros in place.
Y = th.lift(result.permutation).extended()
print(f"\nresult.Y is None: {result.Y is None}")
report = th.check_feasible(Y, g1, g2, tol=1e-5)
print(f"\nfeasibility within 1e-5: {report.feasible} "
      f"(worst violation {report.max_violation:.2e})")

verdict = th.decide(result, g1, g2)
print(f"\nverdict    : {verdict.kind.value} (decided by {verdict.decided_by})")
print(f"permutation: {verdict.permutation}")
print("exact check:", th.is_isomorphism(verdict.permutation, g1, g2))

# The certified permutation maps g1 edges onto g2 edges one for one.
sigma = verdict.permutation
mapped = {tuple(sorted((sigma[u], sigma[v]))) for u, v in g1.edges}
print("edge sets match:", mapped == set(g2.edges))
