"""
Build graphs and compile a pair into the lifted matrix program
==============================================================

The program variable is a symmetric (n^2+1) x (n^2+1) matrix Y indexed by
vertex pairs (i, j) -> i*n + j plus one extra coordinate omega = n^2.
Equality constraints pin the omega corner to 1, tie each diagonal entry to
its omega row, and zero out every entry whose pair of assignments is
incompatible (shared row, shared column, or adjacency mismatch).
"""

import numpy as np

import thetaiso as th

# Two labelings of the 5-cycle: same graph, scrambled vertices.
g1 = th.cycle_graph(5)
g2 = th.relabel(g1, (1, 3, 0, 4, 2))
print("g1 edges:", sorted(g1.edges))
print("g2 edges:", sorted(g2.edges))
print("degrees:", g1.degrees(), "and", g2.degrees())

# Compile the pair into a program.  Pair (i, j) is row and column i*n + j of
# the matrix variable; omega sits at n^2, the last of program.dim indices.
program = th.build_program(g1, g2)
n = program.n
print("\nindex of pair (2, 4):", 2 * n + 4)
print("pair at 14:", divmod(14, n))
print("omega:", program.omega, "matrix side:", program.dim)

# The program's constraint budget.
print("\nconstraint counts by kind:")
for kind, count in sorted(program.constraint_counts().items()):
    print(f"  {kind:>12}: {count}")

# Entries forced to zero correspond exactly to edges of the association
# graph on vertex pairs -- incompatible assignments cannot both be chosen.
zeros = program.zero_pair_set()
assoc = th.association_graph(g1, g2)
print("\nforced-zero entry pairs:", len(zeros))
print("association-graph edges:", assoc.num_edges)
print("identical sets:", zeros == {tuple(sorted(e)) for e in assoc.edges})

# The objective simply sums the n^2 diagonal entries over vertex pairs.
Y = np.eye(program.dim) / n
Y[program.omega, program.omega] = 1.0
print("\nobjective at a scaled identity:", th.objective_value(Y, program))
