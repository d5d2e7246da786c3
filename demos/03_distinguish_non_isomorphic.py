"""
Distinguish non-isomorphic graphs that share a degree sequence
==============================================================

Degree sequences do not decide isomorphism: the 6-cycle and two triangles
are both 2-regular, and two different 6-vertex trees can share the degree
sequence (3, 2, 2, 1, 1, 1).  The relaxation separates such pairs when its
optimum falls below n - 1/(4 n^4); the verdict stays sound because for
isomorphic graphs the optimum provably equals n.  The solver certifies the
separation with a weak-duality upper bound on the optimum and stops as soon
as that bound clears the threshold, so the primal objective it reports is
an early iterate, not the optimum.
"""

import thetaiso as th

pairs = [
    ("C6 vs C3+C3", th.cycle_graph(6),
     th.disjoint_union(th.cycle_graph(3), th.cycle_graph(3))),
    ("P4 vs K1,3", th.path_graph(4), th.star_graph(4)),
    ("spider vs caterpillar",
     th.Graph(6, [(0, 1), (0, 2), (0, 5), (1, 3), (2, 4)]),
     th.Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])),
]

for name, g1, g2 in pairs:
    print(f"\n=== {name} ===")
    print("degree sequences:", sorted(g1.degrees()), sorted(g2.degrees()))
    program = th.build_program(g1, g2)
    result = th.solve(program)
    verdict = th.decide(result, g1, g2)
    print(f"solver     : {result.status.value} after {result.iterations} iterations")
    print(f"upper bound: {result.upper_bound:.9f}")
    print(f"threshold  : {verdict.threshold:.9f}  (n - 1/(4 n^4))")
    print(f"gap        : {verdict.threshold - result.upper_bound:.3e}  (threshold - upper bound)")
    print(f"verdict    : {verdict.kind.value} (decided by {verdict.decided_by})")
    exact = bool(th.enumerate_isomorphisms(g1, g2, cap=1))
    print(f"exact search agrees: {exact is False}")
