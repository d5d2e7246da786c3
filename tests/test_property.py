"""Property test of the whole pipeline on random small graph pairs.

Half of the drawn pairs are a graph against a relabelling of itself, the
other half two independent graphs (isomorphic or not, as chance has it).
Exact search is the ground truth every verdict is held against.
"""

import itertools

from hypothesis import given, settings, strategies as st

import thetaiso as th

CFG = th.SolverConfig(max_iter=4000)


@st.composite
def graph_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    slots = list(itertools.combinations(range(n), 2))

    def graph():
        mask = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
        return th.Graph(n, [e for e, keep in zip(slots, mask) if keep])

    g1 = graph()
    if draw(st.booleans()):
        g2 = th.relabel(g1, draw(st.permutations(range(n))))
    else:
        g2 = graph()
    return g1, g2


@settings(max_examples=24, derandomize=True, deadline=None)
@given(graph_pairs())
def test_verdicts_agree_with_exact_search(pair):
    g1, g2 = pair
    truth = bool(th.enumerate_isomorphisms(g1, g2, cap=1))
    result = th.solve(th.build_program(g1, g2), CFG)
    verdict = th.decide(result, g1, g2, CFG)
    if verdict.kind is th.VerdictKind.ISOMORPHIC:
        assert truth
        assert th.is_isomorphism(verdict.permutation, g1, g2)
        if verdict.decided_by == "extraction":
            assert result.stop_reason == "verified-lift"
            assert verdict.permutation == result.permutation
    elif verdict.kind is th.VerdictKind.NON_ISOMORPHIC:
        assert not truth
        if verdict.decided_by in ("bound", "branch-bound"):
            assert result.upper_bound < verdict.threshold
        # Only a full layout that 2-WL separates is iterated: any other has
        # optimum n, so its bound could not certify, and goes to the rung,
        # which never iterates the full layout.
        if verdict.decided_by == "bound":
            assert th.wl2_separates(g1, g2)
    if result.branches:
        assert result.iterations == 0
