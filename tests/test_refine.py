"""Joint colour refinement (1-WL and 2-WL) on graph pairs, against loop references."""

import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import thetaiso as th
from thetaiso.refine import colour_refinement, wl2_separates

from conftest import cube_graph, rook_graph, shrikhande_graph, wagner_graph


def prism_graph(k):
    outer = [(i, (i + 1) % k) for i in range(k)]
    inner = [(k + i, k + (i + 1) % k) for i in range(k)]
    return th.Graph(2 * k, outer + inner + [(i, k + i) for i in range(k)])


def two_cycles(k):
    return th.disjoint_union(th.cycle_graph(k), th.cycle_graph(k))


def corpus_pair(name):
    root = th.corpus_path()
    return tuple(th.load_graph(os.path.join(root, f"{name}_{side}.txt")) for side in "ab")


# The non-isomorphic pairs of the packaged corpus and of the benchmark's
# noniso-bound workload, and the one pair neither the dual bound nor 2-WL
# separates.
NAMED_PAIRS = {
    "c6_vs_2c3": (*corpus_pair("c6_vs_2c3"), True),
    "p4_vs_k13": (*corpus_pair("p4_vs_k13"), True),
    "tree6_pair": (*corpus_pair("tree6_pair"), True),
    "c8-2c4": (th.cycle_graph(8), two_cycles(4), True),
    "cube-wagner": (cube_graph(), wagner_graph(), True),
    "c10-2c5": (th.cycle_graph(10), two_cycles(5), True),
    "petersen-prism": (th.petersen_graph(), prism_graph(5), True),
    "rook4-shrikhande": (rook_graph(4), shrikhande_graph(), False),
}


def reference_wl2_separates(g1, g2):
    """2-WL written out with dicts and tuples: the same joint naming of
    signatures by rank, one pair and one l at a time."""
    n = g1.n
    colours = [
        {(i, j): (i == j, bool(g.adjacency[i, j])) for i in range(n) for j in range(n)}
        for g in (g1, g2)
    ]
    while True:
        hist = [sorted(c.values()) for c in colours]
        if hist[0] != hist[1]:
            return True
        sigs = [
            {(i, j): (c[i, j], tuple(sorted((c[i, l], c[l, j]) for l in range(n))))
             for i in range(n) for j in range(n)}
            for c in colours
        ]
        names = {s: rank for rank, s in enumerate(sorted(set(sigs[0].values())
                                                         | set(sigs[1].values())))}
        refined = [{key: names[s] for key, s in sig.items()} for sig in sigs]
        if len(names) == len(set(colours[0].values()) | set(colours[1].values())):
            return False
        colours = refined


def reference_colour_classes(g1, g2, pin):
    """Stable pinned 1-WL classes as a partition of the 2n joint vertices
    (graph, vertex), by a plain loop."""
    n = g1.n
    graphs = (g1, g2)
    colour = {(g, v): 0 for g in range(2) for v in range(n)}
    colour[0, pin[0]] = colour[1, pin[1]] = 1
    while True:
        sig = {
            (g, v): (colour[g, v], tuple(sorted(colour[g, u] for u in range(n)
                                                if graphs[g].adjacency[v, u])))
            for (g, v) in colour
        }
        names = {s: rank for rank, s in enumerate(sorted(set(sig.values())))}
        refined = {key: names[s] for key, s in sig.items()}
        if len(names) == len(set(colour.values())):
            return partition(colour)
        colour = refined


def partition(colour):
    classes = {}
    for key, c in colour.items():
        classes.setdefault(c, set()).add(key)
    return sorted(sorted(cls) for cls in classes.values())


@pytest.mark.parametrize("name", sorted(NAMED_PAIRS))
def test_wl2_answers_on_the_named_pairs(name):
    # 2-WL separates exactly the seven pairs the dual bound certifies, and
    # not rook 4x4 vs Shrikhande (both SRG(16,6,2,2)).
    g1, g2, separated = NAMED_PAIRS[name]
    assert wl2_separates(g1, g2) is separated
    assert reference_wl2_separates(g1, g2) is separated


def test_wl2_never_separates_a_relabelling():
    for g in (rook_graph(4), th.petersen_graph(), th.cycle_graph(9), cube_graph()):
        sigma = tuple(np.random.default_rng(g.n).permutation(g.n).tolist())
        h = th.relabel(g, sigma)
        assert not wl2_separates(g, h)


def test_colour_histograms_refute_c6_against_two_triangles_pinned():
    # C6 and 2C3 are both 2-regular, but once a vertex is pinned the far
    # vertex of C6 has no counterpart in 2C3.
    c6, two_c3 = th.cycle_graph(6), two_cycles(3)
    full = th.build_program(c6, two_c3)
    for k in range(6):
        c1, c2 = colour_refinement(c6, two_c3, (0, k))
        assert not np.array_equal(np.sort(c1), np.sort(c2)), k
        assert th.branch_program(full, 0, k) is None


def test_refinement_rejects_graphs_of_different_sizes():
    with pytest.raises(ValueError):
        colour_refinement(th.path_graph(3), th.path_graph(4), (0, 0))
    with pytest.raises(ValueError):
        wl2_separates(th.path_graph(3), th.path_graph(4))



@pytest.mark.parametrize("pin", [(6, 0), (-1, 0), (0, 6)])
def test_a_pin_outside_the_vertex_range_is_rejected(pin):
    # Both graphs share one array of 2n colours, so an unchecked v = n or
    # v = -1 would pin a vertex of the second graph and refute the branch.
    c6 = th.cycle_graph(6)
    full = th.build_program(c6, th.relabel(c6, (1, 2, 3, 4, 5, 0)))
    with pytest.raises(ValueError, match="pin"):
        colour_refinement(c6, c6, pin)
    with pytest.raises(ValueError, match="pin"):
        th.branch_program(full, *pin)

@st.composite
def small_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    slots = list(itertools.combinations(range(n), 2))

    def graph():
        mask = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
        return th.Graph(n, [e for e, keep in zip(slots, mask) if keep])

    g1 = graph()
    g2 = th.relabel(g1, draw(st.permutations(range(n)))) if draw(st.booleans()) else graph()
    pin = (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
    return g1, g2, pin


@settings(max_examples=60, derandomize=True, deadline=None)
@given(small_pairs())
def test_vectorised_refinement_matches_the_loop_reference(case):
    g1, g2, pin = case
    assert wl2_separates(g1, g2) == reference_wl2_separates(g1, g2)
    c1, c2 = colour_refinement(g1, g2, pin)
    colour = {**{(0, v): int(c) for v, c in enumerate(c1)},
              **{(1, v): int(c) for v, c in enumerate(c2)}}
    assert partition(colour) == reference_colour_classes(g1, g2, pin)
