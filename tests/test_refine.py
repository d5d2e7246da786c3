"""Joint colour refinement (1-WL and 2-WL) on graph pairs, against loop
references, and the individualisation-refinement search built on it."""

import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import thetaiso as th
from thetaiso.refine import colour_refinement, pinned_isomorphism, wl2_separates
from thetaiso.solver import AUTOMORPHISM_TRY_NODES

from conftest import (
    CYCLIC_LATIN_5, NON_GROUP_LATIN_5, chang_graph, cube_graph, latin_square_graph,
    rook_graph, shrikhande_graph, t8_graph, wagner_graph,
)


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


def reference_colour_classes(g1, g2, pins):
    """Stable pinned 1-WL classes as a partition of the 2n joint vertices
    (graph, vertex), by a plain loop; pin i starts in class i + 1."""
    n = g1.n
    graphs = (g1, g2)
    colour = {(g, v): 0 for g in range(2) for v in range(n)}
    for i, (v, k) in enumerate(pins, start=1):
        colour[0, v] = colour[1, k] = i
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


@pytest.mark.parametrize("pair, parameters", [
    (lambda: (latin_square_graph(CYCLIC_LATIN_5), latin_square_graph(NON_GROUP_LATIN_5)),
     (25, 12, 5, 6)),
    (lambda: (t8_graph(), chang_graph()), (28, 12, 6, 4)),
], ids=["latin-5", "t8-chang"])
def test_the_latin_and_chang_pairs_are_non_isomorphic_srg_twins(pair, parameters):
    # Both graphs of a pair are strongly regular with the same parameters
    # (A^2 = k I + lambda A + mu (J - I - A)), so 2-WL cannot separate them,
    # and a complete individualisation-refinement search finds no
    # isomorphism.
    g1, g2 = pair()
    n, k, lam, mu = parameters
    for g in (g1, g2):
        A = g.adjacency.astype(np.int64)
        assert g.n == n
        assert np.array_equal(A @ A, k * np.eye(n, dtype=np.int64) + lam * A
                              + mu * (1 - np.eye(n, dtype=np.int64) - A))
    assert not wl2_separates(g1, g2)
    sigma, nodes = pinned_isomorphism(g1, g2, (), 10**6)
    assert sigma is None and nodes < 10**6


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



def test_pins_that_repeat_a_vertex_are_rejected():
    c6 = th.cycle_graph(6)
    for pins in ([(0, 1), (0, 2)], [(1, 0), (2, 0)], [(3, 3), (3, 3)]):
        with pytest.raises(ValueError, match="pin"):
            colour_refinement(c6, c6, *pins)


@pytest.mark.parametrize("pin", [(6, 0), (-1, 0), (0, 6), (0.0, 1), (False, True)])
def test_a_pin_outside_the_vertex_range_is_rejected(pin):
    # Both graphs share one array of 2n colours, so an unchecked v = n or
    # v = -1 would pin a vertex of the second graph and refute the branch;
    # a pin that is not an integer is named, not left to numpy's IndexError.
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
    count = draw(st.integers(0, min(n, 3)))
    vs = draw(st.permutations(range(n)))[:count]
    ks = draw(st.permutations(range(n)))[:count]
    return g1, g2, list(zip(vs, ks))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(small_pairs())
def test_vectorised_refinement_matches_the_loop_reference(case):
    # Zero to three pins, each pinning distinct vertices on either side.
    g1, g2, pins = case
    assert wl2_separates(g1, g2) == reference_wl2_separates(g1, g2)
    c1, c2 = colour_refinement(g1, g2, *pins)
    colour = {**{(0, v): int(c) for v, c in enumerate(c1)},
              **{(1, v): int(c) for v, c in enumerate(c2)}}
    assert partition(colour) == reference_colour_classes(g1, g2, pins)


# Stable colours with one pin, as the one-pin refinement numbered them
# before it took a sequence of pins; every branch program is cut by them.
ONE_PIN_COLOURS = {
    "rook4-shrikhande": (
        rook_graph(4), shrikhande_graph(), (0, 0),
        [2, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1],
        [2, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 1, 1, 0]),
    "petersen": (
        th.petersen_graph(), th.petersen_graph(), (3, 7),
        [1, 1, 0, 2, 0, 1, 1, 1, 0, 1],
        [1, 1, 0, 1, 1, 0, 1, 2, 1, 0]),
}


@pytest.mark.parametrize("name", sorted(ONE_PIN_COLOURS))
def test_one_pin_gives_the_one_pin_colours(name):
    g1, g2, pin, c1, c2 = ONE_PIN_COLOURS[name]
    got = colour_refinement(g1, g2, pin)
    assert [a.tolist() for a in got] == [c1, c2]


def frucht_graph():
    """The Frucht graph, LCF [-5,-2,-4,2,5,-2,2,5,-2,-5,4,2]: cubic, and its
    only automorphism is the identity."""
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    return th.Graph(12, [(i, (i + 1) % 12) for i in range(12)]
                    + [(i, (i + s) % 12) for i, s in enumerate(lcf) if i < (i + s) % 12])


def test_the_search_maps_0_to_every_shrikhande_vertex_within_the_rung_cap():
    g = shrikhande_graph()
    for k in range(16):
        sigma, nodes = pinned_isomorphism(g, g, [(0, k)], AUTOMORPHISM_TRY_NODES)
        assert sigma[0] == k and th.is_isomorphism(sigma, g, g), k
        assert 1 <= nodes <= AUTOMORPHISM_TRY_NODES, (k, nodes)


def test_the_search_finds_no_automorphism_of_a_rigid_graph():
    g = frucht_graph()
    assert th.enumerate_isomorphisms(g, g, size_limit=None) == [tuple(range(12))]
    assert pinned_isomorphism(g, g, [(0, 0)], 1) == (tuple(range(12)), 1)
    cap = 4
    for r, k in itertools.permutations(range(12), 2):
        sigma, nodes = pinned_isomorphism(g, g, [(r, k)], cap)
        assert sigma is None and 1 <= nodes <= cap, (r, k, nodes)


def test_pins_whose_histograms_differ_end_the_search_at_its_root():
    # An end of P3 cannot map to its middle.
    p3 = th.path_graph(3)
    assert pinned_isomorphism(p3, p3, [(0, 1)], 16) == (None, 1)
    c6, two_c3 = th.cycle_graph(6), two_cycles(3)
    assert pinned_isomorphism(c6, two_c3, [(0, 0)], 16) == (None, 1)


def test_the_search_stops_at_its_cap():
    # Rook 4x4 and Shrikhande pass refinement pinned at (0, 0), so the search
    # individualises below the root; it exhausts its tree at 7 nodes, and a
    # smaller cap stops it there.
    g1, g2 = rook_graph(4), shrikhande_graph()
    assert pinned_isomorphism(g1, g2, [(0, 0)], 100) == (None, 7)
    for cap in (1, 4, 7):
        assert pinned_isomorphism(g1, g2, [(0, 0)], cap) == (None, cap)
    for cap in (0, -1, 2.0, True):
        with pytest.raises(ValueError, match="cap"):
            pinned_isomorphism(g1, g2, [(0, 0)], cap)


def test_the_search_finds_a_relabelling():
    # Two pins and none: the search returns an isomorphism that keeps every
    # pin, read off discrete colours and checked edge by edge.
    g = rook_graph(4)
    sigma = tuple(np.random.default_rng(3).permutation(16).tolist())
    h = th.relabel(g, sigma)
    for pins in ([], [(0, sigma[0]), (5, sigma[5])]):
        found, nodes = pinned_isomorphism(g, h, pins, 100)
        assert th.is_isomorphism(found, g, h), pins
        assert all(found[v] == k for v, k in pins)
