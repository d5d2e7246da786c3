"""Exact isomorphism search: correctness against brute force, cap semantics."""

import sys
from itertools import permutations

import pytest

import thetaiso as th
from thetaiso.oracle import (
    enumerate_isomorphisms,
    is_isomorphism,
    is_permutation,
)


def brute_force_isomorphisms(g1, g2):
    """Unpruned n!-filter reference; only sensible for n <= 6 or so."""
    return [s for s in permutations(range(g1.n)) if is_isomorphism(s, g1, g2)]


def test_is_permutation():
    assert is_permutation((2, 0, 1), 3)
    assert is_permutation((0,), 1)
    assert not is_permutation((0, 0, 1), 3)
    assert not is_permutation((0, 1), 3)
    assert not is_permutation((0, 1, 3), 3)


def test_is_isomorphism_exact():
    g = th.cycle_graph(5)
    h = th.relabel(g, (3, 1, 4, 0, 2))
    assert is_isomorphism((3, 1, 4, 0, 2), g, h)
    assert not is_isomorphism((0, 1, 2, 3, 4), g, th.path_graph(5))
    with pytest.raises(ValueError):
        is_isomorphism((0, 1), g, h)


@pytest.mark.parametrize("make,count", [
    (lambda: th.path_graph(5), 2),
    (lambda: th.cycle_graph(4), 8),
    (lambda: th.cycle_graph(5), 10),
    (lambda: th.cycle_graph(6), 12),
    (lambda: th.star_graph(4), 6),
    (lambda: th.complete_graph(4), 24),
    (lambda: th.empty_graph(4), 24),
])
def test_automorphism_counts(make, count):
    g = make()
    autos = enumerate_isomorphisms(g, g)
    assert len(autos) == count
    assert all(is_isomorphism(s, g, g) for s in autos)


def test_petersen_automorphism_count():
    g = th.petersen_graph()
    assert len(enumerate_isomorphisms(g, g)) == 120


def test_agreement_with_brute_force():
    cases = [
        (th.path_graph(4), th.relabel(th.path_graph(4), (3, 0, 2, 1))),
        (th.cycle_graph(5), th.relabel(th.cycle_graph(5), (1, 3, 0, 4, 2))),
        (th.cycle_graph(6), th.disjoint_union(th.cycle_graph(3), th.cycle_graph(3))),
        (th.path_graph(4), th.star_graph(4)),
        (th.complete_graph(3), th.complete_graph(3)),
        (th.Graph(5, [(0, 1), (1, 2), (3, 4)]), th.Graph(5, [(2, 3), (1, 2), (0, 4)])),
    ]
    for g1, g2 in cases:
        fast = enumerate_isomorphisms(g1, g2)
        slow = brute_force_isomorphisms(g1, g2)
        assert sorted(fast) == sorted(slow)


def test_enumeration_is_sorted_and_cap_is_prefix():
    g = th.cycle_graph(6)
    h = th.relabel(g, (5, 0, 2, 4, 1, 3))
    full = enumerate_isomorphisms(g, h)
    assert full == sorted(full)
    for cap in (1, 3, len(full), len(full) + 5):
        capped = enumerate_isomorphisms(g, h, cap=cap)
        assert capped == full[: cap]


def test_cap_zero_and_negative():
    g = th.cycle_graph(4)
    assert enumerate_isomorphisms(g, g, cap=0) == []


def test_size_limit():
    g = th.empty_graph(11)
    with pytest.raises(ValueError):
        enumerate_isomorphisms(g, g)
    # explicit override allowed (cap keeps it fast)
    assert len(enumerate_isomorphisms(g, g, cap=1, size_limit=None)) == 1



def test_search_deeper_than_the_recursion_limit():
    # One level of the search per vertex: it must not be bounded by Python's
    # recursion limit.
    n = sys.getrecursionlimit() + 10
    g = th.empty_graph(n)
    assert enumerate_isomorphisms(g, g, cap=1, size_limit=None) == [tuple(range(n))]

def test_degree_sequence_prefilter():
    g1 = th.path_graph(4)
    g2 = th.cycle_graph(4)
    assert enumerate_isomorphisms(g1, g2) == []


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        enumerate_isomorphisms(th.path_graph(3), th.path_graph(4))
