"""Exact isomorphism testing and backtracking enumeration.

Ground truth for everything the numerical pipeline claims.  Permutations are
plain tuples: sigma[i] is the image of vertex i.  All checks are integer
exact; no tolerances anywhere in this module.
"""

from __future__ import annotations

import numbers
import operator

import numpy as np

__all__ = [
    "is_permutation",
    "is_isomorphism",
    "enumerate_isomorphisms",
]

DEFAULT_SIZE_LIMIT = 10


def pair_order(g1, g2):
    """The vertex count n of two graphs of equal size; else a ValueError."""
    if g1.n != g2.n:
        raise ValueError(f"graph sizes differ: {g1.n} != {g2.n}")
    return g1.n


def is_permutation(sigma, n):
    """True iff sigma is a bijection [0,n) -> [0,n): n integer entries (int
    or numpy integer) holding each of 0..n-1 once.  Neither 1.0 nor True
    is an entry."""
    try:
        entries = tuple(sigma)
        values = sorted(map(operator.index, entries))
    except TypeError:
        return False
    return values == list(range(n)) and bool not in map(type, entries)


def is_isomorphism(sigma, g1, g2):
    """True iff (sigma(x), sigma(y)) is an edge of g2 exactly when (x,y) is one of g1."""
    n = pair_order(g1, g2)
    if not is_permutation(sigma, n):
        raise ValueError(f"not a permutation of [0,{n}): {sigma}")
    image = np.asarray(sigma)
    mapped = g2.adjacency[np.ix_(image, image)]
    return bool(np.array_equal(mapped, g1.adjacency))


def enumerate_isomorphisms(g1, g2, cap=None, size_limit=DEFAULT_SIZE_LIMIT):
    """All isomorphisms from g1 to g2 in lexicographic order of the image tuple.

    Backtracking over partial maps: vertex i of g1 is assigned an image j in
    increasing order, pruned by degree equality and by adjacency consistency
    against every already-mapped vertex.  Because candidates are explored in
    lexicographic order, a cap of k returns the k lexicographically smallest
    isomorphisms without enumerating the rest.

    Parameters
    ----------
    cap : int or None
        Stop after this many isomorphisms.  None means enumerate all; a cap
        that is not an integer, or is a bool, is a ValueError.
    size_limit : int or None
        Guard against accidental huge runs; pass None (or a larger bound) to
        override.
    """
    n = pair_order(g1, g2)
    if size_limit is not None and n > size_limit:
        raise ValueError(
            f"n={n} exceeds the enumeration size limit {size_limit}; "
            "pass size_limit=None to override"
        )
    if cap is not None and (isinstance(cap, bool) or not isinstance(cap, numbers.Integral)):
        raise ValueError(f"cap must be an integer or None, got {cap!r}")
    if cap is not None and cap <= 0:
        return []

    deg1 = g1.degrees()
    deg2 = g2.degrees()
    if sorted(deg1) != sorted(deg2):
        return []
    a1 = g1.adjacency.tolist()      # nested lists index faster than numpy scalars
    a2 = g2.adjacency.tolist()

    # Depth-first search with an explicit stack, so that no recursion limit
    # bounds n: image holds the images of vertices 0 .. len(image) - 1, and
    # start[i] is the first image of vertex i still to try.
    found = []
    image = []
    used = [False] * n
    start = [0]
    while start:
        i = len(image)
        j = None
        if i == n:
            found.append(tuple(image))
            if len(found) == cap:
                break
        else:
            for candidate in range(start[i], n):
                if used[candidate] or deg1[i] != deg2[candidate]:
                    continue
                if any(a1[i][k] != a2[candidate][image[k]] for k in range(i)):
                    continue
                j = candidate
                break
        if j is None:           # vertex i has no image left: back up one vertex
            start.pop()
            if image:
                used[image.pop()] = False
        else:
            start[i] = j + 1
            image.append(j)
            used[j] = True
            start.append(0)
    return found
