"""Weisfeiler-Leman colour refinement on a graph pair, run jointly.

Both refinements colour the two graphs with one palette: every round names
each distinct signature by its lexicographic rank among all signatures of
both graphs, so a colour means the same thing on either side and does not
depend on how the vertices are labelled.  A signature starts with the
old colour, so each round refines the last, and a colour histogram that
differs between the graphs at one round differs at every later round.

``colour_refinement`` is 1-WL (vertex colours) with pins (v, k), each of
which gives vertex v of the first graph and vertex k of the second a colour
of their own: an isomorphism that maps every v to its k keeps every colour,
so when the histograms differ no such isomorphism exists.
``pinned_isomorphism`` searches for such an isomorphism by
individualisation-refinement (McKay & Piperno, J. Symb. Comput. 2014): it
pins one more pair at a time, depth first, until the colours are discrete.
``wl2_separates`` is 2-WL (colours of ordered vertex pairs) on the unpinned
pair.
"""

from __future__ import annotations

import numpy as np

from .graphs import _vertex
from .oracle import is_isomorphism, pair_order

__all__ = ["colour_refinement", "pinned_isomorphism", "wl2_separates"]


def _rank(rows):
    """Each row's colour: the rank of its row among the distinct rows, in
    lexicographic order (what ``np.unique(axis=0)`` numbers, without its
    slow sort of structured records)."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    starts = np.ones(len(rows), dtype=np.int64)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(starts) - 1
    return ids


def colour_refinement(g1, g2, *pins):
    """Stable joint 1-WL colours (c1, c2) of two equal-size graphs with
    pins (v, k), ...: pin i gives v in g1 and k in g2 the colour i + 1, and
    every other vertex starts at colour 0.

    A vertex's signature is its colour and the number of neighbours of each
    colour; the rounds stop once they split no colour class.  Raises
    ValueError unless each v and k is an integer with 0 <= v, k < n and no
    vertex of either graph is pinned twice.
    """
    n = pair_order(g1, g2)
    colours = np.zeros(2 * n, dtype=np.int64)
    pinned = set()
    for colour, pin in enumerate(pins, start=1):
        v, k = (_vertex(u, "pin vertex") for u in pin)
        if not (0 <= v < n and 0 <= k < n):
            raise ValueError(f"pin {(v, k)} is not a vertex pair of two {n}-vertex graphs")
        if v in pinned or n + k in pinned:
            raise ValueError(f"pin {(v, k)} pins a vertex that an earlier pin holds")
        pinned.update((v, n + k))
        colours[v] = colours[n + k] = colour
    adjacency = (g1.adjacency.astype(np.int64), g2.adjacency.astype(np.int64))
    count = len(pins) + 1
    while True:
        onehot = np.eye(count, dtype=np.int64)[colours]
        counts = np.concatenate([adjacency[0] @ onehot[:n], adjacency[1] @ onehot[n:]])
        refined = _rank(np.column_stack([colours, counts]))
        refined_count = int(refined.max()) + 1
        if refined_count == count:
            return colours[:n], colours[n:]
        colours, count = refined, refined_count


def pinned_isomorphism(g1, g2, pins, cap):
    """(sigma, nodes): an isomorphism sigma of g1 onto g2 that maps each v
    of ``pins`` to its k, found by a depth-first individualisation-
    refinement search of at most ``cap`` nodes, else None; and the nodes
    the search visited.

    A node runs one ``colour_refinement`` with its pins and is a dead end
    when the pinned histograms differ.  When every class is a singleton,
    sigma is read off the colours and returned if ``is_isomorphism``
    accepts it edge by edge.  Otherwise the node's children pin the
    lowest-numbered g1 vertex u of a larger class to each g2 vertex of u's
    colour, in increasing order.  Integer arithmetic throughout, so the
    answer does not depend on the BLAS.  An isomorphism keeps every pinned
    colour, so it maps u into u's class and the children cover it: None
    after fewer than ``cap`` nodes means that no such isomorphism exists,
    None at ``cap`` nodes decides nothing.
    """
    if isinstance(cap, bool) or not isinstance(cap, (int, np.integer)) or cap < 1:
        raise ValueError(f"cap must be a positive integer, got {cap!r}")
    nodes = 0
    stack = [tuple(pins)]
    while stack and nodes < cap:
        node = stack.pop()
        nodes += 1
        c1, c2 = colour_refinement(g1, g2, *node)
        if not np.array_equal(np.sort(c1), np.sort(c2)):
            continue
        shared = np.bincount(c1)[c1] > 1     # vertices of g1 in a larger class
        if not shared.any():
            order = np.argsort(c2)
            sigma = tuple(order[np.searchsorted(c2[order], c1)].tolist())
            if is_isomorphism(sigma, g1, g2):
                return sigma, nodes
            continue
        u = int(np.argmax(shared))
        stack.extend(node + ((u, int(k)),) for k in np.flatnonzero(c2 == c1[u])[::-1])
    return None, nodes


def wl2_separates(g1, g2):
    """Whether 2-WL, run jointly, tells the two graphs apart.

    A pair (i, j) starts coloured by i = j and adjacency.  Its signature
    is its colour and the sorted list over l of the colour codes
    (colour(i, l), colour(l, j)), n codes whatever the number of colours.  Returns True as soon as the pair-colour histograms differ and
    False once a round splits no class with them still equal.
    """
    n = pair_order(g1, g2)
    eye = np.eye(n, dtype=np.int64)
    atoms = np.stack([eye + 2 * g.adjacency for g in (g1, g2)])
    colours = _rank(atoms.reshape(-1, 1)).reshape(2, n, n)
    count = int(colours.max()) + 1
    while True:
        if not np.array_equal(np.sort(colours[0], axis=None), np.sort(colours[1], axis=None)):
            return True
        # codes[g, i, j, l] = colour(i, l) * count + colour(l, j), sorted over l.
        codes = colours[:, :, None, :] * count + colours.transpose(0, 2, 1)[:, None, :, :]
        codes.sort(axis=3)
        rows = np.concatenate([colours[..., None], codes], axis=3).reshape(2 * n * n, n + 1)
        refined = _rank(rows).reshape(2, n, n)
        refined_count = int(refined.max()) + 1
        if refined_count == count:
            return False
        colours, count = refined, refined_count
