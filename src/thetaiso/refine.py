"""Weisfeiler-Leman colour refinement on a graph pair, run jointly.

Both refinements colour the two graphs with one palette: every round names
each distinct signature by its lexicographic rank among all signatures of
both graphs, so a colour means the same thing on either side and does not
depend on how the vertices are labelled.  A signature starts with the
old colour, so each round refines the last, and a colour histogram that
differs between the graphs at one round differs at every later round.

``colour_refinement`` is 1-WL (vertex colours) with a pin (v, k), which
gives vertex v of the first graph and vertex k of the second a colour of
their own: an isomorphism that maps v to k keeps every colour, so when the
histograms differ no such isomorphism exists.  ``wl2_separates`` is 2-WL
(colours of ordered vertex pairs) on the unpinned pair.
"""

from __future__ import annotations

import numpy as np

from .graphs import _vertex

__all__ = ["colour_refinement", "wl2_separates"]


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


def colour_refinement(g1, g2, pin):
    """Stable joint 1-WL colours (c1, c2) of two equal-size graphs with
    pin = (v, k): v in g1 and k in g2 start in a class of their own.

    A vertex's signature is its colour and the number of neighbours of each
    colour; the rounds stop once they split no colour class.  Raises
    ValueError unless v and k are integers with 0 <= v, k < n.
    """
    if g1.n != g2.n:
        raise ValueError(f"graph sizes differ: {g1.n} != {g2.n}")
    n = g1.n
    v, k = (_vertex(u, "pin vertex") for u in pin)
    if not (0 <= v < n and 0 <= k < n):
        raise ValueError(f"pin {(v, k)} is not a vertex pair of two {n}-vertex graphs")
    adjacency = (g1.adjacency.astype(np.int64), g2.adjacency.astype(np.int64))
    colours = np.zeros(2 * n, dtype=np.int64)
    colours[v] = colours[n + k] = 1
    count = int(colours.max()) + 1
    while True:
        onehot = np.eye(count, dtype=np.int64)[colours]
        counts = np.concatenate([adjacency[0] @ onehot[:n], adjacency[1] @ onehot[n:]])
        refined = _rank(np.column_stack([colours, counts]))
        refined_count = int(refined.max()) + 1
        if refined_count == count:
            return colours[:n], colours[n:]
        colours, count = refined, refined_count


def wl2_separates(g1, g2):
    """Whether 2-WL, run jointly, tells the two graphs apart.

    A pair (i, j) starts coloured by i = j and adjacency.  Its signature
    is its colour and the sorted list over l of the colour codes
    (colour(i, l), colour(l, j)), n codes whatever the number of colours.  Returns True as soon as the pair-colour histograms differ and
    False once a round splits no class with them still equal.
    """
    if g1.n != g2.n:
        raise ValueError(f"graph sizes differ: {g1.n} != {g2.n}")
    n = g1.n
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
