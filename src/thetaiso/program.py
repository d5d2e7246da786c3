"""Compile a graph pair into the explicit conic program over the lifted matrix.

The decision variable is a symmetric (n^2+1) x (n^2+1) matrix Y indexed by
vertex pairs (i,j) -> i*n+j plus a final slack index omega.  The objective sums
the pair-diagonal entries; the affine rows pin the omega corner to 1, tie the
omega column to the diagonal, and zero every entry whose index pair conflicts
(``graphs.conflict_pairs``: same row, same column, or mismatched adjacency
across the two graphs).  A ``Program`` holds these rows as index arrays only,
and ``program_to_json_dict`` hands them to the JSON writer as tables filled
from those arrays.  The two cone conditions (positive semidefinite,
entrywise nonnegative) are not affine rows; the solver enforces them by
projection.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from .graphs import conflict_pairs
from .jsonwriter import SLOT, Table
from .lifts import _lifted_order

__all__ = [
    "Program",
    "build_program",
    "decision_threshold",
    "objective_value",
    "program_to_json_dict",
]


class Program:
    """Immutable compiled program for one graph pair.

    zero_rows/zero_cols scatter over both triangles of the zero pattern: the
    first half lists each conflicting pair (r, s), r < s, grouped by kind in
    the order of ``conflict_pairs``, and the second half mirrors it.
    """

    __slots__ = (
        "n", "dim", "omega", "pair_diag",
        "zero_rows", "zero_cols", "zero_counts",
    )

    def __init__(self, n, conflicts):
        pair_diag = np.arange(n * n)
        upper_r = np.concatenate([r for r, _ in conflicts.values()])
        upper_s = np.concatenate([s for _, s in conflicts.values()])
        zero_rows = np.concatenate([upper_r, upper_s])
        zero_cols = np.concatenate([upper_s, upper_r])
        for a in (pair_diag, zero_rows, zero_cols):
            a.setflags(write=False)

        object.__setattr__(self, "n", n)
        object.__setattr__(self, "dim", n * n + 1)
        object.__setattr__(self, "omega", n * n)
        object.__setattr__(self, "pair_diag", pair_diag)
        object.__setattr__(self, "zero_rows", zero_rows)
        object.__setattr__(self, "zero_cols", zero_cols)
        object.__setattr__(self, "zero_counts", MappingProxyType(
            {kind: len(r) for kind, (r, _) in conflicts.items()}
        ))

    def __setattr__(self, name, value):
        raise AttributeError("Program is immutable")

    def constraint_counts(self):
        """Number of affine rows of each kind, in output order."""
        return {"omega-norm": 1, "diag-link": self.n * self.n, **self.zero_counts}

    def zero_pair_set(self):
        """Zeroed index pairs as a set of (r, s) with r < s."""
        m = len(self.zero_rows) // 2
        return set(zip(self.zero_rows[:m].tolist(), self.zero_cols[:m].tolist()))

    def __repr__(self):
        rows = sum(self.constraint_counts().values())
        return f"Program(n={self.n}, dim={self.dim}, constraints={rows})"


def build_program(g1, g2):
    """Compile the objective and affine rows for a pair of equal-size graphs."""
    return Program(g1.n, conflict_pairs(g1, g2))


def objective_value(Y, p):
    """Sum of the pair-diagonal entries of the (dim x dim) matrix Y."""
    Y = np.asarray(Y)
    if _lifted_order(Y) != p.n:
        raise ValueError(f"expected a {p.dim} x {p.dim} matrix, got {Y.shape}")
    d = p.pair_diag
    return float(Y[d, d].sum())


def decision_threshold(n):
    """Separation below which the optimum rules out any isomorphism:
    n - 1/(4 n^4).  An isomorphic pair has optimum exactly n."""
    return n - 1.0 / (4.0 * n ** 4)


def program_to_json_dict(p):
    """Serializable form of a Program for ``dumps_json``: the sparse
    objective (coefficient 1 on each pair-diagonal entry), the affine rows
    <A, Y> = rhs in constraint_counts order, and a description of the index
    convention.  The objective and the rows are Tables filled from the index
    arrays.  Off-diagonal positions appear as a mirrored pair with
    coefficient 1/2 each, so A is symmetric and <A, Y> reads off the matrix
    entry directly.
    """
    omega, d = p.omega, p.pair_diag
    m = len(p.zero_rows) // 2
    cuts = np.cumsum(list(p.zero_counts.values()))[:-1]
    kinds = zip(p.zero_counts, np.split(p.zero_rows[:m], cuts), np.split(p.zero_cols[:m], cuts))
    mirrored = [[SLOT, SLOT, 0.5], [SLOT, SLOT, 0.5]]
    rows = [
        ({"kind": "omega-norm", "entries": [[omega, omega, 1.0]], "rhs": 1.0},
         np.empty((0, 1), dtype=int)),                       # one row, no slot
        ({"kind": "diag-link", "entries": [[SLOT, omega, 0.5], [omega, SLOT, 0.5],
                                           [SLOT, SLOT, -1.0]], "rhs": 0.0},
         (d, d, d, d)),
    ] + [({"kind": kind, "entries": mirrored, "rhs": 0.0}, (r, s, s, r)) for kind, r, s in kinds]
    return {
        "dim": p.dim,
        "n": p.n,
        "objective": Table([([SLOT, SLOT, 1.0], (d, d))]),
        "constraints": Table(rows),
        "index": {
            "n": p.n,
            "omega": p.omega,
            "order": "row-major",
            "description": "pair (i,j) maps to i*n + j; omega maps to n*n",
        },
    }
