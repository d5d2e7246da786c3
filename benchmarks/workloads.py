"""Deterministic graph pairs for the benchmark workloads.

``write_workload`` turns a workload name and a seed into pair files plus a
``manifest.json`` holding each pair's ground truth, in a directory of its own,
apart from the packaged corpus (so the acceptance tests never see these pairs).
Truth comes from construction: a graph against a relabelling of itself is
isomorphic, every other constructed pair is a known non-isomorphic one.
``verify_truth`` re-derives it by exact search.

Every relabelling permutation is drawn from the seed.  The solver's iteration
counts do not depend on the relabelling, so seeds vary the inputs without
changing the amount of work.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

import thetaiso as th

# The solver budget every pair runs under: SolverConfig() defaults except
# this cap, about 2.2x the slowest converging pair (P8, 1782 iterations).
# It keeps the two stalling pairs at seconds instead of minutes.
MAX_ITER = 4000

# Pairs that end Inconclusive at the seed commit.  They count against
# decided_frac, not as failures; a wrong verdict on any of them is a failure.
EXPECTED_INCONCLUSIVE = {
    "p10-relabel": "does not converge within the cap; its objective drifts "
                   "above n (11.08 after 50000 iterations)",
    "petersen-prism": "residuals stall near 1e-3 with the objective near 7.77, "
                      "so the gap bound never fires",
    "rook4-shrikhande": "same strongly regular parameters: the optimum is "
                        "exactly n, yet no candidate permutation verifies",
}


def rook_graph(k):
    """K_k x K_k: cells of a k x k board, adjacent when sharing a row or column."""
    cells = [(a, b) for a in range(k) for b in range(k)]
    return th.Graph(k * k, (
        (u, v)
        for u in range(k * k) for v in range(u + 1, k * k)
        if cells[u][0] == cells[v][0] or cells[u][1] == cells[v][1]
    ))


def shrikhande_graph():
    """Cayley graph of Z4 x Z4 on {±(1,0), ±(0,1), ±(1,1)}; SRG(16,6,2,2) like the 4x4 rook graph."""
    steps = ((1, 0), (0, 1), (1, 1))
    return th.Graph(16, (
        (4 * a + b, 4 * ((a + x) % 4) + (b + y) % 4)
        for a in range(4) for b in range(4) for x, y in steps
    ))


def paley_graph(q):
    """Paley graph on Z_q, q prime and 1 mod 4: adjacent when the difference is a square."""
    squares = {(x * x) % q for x in range(1, q)}
    return th.Graph(q, ((i, j) for i in range(q) for j in range(i + 1, q) if (j - i) % q in squares))


def cube_graph():
    return th.Graph(8, ((v, v ^ bit) for v in range(8) for bit in (1, 2, 4)))


def wagner_graph():
    """Moebius ladder on 8 vertices: C8 plus the four long diagonals; cubic like the cube."""
    return th.Graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])


def prism_graph(k):
    """C_k x K_2: two k-cycles joined by a perfect matching."""
    outer = [(i, (i + 1) % k) for i in range(k)]
    inner = [(k + i, k + (i + 1) % k) for i in range(k)]
    return th.Graph(2 * k, outer + inner + [(i, k + i) for i in range(k)])


def _two_cycles(k):
    return th.disjoint_union(th.cycle_graph(k), th.cycle_graph(k))


# Each generated entry: (name, g1, g2 before relabelling, truth).  g2 is
# relabelled by a seeded permutation.  Corpus entries name a manifest pair of
# the packaged corpus, whose files are copied unchanged.
#
# compile: the build path with no solver, up to n = 25 (95,626 constraint
#   rows, 21 MB of JSON), where constraint objects and the JSON writer cost.
# iso-relabel: relabelled pairs at dim 65-145 that converge to objective n, so
#   decide runs the polish and the consistent-set search; plus the stalled P10.
# noniso-bound: pairs the gap bound decides with extraction skipped, plus the
#   Petersen-prism stall.  A bound or early-stop change moves this workload;
#   on iso-relabel it should not (its pairs have optimum n).
# large-dim: rook 4x4 vs Shrikhande at dim 257, where the O(dim^3) eigh
#   dominates; the only pair that reaches Birkhoff peeling.  A workload of
#   its own, so that its 12 s pass does not double iso-relabel's.
_GENERATED = {
    "compile": lambda: [
        ("rook4-shrikhande", rook_graph(4), shrikhande_graph(), False),
        ("paley17-relabel", paley_graph(17), paley_graph(17), True),
        ("c20-relabel", th.cycle_graph(20), th.cycle_graph(20), True),
        ("rook5-relabel", rook_graph(5), rook_graph(5), True),
    ],
    "iso-relabel": lambda: [
        ("cube-relabel", cube_graph(), cube_graph(), True),
        ("p8-relabel", th.path_graph(8), th.path_graph(8), True),
        ("c12-relabel", th.cycle_graph(12), th.cycle_graph(12), True),
        ("p10-relabel", th.path_graph(10), th.path_graph(10), True),
    ],
    "noniso-bound": lambda: [
        ("c8-2c4", th.cycle_graph(8), _two_cycles(4), False),
        ("cube-wagner", cube_graph(), wagner_graph(), False),
        ("c10-2c5", th.cycle_graph(10), _two_cycles(5), False),
        ("petersen-prism", th.petersen_graph(), prism_graph(5), False),
    ],
    "large-dim": lambda: [
        ("rook4-shrikhande", rook_graph(4), shrikhande_graph(), False),
    ],
}
WORKLOADS = tuple(_GENERATED)
_CORPUS = {
    "compile": (),
    "iso-relabel": ("petersen",),
    "noniso-bound": ("c6_vs_2c3", "p4_vs_k13", "tree6_pair"),
    "large-dim": (),
}


def _edge_list_text(g):
    lines = [f"{g.n} {g.num_edges}"] + [f"{i} {j}" for i, j in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def write_workload(workload, seed, directory):
    """Write the workload's pair files and manifest.json into directory.

    Returns the manifest: {"workload", "seed", "max_iter", "pairs": [...]},
    each pair {"name", "g1", "g2", "n", "isomorphic", "expect_inconclusive"}
    with file names relative to directory.
    """
    if workload not in _GENERATED:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng(seed)
    os.makedirs(directory, exist_ok=True)
    pairs = []

    def add(name, f1, f2, n, truth):
        pairs.append({
            "name": name, "g1": f1, "g2": f2, "n": n, "isomorphic": truth,
            "expect_inconclusive": EXPECTED_INCONCLUSIVE.get(name),
        })

    corpus = th.corpus_path()
    with open(os.path.join(corpus, "manifest.json"), encoding="utf-8") as fh:
        corpus_pairs = {entry["name"]: entry for entry in json.load(fh)["pairs"]}
    for name in _CORPUS[workload]:
        entry = corpus_pairs[name]
        for key in ("g1", "g2"):
            shutil.copyfile(os.path.join(corpus, entry[key]), os.path.join(directory, entry[key]))
        n = th.load_graph(os.path.join(directory, entry["g1"])).n
        add(name, entry["g1"], entry["g2"], n, bool(entry["isomorphic"]))

    for name, g1, g2, truth in _GENERATED[workload]():
        sigma = tuple(int(v) for v in rng.permutation(g2.n))
        files = (f"{name}_a.txt", f"{name}_b.txt")
        for fname, g in zip(files, (g1, th.relabel(g2, sigma))):
            with open(os.path.join(directory, fname), "w", encoding="utf-8") as fh:
                fh.write(_edge_list_text(g))
        add(name, files[0], files[1], g1.n, truth)

    manifest = {"workload": workload, "seed": seed, "max_iter": MAX_ITER, "pairs": pairs}
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest


def verify_truth(manifest, directory):
    """Check every manifest truth label by exact search; raises on a mismatch."""
    for pair in manifest["pairs"]:
        g1 = th.load_graph(os.path.join(directory, pair["g1"]))
        g2 = th.load_graph(os.path.join(directory, pair["g2"]))
        found = bool(th.enumerate_isomorphisms(g1, g2, cap=1, size_limit=None))
        if found != pair["isomorphic"]:
            raise RuntimeError(
                f"pair {pair['name']}: constructed truth isomorphic={pair['isomorphic']}, "
                f"exact search says {found}"
            )
