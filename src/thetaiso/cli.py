"""Command-line front end.

Subcommands: ``build`` compiles a graph pair to a JSON program description,
``decide`` solves a pair and prints the verdict, led by the bound it rests
on (and, when the pair branched before the solve, how many branches were
tried, their largest bound, and how many were solved, refuted by
refinement and covered by an automorphism), ``bench`` runs a corpus
directory against its manifest, ``oracle`` runs the exact search.  Exit
codes from ``decide``/``oracle``: 0 isomorphic, 1 non-isomorphic, 2 bad
input or an instance too large for memory, 3 inconclusive, 4 solver
diverged (for ``decide``, the status of its one solve of the full layout,
which follows branches that leave the pair open).
Environment variables THETAISO_TOL, THETAISO_MAX_ITER, and
THETAISO_ORACLE_FALLBACK override the corresponding defaults when the flag
is not given explicitly; a value that does not parse is bad input (exit 2).
The defaults are ``SolverConfig``'s own, which ``--help`` prints.  The
subcommands raise; ``main`` alone turns an OSError, a ValueError (such as a
GraphParseError) or a MemoryError into one ``error: …`` line and exit 2.

Programs and reports are serialized by ``jsonwriter.dumps_json``, which
prints the same bytes as ``json.dumps(indent=2)``, so equal runs produce
byte-identical files; a program's rows reach it as tables filled straight
from the ``Program``'s index arrays.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import Counter
from dataclasses import asdict

from .extraction import VerdictKind, decide
from .graphs import load_graph
from .jsonwriter import _finite_or_none, dumps_json
from .oracle import enumerate_isomorphisms
from .program import build_program, program_to_json_dict
from .solver import SolverConfig, SolverStatus, solve

__all__ = ["main", "dumps_json"]

EXIT_ISOMORPHIC = 0
EXIT_NON_ISOMORPHIC = 1
EXIT_INPUT_ERROR = 2
EXIT_INCONCLUSIVE = 3
EXIT_DIVERGED = 4

ENV_PREFIX = "THETAISO_"


def _flag(text):
    word = text.strip().lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected 1/true/yes/on or 0/false/no/off")


def _add_solver_flags(sub):
    sub.add_argument("--tol", type=float,
                     help=f"primal/dual stopping tolerance (default {SolverConfig.tol})")
    sub.add_argument("--max-iter", type=int,
                     help=f"iteration cap (default {SolverConfig.max_iter})")
    sub.add_argument("--oracle-fallback", action="store_true", default=None,
                     help="settle inconclusive runs by exact search")


def _config_from_args(args):
    """The SolverConfig of the solver flags: each field is its flag, else its
    THETAISO_<FIELD> variable parsed, else SolverConfig's default."""
    given = {}
    for field, parse in (("tol", float), ("max_iter", int), ("oracle_fallback", _flag)):
        name, value = ENV_PREFIX + field.upper(), getattr(args, field)
        raw = os.environ.get(name)
        if value is None and raw is not None:
            try:
                value = parse(raw)
            except ValueError as exc:
                raise ValueError(f"bad value for {name}: {raw!r} ({exc})") from None
        if value is not None:
            given[field] = value
    return SolverConfig(**given)


def _load_pair(path1, path2):
    g1 = load_graph(path1)
    g2 = load_graph(path2)
    if g1.n != g2.n:
        raise ValueError(f"graph sizes differ: {g1.n} != {g2.n}")
    return g1, g2


def _agrees(verdict, truth):
    """Whether a verdict matches the ground truth; None when inconclusive."""
    if verdict.kind is VerdictKind.INCONCLUSIVE:
        return None
    return (verdict.kind is VerdictKind.ISOMORPHIC) == truth


def _write_text(path, text):
    """Write text to path, or to stdout when path is '-'.  A file holds the
    text as UTF-8 with bare newlines on every platform."""
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def run_pair(g1, g2, cfg, want_oracle=False):
    """Build, solve, and decide one pair; returns (verdict, result, report),
    the report being the JSON-ready dict that ``decide --json`` prints."""
    t0 = time.perf_counter()
    program = build_program(g1, g2)
    t_build = time.perf_counter() - t0
    result = solve(program, cfg)
    t1 = time.perf_counter()
    verdict = decide(result, g1, g2, cfg)
    t_decide = time.perf_counter() - t1
    verdict_doc = verdict.to_json_dict()
    timings = {
        "build_seconds": t_build,
        "solve_seconds": result.solve_seconds,
        "decide_seconds": t_decide,
    }
    report = {
        "instance": {
            "n": g1.n,
            "edges_1": g1.num_edges,
            "edges_2": g2.num_edges,
            "program_dim": program.dim,
            "program_constraints": sum(program.constraint_counts().values()),
        },
        "config": asdict(cfg),
        "solver": {
            "status": result.status.value,
            "stop_reason": result.stop_reason,
            # None on a branch-bound stop, which iterates no full-layout point
            "objective": _finite_or_none(result.objective),
            # the bound a NonIsomorphic verdict rests on; None when not finite
            "upper_bound": _finite_or_none(result.upper_bound),
            "iterations": result.iterations,
            # None when the solve diverged before any iteration finished
            "primal_residual": _finite_or_none(result.primal_residual),
            "dual_residual": _finite_or_none(result.dual_residual),
            "branches": [dict(b, upper_bound=_finite_or_none(b["upper_bound"]))
                         for b in result.branches],
            "automorphisms": [list(a) for a in result.automorphisms],
        },
        "verdict": verdict_doc,
        "timings": timings,
    }
    if want_oracle:
        if verdict.decided_by == "oracle":   # decide's fallback has run the exact search
            truth = verdict.kind is VerdictKind.ISOMORPHIC
        else:
            t2 = time.perf_counter()
            truth = bool(enumerate_isomorphisms(g1, g2, cap=1, size_limit=None))
            timings["oracle_seconds"] = time.perf_counter() - t2
        report["oracle"] = {"isomorphic": truth, "agrees_with_verdict": _agrees(verdict, truth)}
    return verdict, result, report


def _verdict_exit_code(verdict, result):
    """The exit code; an inconclusive verdict reads the solver status."""
    if verdict.kind is VerdictKind.ISOMORPHIC:
        return EXIT_ISOMORPHIC
    if verdict.kind is VerdictKind.NON_ISOMORPHIC:
        return EXIT_NON_ISOMORPHIC
    if result.status is SolverStatus.DIVERGED:
        return EXIT_DIVERGED
    return EXIT_INCONCLUSIVE


def cmd_build(args):
    g1, g2 = _load_pair(args.graph1, args.graph2)
    program = build_program(g1, g2)
    _write_text(args.out, dumps_json(program_to_json_dict(program)))
    if args.out != "-":
        counts = program.constraint_counts()
        summary = ", ".join(f"{k}={v}" for k, v in counts.items() if v)
        print(f"wrote {args.out}: dim {program.dim}, {summary}")
    return 0


def cmd_decide(args):
    g1, g2 = _load_pair(args.graph1, args.graph2)
    cfg = _config_from_args(args)
    verdict, result, report = run_pair(g1, g2, cfg, want_oracle=cfg.oracle_fallback)
    if args.json:
        sys.stdout.write(dumps_json(report))
    else:
        print(f"n = {g1.n}, objective = {result.objective:.12f}, "
              f"upper bound = {result.upper_bound:.12f}, "
              f"threshold = {verdict.threshold:.12f}")
        print(f"solver: {result.status.value} after {result.iterations} iterations "
              f"(primal {result.primal_residual:.2e}, dual {result.dual_residual:.2e})")
        line = f"verdict: {verdict.kind.value}"
        if verdict.decided_by:
            line += f" (by {verdict.decided_by})"
        print(line)
        if result.branches:
            largest = max(b["upper_bound"] for b in result.branches)
            how = Counter(b["stop_reason"] for b in result.branches)
            refined, covered = how["refinement"], how["automorphism"]
            solved = len(result.branches) - refined - covered
            print(f"branches: {len(result.branches)} tried, largest bound {largest:.12f} "
                  f"(threshold {verdict.threshold:.12f}); {solved} solved, "
                  f"{refined} refuted by refinement, {covered} covered by an automorphism")
        if verdict.permutation is not None:
            print("isomorphism:", " ".join(str(j) for j in verdict.permutation))
    return _verdict_exit_code(verdict, result)


def cmd_oracle(args):
    if args.cap is not None and args.cap < 1:
        raise ValueError(f"--cap must be at least 1, got {args.cap}")
    g1, g2 = _load_pair(args.graph1, args.graph2)
    isos = enumerate_isomorphisms(g1, g2, cap=args.cap, size_limit=None)
    for sigma in isos:
        print(" ".join(str(j) for j in sigma))
    suffix = f" (stopped at cap {args.cap})" if args.cap and len(isos) == args.cap else ""
    print(f"found {len(isos)} isomorphism(s){suffix}")
    return EXIT_ISOMORPHIC if isos else EXIT_NON_ISOMORPHIC


def _read_manifest(corpus):
    """The (name, g1 path, g2 path, isomorphic) entries of a corpus manifest."""
    path = os.path.join(corpus, "manifest.json")
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise ValueError(f"cannot read {path}: {exc}") from None
    try:
        pairs = [(e["name"], e["g1"], e["g2"], e["isomorphic"]) for e in manifest["pairs"]]
        for name, _, _, truth in pairs:
            if not isinstance(truth, bool):
                raise TypeError(f"pair {name}: isomorphic is {truth!r}, not true or false")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path} needs a 'pairs' list of objects with name, g1, g2 "
                         f"and isomorphic ({type(exc).__name__}: {exc})") from None
    return pairs


def _load_corpus_pair(corpus, name, path1, path2):
    try:
        return _load_pair(os.path.join(corpus, path1), os.path.join(corpus, path2))
    except (OSError, TypeError, ValueError) as exc:  # TypeError: a path that is not a string
        raise ValueError(f"pair {name}: {exc}") from None


def cmd_bench(args):
    pairs = _read_manifest(args.corpus)
    cfg = _config_from_args(args)

    rows = []
    mismatches = 0
    for name, path1, path2, truth in pairs:
        g1, g2 = _load_corpus_pair(args.corpus, name, path1, path2)
        if args.verify_manifest:
            recomputed = bool(enumerate_isomorphisms(g1, g2, cap=1, size_limit=None))
            if recomputed != truth:
                raise ValueError(f"manifest says isomorphic={truth} for {name}, "
                                 f"exact search says {recomputed}")
        t0 = time.perf_counter()
        verdict, result, report = run_pair(g1, g2, cfg)
        elapsed = time.perf_counter() - t0
        agree = _agrees(verdict, truth)
        if agree is False:
            mismatches += 1
        rows.append({
            "name": name,
            "n": g1.n,
            "isomorphic": truth,
            "verdict": verdict.kind.value,
            "decided_by": verdict.decided_by,
            "objective": report["solver"]["objective"],
            "upper_bound": report["solver"]["upper_bound"],
            "threshold": verdict.threshold,
            "gap": _finite_or_none(verdict.threshold - result.upper_bound),
            "threshold_decided": verdict.decided_by == "bound",
            "status": result.status.value,
            "iterations": result.iterations,
            "seconds": elapsed,
            "agree": agree,
        })

    header = (f"{'pair':<24} {'n':>3} {'truth':>6} {'verdict':>15} {'by':>10} "
              f"{'objective':>16} {'gap':>11} {'iters':>7} {'sec':>8} {'ok':>4}")
    print(header)
    print("-" * len(header))
    for row in rows:
        truth = "iso" if row["isomorphic"] else "non"
        ok = {True: "yes", False: "NO", None: "-"}[row["agree"]]
        by = row["decided_by"] or "-"
        gap = "-" if row["gap"] is None else f"{row['gap']:.3e}"
        objective = math.nan if row["objective"] is None else row["objective"]
        print(f"{row['name']:<24} {row['n']:>3} {truth:>6} {row['verdict']:>15} "
              f"{by:>10} {objective:>16.9f} {gap:>11} "
              f"{row['iterations']:>7} {row['seconds']:>8.2f} {ok:>4}")
    counts = {}
    decided = {"bound": 0, "branch-bound": 0, "extraction": 0, "oracle": 0, "inconclusive": 0}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
        decided[row["decided_by"] or "inconclusive"] += 1
    summary = {
        "pairs": len(rows),
        "verdicts": counts,
        "decided_by": decided,
        "mismatches": mismatches,
        "manifest_verified": bool(args.verify_manifest),
    }
    print(f"\n{len(rows)} pairs: " + ", ".join(f"{k}={v}" for k, v in counts.items())
          + f", mismatches={mismatches}")
    print("decided by: " + ", ".join(f"{k}={v}" for k, v in decided.items()))
    doc = {"config": asdict(cfg), "pairs": rows, "summary": summary}
    if args.json is not None:
        _write_text(args.json, dumps_json(doc))
        if args.json != "-":
            print(f"report written to {args.json}")
    return 0 if mismatches == 0 else EXIT_NON_ISOMORPHIC


def build_parser():
    parser = argparse.ArgumentParser(
        prog="thetaiso",
        description="Graph isomorphism testing via a lifted relaxation "
                    "over the doubly nonnegative cone.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="compile a pair to a JSON program")
    p_build.add_argument("graph1")
    p_build.add_argument("graph2")
    p_build.add_argument("out", help="output path, or - for stdout")
    p_build.set_defaults(func=cmd_build)

    p_decide = sub.add_parser("decide", help="solve a pair and print the verdict")
    p_decide.add_argument("graph1")
    p_decide.add_argument("graph2")
    _add_solver_flags(p_decide)
    p_decide.add_argument("--json", action="store_true",
                          help="emit the full run report as JSON")
    p_decide.set_defaults(func=cmd_decide)

    p_oracle = sub.add_parser("oracle", help="exact search for isomorphisms")
    p_oracle.add_argument("graph1")
    p_oracle.add_argument("graph2")
    p_oracle.add_argument("--cap", type=int, default=None,
                          help="stop after this many isomorphisms")
    p_oracle.set_defaults(func=cmd_oracle)

    p_bench = sub.add_parser("bench", help="run every pair in a corpus directory")
    p_bench.add_argument("corpus", help="directory containing manifest.json")
    _add_solver_flags(p_bench)
    p_bench.add_argument("--json", nargs="?", const="-", default=None,
                         help="write the JSON report here (- for stdout)")
    p_bench.add_argument("--verify-manifest", action="store_true",
                         help="recompute ground truth by exact search first")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MemoryError as exc:      # an instance too large to hold is bad input
        print(f"error: out of memory: {exc}", file=sys.stderr)
    except (OSError, ValueError) as exc:  # bad input, bad environment, I/O
        print(f"error: {exc}", file=sys.stderr)
    return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
