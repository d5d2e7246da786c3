"""The thetaiso benchmark: one workload of graph pairs, timed end to end.

    python3 benchmarks/run.py --workload iso-relabel --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from any directory of a source checkout; the program is imported from
its ``src/``.  The run writes the workload's pair files from the seed
(workloads.py), checks their ground truth by exact search, then makes timed
passes over the pairs for about ``--seconds`` seconds, and never fewer than
MIN_PASSES of each kind it makes.  A decide pass runs load_graph -> build_program ->
solve -> decide on every pair; a compile pass runs load_graph ->
build_program -> program_to_json_dict -> dumps_json -> write.  Before every
pass and after the last, fresh interpreters are timed from their start to
being ready for a pass (set-up), so that the set-up samples span the same
stretch of the run as the passes.

Every output is checked: verdicts against the manifest truth, Isomorphic
permutations edge by edge, compiled programs by parsing them back and
counting their rows against association_graph.  Verdicts, iteration counts,
eigh counts and output digests must repeat exactly across passes; otherwise
the run reports correct=false and exits 1.

With ``--trace 1`` passes alternate untraced and traced, and the result holds
the per-layer metrics of the traced passes; with ``--trace 0`` it holds the
end-to-end metrics.  The last line of standard output is the result as one
JSON object.  A report with the environment and every pair's rows, and on
traced runs the spans as JSONL, go to ``.bench_out/`` in the checkout.
README.md lists the metrics and which of them each planned change should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# BLAS sizes its thread pool once, when numpy loads, so pin it before any
# import.  With 2 CPUs and dim <= 257 a pool would time the scheduler.
os.environ.update({var: "1" for var in THREAD_VARS})
if not (ROOT / "src" / "thetaiso" / "__init__.py").is_file():
    sys.exit(f"error: no thetaiso sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import thetaiso as th  # noqa: E402
from thetaiso.cli import dumps_json  # noqa: E402
from thetaiso.oracle import is_isomorphism  # noqa: E402

from tracing import Tracer, summarize  # noqa: E402
from workloads import MAX_ITER, WORKLOADS, verify_truth, write_workload  # noqa: E402

# Untraced passes per run, and traced ones when tracing, however long one
# pass takes, so that the pass-to-pass checks always run.  Three would not
# fit the run budget on iso-relabel and large-dim (11-14 s a pass there).
MIN_PASSES = 2

# Set-up probes before every pass and after the last.  Set-up swings with the
# host's load as much as a pass does, so it gets as many samples as fit.
PROBES_PER_GAP = 2

# The public calls a pass makes, by span name.
LAYERS = {
    "graphs.load_graph": th.load_graph,
    "program.build_program": th.build_program,
    "program.program_to_json_dict": th.program_to_json_dict,
    "cli.dumps_json": dumps_json,
    "solver.solve": th.solve,
    "extraction.decide": th.decide,
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help=f"one of {', '.join(WORKLOADS)}, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload not in WORKLOADS + ("all",):
        ap.error(f"unknown workload {args.workload!r}")
    return args


# ---- set-up -----------------------------------------------------------------

def set_up(manifest, directory):
    """Everything a run does before its first timed pass: load the pair files
    and warm the pipeline up on a 4-vertex pair."""
    graphs = {
        pair["name"]: tuple(th.load_graph(directory / pair[key]) for key in ("g1", "g2"))
        for pair in manifest["pairs"]
    }
    g = th.path_graph(4)
    h = th.relabel(g, (2, 0, 3, 1))
    program = th.build_program(g, h)
    if manifest["workload"] == "compile":
        dumps_json(th.program_to_json_dict(program))
    else:
        th.decide(th.solve(program, solver_config()), g, h, solver_config())
    return graphs


def solver_config():
    return th.SolverConfig(max_iter=MAX_ITER)


def probe_setup(workload, directory):
    """Seconds from starting a fresh interpreter to its being ready for the
    first timed pass."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, __file__, "--workload", workload, "--setup-probe", str(directory)],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return seconds


# ---- passes -----------------------------------------------------------------

def decide_one(pair, directory, calls):
    """Run one pair through the decide pipeline; returns (seconds, row)."""
    t0 = time.perf_counter()
    g1 = calls["graphs.load_graph"](directory / pair["g1"])
    g2 = calls["graphs.load_graph"](directory / pair["g2"])
    program = calls["program.build_program"](g1, g2)
    cfg = solver_config()
    result = calls["solver.solve"](program, cfg)
    verdict = calls["extraction.decide"](result, g1, g2, cfg)
    seconds = time.perf_counter() - t0
    return seconds, {
        "constraints": sum(program.constraint_counts().values()),
        "status": result.status.value,
        "iterations": result.iterations,
        "objective": result.objective,
        "verdict": verdict.kind.value,
        "decided_by": verdict.decided_by,
        "permutation": verdict.permutation,
        "candidates_tried": verdict.diagnostics["candidates_tried"],
    }


def compile_one(pair, directory, calls):
    """Run one pair through the compile pipeline; returns (seconds, row)."""
    t0 = time.perf_counter()
    g1 = calls["graphs.load_graph"](directory / pair["g1"])
    g2 = calls["graphs.load_graph"](directory / pair["g2"])
    program = calls["program.build_program"](g1, g2)
    text = calls["cli.dumps_json"](calls["program.program_to_json_dict"](program))
    with open(directory / f"{pair['name']}.program.json", "w", encoding="utf-8") as fh:
        fh.write(text)
    seconds = time.perf_counter() - t0
    return seconds, {"constraints": sum(program.constraint_counts().values())}


def run_pass(manifest, directory, calls, tracer):
    """One pass over the workload's pairs: (seconds, rows).  A pair that
    raises is recorded with its error and the pass goes on."""
    one = compile_one if manifest["workload"] == "compile" else decide_one
    rows = []
    for pair in manifest["pairs"]:
        if tracer is not None:
            tracer.pair = pair["name"]
        t0 = time.perf_counter()
        try:
            seconds, row = one(pair, directory, calls)
        except Exception as exc:  # a failing pair is a counted failure, not a crash
            seconds, row = time.perf_counter() - t0, {"error": f"{type(exc).__name__}: {exc}"}
        rows.append(dict(row, name=pair["name"], seconds=seconds))
    return sum(row["seconds"] for row in rows), rows


# ---- output checks ----------------------------------------------------------

def check_decide(pair, row, graphs):
    """The reason the row fails its check, or None."""
    if "error" in row:
        return row["error"]
    kind = row["verdict"]
    if kind == "Isomorphic":
        if not pair["isomorphic"]:
            return "Isomorphic verdict on a non-isomorphic pair"
        if not is_isomorphism(row["permutation"], *graphs[pair["name"]]):
            return "returned permutation is not an isomorphism"
    elif kind == "NonIsomorphic":
        if pair["isomorphic"]:
            return "NonIsomorphic verdict on an isomorphic pair"
    elif not pair["expect_inconclusive"]:
        return "Inconclusive on a pair not listed in EXPECTED_INCONCLUSIVE"
    return None


def check_compile(pair, row, graphs, directory, parse):
    """Digest the written program into the row; with parse, also parse it
    back and check its size and row count.  Returns the failure or None."""
    if "error" in row:
        return row["error"]
    data = (directory / f"{pair['name']}.program.json").read_bytes()
    row["output_bytes"] = len(data)
    row["sha256"] = hashlib.sha256(data).hexdigest()
    if not parse:
        return None
    doc = json.loads(data)
    g1, g2 = graphs[pair["name"]]
    n = g1.n
    if doc["n"] != n or doc["dim"] != n * n + 1:
        return f"program has n={doc['n']}, dim={doc['dim']}; expected n={n}"
    expected = 1 + n * n + th.association_graph(g1, g2).num_edges
    if len(doc["constraints"]) != expected or row["constraints"] != expected:
        return f"{len(doc['constraints'])} constraint rows, expected {expected}"
    return None


# What must repeat exactly from pass to pass, traced or not.
STEADY_KEYS = ("verdict", "decided_by", "status", "iterations", "permutation",
               "constraints", "sha256", "error")


def signature(rows):
    return [tuple(row.get(k) for k in STEADY_KEYS) for row in rows]


# ---- metrics ----------------------------------------------------------------

def layer_metrics(rows, spans, pass_seconds, max_dim):
    """Per-layer metrics of one traced pass."""
    s = summarize(spans)
    total, calls = s["total"], s["calls"]
    iterations = sum(r.get("iterations", 0) for r in rows)
    decided = [r.get("decided_by") for r in rows if "verdict" in r]
    return {
        "graphs.parse_s": total["graphs.load_graph"],
        "graphs.parse_calls": calls["graphs.load_graph"],
        "program.build_s": total["program.build_program"],
        "program.constraints": sum(r.get("constraints", 0) for r in rows),
        "program.to_json_s": total["program.program_to_json_dict"],
        "cli.dumps_s": total["cli.dumps_json"],
        "cli.output_bytes": sum(r.get("output_bytes", 0) for r in rows),
        "solver.solve_s": total["solver.solve"],
        "solver.self_s": s["self"]["solver.solve"],
        "solver.iterations": iterations,
        "solver.polish_sweeps": calls["eigensolver.eigh"] - iterations,
        "solver.status_maxiter": sum(r.get("status") == "MaxIter" for r in rows),
        "eigensolver.eigh_s": total["eigensolver.eigh"],
        "eigensolver.eigh_calls": calls["eigensolver.eigh"],
        "eigensolver.max_dim": max_dim,
        "extraction.decide_s": total["extraction.decide"],
        "extraction.consistent_set_s": total["extraction.consistent_set_search"],
        "extraction.consistent_set_calls": calls["extraction.consistent_set_search"],
        "extraction.birkhoff_s": total["extraction.birkhoff_decompose"],
        "extraction.birkhoff_calls": calls["extraction.birkhoff_decompose"],
        "extraction.candidates_tried": sum(r.get("candidates_tried", 0) for r in rows),
        "extraction.by_bound": decided.count("bound"),
        "extraction.by_extraction": decided.count("extraction"),
        "extraction.inconclusive": decided.count(None),
        "bench.self_s": pass_seconds - s["top_level"],
    }


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "max_iter": MAX_ITER,
        "commit": git_commit(),
    }


def git_commit():
    """The checkout's HEAD commit; None when it is not a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# ---- the run ----------------------------------------------------------------

def run(args):
    directory = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        manifest = write_workload(args.workload, args.seed, directory)
        verify_truth(manifest, directory)
        graphs = set_up(manifest, directory)
        return measure(args, manifest, directory, graphs)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def check_pass(manifest, rows, graphs, directory, first):
    """One message per pair of a pass whose output fails its check."""
    failures = []
    for pair, row in zip(manifest["pairs"], rows):
        if manifest["workload"] == "compile":
            reason = check_compile(pair, row, graphs, directory, parse=first)
        else:
            reason = check_decide(pair, row, graphs)
        if reason is not None:
            failures.append(f"pair {pair['name']}: {reason}")
    return failures


def measure(args, manifest, directory, graphs):
    tracer = Tracer() if args.trace else None
    pairs = manifest["pairs"]
    untraced_s, traced_s, setup_times, per_pass, problems = [], [], [], [], []
    failed = 0
    first_eighs = None
    origin = time.perf_counter()
    seconds = 0.0
    index = 0
    # Traced runs alternate untraced and traced passes, so that both see the
    # same stretch of the run; the untraced ones give the tracing overhead.
    while True:
        setup_times += [probe_setup(args.workload, directory) for _ in range(PROBES_PER_GAP)]
        elapsed = time.perf_counter() - origin
        enough = len(untraced_s) >= MIN_PASSES and (tracer is None or len(traced_s) >= MIN_PASSES)
        if enough and elapsed + seconds / 2 >= args.seconds:
            break
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.pass_index = index
            first_span = len(tracer.spans)
            with tracer.patched():
                calls = {name: tracer.wrap(name, fn) for name, fn in LAYERS.items()}
                seconds, rows = run_pass(manifest, directory, calls, tracer)
        else:
            seconds, rows = run_pass(manifest, directory, LAYERS, None)

        failures = check_pass(manifest, rows, graphs, directory, first=index == 0)
        failed += len(failures)
        problems += [f"pass {index}, {failure}" for failure in failures]
        if per_pass and signature(rows) != signature(per_pass[0]["rows"]):
            problems.append(f"pass {index}: verdicts, counts or outputs differ from pass 0")

        entry = {"index": index, "traced": traced, "seconds": seconds, "rows": rows}
        if traced:
            spans = tracer.spans[first_span:]
            eighs = Counter(s["pair"] for s in spans if s["name"] == "eigensolver.eigh")
            for row in rows:
                row["eigh_calls"] = eighs[row["name"]]
            if first_eighs is None:
                first_eighs = eighs
            elif eighs != first_eighs:
                problems.append(f"pass {index}: eigh call counts differ from pass 1")
            entry["layers"] = layer_metrics(rows, spans, seconds, tracer.max_dim)
            traced_s.append(seconds)
        else:
            untraced_s.append(seconds)
        per_pass.append(entry)
        index += 1

    pass_s = statistics.median(untraced_s)
    attempted = len(pairs) * len(per_pass)
    decided = sum(1 for row in per_pass[0]["rows"] if row.get("decided_by"))
    end_to_end = {
        "pass_s": pass_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    summary = {
        "decided_frac": None if args.workload == "compile" else decided / len(pairs),
        "failed_frac": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "passes": len(per_pass),
        "setup_probes": len(setup_times),
    }
    per_layer = None
    if tracer is not None:
        traced_passes = [p["layers"] for p in per_pass if p["traced"]]
        per_layer = {name: statistics.median(p[name] for p in traced_passes)
                     for name in traced_passes[0]}
        per_layer["trace.overhead_s"] = statistics.median(traced_s) - pass_s
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "manifest": manifest,
        "end_to_end": end_to_end, "summary": summary, "per_layer": per_layer,
        "setup_times": setup_times, "passes": per_pass, "problems": problems,
    }
    return report, tracer, origin


def spec_units(kind):
    """Metric name -> unit for one metric list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def print_report(report):
    env = report["environment"]
    print(f"thetaiso benchmark: workload {report['workload']}, seed {report['seed']}, "
          f"{report['summary']['passes']} passes, trace {report['trace']}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{'pair':<18} {'n':>3} {'truth':>5} {'result':>14} {'by':>10} {'iters':>6} "
          f"{'eighs':>6} {'sec':>7}")
    pairs = {p["name"]: p for p in report["manifest"]["pairs"]}
    # The last traced pass, if any: only traced passes count eigh calls.
    last = max(report["passes"], key=lambda p: (p["traced"], p["index"]))["rows"]
    for row in last:
        pair = pairs[row["name"]]
        result = row.get("verdict") or row.get("sha256", row.get("error", "?"))[:12]
        print(f"{row['name']:<18} {pair['n']:>3} {'iso' if pair['isomorphic'] else 'non':>5} "
              f"{result:>14} {row.get('decided_by') or '-':>10} {row.get('iterations', '-'):>6} "
              f"{row.get('eigh_calls', '-'):>6} {row['seconds']:>7.3f}")
    for name, unit in spec_units("end_to_end").items():
        print(f"{name} = {report['end_to_end'][name]:.6g} {unit}")
    for name, value in report["summary"].items():
        print(f"{name} = {value}")
    if report["per_layer"] is not None:
        for name, unit in spec_units("per_layer").items():
            print(f"{name} = {report['per_layer'][name]:.6g} {unit}")
    for problem in report["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        directory = Path(args.setup_probe)
        set_up(json.loads((directory / "manifest.json").read_text()), directory)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in WORKLOADS
        ]
        return max(codes)

    report, tracer, origin = run(args)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if tracer is not None:
        tracer.write_jsonl(OUT / f"{stem}.spans.jsonl", origin)
    print_report(report)

    kind = "per_layer" if args.trace else "end_to_end"
    values, units = report[kind], spec_units(kind)
    correct = not report["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": report["summary"]["attempted"],
        "failed": report["summary"]["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
