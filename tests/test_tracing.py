"""The benchmark tracer still reaches the names it patches in the package.

``benchmarks/tracing.py`` wraps ``thetaiso.solver.eigh_backend`` and three
attributes of ``thetaiso.extraction`` by name.  A change under ``src/`` that
renames or drops one of them breaks every traced benchmark run; this test
catches that without running the benchmark.
"""

import pathlib

import thetaiso as th
import thetaiso.solver

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def test_the_tracer_patches_a_solve_and_decide_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    patched = [(thetaiso.solver, "eigh_backend")]
    patched += [(module, attr) for module, attr, _ in tracing._INNER_CALLS]
    originals = [getattr(module, attr) for module, attr in patched]

    g = th.cycle_graph(5)
    h = th.relabel(g, (2, 4, 1, 0, 3))
    tracer = tracing.Tracer()
    with tracer.patched():
        assert all(getattr(module, attr) is not original
                   for (module, attr), original in zip(patched, originals))
        result = th.solve(th.build_program(g, h))
        verdict = th.decide(result, g, h)
    assert verdict.kind is th.VerdictKind.ISOMORPHIC

    names = {span["name"] for span in tracer.spans}
    assert "eigensolver.eigh" in names and "oracle.is_isomorphism" in names
    assert tracer.max_dim > 0
    assert all(getattr(module, attr) is original
               for (module, attr), original in zip(patched, originals))
