"""Spans around the program's layer calls, recorded from the benchmark's side.

A ``Tracer`` wraps public callables.  Each call becomes a span with its name,
start, end, the span open around it (its parent) and the pair being run.
Spans stay in memory; the run writes them out as JSONL when it ends.

``Tracer.patched`` reaches the calls the package makes internally: the
extraction helpers ``decide`` looks up in ``thetaiso.extraction``, and the
eigh callable ``solve`` gets from ``thetaiso.solver.eigh_backend``.  The
originals are restored on exit, so untraced passes run the plain program.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import thetaiso.extraction
import thetaiso.solver

# (module, attribute, span name) for calls made inside the package.
_INNER_CALLS = (
    (thetaiso.extraction, "consistent_set_search", "extraction.consistent_set_search"),
    (thetaiso.extraction, "birkhoff_decompose", "extraction.birkhoff_decompose"),
    (thetaiso.extraction, "is_isomorphism", "oracle.is_isomorphism"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.pair = None
        self.pass_index = None
        self.max_dim = 0  # largest matrix passed to eigh
        self._open = []

    def wrap(self, name, fn):
        """fn with every call recorded as a span named name."""

        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "pass": self.pass_index,
                "pair": self.pair,
            }
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()

        return traced

    @contextmanager
    def patched(self):
        """Trace the package's internal layer calls for the duration."""
        backend = thetaiso.solver.eigh_backend

        def traced_backend(name):
            eigh = self.wrap("eigensolver.eigh", backend(name))

            def traced_eigh(M):
                self.max_dim = max(self.max_dim, M.shape[0])
                return eigh(M)

            return traced_eigh

        saved = [(thetaiso.solver, "eigh_backend", backend)]
        saved += [(module, attr, getattr(module, attr)) for module, attr, _ in _INNER_CALLS]
        thetaiso.solver.eigh_backend = traced_backend
        for module, attr, name in _INNER_CALLS:
            setattr(module, attr, self.wrap(name, getattr(module, attr)))
        try:
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def write_jsonl(self, path, origin):
        """Write every span, times in seconds since origin."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                row = dict(span, start=span["start"] - origin, end=span["end"] - origin)
                fh.write(json.dumps(row) + "\n")


def summarize(spans):
    """Per span name: total seconds, call count and self seconds (duration
    minus the time its child spans cover), plus the seconds covered by
    top-level spans."""
    duration = {s["id"]: s["end"] - s["start"] for s in spans}
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += duration[s["id"]]
    total, self_time, calls = defaultdict(float), defaultdict(float), Counter()
    for s in spans:
        total[s["name"]] += duration[s["id"]]
        self_time[s["name"]] += duration[s["id"]] - covered[s["id"]]
        calls[s["name"]] += 1
    return {
        "total": total,
        "self": self_time,
        "calls": calls,
        "top_level": sum(duration[s["id"]] for s in spans if s["parent"] is None),
    }
