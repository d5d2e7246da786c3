"""Command-line surface: JSON emitter, subcommands, exit codes, env overrides."""

import json
import os
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import thetaiso as th
import thetaiso.cli
import thetaiso.extraction
import thetaiso.jsonwriter
import thetaiso.solver
from thetaiso.cli import dumps_json, main
from thetaiso.jsonwriter import SLOT, Table

from conftest import failing_eigh_backend, rook_graph, shrikhande_graph


def write_graph(path, g):
    lines = [f"{g.n} {g.num_edges}"] + [f"{a} {b}" for a, b in sorted(g.edges)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def c4_pair(tmp_path):
    g1 = th.cycle_graph(4)
    g2 = th.relabel(g1, (2, 0, 3, 1))
    return (write_graph(tmp_path / "a.txt", g1), write_graph(tmp_path / "b.txt", g2))


@pytest.fixture
def non_iso_pair(tmp_path):
    return (
        write_graph(tmp_path / "p4.txt", th.path_graph(4)),
        write_graph(tmp_path / "k13.txt", th.star_graph(4)),
    )


# ---------------------------------------------------------------- JSON writer

def test_dumps_json_roundtrip():
    doc = {
        "a": 1,
        "b": [1.5, 2, True, False, None, "text with \"quotes\""],
        "c": {"nested": {"x": 0.1 + 0.2}},
        "empty_list": [],
        "empty_dict": {},
        "f": 1.0,
    }
    text = dumps_json(doc)
    assert json.loads(text) == doc


def test_dumps_json_float_precision():
    x = 0.1234567890123456789
    text = dumps_json({"x": x})
    assert json.loads(text)["x"] == x  # all 17 significant digits survive
    assert "0.12345678901234568" in text


def test_dumps_json_integral_floats_stay_floats():
    back = json.loads(dumps_json({"x": 4.0}))
    assert isinstance(back["x"], float)


def test_dumps_json_numpy_scalars():
    doc = {"i": np.int64(3), "f": np.float64(0.5)}
    assert json.loads(dumps_json(doc)) == {"i": 3, "f": 0.5}


def test_dumps_json_rejects_bad_values():
    with pytest.raises(ValueError):
        dumps_json({"x": float("nan")})
    with pytest.raises(TypeError):
        dumps_json({"x": object()})
    with pytest.raises(TypeError):
        dumps_json({1: "non-string key"})
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="not JSON compliant"):
            dumps_json({"table": [[1, 0.5], [], [2.0, bad]]})
    with pytest.raises(TypeError, match="keys must be strings"):
        dumps_json([{"kind": "a", 1: 0.5}, {"kind": "b", 1: 1.5}])
    with pytest.raises(TypeError, match="keys must be strings"):
        dumps_json(Table([({"kind": "a", 1: SLOT}, [[3]])]))
    with pytest.raises(ValueError, match="not JSON compliant"):
        dumps_json({"rows": Table([([SLOT, float("nan")], [[3]])])})
    with pytest.raises(ValueError, match="SLOT outside"):
        dumps_json({"x": [1, SLOT]})
    with pytest.raises(ValueError, match="slots"):
        dumps_json(Table([([SLOT, SLOT], [[1, 2]])]))


@pytest.mark.parametrize("columns", [
    [[0.5, 1.0]],             # not integers
    [[True, False]],
    [1, 2],                   # one-dimensional
    [[1, 2], [3]],            # ragged
])
def test_table_rejects_columns_that_are_not_an_integer_matrix(columns):
    with pytest.raises((TypeError, ValueError)):
        Table([([SLOT], columns)])


def reference_json(obj):
    """The standard encoder's text, which dumps_json must match byte for byte."""
    return json.dumps(obj, indent=2, allow_nan=False,
                      default=thetaiso.jsonwriter._json_default) + "\n"


_texts = st.sampled_from(["", "kind", "100%", "%s", "%%d", 'say "hi"', "back\\slash",
                          "tab\there", "é", "ω ∈ Ω", "\U0001f600"])
_keys = st.sampled_from(["kind", "entries", "rhs", "%s", "é"])
_numbers = st.one_of(
    st.integers(min_value=-10, max_value=10),
    st.integers(min_value=2 ** 63, max_value=2 ** 80),
    st.floats(allow_nan=False, allow_infinity=False),
)
_scalars = st.one_of(
    _numbers, _texts, st.none(), st.booleans(),
    st.integers(-5, 5).map(np.int64), st.floats(-1, 1).map(np.float64),
    st.sampled_from([np.float32(0.5), np.int32(-7)]),
)


@st.composite
def _same_keyed_dicts(draw, values):
    keys = draw(st.lists(_keys, unique=True, max_size=3))
    return [{key: draw(values) for key in keys}
            for _ in range(draw(st.integers(0, 5)))]


class _Rows:
    """A drawn Table: blocks of (shape, columns as lists, row count)."""

    def __init__(self, blocks):
        self.blocks = blocks


def _slots(shape):
    if shape is SLOT:
        return 1
    if isinstance(shape, dict):
        shape = list(shape.values())
    return sum(map(_slots, shape)) if isinstance(shape, (list, tuple)) else 0


def _fill(shape, values):
    """shape with each SLOT, in text order, replaced by the next of values."""
    if shape is SLOT:
        return next(values)
    if isinstance(shape, dict):
        return {key: _fill(value, values) for key, value in shape.items()}
    if isinstance(shape, (list, tuple)):
        return [_fill(item, values) for item in shape]
    return shape


def _swap_rows(doc, table):
    """doc with every drawn Table replaced by table(its blocks)."""
    if isinstance(doc, _Rows):
        return table(doc.blocks)
    if isinstance(doc, dict):
        return {key: _swap_rows(value, table) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_swap_rows(item, table) for item in doc]
    return doc


def _as_table(blocks):
    return Table([(shape, np.array(columns, dtype=np.int64).reshape(len(columns), count))
                  for shape, columns, count in blocks])


def _as_list(blocks):
    """The rows a Table of blocks stands for, built item by item."""
    return [_fill(shape, iter(row))
            for shape, columns, count in blocks
            for row in (list(zip(*columns)) if columns else [()] * count)]


_shapes = st.recursive(
    st.one_of(_scalars, st.just(SLOT)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(_keys, inner, max_size=3)),
    max_leaves=8,
)


@st.composite
def _tables(draw):
    blocks = []
    for shape in draw(st.lists(_shapes, max_size=3)):
        count = draw(st.integers(0, 5))
        # A narrow span takes the writer's dense index, a wide one np.unique.
        values = draw(st.sampled_from([st.integers(-3, 40), st.integers(-2 ** 63, 2 ** 63 - 1)]))
        column = st.lists(values, min_size=count, max_size=count)
        blocks.append((shape, [draw(column) for _ in range(_slots(shape))], count))
    return _Rows(blocks)


_documents = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),                                     # mixed types
        st.lists(st.lists(_numbers, max_size=4), max_size=6),            # number rows, empty rows
        st.lists(inner, max_size=4).map(tuple),
        _same_keyed_dicts(inner),
        st.lists(st.dictionaries(_keys, inner, max_size=3), max_size=4),  # mixed keys
        st.dictionaries(_texts, inner, max_size=4),
        _tables(),
    ),
    max_leaves=40,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(doc=_documents, slice_size=st.sampled_from([1, 3, 1024]))
@example(doc={"rows": _Rows([                       # an empty block, a slot-free shape,
    ([SLOT, "%s"], [[]], 0),                          # and blocks longer than a slice
    ({"kind": "100%", "rhs": 0.0}, [], 4),
    ({"entries": [[SLOT, 7, 0.5], [7, SLOT, 0.5]]}, [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]], 5),
])}, slice_size=3)
@example(doc=_Rows([                                # rows an exact multiple of a slice
    ([SLOT, SLOT], [[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]], 6),
]), slice_size=3)
@example(doc=[_Rows([                               # an empty block between two
    ({"rhs": SLOT}, [[2, 9]], 2),
    ([SLOT, SLOT, 0.5], [[], []], 0),
    ([SLOT], [[7]], 1),
])], slice_size=1024)
@example(doc={"rows": _Rows([                       # the int64 extremes: a span no table holds
    ([SLOT, -1, SLOT], [[-2 ** 63, 0, 2 ** 63 - 1], [2 ** 63 - 1, -2 ** 63, -2 ** 63]], 3),
])}, slice_size=1)
def test_dumps_json_matches_the_standard_encoder(doc, slice_size):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thetaiso.jsonwriter, "_SLICE", slice_size)   # small slices cut short tables too
        assert dumps_json(_swap_rows(doc, _as_table)) == reference_json(_swap_rows(doc, _as_list))


def test_dumps_json_matches_the_standard_encoder_across_slices():
    # 17,921 rows: many slices, the last one partial.
    text = dumps_json(th.program_to_json_dict(th.build_program(rook_graph(4), shrikhande_graph())))
    back = json.loads(text)
    assert len(back["constraints"]) == 17921
    assert text == reference_json(back)


# ---------------------------------------------------------------------- build

def test_build_k2_counts(tmp_path, capsys):
    a = write_graph(tmp_path / "a.txt", th.complete_graph(2))
    out = tmp_path / "prog.json"
    assert main(["build", a, a, str(out)]) == 0
    doc = json.loads(out.read_text())
    kinds = [c["kind"] for c in doc["constraints"]]
    assert kinds.count("omega-norm") == 1
    assert kinds.count("diag-link") == 4
    assert kinds.count("row-orth") + kinds.count("col-orth") == 4
    assert doc["dim"] == 5


def test_build_n1_minimal(tmp_path):
    a = write_graph(tmp_path / "one.txt", th.empty_graph(1))
    out = tmp_path / "prog.json"
    assert main(["build", a, a, str(out)]) == 0
    assert json.loads(out.read_text())["dim"] == 2


def test_build_stdout(c4_pair, capsys):
    assert main(["build", c4_pair[0], c4_pair[1], "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 4


def test_build_file_holds_the_writer_bytes_whatever_the_platform_defaults(
        c4_pair, tmp_path, monkeypatch):
    # open() as on a platform that translates newlines and has another locale
    # encoding: the file must still hold the UTF-8 text with bare newlines.
    def foreign_open(file, mode="r", **kwargs):
        kwargs.setdefault("newline", "\r\n")
        kwargs.setdefault("encoding", "utf-16")
        return open(file, mode, **kwargs)

    monkeypatch.setattr(thetaiso.cli, "open", foreign_open, raising=False)
    out = tmp_path / "prog.json"
    assert main(["build", *c4_pair, str(out)]) == 0
    program = th.build_program(*map(th.load_graph, c4_pair))
    assert out.read_bytes() == dumps_json(th.program_to_json_dict(program)).encode()


def test_build_unwritable_output(c4_pair, tmp_path, capsys):
    assert main(["build", *c4_pair, str(tmp_path / "missing" / "x.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_build_mismatched_sizes(tmp_path, capsys):
    a = write_graph(tmp_path / "a.txt", th.path_graph(3))
    b = write_graph(tmp_path / "b.txt", th.path_graph(4))
    assert main(["build", a, b, str(tmp_path / "x.json")]) == 2
    assert "error" in capsys.readouterr().err


# --------------------------------------------------------------------- decide

def test_decide_isomorphic_exit_zero(c4_pair, capsys):
    assert main(["decide", *c4_pair]) == 0
    out = capsys.readouterr().out
    assert "Isomorphic" in out and "isomorphism:" in out


def test_decide_non_isomorphic_exit_one(non_iso_pair, capsys):
    assert main(["decide", *non_iso_pair]) == 1
    assert "NonIsomorphic" in capsys.readouterr().out


def test_decide_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n")
    assert main(["decide", str(bad), str(bad)]) == 2


@pytest.mark.parametrize("text", ["12 1\n0 1_0\n", "p edge 12 1\ne 1 1_0\n",
                                  "p edge \u0663 0\n"])
def test_decide_refuses_a_token_int_reads_but_a_graph_file_does_not_mean(
        text, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    assert main(["decide", str(bad), str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "non-integer" in captured.err, captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_decide_inconclusive_exit_three(non_iso_pair, capsys):
    # The first bound check comes at iteration 8, so the pair is still
    # undecided at the cap.
    assert main(["decide", *non_iso_pair, "--max-iter", "5"]) == 3
    assert "Inconclusive" in capsys.readouterr().out


def test_decide_oracle_fallback_settles_the_cap(non_iso_pair, capsys):
    # Cut off before its first bound check, the pair goes to the exact search.
    assert main(["decide", *non_iso_pair, "--max-iter", "5", "--oracle-fallback"]) == 1
    assert "NonIsomorphic (by oracle)" in capsys.readouterr().out


@pytest.mark.parametrize("lift", [True, False], ids=["bound-decides", "oracle-decides"])
def test_decide_runs_the_exact_search_once(lift, c4_pair, non_iso_pair, monkeypatch, capsys):
    # The report's oracle section reuses decide's search when the fallback
    # ran it.  Without its lift, C4 against its relabelling branches before
    # the solve, and its first branch and then the solve that runs on
    # converge at tolerance with nothing to check, so decide's fallback
    # settles it.
    searches = []
    search = th.enumerate_isomorphisms

    def counting(*args, **kwargs):
        searches.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(thetaiso.cli, "enumerate_isomorphisms", counting)
    monkeypatch.setattr(thetaiso.extraction, "enumerate_isomorphisms", counting)
    if lift:
        pair, code = non_iso_pair, 1
    else:
        monkeypatch.setattr(thetaiso.solver, "_verified_lift", lambda X, p: None)
        pair, code = c4_pair, 0
    assert main(["decide", *pair, "--oracle-fallback", "--json"]) == code
    doc = json.loads(capsys.readouterr().out)
    assert len(searches) == 1
    assert (doc["verdict"]["decided_by"] == "oracle") is not lift
    assert doc["oracle"] == {"isomorphic": not lift, "agrees_with_verdict": True}


def test_decide_names_the_oracle_once(tmp_path, capsys):
    # Cut off before its first bound check, C6 against 2 C3 is settled by
    # the exact search, and the verdict line says so once.
    files = (write_graph(tmp_path / "c6.txt", th.cycle_graph(6)),
             write_graph(tmp_path / "2c3.txt",
                         th.disjoint_union(th.cycle_graph(3), th.cycle_graph(3))))
    assert main(["decide", *files, "--max-iter", "3", "--oracle-fallback"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "verdict: NonIsomorphic (by oracle)" in lines
    assert not any("oracle-assisted" in line for line in lines)


def test_decide_json_report(c4_pair, capsys):
    assert main(["decide", *c4_pair, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["instance"]["n"] == 4
    assert doc["verdict"]["kind"] == "Isomorphic"
    assert doc["solver"]["status"] == "Converged"
    assert doc["solver"]["stop_reason"] == "verified-lift"
    # C4 is 2-WL equivalent to its relabelling: branch 0 lifts at iteration
    # 2, before any iteration of the full layout.
    assert doc["solver"]["iterations"] == 0
    assert doc["solver"]["branches"] == [
        {"k": 0, "dim": 7, "iterations": 2, "stop_reason": "verified-lift", "upper_bound": 4.0}]
    assert doc["solver"]["automorphisms"] == []
    assert list(doc["config"]) == ["tol", "max_iter", "oracle_fallback"]
    assert "oracle" not in doc  # distinct key, absent unless requested
    sigma = tuple(doc["verdict"]["permutation"])
    g1 = th.load_graph(c4_pair[0])
    g2 = th.load_graph(c4_pair[1])
    assert th.is_isomorphism(sigma, g1, g2)


def test_decide_rook_against_shrikhande_by_branches(tmp_path, capsys):
    # The pair 2-WL cannot separate goes to pinned branches before the solve:
    # exit 1 by branch-bound, no iteration of the full layout and so no
    # residuals, one report row per branch, and a text summary with the
    # branch count, the largest bound against the threshold, and how the
    # branches were refuted.
    files = (write_graph(tmp_path / "rook.txt", rook_graph(4)),
             write_graph(tmp_path / "shrikhande.txt", shrikhande_graph()))
    assert main(["decide", *files, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["solver"]["stop_reason"] == "branch-bound"
    assert doc["solver"]["status"] == "Certified" and doc["solver"]["iterations"] == 0
    assert doc["solver"]["primal_residual"] is None and doc["solver"]["dual_residual"] is None
    verdict = doc["verdict"]
    assert verdict["kind"] == "NonIsomorphic" and verdict["decided_by"] == "branch-bound"
    branches = doc["solver"]["branches"]
    assert len(branches) == 16
    assert {tuple(sorted(b)) for b in branches} == {
        ("dim", "iterations", "k", "stop_reason", "upper_bound")}
    largest = max(b["upper_bound"] for b in branches)
    assert largest < verdict["threshold"]

    # One branch is solved; automorphisms of the Shrikhande graph, listed
    # under solver, cover the other fifteen.
    stops = [b["stop_reason"] for b in branches]
    assert stops.count("dual-bound") == 1 and stops.count("automorphism") == 15
    g2 = shrikhande_graph()
    assert doc["solver"]["automorphisms"]
    assert all(th.is_isomorphism(tuple(a), g2, g2) for a in doc["solver"]["automorphisms"])

    assert main(["decide", *files]) == 1
    out = capsys.readouterr().out
    assert "NonIsomorphic (by branch-bound)" in out
    assert (f"branches: 16 tried, largest bound {largest:.12f} "
            f"(threshold {verdict['threshold']:.12f}); 1 solved, "
            f"0 refuted by refinement, 15 covered by an automorphism\n") in out


def test_decide_exits_diverged_when_the_solve_diverges_after_its_branches(
        c4_pair, monkeypatch, capsys):
    # With no lift and eigh failing on every call, branch 0 diverges at its
    # first iteration, which leaves the pair open, and the solve of the full
    # layout diverges at its first: exit 4, read from that one solve's status.
    def failing(name):
        def wrapped(M):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        return wrapped

    monkeypatch.setattr(thetaiso.solver, "eigh_backend", failing)
    monkeypatch.setattr(thetaiso.solver, "_verified_lift", lambda X, p: None)
    assert main(["decide", *c4_pair, "--json"]) == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["solver"]["status"] == "Diverged" and doc["solver"]["iterations"] == 1
    assert doc["verdict"]["kind"] == "Inconclusive"
    assert [(b["stop_reason"], b["iterations"]) for b in doc["solver"]["branches"]] == [
        ("diverged", 1)]

    assert main(["decide", *c4_pair]) == 4
    out = capsys.readouterr().out
    assert "solver: Diverged after 1 iterations" in out and "branches: 1 tried" in out


BRANCH_ROW_KEYS = {"k", "dim", "iterations", "stop_reason", "upper_bound"}


@pytest.mark.parametrize("route", ["extraction", "bound", "branch-bound", "oracle",
                                   "inconclusive"])
def test_decide_json_says_each_fact_once(route, c4_pair, non_iso_pair, tmp_path, capsys):
    # The solve's record is the report's solver section, the decision's the
    # verdict: no key in both (the certified bound is solver.upper_bound
    # alone), no copy of the objective or of the oracle flag in the
    # verdict, and branch rows only under solver, five keys each.
    args, code, rows = {
        "extraction": (c4_pair, 0, 1),
        "bound": (non_iso_pair, 1, 0),
        "branch-bound": ((write_graph(tmp_path / "rook.txt", rook_graph(4)),
                          write_graph(tmp_path / "shrikhande.txt", shrikhande_graph())), 1, 16),
        "oracle": ((*non_iso_pair, "--max-iter", "5", "--oracle-fallback"), 1, 0),
        "inconclusive": ((*non_iso_pair, "--max-iter", "5"), 3, 0),
    }[route]
    assert main(["decide", *args, "--json"]) == code
    doc = json.loads(capsys.readouterr().out)
    verdict = doc["verdict"]
    assert (verdict["decided_by"] or "inconclusive") == route
    assert not set(doc["solver"]) & set(verdict)
    assert not set(doc["solver"]) & set(verdict["diagnostics"])
    assert "objective" not in verdict and "oracle_used" not in verdict
    assert len(doc["solver"]["branches"]) == rows
    assert all(set(b) == BRANCH_ROW_KEYS for b in doc["solver"]["branches"])


def test_decide_text_leads_with_the_bound_the_verdict_rests_on(tmp_path, capsys):
    # Rook 4x4 vs Shrikhande is decided by its branch bounds; the first line
    # gives the largest of them, below the threshold, not the capped bound n
    # of the unbranched layout.
    files = (write_graph(tmp_path / "rook.txt", rook_graph(4)),
             write_graph(tmp_path / "shrikhande.txt", shrikhande_graph()))
    assert main(["decide", *files]) == 1
    first = capsys.readouterr().out.splitlines()[0]
    fields = dict(part.split(" = ") for part in first.split(", "))
    assert float(fields["upper bound"]) < float(fields["threshold"])
    assert main(["decide", *files, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    largest = max(b["upper_bound"] for b in doc["solver"]["branches"])
    assert fields["upper bound"] == f"{largest:.12f}"
    assert fields["upper bound"] == f"{doc['solver']['upper_bound']:.12f}"


def test_a_branch_bound_objective_is_nan(tmp_path, capsys):
    # A branch-bound stop iterates no point of the full layout, so it has no
    # objective: NaN, which decide prints as nan and writes as null, and
    # bench prints as nan and writes as null.
    files = (write_graph(tmp_path / "rook.txt", rook_graph(4)),
             write_graph(tmp_path / "shrikhande.txt", shrikhande_graph()))
    assert main(["decide", *files]) == 1
    assert capsys.readouterr().out.startswith("n = 16, objective = nan, upper bound = ")
    assert main(["decide", *files, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["solver"]["stop_reason"] == "branch-bound"
    assert doc["solver"]["objective"] is None

    (tmp_path / "corpus").mkdir()
    corpus = make_corpus(tmp_path / "corpus", [
        ("rook-shrikhande", rook_graph(4), shrikhande_graph(), False),
    ])
    assert main(["bench", corpus, "--json", str(tmp_path / "report.json")]) == 0
    [line] = [ln for ln in capsys.readouterr().out.splitlines()
              if ln.startswith("rook-shrikhande")]
    assert line.split()[4:6] == ["branch-bound", "nan"]
    [row] = json.loads((tmp_path / "report.json").read_text())["pairs"]
    assert row["decided_by"] == "branch-bound" and row["objective"] is None


def test_decide_reports_branches_refuted_by_refinement(monkeypatch, tmp_path, capsys):
    # C6 against 2 C3 held open to the branch step: every branch is refuted
    # by its colour histogram, so every bound is -inf, null in the report,
    # and no program is solved.
    def unsolved(p, cfg, lifts=True):
        raise AssertionError("a branch refuted by refinement was solved")

    monkeypatch.setattr(thetaiso.solver, "_admm", unsolved)
    monkeypatch.setattr(thetaiso.solver, "_two_wl_equivalent", lambda p: True)
    files = (write_graph(tmp_path / "c6.txt", th.cycle_graph(6)),
             write_graph(tmp_path / "2c3.txt",
                         th.disjoint_union(th.cycle_graph(3), th.cycle_graph(3))))
    assert main(["decide", *files, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"]["decided_by"] == "branch-bound"
    assert doc["solver"]["upper_bound"] is None
    assert doc["solver"]["branches"] == [
        {"k": k, "dim": None, "iterations": 0, "stop_reason": "refinement",
         "upper_bound": None}
        for k in range(6)
    ]
    assert main(["decide", *files]) == 1
    assert "branches: 6 tried, largest bound -inf " in capsys.readouterr().out


def test_decide_json_oracle_key(non_iso_pair, capsys):
    assert main(["decide", *non_iso_pair, "--oracle-fallback", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle"] == {"isomorphic": False, "agrees_with_verdict": True}


def test_decide_reports_identical_modulo_timings(c4_pair, capsys):
    main(["decide", *c4_pair, "--json"])
    first = json.loads(capsys.readouterr().out)
    main(["decide", *c4_pair, "--json"])
    second = json.loads(capsys.readouterr().out)
    first.pop("timings")
    second.pop("timings")
    assert first == second


@pytest.mark.parametrize("call", [1, 3])
def test_decide_eigen_failure_exits_diverged(call, non_iso_pair, monkeypatch, capsys):
    # A LinAlgError from eigh ends the solve as Diverged: Inconclusive, exit
    # 4, and a JSON report, even when no iteration finished (residuals null).
    # The pair is undecided until its bound check at iteration 8.
    monkeypatch.setattr(thetaiso.solver, "eigh_backend", failing_eigh_backend(call))
    assert main(["decide", *non_iso_pair, "--json"]) == 4
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    doc = json.loads(out)
    assert doc["verdict"]["kind"] == "Inconclusive"
    assert doc["solver"]["status"] == "Diverged"
    assert doc["solver"]["stop_reason"] == "diverged"
    assert doc["solver"]["iterations"] == call
    assert (doc["solver"]["primal_residual"] is None) == (call == 1)


def test_decide_env_overrides(non_iso_pair, monkeypatch):
    monkeypatch.setenv("THETAISO_MAX_ITER", "5")
    assert main(["decide", *non_iso_pair]) == 3
    # explicit flag wins over the environment
    assert main(["decide", *non_iso_pair, "--max-iter", "2000"]) == 1


@pytest.mark.parametrize("command, variable, value", [
    ("decide", "THETAISO_TOL", "abc"),
    ("bench", "THETAISO_TOL", "abc"),
    ("decide", "THETAISO_ORACLE_FALLBACK", "ture"),
], ids=["decide", "bench", "decide-fallback-typo"])
def test_bad_env_value_is_input_error(command, variable, value, c4_pair, tmp_path,
                                      monkeypatch, capsys):
    monkeypatch.setenv(variable, value)
    if command == "decide":
        argv = ["decide", *c4_pair]
    else:
        argv = ["bench", make_corpus(tmp_path, [
            ("k2", th.complete_graph(2), th.complete_graph(2), True),
        ])]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and variable in err


@pytest.mark.parametrize("value, expected", [
    ("TRUE", True), (" on ", True), ("No", False), ("0", False),
])
def test_env_oracle_fallback_words(value, expected, c4_pair, monkeypatch, capsys):
    monkeypatch.setenv("THETAISO_ORACLE_FALLBACK", value)
    assert main(["decide", *c4_pair, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["oracle_fallback"] is expected


# --------------------------------------------------------------------- oracle

def test_oracle_exit_codes(c4_pair, non_iso_pair, capsys):
    assert main(["oracle", *c4_pair]) == 0
    out = capsys.readouterr().out
    assert "found 8 isomorphism(s)" in out
    assert main(["oracle", *non_iso_pair]) == 1
    assert "found 0" in capsys.readouterr().out


def test_oracle_cap(c4_pair, capsys):
    assert main(["oracle", *c4_pair, "--cap", "2"]) == 0
    out = capsys.readouterr().out
    assert "stopped at cap 2" in out
    assert len([l for l in out.splitlines() if l and l[0].isdigit()]) == 2


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_oracle_cap_below_one_is_input_error(cap, c4_pair, capsys):
    assert main(["oracle", *c4_pair, "--cap", cap]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "--cap" in captured.err
    assert "found" not in captured.out


@pytest.mark.parametrize("command", ["build", "decide", "oracle"])
def test_a_graph_too_large_for_memory_is_input_error(command, tmp_path, capsys):
    # n = 10^9 asks for a 10^18-entry adjacency matrix, beyond any address
    # space, so the allocation fails at once: exit 2 with an error line,
    # not a traceback and exit 1, which reads as NonIsomorphic.
    huge = tmp_path / "huge.txt"
    huge.write_text("1000000000 0\n")
    extra = [str(tmp_path / "x.json")] if command == "build" else []
    assert main([command, str(huge), str(huge), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: out of memory: "), captured.err
    assert captured.out == "" and not (tmp_path / "x.json").exists()


# ---------------------------------------------------------------------- bench

def make_corpus(tmp_path, entries):
    pairs = []
    for name, g1, g2, iso in entries:
        a = write_graph(tmp_path / f"{name}_a.txt", g1)
        b = write_graph(tmp_path / f"{name}_b.txt", g2)
        pairs.append({"name": name, "g1": os.path.basename(a),
                      "g2": os.path.basename(b), "isomorphic": iso})
    (tmp_path / "manifest.json").write_text(json.dumps({"pairs": pairs}))
    return str(tmp_path)


def test_bench_small_corpus(tmp_path, capsys):
    corpus = make_corpus(tmp_path, [
        ("k2", th.complete_graph(2), th.complete_graph(2), True),
        ("k2e", th.complete_graph(2), th.empty_graph(2), False),
    ])
    assert main(["bench", corpus, "--json", str(tmp_path / "report.json")]) == 0
    out = capsys.readouterr().out
    assert "Isomorphic=1" in out and "NonIsomorphic=1" in out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["summary"]["mismatches"] == 0
    assert doc["summary"]["decided_by"]["bound"] == 1
    assert {row["name"] for row in doc["pairs"]} == {"k2", "k2e"}


def test_bench_gap_of_a_branch_bound_row(tmp_path, capsys):
    # The gap and the upper bound of a row both come from the solve's
    # certified bound: on a branch-bound row the gap is the margin of the
    # largest branch bound, not the unpinned solve's cap n, and the
    # threshold alone did not decide.
    corpus = make_corpus(tmp_path, [
        ("rook-shrikhande", rook_graph(4), shrikhande_graph(), False),
    ])
    assert main(["bench", corpus, "--json", str(tmp_path / "report.json")]) == 0
    [row] = json.loads((tmp_path / "report.json").read_text())["pairs"]
    assert row["decided_by"] == "branch-bound" and row["status"] == "Certified"
    assert row["upper_bound"] < row["threshold"]
    assert row["gap"] == row["threshold"] - row["upper_bound"] > 0
    assert row["threshold_decided"] is False
    assert f"{row['gap']:.3e}" in capsys.readouterr().out


def test_bench_empty_corpus(tmp_path, capsys):
    (tmp_path / "manifest.json").write_text(json.dumps({"pairs": []}))
    assert main(["bench", str(tmp_path)]) == 0


def test_bench_missing_manifest(tmp_path, capsys):
    assert main(["bench", str(tmp_path)]) == 2
    assert "manifest" in capsys.readouterr().err


def test_bench_manifest_not_utf8(tmp_path, capsys):
    (tmp_path / "manifest.json").write_bytes(b"\xff\xfe")
    assert main(["bench", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read ")


def test_bench_unwritable_report(tmp_path, capsys):
    corpus = make_corpus(tmp_path, [
        ("k2", th.complete_graph(2), th.complete_graph(2), True),
    ])
    assert main(["bench", corpus, "--json", str(tmp_path / "missing" / "r.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("manifest", [
    {"cases": []},
    {"pairs": [{"name": "k2", "g1": "k2_a.txt", "g2": "k2_b.txt"}]},
    {"pairs": [{"g1": "k2_a.txt", "g2": "k2_b.txt", "isomorphic": True}]},
    {"pairs": ["k2"]},
    {"pairs": [{"name": "k2", "g1": 1, "g2": "k2_b.txt", "isomorphic": True}]},
    {"pairs": [{"name": "k2", "g1": "k2_a.txt", "g2": "k2_b.txt", "isomorphic": "false"}]},
], ids=["no-pairs", "no-isomorphic", "no-name", "not-an-object", "path-not-a-string",
        "isomorphic-not-a-boolean"])
def test_bench_malformed_manifest(manifest, tmp_path, capsys):
    corpus = make_corpus(tmp_path, [
        ("k2", th.complete_graph(2), th.complete_graph(2), True),
    ])
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert main(["bench", corpus]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bench_verify_manifest_catches_lies(tmp_path, capsys):
    corpus = make_corpus(tmp_path, [
        ("lie", th.complete_graph(2), th.empty_graph(2), True),
    ])
    assert main(["bench", corpus, "--verify-manifest"]) == 2
    assert "exact search says" in capsys.readouterr().err


def test_bench_mismatched_sizes(tmp_path, capsys):
    corpus = make_corpus(tmp_path, [
        ("p3-p4", th.path_graph(3), th.path_graph(4), False),
    ])
    assert main(["bench", corpus]) == 2
    assert "error: pair p3-p4: graph sizes differ" in capsys.readouterr().err


# ------------------------------------------------------------- error path

K2_ENTRY = {"name": "k2", "g1": "k2.txt", "g2": "k2.txt", "isomorphic": True}

# The README's exit-2 list, per subcommand: (id, argv with {d} for the case's
# directory, environment, manifest.json contents).  bench --json to a path
# that cannot be written prints its table first (test_bench_unwritable_report).
EXIT_2_CASES = [
    ("build-sizes", "build {d}/p3.txt {d}/k2.txt {d}/x.json", {}, None),
    ("build-token", "build {d}/tok.txt {d}/tok.txt {d}/x.json", {}, None),
    ("build-missing-file", "build {d}/gone.txt {d}/k2.txt -", {}, None),
    ("build-unwritable", "build {d}/k2.txt {d}/k2.txt {d}/no/x.json", {}, None),
    ("build-too-large", "build {d}/huge.txt {d}/huge.txt {d}/x.json", {}, None),
    ("decide-sizes", "decide {d}/p3.txt {d}/k2.txt", {}, None),
    ("decide-token", "decide {d}/tok.txt {d}/tok.txt", {}, None),
    ("decide-missing-file", "decide {d}/gone.txt {d}/k2.txt", {}, None),
    ("decide-too-large", "decide {d}/huge.txt {d}/huge.txt", {}, None),
    ("decide-tol-nan", "decide {d}/k2.txt {d}/k2.txt --tol nan", {}, None),
    ("decide-max-iter-0", "decide {d}/k2.txt {d}/k2.txt --max-iter 0", {}, None),
    ("decide-env-tol", "decide {d}/k2.txt {d}/k2.txt", {"THETAISO_TOL": "abc"}, None),
    ("decide-env-max-iter", "decide {d}/k2.txt {d}/k2.txt", {"THETAISO_MAX_ITER": "1.5"}, None),
    ("decide-env-fallback", "decide {d}/k2.txt {d}/k2.txt",
     {"THETAISO_ORACLE_FALLBACK": "ture"}, None),
    ("oracle-cap-0", "oracle {d}/k2.txt {d}/k2.txt --cap 0", {}, None),
    ("oracle-sizes", "oracle {d}/p3.txt {d}/k2.txt", {}, None),
    ("oracle-missing-file", "oracle {d}/k2.txt {d}/gone.txt", {}, None),
    ("oracle-too-large", "oracle {d}/huge.txt {d}/huge.txt", {}, None),
    ("bench-no-manifest", "bench {d}/nowhere", {}, None),
    ("bench-manifest-not-json", "bench {d}", {}, b"{not json"),
    ("bench-manifest-not-utf8", "bench {d}", {}, b"\xff\xfe"),
    ("bench-no-pairs", "bench {d}", {}, {"cases": []}),
    ("bench-no-g1", "bench {d}", {}, {"pairs": [{"name": "k2", "g2": "k2.txt",
                                                  "isomorphic": True}]}),
    ("bench-isomorphic-a-string", "bench {d}", {}, {"pairs": [dict(K2_ENTRY, isomorphic="false")]}),
    ("bench-missing-pair-file", "bench {d}", {},
     {"pairs": [K2_ENTRY, dict(K2_ENTRY, g1="gone.txt")]}),
    ("bench-sizes", "bench {d}", {}, {"pairs": [dict(K2_ENTRY, g1="p3.txt")]}),
    ("bench-too-large", "bench {d}", {}, {"pairs": [dict(K2_ENTRY, g1="huge.txt", g2="huge.txt")]}),
    ("bench-env-tol", "bench {d}", {"THETAISO_TOL": "abc"}, {"pairs": [K2_ENTRY]}),
    ("bench-manifest-lies", "bench {d} --verify-manifest", {},
     {"pairs": [dict(K2_ENTRY, g2="e2.txt")]}),
]


@pytest.mark.parametrize("argv, env, manifest", [case[1:] for case in EXIT_2_CASES],
                         ids=[case[0] for case in EXIT_2_CASES])
def test_every_error_is_one_error_line_and_exit_two(argv, env, manifest, tmp_path,
                                                    monkeypatch, capsys):
    for name, g in [("k2", th.complete_graph(2)), ("e2", th.empty_graph(2)),
                    ("p3", th.path_graph(3))]:
        write_graph(tmp_path / f"{name}.txt", g)
    (tmp_path / "tok.txt").write_text("1_0 0\n")
    (tmp_path / "huge.txt").write_text("1000000000 0\n")
    if manifest is not None:
        text = manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode()
        (tmp_path / "manifest.json").write_bytes(text)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main([arg.format(d=tmp_path) for arg in argv.split()]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("error", [ValueError, OSError])
def test_an_error_raised_while_solving_is_exit_two(error, c4_pair, monkeypatch, capsys):
    # Not a traceback and exit 1, which reads as NonIsomorphic.
    def failing(*args, **kwargs):
        raise error("no solve today")

    monkeypatch.setattr(thetaiso.cli, "solve", failing)
    assert main(["decide", *c4_pair, "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: no solve today\n"


def test_solver_defaults_come_from_solver_config(c4_pair, capsys):
    assert main(["decide", *c4_pair, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"] == asdict(th.SolverConfig())
    with pytest.raises(SystemExit):
        main(["decide", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"(default {th.SolverConfig.tol})" in help_text
    assert f"(default {th.SolverConfig.max_iter})" in help_text


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])
