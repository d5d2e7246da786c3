"""Command-line surface: JSON emitter, subcommands, exit codes, env overrides."""

import json
import os

import numpy as np
import pytest

import thetaiso as th
from thetaiso.cli import dumps_json, main


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


def test_decide_inconclusive_exit_three(c4_pair, capsys):
    assert main(["decide", *c4_pair, "--max-iter", "5"]) == 3
    assert "Inconclusive" in capsys.readouterr().out


def test_decide_json_report(c4_pair, capsys):
    assert main(["decide", *c4_pair, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["instance"]["n"] == 4
    assert doc["verdict"]["kind"] == "Isomorphic"
    assert doc["solver"]["status"] == "Converged"
    assert list(doc["config"]) == ["tol", "max_iter", "oracle_fallback"]
    assert "oracle" not in doc  # distinct key, absent unless requested
    sigma = tuple(doc["verdict"]["permutation"])
    g1 = th.load_graph(c4_pair[0])
    g2 = th.load_graph(c4_pair[1])
    assert th.is_isomorphism(sigma, g1, g2)


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


def test_decide_env_overrides(c4_pair, monkeypatch):
    monkeypatch.setenv("THETAISO_MAX_ITER", "5")
    assert main(["decide", *c4_pair]) == 3
    # explicit flag wins over the environment
    assert main(["decide", *c4_pair, "--max-iter", "2000"]) == 0


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


def test_bench_empty_corpus(tmp_path, capsys):
    (tmp_path / "manifest.json").write_text(json.dumps({"pairs": []}))
    assert main(["bench", str(tmp_path)]) == 0


def test_bench_missing_manifest(tmp_path, capsys):
    assert main(["bench", str(tmp_path)]) == 2
    assert "manifest" in capsys.readouterr().err


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


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])
