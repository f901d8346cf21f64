"""Command-line interface: artifacts, exit codes, determinism."""

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import nestotope
from nestotope.errors import BudgetExceeded
from nestotope import cli, subdivision, verify
from nestotope.memo import _MEMO
from nestotope import formulas as fm


def test_poset_report(tmp_path, capsys):
    out = tmp_path / "faces.json"
    assert cli.run(["poset", "--graph", "path:3", "--emit", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "nestotope/1"
    assert data["f"] == [1, 5, 5]
    assert data["h"] == [1, 3, 1]
    assert data["gamma"] == [1, 1]
    assert data["dims"] == [2, 1, 0]
    # integer coordinates serialize as decimal strings, in vertex order
    assert data["vertices"] == [["1", "4", "1"], ["1", "2", "3"],
                                ["2", "1", "3"], ["3", "1", "2"],
                                ["3", "2", "1"]]


def test_poset_stdout(capsys):
    assert cli.run(["poset", "--graph", "complete:3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["h"] == [1, 4, 1]


def test_smallcover_report(tmp_path):
    out = tmp_path / "m.json"
    code = cli.run(["smallcover", "--graph", "complete:3", "--lambda", "tomei",
                    "--homology", "--emit", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["copies"] == 4
    assert data["cells"] == [22, 72, 48]
    assert data["homology"]["betti_q"] == [1, 4, 1]
    assert data["homology"]["euler"] == -2


def test_smallcover_lambda_file(tmp_path, lambda_to_json_dict):
    from nestotope.graphs import graph_building_set, path_graph
    from nestotope.smallcover import lambda_can
    lam_file = tmp_path / "lam.json"
    lam_file.write_text(json.dumps(
        lambda_to_json_dict(lambda_can(graph_building_set(path_graph(3))))))
    out = tmp_path / "m.json"
    code = cli.run(["smallcover", "--graph", "path:3", "--lambda",
                    str(lam_file), "--emit", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["copies"] == 4


def test_subdivide_report(tmp_path):
    out = tmp_path / "y.json"
    code = cli.run(["subdivide", "--pseudomanifold", "torus7", "--graph",
                    "path:3", "--certify", "--emit", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["mode"] == "path"
    assert data["cells"] == [42, 126, 84]
    assert data["certificate"]["star_ok"] is True
    assert data["certificate"]["cells_checked"] == 21
    assert len(data["colours"]) == 42
    assert "orientation" in data["complex"]


def test_subdivide_substitution_certificate(tmp_path):
    out = tmp_path / "y.json"
    code = cli.run(["subdivide", "--pseudomanifold", "sphere:3", "--graph",
                    "star:4", "--apex", "0", "--certify", "--emit", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["mode"] == "substitution"
    assert data["certificate"]["star_ok"] is True
    assert data["certificate"]["simplex_ok"] is True


@pytest.mark.parametrize("zspec, gspec, apex, want", [
    ("sphere:2", "cycle:3", "auto", 0),
    ("sphere:1", "path:2", "1", 1),
])
def test_subdivide_certifies_the_apex_it_substituted(monkeypatch, tmp_path,
                                                     zspec, gspec, apex, want):
    seen = []
    verify_lemma = cli.verify_lemma_conditions

    def recording(k, g, a):
        seen.append((k.apex, a))
        return verify_lemma(k, g, a)

    monkeypatch.setattr(cli, "verify_lemma_conditions", recording)
    out = tmp_path / "y.json"
    assert cli.run(["subdivide", "--pseudomanifold", zspec, "--graph", gspec,
                    "--apex", apex, "--certify", "--emit", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["mode"] == "substitution"
    assert data["certificate"]["simplex_ok"] is True
    assert seen == [(want, want)]


def test_subdivide_certify_builds_the_piece_once(monkeypatch, tmp_path):
    # the certificate reads the piece the subdivision was built from: a
    # one-off input, on its first sight in the memo, builds it once
    builds = []
    real = subdivision._lemma_subdivision
    monkeypatch.setattr(subdivision, "_lemma_subdivision",
                        lambda g, a: builds.append(a) or real(g, a))
    _MEMO.clear()
    assert cli.run(["subdivide", "--pseudomanifold", "sphere:2", "--graph",
                    "cycle:3", "--certify", "--emit",
                    str(tmp_path / "y.json")]) == 0
    assert builds == [0]


def test_realize_certificate(tmp_path):
    out = tmp_path / "cert.json"
    code = cli.run(["realize", "--pseudomanifold", "sphere:1", "--graph",
                    "path:2", "--emit", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["r"] == 6 and data["s"] == 2 and data["mode"] == "full"
    assert all(data["checks"].values())


def test_realize_accepts_scientific_budget(tmp_path):
    out = tmp_path / "cert.json"
    code = cli.run(["realize", "--pseudomanifold", "sphere:1", "--graph",
                    "path:2", "--budget", "1e6", "--emit", str(out)])
    assert code == 0


def test_formulas_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert cli.run(["formulas", "--family", "hessenberg", "--n", "3",
                    "--emit", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,value,sources"
    assert lines[1] == '"3,0",1,formula'
    assert cli.run(["formulas", "--family", "hessenberg", "--n", "3"]) == 0
    assert capsys.readouterr().out == out.read_text()


@pytest.mark.parametrize("family, n, entries", [
    ("tomei", 100000, 10000200001), ("hessenberg", 100000, 10000200001),
    ("as", 200000, 200001)])
def test_formulas_refuses_an_oversized_table_before_any_work(
        monkeypatch, capsys, family, n, entries):
    def must_not_run(*args):
        raise AssertionError("the table was computed")
    for name in ("betti_tomei", "betti_hessenberg", "betti_as_can"):
        monkeypatch.setattr(fm, name, must_not_run)
    assert cli.run(["formulas", "--family", family, "--n", str(n)]) == 3
    assert capsys.readouterr().err == (
        f"budget: {family} table needs {entries} entries, over the 200000 budget\n")


def test_formulas_as_refuses_values_past_the_int_digit_limit(monkeypatch,
                                                             capsys):
    # betti_as_can(n) is below 2^(n + 1), so at n = 15000 a value may have
    # 4516 digits, past a limit of 4300
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300,
                        raising=False)
    monkeypatch.setattr(fm, "betti_as_can", lambda n: 1 / 0)
    assert cli.run(["formulas", "--family", "as", "--n", "15000"]) == 3
    assert capsys.readouterr().err == ("budget: as table needs 4516 digits "
                                       "per value, over the 4300 budget\n")
    monkeypatch.undo()
    # 4215 digits at most: printed under the interpreter's own limit
    assert cli.run(["formulas", "--family", "as", "--n", "14000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 14002 and lines[-1] == "\"14000,14000\",0,formula"


def test_formulas_as_without_an_int_digit_limit(monkeypatch):
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    assert fm.family_table("as", 4)[1:] == [
        ("4,0", "1", "formula"), ("4,1", "4", "formula"),
        ("4,2", "5", "formula"), ("4,3", "0", "formula"),
        ("4,4", "0", "formula")]


def test_verify_suite(capsys):
    assert cli.run(["verify", "--suite", "h-vs-z2betti", "--max-n", "2"]) == 0
    out = capsys.readouterr().out
    assert all(line.startswith("PASS") for line in out.splitlines()[:-1])
    assert out.splitlines()[-1].startswith("OK")


def test_verify_failing_suite_exits_one(monkeypatch, capsys):
    monkeypatch.setitem(verify.SUITES, "formulas",
                        lambda max_n: [("injected failure", False, "")])
    assert cli.run(["verify", "--suite", "formulas", "--max-n", "3"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["FAIL [formulas] injected failure",
                   "FAILED: 1 failing item(s)"]


def test_exit_code_validation():
    assert cli.run(["poset", "--graph", "missing.json"]) == 2
    assert cli.run(["poset", "--graph", "path:x"]) == 2
    assert cli.run(["verify", "--suite", "nope"]) == 2
    assert cli.run(["realize", "--pseudomanifold", "klein", "--graph",
                    "path:3"]) == 2
    assert cli.run(["realize", "--pseudomanifold", "sphere:1", "--graph",
                    "path:2", "--budget", "0"]) == 2
    assert cli.run(["subdivide", "--pseudomanifold", "sphere:2", "--graph",
                    "path:4"]) == 2


def _bad_graph(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"n_vertices": 2, "edges": [[0]]}))
    return ["poset", "--graph", str(path)]


def _bad_complex(doc):
    def argv(tmp_path):
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(doc))
        return ["subdivide", "--pseudomanifold", str(path), "--graph", "path:2"]
    return argv


# The circle as two edges, which two vertices alone do not determine.
_TWO_EDGES = {"dim": 1, "top_cells": [[0, 1], [0, 1]]}


_CIRCLE = ["--pseudomanifold", "sphere:1", "--graph", "path:2"]


@pytest.mark.parametrize("argv", [
    ["realize", *_CIRCLE, "--budget", "abc"],
    ["realize", *_CIRCLE, "--budget", "inf"],
    ["realize", *_CIRCLE, "--budget", "nan"],
    ["realize", *_CIRCLE, "--apex", "abc"],
    ["subdivide", *_CIRCLE, "--apex", "abc"],
    ["realize", "--pseudomanifold", "sphere:x", "--graph", "path:2"],
    _bad_graph,
    _bad_complex({"dim": "x", "top_cells": [[0, 1]]}),
    _bad_complex({"dim": 1, "top_cells": 5}),
    _bad_complex({**_TWO_EDGES, "orientation": "ab"}),
    _bad_complex({**_TWO_EDGES, "orientation": [1, 1]}),
    _bad_complex({**_TWO_EDGES, "orientation": [1]}),
    _bad_complex({**_TWO_EDGES, "instances": [[0, [0, 1]]]}),
    _bad_complex({**_TWO_EDGES, "instances": [[0, [0, 1], 0]]}),
], ids=["budget-abc", "budget-inf", "budget-nan", "realize-apex",
        "subdivide-apex", "sphere-dim", "graph-edge", "complex-dim",
        "complex-top-cells", "complex-orientation",
        "complex-orientation-not-a-cycle", "complex-orientation-length",
        "complex-instance-short",
        "complex-instance-missing"])
def test_malformed_input_exits_two(argv, tmp_path, capsys):
    if callable(argv):
        argv = argv(tmp_path)
    assert cli.run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_exit_code_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert cli.run(["poset", "--graph", str(bad)]) == 2
    assert cli.run(["subdivide", "--pseudomanifold", str(bad), "--graph",
                    "path:3"]) == 2


_SPEC_ARGV = {
    "graph": lambda f: ["poset", "--graph", f],
    "complex": lambda f: ["subdivide", "--pseudomanifold", f,
                          "--graph", "path:3"],
    "matrix": lambda f: ["smallcover", "--graph", "path:3", "--lambda", f],
}


@pytest.mark.parametrize("content, message", [
    (None, "cannot read"),
    (b"{oops", "malformed"),
    (b"\xff\xfe", "malformed"),
], ids=["missing", "broken-json", "not-utf8"])
@pytest.mark.parametrize("kind", sorted(_SPEC_ARGV))
def test_unreadable_spec_file_exits_two(kind, content, message, tmp_path,
                                         capsys):
    spec = tmp_path / "spec.json"
    if content is not None:
        spec.write_bytes(content)
    assert cli.run(_SPEC_ARGV[kind](str(spec))) == 2
    assert capsys.readouterr().err.startswith(f"error: {message} {kind}")


# One valid file of each spec kind, with the command that reads it: the path
# on three vertices, its canonical matrix, and the circle as two edges with
# its instance list.
_PATH3_COLUMNS = {"0": [1, 1], "1": [1, 0], "2": [0, 1], "0,1": [0, 1],
                  "1,2": [1, 1]}
_CIRCLE_INSTANCES = [[0, [0], 0], [0, [1], 1], [1, [0], 0], [1, [1], 1],
                     [0, [0, 1], 0], [1, [0, 1], 1]]
_SPEC_DOCS = {
    "graph": (_SPEC_ARGV["graph"], {"n_vertices": 3, "edges": [[0, 1], [1, 2]]}),
    "matrix": (_SPEC_ARGV["matrix"], {"rows": 2, "columns": _PATH3_COLUMNS}),
    "complex": (lambda f: ["subdivide", "--pseudomanifold", f, *_CIRCLE[2:]],
                {**_TWO_EDGES, "instances": _CIRCLE_INSTANCES}),
}


def _spec_file(kind, **edit):
    """The argv that reads the valid ``kind`` file with ``edit`` applied."""
    def argv(tmp_path):
        argv_of, doc = _SPEC_DOCS[kind]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**doc, **edit}))
        return argv_of(str(path))
    return argv


@pytest.mark.parametrize("kind", sorted(_SPEC_DOCS))
def test_valid_spec_files_are_read(kind, tmp_path):
    assert cli.run(_spec_file(kind)(tmp_path) + ["--emit",
                                                 str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("argv, field", [
    (_spec_file("graph", n_vertices=3.9), "'n_vertices'"),
    (_spec_file("graph", preset="path", n_vertices=True), "'n_vertices'"),
    (_spec_file("graph", edges=[[False, True], [1, 2]]), "edge endpoint"),
    (_spec_file("graph", edges=[[0, 1.5], [1, 2]]), "edge endpoint"),
    (_spec_file("matrix", rows=2.7), "'rows'"),
    (_spec_file("matrix", columns={**_PATH3_COLUMNS, "0": [True, 1]}),
     "facet {0} bit"),
    (_spec_file("matrix", columns={**_PATH3_COLUMNS, "0": [1.0, 1]}),
     "facet {0} bit"),
    (_spec_file("complex", dim=1.5), "'dim'"),
    (_spec_file("complex", dim=True), "'dim'"),
    (_spec_file("complex", instances=[[0, [0.0], 0]] + _CIRCLE_INSTANCES[1:]),
     "instance slot"),
    (_spec_file("complex", orientation=[True, -1]), "orientation entry"),
    (["formulas", "--family", "tomei", "--n", "-1"], "n must be nonnegative"),
    (["realize", *_CIRCLE, "--budget", "2.7"], "budget must be a whole number"),
], ids=["graph-n-float", "graph-n-bool", "graph-edge-bool", "graph-edge-float",
        "matrix-rows-float", "matrix-bit-bool", "matrix-bit-float",
        "complex-dim-float", "complex-dim-bool", "complex-instance-float",
        "complex-orientation-bool", "formulas-negative-n", "budget-fraction"])
def test_malformed_numbers_exit_two(argv, field, tmp_path, capsys):
    if callable(argv):
        argv = argv(tmp_path)
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


def test_exit_code_emit_dir_missing(tmp_path):
    target = tmp_path / "no" / "dir" / "x.json"
    assert cli.run(["poset", "--graph", "path:3", "--emit", str(target)]) == 2


def test_exit_code_budget(monkeypatch):
    def refuse(*args, **kwargs):
        raise BudgetExceeded("realization", 2, "cells", 1)
    monkeypatch.setattr(cli, "realize", refuse)
    assert cli.run(["realize", "--pseudomanifold", "sphere:1", "--graph",
                    "path:2"]) == 3


def test_smallcover_refuses_the_gluing_over_budget(capsys):
    # the cell complex (3,304 cells) fits; the glued simplices do not
    assert cli.run(["smallcover", "--graph", "path:6", "--lambda", "can"]) == 3
    assert capsys.readouterr().err == (
        "budget: small cover needs 506880 top simplices, over the 200000 budget\n")


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit):
        cli.run(["frobnicate"])


def test_reports_are_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        cli.run(["realize", "--pseudomanifold", "sphere:1", "--graph",
                 "path:2", "--emit", str(target)])
    assert a.read_bytes() == b.read_bytes()
    for target in (a, b):
        cli.run(["poset", "--graph", "star:4", "--emit", str(target)])
    assert a.read_bytes() == b.read_bytes()


# sha256 of each report, recorded before the subdivision was built from
# subcell tables; reordering any cell or vertex changes them.
PINNED_REPORTS = {
    "torus7-path3": ("31902d4300e7407bbaac1451208afa283c1c5b5c36dc53c2d99a16c33a1948dc",
                     ["subdivide", "--pseudomanifold", "torus7", "--graph", "path:3",
                      "--certify"]),
    "sphere2-cycle3": ("f037d5870935072e2b7b7c1899433b3eaea208a0e5dffb8a96833d450d40c921",
                       ["subdivide", "--pseudomanifold", "sphere:2", "--graph",
                        "cycle:3", "--certify"]),
    "sphere3-star4": ("ff72d1ba1de6e744d2eb90faea8b89dc3e17d274c90536c36dead6b173e611da",
                      ["subdivide", "--pseudomanifold", "sphere:3", "--graph",
                       "star:4", "--certify"]),
    "sphere1-path2-apex1": (
        "96964a58ed10eae5bca917cf7581c0b013fa8a1bf8c643fd470d40b25af706e0",
        ["subdivide", "--pseudomanifold", "sphere:1", "--graph", "path:2",
         "--apex", "1", "--certify"]),
    "sphere2-path3-apex2": (
        "96e9517b83926b11ab58989aaa86c4cf3fd551b8ff516f87cfa5ff16cd227c50",
        ["subdivide", "--pseudomanifold", "sphere:2", "--graph", "path:3",
         "--apex", "2", "--certify"]),
    "torus7-complete3": ("bb138c4f13b6ab0284acb6fbdf6c019ce3fe73c13276f959ab49d672ceb5c8cc",
                         ["subdivide", "--pseudomanifold", "torus7", "--graph",
                          "complete:3", "--certify"]),
    "sphere3-cycle4": ("eb94ff952068933993771c1b0658566c8d6841dc14d475e9f465a23d3bac0339",
                       ["subdivide", "--pseudomanifold", "sphere:3", "--graph",
                        "cycle:4", "--certify"]),
    "sphere3-complete4": (
        "88ce751c89e7994be4582548d48515e5affdcc6a205416181264d14ffef8e52e",
        ["subdivide", "--pseudomanifold", "sphere:3", "--graph", "complete:4",
         "--certify"]),
    "sphere4-star5": ("c17246e23a743e65a9f2b279451e3323b1290b0babb354f94a93505742bd12fb",
                      ["subdivide", "--pseudomanifold", "sphere:4", "--graph",
                       "star:5", "--certify"]),
    # the largest substitution report: its piece has 128 top cells
    "sphere4-star5-apex1": (
        "b8d6f23700ce3dc42f4055c1d8c4d3423f85a0e53c94e6cc0a7bf7fe55cda09a",
        ["subdivide", "--pseudomanifold", "sphere:4", "--graph", "star:5",
         "--apex", "1", "--certify"]),
    "realize-sphere2-complete3": (
        "c2a11cf32eefcbfa70e46e1b4998c3592c2a65ac5069d1b85e58831204ab9825",
        ["realize", "--pseudomanifold", "sphere:2", "--graph", "complete:3",
         "--budget", "1000"]),
    "realize-sphere3-path4": (
        "bfcabd16ccc1d95f24266d1d405d00393ab75ac074a52956ff785f99e5087832",
        ["realize", "--pseudomanifold", "sphere:3", "--graph", "path:4"]),
    "realize-sphere4-path5": (
        "7e2637eeb01f096a9522b255aa30e46220d9171a224deaa1362f912ab3b804ef",
        ["realize", "--pseudomanifold", "sphere:4", "--graph", "path:5"]),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_report_bytes_are_pinned(name, tmp_path):
    digest, argv = PINNED_REPORTS[name]
    out = tmp_path / "r.json"
    assert cli.run(argv + ["--emit", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _cap_memory():
    cap = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def test_realize_closure_budget_refuses_under_memory_cap():
    # the 3-colour closures on star:4 are far over the budget; the refusal
    # must come before they are stored, so a 1 GiB address space suffices
    env = dict(os.environ)
    src = str(Path(nestotope.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "nestotope.cli", "realize",
         "--pseudomanifold", "sphere:3", "--graph", "star:4"],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_cap_memory)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == ("budget: involution closure needs 1000320 stored "
                           "cell indexes, over the 1000000 budget\n")


# Each refusal is counted in closed form before anything is built: the
# sphere (2^32 - 2 cells), the barycentric subdivision (10 * 9! tops) and
# the substitution (8 * 7! barycentric tops times 64 simplex pieces).
@pytest.mark.parametrize("argv,what", [
    (["realize", "--pseudomanifold", "sphere:30", "--graph", "path:2"],
     "sphere:30 needs 4294967294 cells"),
    (["subdivide", "--pseudomanifold", "sphere:8", "--graph", "path:9"],
     "barycentric subdivision needs 3628800 top simplices"),
    (["subdivide", "--pseudomanifold", "sphere:6", "--graph", "star:7"],
     "substitution needs 2580480 top simplices"),
], ids=["sphere", "barycentric", "substitution"])
def test_subdivision_budget_refuses_under_memory_cap(argv, what):
    env = dict(os.environ)
    src = str(Path(nestotope.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "nestotope.cli"] + argv,
                          capture_output=True, text=True, env=env, timeout=30,
                          preexec_fn=_cap_memory)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == f"budget: {what}, over the 200000 budget\n"


# The face poset counts each level before building it: complete:9 has
# 1,039,261 faces up to its 834,120 four-tubings and 1,905,120 five-tubings
# next, complete:10 has 875,523 up to its 818,520 three-tubings and
# 5,103,000 four-tubings next.
@pytest.mark.parametrize("spec, count", [("complete:9", 2_944_381),
                                         ("complete:10", 5_978_523)])
def test_face_budget_refuses_under_memory_cap(spec, count):
    env = dict(os.environ)
    src = str(Path(nestotope.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "nestotope.cli", "poset",
                           "--graph", spec],
                          capture_output=True, text=True, env=env, timeout=30,
                          preexec_fn=_cap_memory)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == (f"budget: face poset needs {count} faces, "
                           "over the 2000000 budget\n")


@pytest.mark.skipif(shutil.which("nestotope") is None,
                    reason="console script not installed; run pip install -e .")
def test_console_script_entry():
    proc = subprocess.run(["nestotope", "poset", "--graph", "path:2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["f"] == [1, 2]
