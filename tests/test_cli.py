"""End-to-end tests of the command line front end.

Commands run in-process through opres.cli.main with captured streams;
one subprocess test covers the installed console script."""

import contextlib
import io
import json
import subprocess
import sys

import pytest

from opres.cli import main


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def run_json(argv, tmp_path, name="report.json"):
    path = tmp_path / name
    rc, out, err = run(argv + ["--json", str(path)])
    report = json.loads(path.read_text()) if path.exists() else None
    return rc, report, path


TINY_UNARY = {
    "symmetric": False,
    "name": "tiny_unary",
    "arities": {"1": [["u", 0]], "2": [["b", 0]]},
    "d": {},
    "compose": {
        "u o1 u": {"u": 1},
        "u o1 b": {"b": 1},
        "b o1 u": {"b": 1},
        "b o2 u": {"b": 1},
    },
}

# d applied twice sends the top generator to the bottom one
BAD_D_OPERAD = {
    "symmetric": False,
    "name": "bad_d",
    "arities": {"2": [["a", 0], ["b", 1], ["c", 2]]},
    "d": {"b": {"a": 1}, "c": {"b": 1}},
    "compose": {},
}


# -- the documented example invocations --------------------------------------


def test_trees_enum_example(tmp_path):
    rc, report, _ = run_json(
        ["trees", "enum", "--arity", "4", "--min-valence", "2"], tmp_path
    )
    assert rc == 0
    assert report["status"] == "verified"
    assert report["payload"]["count"] == 11


def test_trees_classes_example(tmp_path):
    rc, report, _ = run_json(
        ["trees", "classes", "--arity", "5", "--min-valence", "2"], tmp_path
    )
    assert rc == 0
    assert report["status"] == "verified"
    classes = report["payload"]["classes"]
    assert report["payload"]["count"] == len(classes) == 12
    # the classes split the 45 planar trees, and the 236 non-planar trees
    # with labelled leaves into orbits of size 5!/|Aut|
    assert sum(c["planar_count"] for c in classes) == 45
    assert sum(120 // c["aut_order"] for c in classes) == 236


def test_trees_aut_example(tmp_path):
    rc, report, _ = run_json(["trees", "aut", "--tree", "((| |) (| |))"], tmp_path)
    assert rc == 0
    assert report["status"] == "verified"
    payload = report["payload"]
    assert payload["tree"] == "((| |) (| |))"
    assert payload["order"] == 8
    assert [g["leaf_perm"] for g in payload["generators"]] == [[2, 3, 0, 1], [1, 0, 2, 3], [0, 1, 3, 2]]


def test_chainw_build_example(tmp_path):
    rc, report, _ = run_json(
        ["chainw", "build", "--operad", "as_ns", "--arity", "4", "--ring", "Z"],
        tmp_path,
    )
    assert rc == 0
    assert report["payload"]["dims"] == {"0": 11, "1": 15, "2": 5}


def test_chainw_build_walks_no_element(monkeypatch, tmp_path):
    # the report labels come from the enumeration blocks, not the elements
    from opres import chain_operads, tagged

    calls = []

    def counting(real):
        def wrapped(*args):
            calls.append(real.__name__)
            return real(*args)

        return wrapped

    for module in (chain_operads, tagged):
        monkeypatch.setattr(module, "node_view", counting(tagged.node_view))
    monkeypatch.setattr(chain_operads, "basis_to_json", counting(chain_operads.basis_to_json))
    for argv in (["--operad", "ass_sym", "--arity", "4"], ["--operad", "as_ns", "--arity", "1"]):
        rc, report, _ = run_json(["chainw", "build"] + argv, tmp_path)
        assert rc == 0 and report["payload"]["complex"]["basis"]["0"]
    assert calls == []


def test_cylinder_commands_build_no_basis_element(monkeypatch, tmp_path):
    # build, homology and the d^2 check read the basis by its integer keys
    # only: no TreeElement is constructed and no block is decoded, and
    # each command derives the enumeration blocks once
    from opres import chain_operads, tagged

    calls = []
    real_init = tagged.TreeElement.__post_init__
    real_decode = tagged.block_elements
    real_blocks = chain_operads.label_blocks

    def counted_init(self):
        calls.append("TreeElement")
        real_init(self)

    def counted_decode(*args):
        calls.append("block_elements")
        return real_decode(*args)

    def counted_blocks(*args):
        calls.append("label_blocks")
        return real_blocks(*args)

    monkeypatch.setattr(tagged.TreeElement, "__post_init__", counted_init)
    for module in (chain_operads, tagged):
        monkeypatch.setattr(module, "block_elements", counted_decode)
    monkeypatch.setattr(chain_operads, "label_blocks", counted_blocks)
    for argv in (
        ["chainw", "build", "--operad", "ass_sym", "--arity", "4"],
        ["chainw", "homology", "--operad", "as_ns", "--arity", "5", "--ring", "Q"],
        ["chainw", "verify", "--check", "d2", "--operad", "com", "--arity", "4"],
    ):
        rc, report, _ = run_json(argv, tmp_path)
        assert rc == 0 and report["status"] == "verified"
        assert calls == ["label_blocks"]
        calls.clear()
    tagged.TreeElement(2, None, 0)
    assert calls == ["TreeElement"]


def test_arity_ceiling():
    rc, out, err = run(["chainw", "build", "--operad", "as_ns", "--arity", "99"])
    assert rc == 2
    assert "ceiling" in err


def test_arity_ceiling_lifted_parses():
    # still a huge computation, so pick a command that stays cheap
    rc, out, err = run(
        ["trees", "enum", "--arity", "9", "--min-valence", "2", "--unsafe"]
    )
    assert rc == 0


def test_builtin_chain_operad_past_the_default_ceiling(tmp_path):
    # the builtins have corollas in every arity: H0 of the corolla-only
    # cylinder is the operad piece, Z for com
    rc, report, _ = run_json(
        ["chainw", "homology", "--operad", "com", "--arity", "9", "--cap", "0", "--unsafe"],
        tmp_path,
    )
    assert rc == 0
    assert report["payload"]["by_degree"] == {"0": {"free": 1, "torsion": []}}


def test_builtin_set_operad_past_the_default_ceiling(tmp_path):
    rc, report, _ = run_json(
        ["setw", "build", "--operad", "com", "--arity", "9", "--cap", "1", "--unsafe"],
        tmp_path,
    )
    assert rc == 0
    assert report["payload"]["count"] == 1


def test_chain_table_reduced_key_is_ignored(tmp_path):
    # the builtin as_ns up to arity 4: a_n o_i a_m = a_{n+m-1}
    table = {
        "symmetric": False,
        "arities": {str(n): [[f"a{n}", 0]] for n in (2, 3, 4)},
        "compose": {
            f"a{n} o{i} a{m}": {f"a{n + m - 1}": 1}
            for n in (2, 3) for m in (2, 3) if n + m <= 5 for i in range(1, n + 1)
        },
    }
    payloads = []
    for flag in (False, True):
        op = tmp_path / f"as_ns_{flag}.json"
        op.write_text(json.dumps(dict(table, reduced=True) if flag else table))
        rc, report, _ = run_json(
            ["chainw", "build", "--operad", str(op), "--arity", "4"], tmp_path, f"r{flag}.json"
        )
        assert rc == 0
        payloads.append(report["payload"])
    assert payloads[0] == payloads[1]


def test_chainw_verify_d2_example():
    rc, out, err = run(
        ["chainw", "verify", "--check", "d2", "--operad", "as_ns", "--arity", "4"]
    )
    assert rc == 0
    assert "status: verified" in out


def test_barcobar_compare_example(tmp_path):
    rc, report, _ = run_json(
        ["barcobar", "compare-w", "--operad", "as_ns", "--arity", "3"], tmp_path
    )
    assert rc == 0
    resc = report["payload"]["rescaling"]
    assert len(resc) == 5
    assert set(resc.values()) <= {1, -1}


def test_barcobar_compare_failure_payload(monkeypatch, tmp_path):
    # a planted fault: every degree-0 cylinder element reads as the first
    from opres import bar_cobar

    honest = bar_cobar._w_to_cobar
    first = {}

    def merged(P, C, x, *memo):
        y = honest(P, C, x, *memo)
        return first.setdefault(x.degree, y) if x.degree == 0 else y

    monkeypatch.setattr(bar_cobar, "_w_to_cobar", merged)
    rc, report, _ = run_json(
        ["barcobar", "compare-w", "--operad", "as_ns", "--arity", "3"], tmp_path
    )
    assert rc == 1 and report["status"] == "failed"
    payload = report["payload"]
    assert payload["witness"].startswith("two degree 0 elements share the image ")
    assert payload == {"bijection": [], "rescaling": {}, "status": "fail", "witness": payload["witness"]}


def test_corrupted_operad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"arities": [2], "d":')
    rc, out, err = run(["chainw", "build", "--operad", str(bad), "--arity", "2"])
    assert rc == 2
    assert err


# -- report determinism ------------------------------------------------------


def test_reports_byte_identical(tmp_path):
    argv = ["chainw", "build", "--operad", "ass_sym", "--arity", "3"]
    _, _, p1 = run_json(argv, tmp_path, "a.json")
    _, _, p2 = run_json(argv, tmp_path, "b.json")
    assert p1.read_bytes() == p2.read_bytes()


def test_compare_report_byte_identical(tmp_path):
    argv = ["setw", "compare-free", "--operad", "ass", "--arity", "3"]
    _, _, p1 = run_json(argv, tmp_path, "a.json")
    _, _, p2 = run_json(argv, tmp_path, "b.json")
    assert p1.read_bytes() == p2.read_bytes()


def test_report_shape(tmp_path):
    rc, report, _ = run_json(
        ["segment", "make", "--name", "interval"], tmp_path
    )
    assert rc == 0
    assert sorted(report) == ["payload", "provenance", "status", "truncated"]
    prov = report["provenance"]
    assert prov["tool"] == "opres"
    assert prov["command"] == "segment make"
    assert "version" in prov and "parameters" in prov
    assert prov["parameters"]["name"] == "interval"


def test_truncation_flag(tmp_path):
    argv = ["chainw", "build", "--operad", "as_ns", "--arity", "3"]
    _, capped, _ = run_json(argv + ["--cap", "1"], tmp_path, "c.json")
    _, full, _ = run_json(argv, tmp_path, "f.json")
    assert capped["truncated"] is True
    assert full["truncated"] is False


# -- exit code 1 on failed verification --------------------------------------


def test_broken_differential_fails(tmp_path):
    op = tmp_path / "bad_d.json"
    op.write_text(json.dumps(BAD_D_OPERAD))
    rc, report, _ = run_json(
        ["chainw", "verify", "--check", "d2", "--operad", str(op), "--arity", "2"],
        tmp_path,
    )
    assert rc == 1
    assert report["status"] == "failed"
    assert report["payload"]["problems"]


# the witness of each command that builds a complex from BAD_D_OPERAD; the
# bar complex sits one degree up, and verify-twisting checks P(2) itself
D_SQUARED_WITNESS = {
    "chainw build": "(d[1] d[2])[0,0] = 1",
    "chainw homology": "(d[1] d[2])[0,0] = 1",
    "barcobar build": "(d[2] d[3])[0,0] = 1",
    "barcobar compare-w": "(d[1] d[2])[0,0] = 1",
    "barcobar verify-twisting": "(d[1] d[2])[0,0] = 1",
}


@pytest.mark.parametrize("command", D_SQUARED_WITNESS)
def test_built_complex_failing_d_squared_exits_1(tmp_path, command):
    op = tmp_path / "bad_d.json"
    op.write_text(json.dumps(BAD_D_OPERAD))
    rc, out, err = run(command.split() + ["--operad", str(op), "--arity", "2"])
    assert rc == 1
    assert f"d^2 != 0: {D_SQUARED_WITNESS[command]}" in err
    assert "Traceback" not in err


# -- segments ----------------------------------------------------------------


def test_segment_roundtrip(tmp_path):
    rc, report, _ = run_json(
        ["segment", "make", "--name", "diamond:chain:1"], tmp_path
    )
    assert rc == 0
    seg = tmp_path / "seg.json"
    seg.write_text(json.dumps(report["payload"]["segment"]))
    rc, out, err = run(["segment", "check", "--file", str(seg)])
    assert rc == 0


@pytest.mark.parametrize("name", ["interval", "myseg"])
def test_segment_check_file_read_whatever_its_name(tmp_path, monkeypatch, name):
    # a bare file name, even a builtin one, is still read as segment JSON
    rc, report, _ = run_json(["segment", "make", "--name", "chain:2"], tmp_path)
    assert rc == 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(json.dumps(report["payload"]["segment"]))
    rc, report, _ = run_json(["segment", "check", "--file", name], tmp_path, "check.json")
    assert rc == 0
    assert report["payload"]["size"] == 3


def test_segment_check_needs_input():
    rc, out, err = run(["segment", "check"])
    assert rc == 2


def test_unknown_segment_name():
    rc, out, err = run(
        ["setw", "build", "--operad", "ass", "--segment", "nope", "--arity", "2"]
    )
    assert rc == 2


# -- set level ---------------------------------------------------------------


def test_setw_build_counts(tmp_path):
    rc, report, _ = run_json(
        ["setw", "build", "--operad", "ass", "--arity", "3"], tmp_path
    )
    assert rc == 0
    assert report["payload"]["count"] == len(report["payload"]["elements"]) > 0


def test_setw_compare_free():
    rc, out, err = run(["setw", "compare-free", "--operad", "ass", "--arity", "3"])
    assert rc == 0


def test_setw_diamond_requires_cap():
    rc, out, err = run(
        ["setw", "diamond-compare", "--operad", "ass", "--arity", "2"]
    )
    assert rc == 2


def test_setw_diamond_compare():
    rc, out, err = run(
        ["setw", "diamond-compare", "--operad", "ass", "--arity", "2", "--cap", "3"]
    )
    assert rc == 0


def test_godement_compare():
    rc, out, err = run(
        ["godement", "compare-w", "--operad", "ass", "--level", "1", "--arity", "2"]
    )
    assert rc == 0


def test_godement_compare_builds_one_tower(monkeypatch):
    from opres import set_operads

    built = []
    init = set_operads.GodementTower.__init__

    def counting(self, P):
        built.append(P)
        init(self, P)

    monkeypatch.setattr(set_operads.GodementTower, "__init__", counting)
    rc, out, err = run(
        ["godement", "compare-w", "--operad", "ass", "--level", "1", "--arity", "2"]
    )
    assert rc == 0
    assert len(built) == 1


def test_godement_build(tmp_path):
    rc, report, _ = run_json(
        ["godement", "build", "--operad", "ass", "--level", "1", "--arity", "2"],
        tmp_path,
    )
    assert rc == 0
    assert report["payload"]["count"] == len(report["payload"]["flattened"]) > 0


# -- chain level -------------------------------------------------------------


def test_chainw_homology_table(tmp_path):
    rc, report, _ = run_json(
        ["chainw", "homology", "--operad", "ass_sym", "--arity", "3"], tmp_path
    )
    assert rc == 0
    by = report["payload"]["by_degree"]
    assert by["0"] == {"free": 6, "torsion": []}
    assert all(row == {"free": 0, "torsion": []} for k, row in by.items() if k != "0")


def test_chainw_homology_field(tmp_path):
    rc, report, _ = run_json(
        ["chainw", "homology", "--operad", "as_ns", "--arity", "3", "--ring", "F2"],
        tmp_path,
    )
    assert rc == 0
    assert report["payload"]["ring"] == "F2"
    assert report["payload"]["by_degree"]["0"]["free"] == 1


@pytest.mark.parametrize(
    "ring,code",
    [(r, 0) for r in ("Z", "Q", "F2", "F3", "F03", "F97")]
    + [(r, 2) for r in ("F4", "F1", "F0", "F", "F+3", "X5", "F9")],
)
def test_ring_arg_exit_codes(ring, code):
    rc, out, err = run(
        ["chainw", "homology", "--operad", "as_ns", "--arity", "2", "--ring", ring]
    )
    assert rc == code


def test_unary_needs_cap(tmp_path):
    op = tmp_path / "unary.json"
    op.write_text(json.dumps(TINY_UNARY))
    for command in (["chainw", "build"], ["chainw", "verify"]):
        rc, out, err = run(command + ["--operad", str(op), "--arity", "2"])
        assert rc == 2
        assert "give an edge cap" in err
    rc, report, _ = run_json(
        ["chainw", "build", "--operad", str(op), "--arity", "2", "--cap", "2"],
        tmp_path,
    )
    assert rc == 0
    assert report["truncated"] is True


def test_chainw_verify_all():
    rc, out, err = run(
        ["chainw", "verify", "--check", "all", "--operad", "com", "--arity", "3"]
    )
    assert rc == 0


# -- bar and cobar -----------------------------------------------------------


def test_barcobar_build_which(tmp_path):
    rc, report, _ = run_json(
        ["barcobar", "build", "--operad", "com", "--arity", "3", "--which", "bar"],
        tmp_path,
    )
    assert rc == 0
    assert "bar" in report["payload"] and "cobar" not in report["payload"]
    rc, report, _ = run_json(
        ["barcobar", "build", "--operad", "com", "--arity", "3", "--which", "both"],
        tmp_path,
        "both.json",
    )
    assert "bar" in report["payload"] and "cobar" in report["payload"]


def test_barcobar_twisting():
    rc, out, err = run(
        ["barcobar", "verify-twisting", "--operad", "ass_sym", "--arity", "3"]
    )
    assert rc == 0


# -- the standalone homology command -----------------------------------------


def test_homology_on_file(tmp_path):
    rc, report, _ = run_json(
        ["chainw", "build", "--operad", "as_ns", "--arity", "3"], tmp_path
    )
    cx = tmp_path / "complex.json"
    cx.write_text(json.dumps(report["payload"]["complex"]))
    rc, report2, _ = run_json(
        ["homology", "--file", str(cx)], tmp_path, "h.json"
    )
    assert rc == 0
    assert report2["payload"]["by_degree"]["0"]["free"] == 1
    rc, report3, _ = run_json(
        ["homology", "--file", str(cx), "--ring", "Q"], tmp_path, "hq.json"
    )
    assert rc == 0
    assert report3["payload"]["ring"] == "Q"
    rc, report4, _ = run_json(
        ["homology", "--file", str(cx), "--ring", "F2"], tmp_path, "hf2.json"
    )
    assert rc == 0
    assert report4["payload"]["ring"] == "F2"
    assert report4["payload"]["by_degree"] == report2["payload"]["by_degree"]


def test_homology_rejects_broken_complex(tmp_path):
    cx = tmp_path / "broken.json"
    cx.write_text(
        json.dumps(
            {
                "ring": "Z",
                "basis": {"0": ["a"], "1": ["b"], "2": ["c"]},
                "d": {"1": [[0, 0, "1"]], "2": [[0, 0, "1"]]},
            }
        )
    )
    rc, out, err = run(["homology", "--file", str(cx)])
    assert rc == 2


def test_missing_file():
    rc, out, err = run(["homology", "--file", "/nonexistent/complex.json"])
    assert rc == 2


MALFORMED_ROWS = [
    # a term outside the basis
    ("compose", "m o1 m", {"zzz": 1}),
    # a term of the wrong arity, then of the wrong degree
    ("compose", "m o1 m", {"m": 1}),
    ("compose", "m o1 m", {"h": 1}),
    ("d", "h", {"m": 1}),
    ("d", "t", {"h": 1}),
    ("actions", "m * 2,1", {"t": 1}),
    # a key outside the basis
    ("compose", "zzz o1 m", {"t": 1}),
    # a slot outside 1..2, an action that does not permute 1..2, and a
    # key without three parts
    ("compose", "m o3 m", {"t": 1}),
    ("compose", "m o0 m", {"t": 1}),
    ("actions", "m * 1,1", {"m": 1}),
    ("actions", "m * 1,2,3", {"m": 1}),
    ("compose", "m o1", {"t": 1}),
]


@pytest.mark.parametrize("section,key,row", MALFORMED_ROWS)
@pytest.mark.parametrize("command", [
    ["chainw", "build"],
    ["chainw", "verify"],
    ["chainw", "homology"],
    ["barcobar", "build"],
    ["barcobar", "compare-w"],
])
def test_malformed_chain_table_exits_2(tmp_path, command, section, key, row):
    table = {
        "symmetric": False,
        "arities": {"2": [["m", 0]], "3": [["t", 0], ["h", 1]]},
        "d": {},
        "compose": {f"m o{i} m": {"t": 1} for i in (1, 2)},
        "actions": {"m * 2,1": {"m": 1}},
    }
    table[section][key] = row
    op = tmp_path / "malformed.json"
    op.write_text(json.dumps(table))
    rc, out, err = run(command + ["--operad", str(op), "--arity", "3"])
    assert rc == 2
    assert repr(key) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("section,key,result", [
    ("compose", "m o1 m", "zzz"),
    ("compose", "m o1 m", "m"),
    ("actions", "m * 2,1", "t"),
    ("compose", "zzz o1 m", "t"),
    ("compose", "m o3 m", "t"),
    ("compose", "m o0 m", "t"),
    ("actions", "m * 1,1", "m"),
    ("actions", "m * 1,2,3", "m"),
    ("compose", "m o1", "t"),
])
def test_malformed_set_table_exits_2(tmp_path, section, key, result):
    table = {
        "arities": {"1": ["e"], "2": ["m"], "3": ["t"]},
        "unit": "e",
        "compose": {f"m o{i} m": "t" for i in (1, 2)},
        "actions": {"m * 2,1": "m"},
    }
    table[section][key] = result
    op = tmp_path / "malformed.json"
    op.write_text(json.dumps(table))
    rc, out, err = run(["setw", "build", "--operad", str(op), "--arity", "3"])
    assert rc == 2
    assert repr(key) in err
    assert "Traceback" not in err


MALFORMED_SHAPES = [
    # a top-level list where an object belongs
    (["chainw", "build", "--arity", "3", "--operad"], []),
    (["setw", "build", "--arity", "3", "--operad"], []),
    (["segment", "check", "--file"], []),
    (["homology", "--file"], []),
    (["homology", "--ring", "Q", "--file"], []),
    # a list where a mapping belongs
    (["chainw", "build", "--arity", "3", "--operad"], {"arities": [["m", 0]]}),
    (["setw", "build", "--arity", "3", "--operad"], {"arities": ["m"], "unit": "e"}),
    (["homology", "--file"], {"ring": "Z", "basis": [["a"]]}),
    # a d entry outside its matrix
    (["homology", "--file"], {"ring": "Z", "basis": {"0": ["a"], "1": ["b"]}, "d": {"1": [[1, 0, "1"]]}}),
]


@pytest.mark.parametrize("command,data", MALFORMED_SHAPES, ids=[
    "chain-list", "set-list", "segment-list", "complex-list", "complex-list-ring",
    "chain-arities", "set-arities", "complex-basis", "complex-d-entry",
])
def test_malformed_json_shape_exits_2(tmp_path, command, data):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    rc, out, err = run(command + [str(path)])
    assert rc == 2
    assert err.startswith("error: malformed ")
    assert "Traceback" not in err


# -- environment and entry point ---------------------------------------------


def test_failed_certificate_exits_1(monkeypatch):
    from opres import chain_core

    honest = chain_core.eliminate

    def corrupted(*args):
        E = honest(*args)
        col = next(col for col in E.reduced if col)
        (i, v), *_ = col.items()
        col[i] = v + 1
        return E

    monkeypatch.setattr(chain_core, "eliminate", corrupted)
    rc, out, err = run(["chainw", "homology", "--operad", "as_ns", "--arity", "3"])
    assert rc == 1
    assert "M*U != A" in err
    assert "Traceback" not in err


def test_internal_fault_exits_3(monkeypatch):
    from opres import cli

    def broken(*args, **kwargs):
        raise RuntimeError("boundary left the basis")

    monkeypatch.setattr(cli, "w_reduced", broken)
    rc, out, err = run(["chainw", "homology", "--operad", "as_ns", "--arity", "3"])
    assert rc == cli.EXIT_INTERNAL == 3
    assert "internal error: RuntimeError: boundary left the basis" in err
    assert "Traceback" not in err


def _internal_key_error(monkeypatch, tmp_path):
    from opres import cli

    def broken(*args, **kwargs):
        raise KeyError("internal bookkeeping")

    monkeypatch.setattr(cli, "w_reduced", broken)
    return ["chainw", "homology", "--operad", "as_ns", "--arity", "3"]


def _missing_table_row(monkeypatch, tmp_path):
    table = {
        "symmetric": False,
        "arities": {"2": [["m", 0]], "3": [["t", 0]]},
        "compose": {"m o1 m": {"t": 1}},
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    return ["chainw", "build", "--operad", str(path), "--arity", "3"]


def _complex_without_ring(monkeypatch, tmp_path):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"basis": {"0": ["a"]}, "d": {}}))
    return ["homology", "--file", str(path)]


@pytest.mark.parametrize("case,code,message", [
    (_internal_key_error, 3, "internal error: KeyError: 'internal bookkeeping'\n"),
    (_missing_table_row, 2, "error: composition m o2 m missing from table\n"),
    (_complex_without_ring, 2, "error: malformed complex: missing key 'ring'\n"),
], ids=["internal", "table-row", "json-key"])
def test_key_error_exit_codes(monkeypatch, tmp_path, case, code, message):
    """Only a missing table row or JSON key is the input's fault; any
    other KeyError is an internal fault."""
    rc, out, err = run(case(monkeypatch, tmp_path))
    assert (rc, err) == (code, message)


def test_unbounded_tree_enum_rejected():
    rc, out, err = run(["trees", "enum", "--arity", "3"])
    assert rc == 2


def test_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "opres", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "opres" in proc.stdout
