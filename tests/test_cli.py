import argparse
import contextlib
import copy
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quinncalc.cli import COMMANDS, build_parser, main
from quinncalc.io import (
    crossed_complex_to_json,
    crossed_module_to_json,
    dump_json,
    group_to_json,
    groupoid_to_json,
    simpset_to_json,
)
from quinncalc.finalg import (
    crossed_module_zero,
    cyclic_group,
    iota1,
    iota2,
    pair_groupoid,
    symmetric_group,
)
from quinncalc.simpset import circle, prism, torus
from tests.conftest import abelian_tower, inversion_tower


@pytest.fixture()
def files(tmp_path):
    paths = {}
    paths["s3"] = tmp_path / "s3.json"
    paths["s3"].write_text(dump_json(group_to_json(symmetric_group(3))))
    paths["z2"] = tmp_path / "z2.json"
    paths["z2"].write_text(dump_json(group_to_json(cyclic_group(2))))
    paths["xmod"] = tmp_path / "xmod.json"
    paths["xmod"].write_text(
        dump_json(crossed_module_to_json(crossed_module_zero(cyclic_group(2), cyclic_group(2))))
    )
    paths["prism-circle"] = tmp_path / "prism-circle.json"
    paths["prism-circle"].write_text(dump_json(simpset_to_json(prism(circle()))))
    paths["torus"] = tmp_path / "torus.json"
    paths["torus"].write_text(dump_json(simpset_to_json(torus())))
    paths["circle"] = tmp_path / "circle.json"
    paths["circle"].write_text(dump_json(simpset_to_json(circle())))
    return {k: str(v) for k, v in paths.items()}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_quinn_matrix_identity_csv(files, capsys):
    code, out = run_cli(
        capsys,
        "quinn-matrix",
        "--cobordism",
        files["prism-circle"],
        "--algebra",
        files["s3"],
        "--s",
        "0",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


@pytest.mark.parametrize("s", ["nan", "inf"])
def test_quinn_matrix_non_finite_s_exits_2(files, s):
    code, err = _exit_code_and_stderr(
        ["quinn-matrix", "--cobordism", files["prism-circle"], "--algebra", files["xmod"], "--s", s]
    )
    assert code == 2 and "not finite" in err


def test_quinn_matrix_json_carries_class_labels(files, capsys):
    code, out = run_cli(
        capsys,
        "quinn-matrix",
        "--cobordism",
        files["prism-circle"],
        "--algebra",
        files["s3"],
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["row_labels"]) == 3 and len(data["col_labels"]) == 3
    assert data["exact"] is True


def test_double_s3(files, capsys):
    code, out = run_cli(capsys, "double", "--group", files["s3"])
    assert code == 0
    data = json.loads(out)
    assert data == {"dim": 36, "iso": "found"}


def test_ext_groupoid_torus_z2(files, capsys):
    code, out = run_cli(
        capsys, "ext-groupoid", "--space", files["torus"], "--algebra", files["z2"]
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["objects"]) == 4
    assert len(data["components"]) == 4


def test_colour_count_and_list(files, capsys):
    code, out = run_cli(
        capsys, "colour-count", "--space", files["torus"], "--algebra", files["s3"]
    )
    assert code == 0 and json.loads(out)["count"] == 18
    code, out = run_cli(
        capsys, "colour-list", "--space", files["circle"], "--algebra", files["z2"]
    )
    assert code == 0
    assert len(json.loads(out)["colourings"]) == 2


def test_state_space_cli(files, capsys):
    code, out = run_cli(
        capsys, "state-space", "--space", files["torus"], "--algebra", files["s3"]
    )
    assert code == 0 and json.loads(out)["dimension"] == 8


def test_chi_pi_cli(files, capsys):
    code, out = run_cli(capsys, "chi-pi", "--algebra", files["s3"])
    assert code == 0 and json.loads(out)["chi_pi"] == "1/6"
    code, out = run_cli(capsys, "chi-pi", "--algebra", files["xmod"])
    assert code == 0 and json.loads(out)["chi_pi"] == "1"


def test_validate_good_and_bad(files, capsys, tmp_path):
    code, out = run_cli(capsys, "validate", "--input", files["s3"])
    assert code == 0 and json.loads(out)["ok"]
    bad = tmp_path / "bad.json"
    bad_mod = crossed_module_to_json(crossed_module_zero(symmetric_group(3), symmetric_group(3)))
    bad.write_text(dump_json(bad_mod))
    code, out = run_cli(capsys, "validate", "--input", str(bad))
    assert code == 3
    data = json.loads(out)
    assert not data["ok"] and data["kind"] == "axiom"


def test_validate_schema_error(tmp_path, capsys):
    f = tmp_path / "junk.json"
    f.write_text("{\"elements\": [\"a\"]}")
    code, _ = _exit_code_and_stderr(["validate", "--input", str(f)])
    assert code == 2


def test_boundary_mismatch_exit_code(files, capsys):
    code, _ = _exit_code_and_stderr(
        ["quinn-matrix", "--cobordism", files["torus"], "--algebra", files["z2"]]
    )
    assert code == 4


def test_catalog_roundtrip(capsys, tmp_path):
    code, out = run_cli(capsys, "catalog", "--algebras")
    assert code == 0
    data = json.loads(out)
    assert "prism-circle" in data and "torus" in data
    assert "s3" in data["algebras"]
    # reload one entry through the schema reader
    from quinncalc.io import simpset_from_json

    strat = simpset_from_json(data["prism-circle"])
    assert strat.simpset.validate()


def test_nat_transform_cli(files, capsys):
    code, out = run_cli(
        capsys, "nat-transform", "--space", files["circle"], "--algebra", files["z2"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["identity"] and data["natural"]


def test_profunctor_cli(files, capsys):
    code, out = run_cli(
        capsys,
        "profunctor",
        "--cobordism",
        files["prism-circle"],
        "--algebra",
        files["z2"],
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["left"]["objects"]) == 2
    assert sum(len(v) for v in data["basis"].values()) == 4


def test_algebra_cli(files, capsys):
    code, out = run_cli(capsys, "algebra", "--from", files["z2"])
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 2


@pytest.mark.parametrize("data", [{"arrows": []}, 5], ids=["groupoid-without-objects", "number"])
def test_algebra_from_malformed_file_exits_2(tmp_path, data):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, err = _exit_code_and_stderr(["algebra", "--from", str(bad)])
    assert code == 2 and "schema" in err


def _arrow(name, src, tgt):
    return {"id": name, "src": src, "tgt": tgt}


# two objects, identities ix and iy, f: x -> y and its inverse g; the
# composable pair (f, iy) has no row
GROUPOID_WITHOUT_A_COMPOSITE = {
    "objects": ["x", "y"],
    "arrows": [
        _arrow("ix", "x", "x"), _arrow("iy", "y", "y"), _arrow("f", "x", "y"), _arrow("g", "y", "x"),
    ],
    "compose": [
        ["ix", "ix", "ix"], ["ix", "f", "f"], ["iy", "iy", "iy"], ["iy", "g", "g"],
        ["f", "g", "ix"], ["g", "ix", "g"], ["g", "f", "iy"],
    ],
    "inv": [["ix", "ix"], ["iy", "iy"], ["f", "g"], ["g", "f"]],
}

# one object, the identity e and a loop a with a.a = a and inv a = a
IDEMPOTENT_LOOP = {
    "objects": ["*"],
    "arrows": [_arrow("e", "*", "*"), _arrow("a", "*", "*")],
    "compose": [["e", "e", "e"], ["e", "a", "a"], ["a", "e", "a"], ["a", "a", "a"]],
    "inv": [["e", "e"], ["a", "a"]],
}


@pytest.mark.parametrize(
    "data, exit_code, message",
    [
        pytest.param(GROUPOID_WITHOUT_A_COMPOSITE, 2, "composition defined iff tgt=src",
                     id="composite-missing"),
        pytest.param(IDEMPOTENT_LOOP, 3, "inverse table wrong", id="idempotent-loop"),
        pytest.param(
            dict(IDEMPOTENT_LOOP, arrows=[_arrow("e", "*", "*"), {"id": "a", "tgt": "*"}]), 2,
            "level 1 arrow 'a' schema: 'src' is missing", id="arrow-without-src",
        ),
        pytest.param(
            {k: v for k, v in IDEMPOTENT_LOOP.items() if k != "inv"}, 2,
            "level 1 schema: 'inv' is missing", id="no-inv",
        ),
        pytest.param(
            {k: v for k, v in IDEMPOTENT_LOOP.items() if k != "objects"}, 2,
            "crossed complex schema: 'objects' is missing", id="no-objects",
        ),
        pytest.param(
            dict(IDEMPOTENT_LOOP, compose="no"), 2,
            "level 1 schema: 'compose' must be a list, not str", id="compose-not-a-list",
        ),
    ],
)
def test_algebra_from_groupoid_file_is_validated(tmp_path, data, exit_code, message):
    """A groupoid file with a missing composite exits 2, one that fails an axiom exits 3, and
    one without a key, or with a key that is not a list, exits 2 with a message naming them."""
    path = tmp_path / "groupoid.json"
    path.write_text(json.dumps(data))
    code, err = _exit_code_and_stderr(["algebra", "--from", str(path)])
    assert code == exit_code and message in err


@pytest.mark.parametrize(
    "fault, message",
    [
        pytest.param(
            "unknown-composite",
            "composition names an unknown arrow (witness ('(0, 1, 2)', '(0, 1, 2)', 'nope'))",
            id="unknown-composite",
        ),
        pytest.param("dangling-arrow", "dangling arrow endpoints (witness ('z',))", id="dangling-arrow"),
    ],
)
@pytest.mark.parametrize("route", ["algebra-from", "algebra-file"])
def test_a_fault_that_hides_an_identity_is_named(tmp_path, fault, message, route):
    """An identity row entry naming no arrow, or an added arrow ending at no object, keeps
    the identity search of level 1 from finding one.  The error names that entry or arrow,
    exit 2, whether the table comes as a groupoid file or as a crossed complex file."""
    data = crossed_complex_to_json(iota1(symmetric_group(3)))
    level1 = data["level1"]
    if fault == "unknown-composite":
        row = next(r for r in level1["compose"] if r[:2] == ["(0, 1, 2)", "(0, 1, 2)"])
        row[2] = "nope"
    else:
        level1["arrows"].append({"id": "z", "src": "*", "tgt": "nowhere"})
    path = tmp_path / "input.json"
    if route == "algebra-from":
        path.write_text(json.dumps({"objects": data["objects"], **level1}))
        argv = ["algebra", "--from", str(path)]
    else:
        path.write_text(json.dumps(data))
        space = tmp_path / "circle.json"
        space.write_text(dump_json(simpset_to_json(circle())))
        argv = ["colour-count", "--space", str(space), "--algebra", str(path)]
    code, err = _exit_code_and_stderr(argv)
    assert code == 2 and message in err and "identity" not in err


def test_ext_groupoid_output_reads_back_as_a_groupoid_file(files, tmp_path, capsys):
    """`algebra --from` on the torus x 0:Z2->Z2 groupoid: 256 arrows, validated, dimension 256."""
    code, out = run_cli(capsys, "ext-groupoid", "--space", files["torus"], "--algebra", files["xmod"])
    assert code == 0
    path = tmp_path / "groupoid.json"
    path.write_text(out)
    code, out = run_cli(capsys, "algebra", "--from", str(path))
    assert code == 0 and json.loads(out)["dimension"] == 256


def test_byte_identical_reruns(files, capsys):
    args = ["state-space", "--space", files["torus"], "--algebra", files["s3"]]
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


DANGLING_EDGE = {
    "generators": [{"id": "v", "dim": 0}, {"id": "e", "dim": 1}],
    "faces": [{"of": "e", "i": 0, "core": "v"}, {"of": "e", "i": 1, "core": "w"}],
}


@pytest.mark.parametrize("tags", [None, {"in": ["v"], "out": []}])
def test_space_with_dangling_face_exits_2(files, tmp_path, capsys, tags):
    bad = tmp_path / "dangling.json"
    bad.write_text(json.dumps(dict(DANGLING_EDGE, tags=tags) if tags else DANGLING_EDGE))
    code, err = _exit_code_and_stderr(["colour-count", "--space", str(bad), "--algebra", files["z2"]])
    assert code == 2
    assert "dangling face reference" in err and "Traceback" not in err


def test_space_with_unknown_tagged_generator_exits_2(files, tmp_path, capsys):
    bad = tmp_path / "unknown-tag.json"
    data = simpset_to_json(circle())
    data["tags"] = {"in": ["zz"], "out": []}
    bad.write_text(json.dumps(data))
    code, err = _exit_code_and_stderr(["colour-count", "--space", str(bad), "--algebra", files["z2"]])
    assert code == 2
    assert "'in'" in err and "'zz'" in err
    assert "Traceback" not in err


def test_group_product_outside_elements_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad-group.json"
    bad.write_text(json.dumps({"elements": ["a", "b"], "table": [["a", "b"], ["b", "c"]]}))
    code, err = _exit_code_and_stderr(["chi-pi", "--algebra", str(bad)])
    assert code == 2
    assert "product outside element set" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--input", "{bad}"],
        ["colour-count", "--space", "{bad}", "--algebra", "{z2}"],
        ["colour-count", "--space", "{circle}", "--algebra", "{bad}"],
        ["algebra", "--from", "{bad}"],
        ["double", "--group", "{bad}"],
        ["chi-pi", "--algebra", "{bad}"],
    ],
    ids=lambda argv: " ".join(argv[::2]),
)
def test_input_that_is_not_utf8_exits_2(files, tmp_path, argv):
    """A file starting with the bytes ff fe (a UTF-16 mark) cannot be read as UTF-8 JSON."""
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, err = _exit_code_and_stderr([a.format(bad=bad, **files) for a in argv])
    assert code == 2 and f"cannot read {bad}: 'utf-8' codec can't decode" in err
    assert "Traceback" not in err


def test_unwritable_out_exits_2(files, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, out, err = _run(
        ["colour-list", "--space", files["circle"], "--algebra", files["z2"], "--out", str(path)]
    )
    assert code == 2 and out == "" and not path.exists()
    assert err.startswith(f"error: cannot write {path}: ") and "Traceback" not in err


def _raise_memory_error(*args, **kwargs):
    raise MemoryError


def test_running_out_of_memory_in_a_command_exits_5(files, tmp_path, monkeypatch):
    """A MemoryError raised while the command computes ends in one `error:` line and
    exit 5, with nothing on stdout and no `--out` file."""
    options = COMMANDS["ext-groupoid"][2]
    monkeypatch.setitem(COMMANDS, "ext-groupoid", (None, _raise_memory_error, options))
    path = tmp_path / "x.json"
    argv = ["ext-groupoid", "--space", files["circle"], "--algebra", files["s3"]]
    for extra in ([], ["--out", str(path)]):
        assert _run([*argv, *extra]) == (5, "", "error: out of memory in ext-groupoid\n")
        assert not path.exists()


@pytest.mark.parametrize("error, code", [(MemoryError, 5), (OSError, 2)])
def test_an_error_while_writing_out_removes_the_file(files, tmp_path, monkeypatch, error, code):
    """A writer that fails after its first piece leaves no partial `--out` file, also
    where the path held a file before."""
    import quinncalc.cli

    def cut_short(data, write):
        write('{"dimension": ')
        raise error("cut short")

    monkeypatch.setattr(quinncalc.cli, "write_json", cut_short)
    path = tmp_path / "x.json"
    path.write_text("old")
    got, out, err = _run(["algebra", "--from", files["s3"], "--out", str(path)])
    assert (got, out) == (code, "") and not path.exists()
    want = "error: out of memory in algebra\n" if code == 5 else f"error: cannot write {path}: cut short\n"
    assert err == want


def test_a_reader_that_stops_early_ends_the_output_quietly(files):
    """`quinncalc ... | head`: the 5.6 MB document outgrows the pipe, and the command exits 0
    with nothing on stderr when the reader closes it."""
    argv = ["ext-groupoid", "--space", files["prism-circle"], "--algebra", files["s3"]]
    proc = subprocess.Popen(
        [sys.executable, "-m", "quinncalc", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert proc.stdout.read(10) == b'{\n  "arrow'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0 and err == b""


PARSER_ARGVS = [
    [], ["--help"], ["-h"], ["bogus"], ["colour-count"], ["colour-count", "--help"],
    ["colour-count", "--space", "a"], ["colour-count", "--space", "a", "--algebra", "b", "extra"],
    ["quinn-matrix", "--cobordism", "a", "--algebra", "b", "--format", "xml"],
    ["validate", "--input"], ["catalog", "--algebras", "--bogus"], ["--help", "colour-count"],
    ["chi-pi", "-h"], ["double", "--group"],
]


def _parsed(parse, argv):
    """(exit code, stdout, stderr) of `parse(argv)`, which argparse ends with SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as stop:
            parse(argv)
    return stop.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_main_prints_what_the_full_parser_prints(argv):
    """Usage, help and error texts do not depend on how many subparsers `main` builds."""
    assert _parsed(main, argv) == _parsed(build_parser().parse_args, argv)


def test_a_command_builds_only_its_own_parser(files, monkeypatch):
    """Each call builds the parser of its command again, and no other: none is kept across calls."""
    built, add_parser = [], argparse._SubParsersAction.add_parser
    monkeypatch.setattr(
        argparse._SubParsersAction, "add_parser",
        lambda self, name, **kwargs: built.append(name) or add_parser(self, name, **kwargs),
    )
    for _ in range(2):
        assert _run(["chi-pi", "--algebra", files["s3"]])[0] == 0
    assert built == ["chi-pi", "chi-pi"]
    _parsed(main, ["-h"])
    assert built[2:] == list(COMMANDS)


@lru_cache(maxsize=None)
def _catalog():
    """The catalog spaces and corpus algebras as JSON data, one entry per name."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["catalog", "--algebras"]) == 0
    return json.loads(out.getvalue())


def _run(argv):
    """(exit code, stdout, stderr) of the CLI on argv, in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _exit_code_and_stderr(argv):
    """The exit code and stderr of the CLI on argv, run once to stdout and once with `--out`.

    Both runs exit alike, and the file holds what stdout got.  A run that
    exits 2, 3 or 4 writes nothing to stdout and leaves no `--out` file, so
    every error is raised before the first write; the one exception is the
    verdict `validate` writes on an input that fails its checks.
    """
    code, out, err = _run(argv)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        assert _run([*argv, "--out", str(path)])[:2] == (code, "")
        written = path.read_text(encoding="utf-8") if path.exists() else None
    if code in (2, 3, 4) and not (argv[0] == "validate" and out and not json.loads(out)["ok"]):
        assert out == "" and written is None, (argv, code, out[:200])
    else:
        assert written == out, argv
    return code, err


@pytest.mark.parametrize(
    "space, algebra, target, edit, message",
    [
        ("circle", "z2", "space", {"tags": ["in"]}, "simplicial set schema"),
        (
            "sphere2",
            "z2",
            "space",
            {"faces": [{"of": "c", "i": i, "core": "v", "deg": [5]} for i in range(3)]},
            "degeneracy index out of range",
        ),
        ("circle", "z2", "algebra", {"table": 5}, "group table must be square"),
        (
            "circle",
            "xmod-z2-z2-zero",
            "algebra",
            {"boundary": [["0", "0"], ["1", "7"]]},
            "level 2 boundary value outside level 1",
        ),
        ("point", "z2", "space", {"generators": [{"dim": -1, "id": "v"}]}, "negative generator dimension"),
        ("circle", "z2", "space", {"tags": {"in": ["e"]}}, "'in' is not closed under faces: 'e' has face 'v'"),
        (
            "circle",
            "z2",
            "algebra",
            {
                "objects": ["x", "y"],
                "level1": {
                    "arrows": [{"id": "a", "src": "x", "tgt": "x"}],
                    "compose": [["a", "a", "a"]],
                    "inv": [["a", "a"]],
                },
            },
            "level 1 lacks an identity at object 'y'",
        ),
        ("circle", "z2", "space", {"tags": {"in": "ve", "out": []}},
         "tag 'in' must be a list of generators, not str"),
        ("circle", "z2", "space", {"tags": {"in": "abc", "out": []}},
         "tag 'in' must be a list of generators, not str"),
        ("circle", "z2", "space", {"tags": ["in"]}, "'tags' must be an object, not list"),
        ("circle", "z2", "space", {"tags": {"in": [], "out": [], "extra": 5}},
         "tag 'extra' must be a list of generators, not int"),
    ],
)
def test_malformed_inputs_exit_2(tmp_path, space, algebra, target, edit, message):
    """A tag list, a degeneracy past its simplex, a non-list group table, a boundary outside G,
    a negative dimension, a tag missing a face, an object without an identity arrow, and tag
    values that are strings or numbers rather than lists."""
    catalog = _catalog()
    inputs = {"space": dict(catalog[space]), "algebra": dict(catalog["algebras"][algebra])}
    inputs[target].update(edit)
    for name, value in inputs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(value))
    code, err = _exit_code_and_stderr(
        ["colour-count", "--space", str(tmp_path / "space.json"),
         "--algebra", str(tmp_path / "algebra.json")]
    )
    assert code == 2 and message in err


REPEATED_OBJECT = {
    "objects": ["a", "a"],
    "level1": {
        "arrows": [{"id": "i", "src": "a", "tgt": "a"}],
        "compose": [["i", "i", "i"]],
        "inv": [["i", "i"]],
    },
    "truncation": 1,
}


@pytest.mark.parametrize(
    "command", ["validate", "colour-count", "chi-pi", "ext-groupoid", "profunctor", "algebra"]
)
def test_a_repeated_object_id_exits_2(tmp_path, command):
    """An object listed twice is malformed before any work: `validate` reports it with the
    id as witness, and every other command exits 2 with a message that names it."""
    catalog = _catalog()
    algebra, groupoid = tmp_path / "algebra.json", tmp_path / "groupoid.json"
    algebra.write_text(json.dumps(REPEATED_OBJECT))
    groupoid.write_text(json.dumps({"objects": REPEATED_OBJECT["objects"], **REPEATED_OBJECT["level1"]}))
    for name in ("circle", "prism-circle"):
        (tmp_path / f"{name}.json").write_text(json.dumps(catalog[name]))
    argv = {
        "validate": ["--input", algebra],
        "colour-count": ["--space", tmp_path / "circle.json", "--algebra", algebra],
        "chi-pi": ["--algebra", algebra],
        "ext-groupoid": ["--space", tmp_path / "circle.json", "--algebra", algebra],
        "profunctor": ["--cobordism", tmp_path / "prism-circle.json", "--algebra", algebra],
        "algebra": ["--from", groupoid],
    }[command]
    argv = [command, *map(str, argv)]
    code, err = _exit_code_and_stderr(argv)
    assert code == 2
    if command == "validate":
        out = json.loads(_run(argv)[1])
        assert (out["ok"], out["kind"], out["witness"]) == (False, "malformed", ["a"])
    else:
        assert "'a'" in err


@pytest.mark.parametrize("i", [7, 2, -1])
@pytest.mark.parametrize("deg", [True, False])
def test_a_face_index_out_of_range_exits_2(tmp_path, i, deg):
    """An extra face row of the edge 'a' of the torus, at an index outside 0..1."""
    catalog = _catalog()
    space = copy.deepcopy(catalog["torus"])
    space["faces"].append({"of": "a", "i": i, "core": "v", **({"deg": []} if deg else {})})
    (tmp_path / "space.json").write_text(json.dumps(space))
    (tmp_path / "algebra.json").write_text(json.dumps(catalog["algebras"]["z2"]))
    for command in ("colour-count", "state-space"):
        code, err = _exit_code_and_stderr(
            [command, "--space", str(tmp_path / "space.json"), "--algebra", str(tmp_path / "algebra.json")]
        )
        assert code == 2 and f"face index out of range (witness ('a', {i}))" in err
    code, out, _ = _run(["validate", "--input", str(tmp_path / "space.json")])
    assert code == 2 and json.loads(out)["message"] == "face index out of range"


def test_a_table_that_is_not_square_names_its_group_and_row(tmp_path):
    catalog = _catalog()
    algebra = copy.deepcopy(catalog["algebras"]["xmod-z4-z2-zero"])
    algebra["G"]["table"][2] = algebra["G"]["table"][2][:3]
    (tmp_path / "space.json").write_text(json.dumps(catalog["circle"]))
    (tmp_path / "algebra.json").write_text(json.dumps(algebra))
    code, err = _exit_code_and_stderr(
        ["colour-count", "--space", str(tmp_path / "space.json"), "--algebra", str(tmp_path / "algebra.json")]
    )
    assert code == 2
    assert "must be square over the element list: group 'Z4', row 2 has 3 entries for 4 elements" in err


def _append(*path, row):
    """An edit of {"space": ..., "algebra": ...} that appends `row` to the list at `path`."""

    def edit(inputs):
        node = inputs
        for key in path:
            node = node[key]
        node.append(copy.deepcopy(node[0]) if row is None else row)

    return edit


def _set(*path, value):
    """An edit that sets the node at `path` to `value`."""

    def edit(inputs):
        node = inputs
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return edit


@pytest.mark.parametrize(
    "space, algebra, edit, message",
    [
        pytest.param(
            "circle", "xmod-z2-z2-zero", _append("algebra", "boundary", row=["1", "1"]),
            "crossed module boundary key '1' given twice", id="xmod-boundary",
        ),
        pytest.param(
            "circle", "xmod-z2-z2-zero", _append("algebra", "action", row=["1", "1", "1"]),
            "crossed module action key ('1', '1') given twice", id="xmod-action",
        ),
        pytest.param(
            "circle", "xmod-z2-z2-zero", _set("algebra", "boundary", 1, value=["1"]),
            "crossed module boundary row ['1'] must have 2 entries", id="xmod-boundary-arity",
        ),
        pytest.param(
            "circle", "xmod-z2-z2-zero", _set("algebra", "action", 0, value=["0", "0"]),
            "crossed module action row ['0', '0'] must have 3 entries", id="xmod-action-arity",
        ),
        pytest.param(
            "delta2", "z2",
            _append("space", "faces", row={"of": "(0,1)", "i": 0, "core": "(0)", "deg": []}),
            "face (of, i) ('(0,1)', 0) given twice", id="face",
        ),
        pytest.param(
            "circle", "z2", _append("space", "generators", row={"id": "v", "dim": 1}),
            "generator id 'v' given twice", id="generator",
        ),
        pytest.param(
            "circle", "abelian-tower", _append("algebra", "level1", "arrows", row=None),
            "level 1 arrow id '0' given twice", id="arrow",
        ),
        pytest.param(
            "circle", "abelian-tower", _append("algebra", "level1", "compose", row=["0", "0", "1"]),
            "level 1 compose key ('0', '0') given twice", id="compose",
        ),
        pytest.param(
            "circle", "abelian-tower", _append("algebra", "level1", "inv", row=["0", "1"]),
            "level 1 inv key '0' given twice", id="inv",
        ),
        pytest.param(
            "circle", "abelian-tower", _append("algebra", "levels", row=None),
            "level 2 given twice", id="level",
        ),
        pytest.param(
            "circle", "abelian-tower", _append("algebra", "levels", 1, "boundary", row=None),
            "level 3 boundary key '*:0' given twice", id="level-boundary",
        ),
        pytest.param(
            "circle", "abelian-tower", _append("algebra", "levels", 1, "action", row=None),
            "level 3 action key ('*:0', '0') given twice", id="level-action",
        ),
        pytest.param(
            "circle", "z2", _set("algebra", "elements", value=["0", "0"]),
            "duplicate element ids (witness ('0',))", id="group-element",
        ),
    ],
)
def test_repeated_rows_and_rows_of_the_wrong_length_exit_2(tmp_path, space, algebra, edit, message):
    """A key given twice, where a later row would silently replace the first, and a row with
    too few or too many entries are schema errors that name them."""
    catalog = _catalog()
    algebras = {**catalog["algebras"], **_towers()}
    inputs = {"space": copy.deepcopy(catalog[space]), "algebra": copy.deepcopy(algebras[algebra])}
    edit(inputs)
    for name, value in inputs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(value))
    code, err = _exit_code_and_stderr(
        ["state-space", "--space", str(tmp_path / "space.json"),
         "--algebra", str(tmp_path / "algebra.json")]
    )
    assert code == 2 and message in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["state-space", "colour-count"])
@pytest.mark.parametrize("truncation", [0, -1])
def test_truncation_below_1_exits_2(files, tmp_path, command, truncation):
    """A full crossed-complex file truncated below level 1 is rejected on load."""
    data = crossed_complex_to_json(iota2(crossed_module_zero(cyclic_group(2), cyclic_group(2))))
    data["truncation"] = truncation
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data))
    code, err = _exit_code_and_stderr(
        [command, "--space", files["circle"], "--algebra", str(path)]
    )
    assert code == 2 and f"truncation {truncation} is below 1" in err
    assert "Traceback" not in err


def _paths(node, path=()):
    """Every position in a JSON tree, as a tuple of keys and indices."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for k, child in items:
        yield from _paths(child, path + (k,))


def _mutate(data, draw):
    """One random edit: drop, rename, renumber, truncate or retype a node."""
    paths = list(_paths(data))[1:]
    if not paths:
        return
    path = draw(st.sampled_from(paths), label="path")
    *parent_path, key = path
    parent = data
    for k in parent_path:
        parent = parent[k]
    node = parent[key]
    ops = ["drop", "retype"]
    if isinstance(node, str):
        ops.append("rename")
    if isinstance(node, int) and not isinstance(node, bool):
        ops.append("renumber")
    if isinstance(node, list):
        ops.append("truncate")
    op = draw(st.sampled_from(ops), label="op")
    if op == "drop":
        del parent[key]
    elif op == "rename":
        parent[key] = node + draw(st.sampled_from(["'", "x"]), label="suffix")
    elif op == "renumber":
        parent[key] = draw(st.integers(-2, 5), label="number")
    elif op == "truncate":
        parent[key] = node[: draw(st.integers(0, max(len(node) - 1, 0)), label="length")]
    else:
        parent[key] = draw(st.sampled_from([5, "x", [], {}, None, ["in"]]), label="value")


def _assert_mutated_inputs_exit_cleanly(inputs, targets, edits, draw, commands):
    """Mutate the JSON `inputs` ("space", "algebra"), run `commands(files)` on them, and require
    exit 0, 2, 3 or 4."""
    inputs = copy.deepcopy(inputs)
    for name in ("space", "algebra") if targets == "both" else (targets,):
        for _ in range(edits):
            _mutate(inputs[name], draw)
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, value in inputs.items():
            files[name] = str(Path(tmp) / f"{name}.json")
            Path(files[name]).write_text(json.dumps(value))
        for argv in commands(files):
            code, err = _exit_code_and_stderr(argv)
            assert code in {0, 2, 3, 4}, (argv, code, err)


# groupoid files, which only `algebra --from` reads
GROUPOID_FILES = {"pair-groupoid-2": groupoid_to_json(pair_groupoid(2))}


def _assert_mutated_catalog_exits_cleanly(space, algebra, targets, edits, draw, commands):
    """`_assert_mutated_inputs_exit_cleanly` on a catalog space and a corpus algebra or groupoid file."""
    catalog = _catalog()
    algebras = {**catalog["algebras"], **GROUPOID_FILES}
    inputs = {"space": catalog[space], "algebra": algebras[algebra]}
    _assert_mutated_inputs_exit_cleanly(inputs, targets, edits, draw, commands)


FUZZ_SPACES = ["point", "interval", "circle", "sphere2", "torus", "delta2", "prism-point", "prism-circle"]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    space=st.sampled_from(FUZZ_SPACES),
    algebra=st.sampled_from(
        ["z2", "z3", "s3", "xmod-z2-z2-zero", "xmod-z2-id", "xmod-z4-z2-zero", "pair-groupoid-2"]
    ),
    targets=st.sampled_from(["space", "algebra", "both"]),
    edits=st.integers(1, 3),
    data=st.data(),
)
def test_mutated_catalog_json_never_ends_in_a_traceback(space, algebra, targets, edits, data):
    """Mutated catalog inputs exit 0, 2, 3 or 4; any other exception fails the test."""
    _assert_mutated_catalog_exits_cleanly(space, algebra, targets, edits, data.draw, lambda files: [
        ["validate", "--input", files["space"]],
        ["validate", "--input", files["algebra"]],
        ["chi-pi", "--algebra", files["algebra"]],
        ["algebra", "--from", files["algebra"]],
        ["colour-count", "--space", files["space"], "--algebra", files["algebra"]],
    ])


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    space=st.sampled_from(["point", "interval", "circle", "prism-point"]),
    algebra=st.sampled_from(["z2", "z3", "s3", "xmod-z2-z2-zero"]),
    targets=st.sampled_from(["space", "algebra", "both"]),
    edits=st.integers(1, 3),
    data=st.data(),
)
def test_mutated_catalog_json_never_ends_in_a_traceback_in_groupoid_commands(
    space, algebra, targets, edits, data
):
    """The groupoid and cobordism subcommands on mutated inputs exit 0, 2, 3 or 4."""
    _assert_mutated_catalog_exits_cleanly(space, algebra, targets, edits, data.draw, lambda files: [
        [command, flag, files["space"], "--algebra", files["algebra"]]
        for command, flag in (
            ("ext-groupoid", "--space"),
            ("state-space", "--space"),
            ("profunctor", "--cobordism"),
            ("quinn-matrix", "--cobordism"),
            ("nat-transform", "--space"),
        )
    ])


@lru_cache(maxsize=None)
def _towers():
    """The two truncation-3 towers as full crossed-complex files."""
    return {
        "abelian-tower": crossed_complex_to_json(abelian_tower()),
        "inversion-tower": crossed_complex_to_json(inversion_tower()),
    }


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    space=st.sampled_from(["point", "interval", "circle", "sphere2", "prism-point"]),
    tower=st.sampled_from(["abelian-tower", "inversion-tower"]),
    edits=st.integers(1, 3),
    data=st.data(),
)
def test_mutated_tower_json_never_ends_in_a_traceback(space, tower, edits, data):
    """Mutated full crossed-complex files exit 0, 2, 3 or 4 in every command that loads them."""
    inputs = {"space": _catalog()[space], "algebra": _towers()[tower]}
    _assert_mutated_inputs_exit_cleanly(inputs, "algebra", edits, data.draw, lambda files: [
        ["validate", "--input", files["algebra"]],
        *(
            [command, "--space", files["space"], "--algebra", files["algebra"]]
            for command in ("colour-count", "state-space", "ext-groupoid")
        ),
    ])


@pytest.mark.parametrize(
    "tower, edit, message",
    [
        pytest.param(
            "abelian-tower",
            lambda data: data.update(levels=None),
            "'levels' must be a list of levels",
            id="null-levels",
        ),
        pytest.param(
            "inversion-tower",
            lambda data: data["levels"][1].update(groups=["in"]),
            "crossed complex level 3 schema",
            id="groups-not-an-object",
        ),
        pytest.param(
            "abelian-tower",
            lambda data: data["levels"][0].update(n="x"),
            "crossed complex levels[0] schema",
            id="n-not-a-number",
        ),
    ],
)
@pytest.mark.parametrize("command", ["validate", "colour-count", "state-space"])
def test_malformed_tower_levels_exit_2(files, tmp_path, tower, edit, message, command):
    """A null level list, a level whose groups are not an object, a level whose n is not a number."""
    data = copy.deepcopy(_towers()[tower])
    edit(data)
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data))
    if command == "validate":
        argv = ["validate", "--input", str(path)]
    else:
        argv = [command, "--space", files["circle"], "--algebra", str(path)]
    code, err = _exit_code_and_stderr(argv)
    assert code == 2 and message in err and "Traceback" not in err


def test_console_entrypoint_runs():
    for module in ("quinncalc.cli", "quinncalc"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "catalog"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, (module, proc.stderr)
        assert "circle" in proc.stdout


# sha256 of "<exit code>\n<stdout>" for runs whose bytes no other tier-1 test
# pins: profunctor actions, algebra triples, the double's verdict, the
# window blocks and verdicts of nat-transform, colour lists of 108 to
# 2 048 colourings, and groupoids of 256 to 1 296 arrows.  The output does
# not depend on PYTHONHASHSEED.
PINNED_RUNS = {
    "profunctor prism-point z2":
        "832e75f7652288cf34887e703792a3a3f6adeed05959ec39e90e6975565068cd",
    "profunctor prism-point s3":
        "b9bd58d36cfe4a55c78988220edd78826e982a3b62503c184bf87cfde1c67261",
    "profunctor prism-point xmod-z2-id":
        "611abb2246c632fdf1695a1dc892426270bedb1bb55b0ae5df7933425f1a4fe7",
    "profunctor prism-circle z2":
        "252dc0191ae42f9fa98dd1ea6b5ead43c4c76c164ff54638668a15ef6a494726",
    "profunctor prism-circle s3":
        "5f39040438ec8419a028afde46ece4a35b8cafda539cc8c37546576287256cf5",
    "profunctor prism-circle xmod-z2-id":
        "44c208da2c69da33dcc02b03466e09de3649dfaffbe3d069148303e00d4d24b9",
    "profunctor prism-circle z3":
        "a9431a85426b22942103759e2f8c5e61205a959f50fc4abf0ce243637312ee8c",
    "profunctor prism-circle z4":
        "704be9349623c46423e3904433f3e679ca605108f45e51ee18a79ae310f45241",
    "profunctor prism-circle xmod-z2-z2-zero":
        "29ff7244c47416529e36ac67f1d417949f3b984838cb24788a613bb7619e5b47",
    "profunctor prism-circle xmod-z4-z2-zero":
        "16254d00a1502f0a0c99aa3e8ee0684c33503081ab12590d05a7ed1aa611ebd6",
    "profunctor prism-torus z2":
        "71fe3bb5968916750601a2a141a833ecf78a26fdb49d810ef4f988b3817ef1cf",
    "profunctor prism-torus s3":
        "cb70113f215d0275780d4ee43b8bba745857f02df0eb36459008aacd495593a9",
    "profunctor prism-torus xmod-z2-z2-zero":
        "7b74dd7a6ea84657412a9af7758295cc2401e7a8a77e2e447788027451fc33dc",
    "profunctor prism-torus xmod-z2-id":
        "8749d48f85a9985d3e08de48700236a6acc66f42bda601e14e782be2a879dc65",
    "algebra z2":
        "d506ba8f1f72d361071ace05adb408670e0344c5916687db2bcc3ef7e6cee384",
    "algebra z3":
        "3381d7362392b91c26267c8ce0bee64461c874d294a5840e3f0306ed5080dbd3",
    "algebra s3":
        "537fe4c256f0e6de7f89c4707390398056e7f16cfcf4f3e9b0f717781a39c410",
    "algebra pair-groupoid-2":
        "efd893fe867d055befe13bb291c4c89bc48feece8690915edab03325a0716761",
    "algebra ext-groupoid-circle-z2":
        "4563efbf1d09fab01cf419b33e308cee1dc2510daedc7d42704764e42bdbbb9a",
    "double z3":
        "9e8a3a912434340bab598989be82c2a88a9cf9b80e764f721bc88b414bab17af",
    "double s3":
        "70d22ad8f1a2504659f1dac545dd49d15f34348fb404e256c683c2a7c5d12513",
    "double s4":
        "9dddfa029b789a5d3b1157f673df5b851b8c539908f9a5041be1fe723ff09744",
    "nat-transform point z2":
        "cf82a9bd1cb21039bffba94b62e3979764a6c8ce3b6cea1e3f7065f4bd77a5e5",
    "nat-transform point z3":
        "b33da7cb5f202419b8b22716241b1a91bee084bf0b2b400a429e8a95ed8387c4",
    "nat-transform point z4":
        "d6731b8bd1ce98e8b67380e7707e0714d6c966827c63e28e098edabb5a7d57f0",
    "nat-transform point s3":
        "7ffe1c33371a8c6fdf42812b32c6646ab223233976c9ab7b3caddf5a8daaa554",
    "nat-transform point xmod-z2-z2-zero":
        "cf82a9bd1cb21039bffba94b62e3979764a6c8ce3b6cea1e3f7065f4bd77a5e5",
    "nat-transform point xmod-z2-id":
        "ec0c56ee68a651c5203abc0a7bdad86aa08daee4c5174f6f6cb9e2dda4b4281a",
    "nat-transform point xmod-z4-z2-zero":
        "d6731b8bd1ce98e8b67380e7707e0714d6c966827c63e28e098edabb5a7d57f0",
    "nat-transform circle z2":
        "b9b2dcade966cdc706f6f08efefeda7f41254fda4d2a4f8f56e3c85fbbd674ab",
    "nat-transform circle z3":
        "3e35b4bbdf43f2c2d12490e4ac50998322956f65b829106018697a8c01587832",
    "nat-transform circle z4":
        "89a75e3bd6961ff6c1c7c65f6a49265a86b1cc5fd5d8a5e06e8997ed473810f5",
    "nat-transform circle s3":
        "480bc88e99272123695cb4eb2ebea2341a57f9df64fed6f4a6ce855d3cf0ce50",
    "nat-transform circle xmod-z2-z2-zero":
        "3a1944dfb41131d144a3a3d15e81df4c79b4fd16906ef8fedfc89aeb953f9922",
    "nat-transform circle xmod-z2-id":
        "33644660be8f3738b27e1aeb24faac606c3a69dfa06eea675a66a8cdcdf516a6",
    "nat-transform circle xmod-z4-z2-zero":
        "31763d909e70167c78831377107207f260c0a719cd1acbd1eacd55c0bc3b2909",
    "colour-list prism-torus s3":
        "6a9b76e29a79c29b64778d46090bee2d7e5200488c9dd54cd8ee5f61d1d4867b",
    "colour-list prism-torus xmod-z2-id":
        "018f9ee4943ec9d01b22008beb49de462e5cad3645b6ad7aeffdb80a63a19d81",
    "colour-list prism-torus xmod-z2-z2-zero":
        "98f659a2bc022b3edc2749fd5a3e3c3db68c82ce10468711d423f8baa6a67a6e",
    "colour-list delta3 xmod-z4-z2-zero":
        "3f033f98421034f42cc2463173dd0d7afc235446ebbc095a014844e7b43d4a5a",
    "ext-groupoid prism-circle s3":
        "0ee913ac8f758268e03ea1bdbf491974c85fc66e3b47f4c73bcecb949590460c",
    "ext-groupoid prism-circle z4":
        "fd5bf4c06da77eb5a57e9de5fd1ff1c8cf7d00dcdd74a7b257325c233a1895bf",
    "ext-groupoid torus xmod-z2-z2-zero":
        "686e73040e81c97ee3b8f8965f292e5faa08016068f1c46e1c822585a27edae0",
}


def _pinned_argv(run, files):
    command, *names = run.split()
    if command == "profunctor":
        return ["profunctor", "--cobordism", files[names[0]], "--algebra", files[names[1]]]
    if command == "algebra":
        return ["algebra", "--from", files[names[0]]]
    if command in ("nat-transform", "colour-list", "ext-groupoid"):
        return [command, "--space", files[names[0]], "--algebra", files[names[1]]]
    return ["double", "--group", files[names[0]]]


def test_pinned_outputs_keep_their_bytes(tmp_path):
    catalog = _catalog()
    inputs = {**catalog.pop("algebras"), **catalog, **GROUPOID_FILES, "s4": group_to_json(symmetric_group(4))}
    files = {}
    for name, data in inputs.items():
        files[name] = str(tmp_path / f"{name}.json")
        Path(files[name]).write_text(dump_json(data))
    # a groupoid file as `ext-groupoid` writes it, which `algebra --from` reads back
    files["ext-groupoid-circle-z2"] = str(tmp_path / "ext-groupoid-circle-z2.json")
    argv = ["ext-groupoid", "--space", files["circle"], "--algebra", files["z2"]]
    assert main([*argv, "--out", files["ext-groupoid-circle-z2"]]) == 0
    digests = {}
    for run in PINNED_RUNS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(_pinned_argv(run, files))
        digests[run] = hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()
    assert digests == PINNED_RUNS
