import json
import subprocess
import sys

import pytest

from quinncalc.cli import main
from quinncalc.io import (
    crossed_module_to_json,
    dump_json,
    group_to_json,
    simpset_to_json,
)
from quinncalc.finalg import crossed_module_zero, cyclic_group, symmetric_group
from quinncalc.simpset import circle, prism, torus


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
    code = main(["validate", "--input", str(f)])
    assert code == 2


def test_boundary_mismatch_exit_code(files, capsys):
    code = main(
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
    code = main(["colour-count", "--space", str(bad), "--algebra", files["z2"]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "dangling face reference" in captured.err and "Traceback" not in captured.err


def test_space_with_unknown_tagged_generator_exits_2(files, tmp_path, capsys):
    bad = tmp_path / "unknown-tag.json"
    data = simpset_to_json(circle())
    data["tags"] = {"in": ["zz"], "out": []}
    bad.write_text(json.dumps(data))
    code = main(["colour-count", "--space", str(bad), "--algebra", files["z2"]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "'in'" in captured.err and "'zz'" in captured.err
    assert "Traceback" not in captured.err


def test_group_product_outside_elements_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad-group.json"
    bad.write_text(json.dumps({"elements": ["a", "b"], "table": [["a", "b"], ["b", "c"]]}))
    code = main(["chi-pi", "--algebra", str(bad)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "product outside element set" in captured.err


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "quinncalc.cli", "catalog"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "circle" in proc.stdout
