"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests
"""
import io
import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402
from run import BenchError, check_accounting  # noqa: E402
from tracing import BENCH as ROOT_LAYER, Tracer  # noqa: E402
from worker import EXPECTED, run_jobs  # noqa: E402

SMALL = {
    "homotopy": ["state-space:circle:z2", "state-space:sphere2:xmod-z2-z2-zero",
                 "state-space:torus:z3"],
    "enumerate": ["colour-count:delta2:z3", "colour-count:prism-circle:xmod-z2-id"],
    "cobordism": ["matrix:single:z2", "window:point:z3", "frobenius:s3-conjugation",
                  "double:s3"],
}


def _jobs(name, tmp_path):
    return {job.id: job for job in workloads.setup(name, tmp_path)}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_reduced_job_list_passes_its_exact_checks(name, tmp_path):
    expected = json.loads(EXPECTED.read_text())[name]
    jobs = _jobs(name, tmp_path)
    assert set(jobs) == set(expected)
    rows = run_jobs([jobs[i] for i in SMALL[name]], expected)
    assert [ok for _id, _s, ok, _d in rows] == [True] * len(SMALL[name])


def test_a_wrong_digest_fails_the_job(tmp_path):
    job = _jobs("homotopy", tmp_path)["state-space:circle:z2"]
    (row,) = run_jobs([job], {job.id: "0" * 64}, log=io.StringIO())
    assert row[2] is False


@pytest.mark.parametrize("name", ["enumerate", "homotopy"])
def test_cli_jobs_never_share_an_input(name, tmp_path):
    inputs = [job.inputs for job in workloads.setup(name, tmp_path)]
    assert len(inputs) == len(set(inputs))


def _bindings():
    """Every function-valued attribute of every quinncalc module and class."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "quinncalc":
            continue
        for attr, value in vars(mod).items():
            out[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for meth, fn in vars(value).items():
                    out[(mod_name, attr, meth)] = fn
    return out


def test_wrappers_rebind_every_alias_and_restore_the_originals():
    import quinncalc.extprof
    import quinncalc.homotopy
    import quinncalc.tqft

    before = _bindings()
    original = quinncalc.homotopy.crs_pi1
    with Tracer():
        wrapped = quinncalc.homotopy.crs_pi1
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert quinncalc.tqft.crs_pi1 is wrapped and quinncalc.extprof.crs_pi1 is wrapped
        assert quinncalc.extprof.NatTransform.is_identity is not before[
            ("quinncalc.extprof", "NatTransform", "is_identity")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_nested_self_times_add_up_to_the_outer_span():
    from quinncalc import tqft
    from quinncalc.finalg import cyclic_group, iota1
    from quinncalc.simpset import circle

    X, A = circle(), iota1(cyclic_group(2))
    with Tracer() as t:
        ss = t.run_job("tiny", tqft.state_space, X, A)
    assert ss.dim == 2
    t.check_nesting()
    spans = {s[4]: s for s in t.spans}
    assert [spans[n][3] for n in ("tiny", "state_space", "crs_pi1", "enumerate_colourings")] == [
        ROOT_LAYER, "tqft", "homotopy", "colouring"]
    assert spans["crs_pi1"][1] == spans["state_space"][0]
    assert all(s[2] == "tiny" for s in t.spans)
    selfs = t.self_times()
    outer = spans["tiny"][6] - spans["tiny"][5]
    assert sum(selfs.values()) == pytest.approx(outer, rel=1e-9, abs=1e-12)
    state_space = spans["state_space"][6] - spans["state_space"][5]
    crs = spans["crs_pi1"][6] - spans["crs_pi1"][5]
    assert selfs["tqft"] == pytest.approx(state_space - crs, abs=1e-12)
    metrics = t.layer_metrics()
    assert metrics["homotopy.crs_calls"] == 1
    assert metrics["colouring.enum_calls"] == 1
    assert metrics["trace.unattributed_s"] == pytest.approx(selfs[ROOT_LAYER])


def test_calls_outside_a_job_are_not_recorded():
    from quinncalc import tqft
    from quinncalc.finalg import cyclic_group, iota1
    from quinncalc.simpset import circle

    with Tracer() as t:
        tqft.state_space(circle(), iota1(cyclic_group(2)))
    assert t.spans == [] and t.layer_metrics()["homotopy.crs_calls"] == 0


def test_a_missing_entry_point_leaves_its_metrics_absent(monkeypatch):
    import quinncalc.homotopy

    monkeypatch.delattr(quinncalc.homotopy, "rel_classes")
    with Tracer() as t:
        pass
    metrics = t.layer_metrics()
    assert "homotopy.rel_calls" not in metrics and "homotopy.rel_classes_out" not in metrics
    assert "homotopy.crs_calls" in metrics


def test_a_result_of_another_shape_leaves_its_metrics_absent(monkeypatch):
    import quinncalc.tqft
    from quinncalc.finalg import cyclic_group, iota1
    from quinncalc.simpset import circle

    monkeypatch.setattr(quinncalc.tqft, "quinn_matrix", lambda *args: None)
    with Tracer() as t:
        t.run_job("odd", quinncalc.tqft.quinn_matrix, circle(), iota1(cyclic_group(2)))
    assert "tqft.matrix_entries" not in t.layer_metrics()


def test_the_accounting_check_catches_a_lost_span(tmp_path):
    with Tracer() as t:
        t0 = time.perf_counter()
        jobs = {job.id: job for job in t.run_job("setup", workloads.setup, "homotopy", tmp_path)}
        setup_call_s = time.perf_counter() - t0
        rows = run_jobs([jobs[i] for i in SMALL["homotopy"]], None, t)
    traced = {"layers": t.layer_metrics(), "setup_call_s": setup_call_s, "jobs": rows}
    check_accounting(traced)

    # lose the spans of the heaviest job
    heaviest = max((s for s in t.spans if s[1] is None), key=lambda s: s[6] - s[5])
    t.spans[:] = [s for s in t.spans if s[2] != heaviest[2]]
    with pytest.raises(BenchError, match="self times sum to"):
        check_accounting(dict(traced, layers=t.layer_metrics()))
