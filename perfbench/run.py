"""quinncalc benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload enumerate|homotopy|cobordism|all \
        --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it uses the quinncalc sources under
the checkout's ``src``.  Every pass of the workload's job list runs in a
fresh interpreter (worker.py), one job at a time.  The seed only permutes the
job order, so compare two commits on the same seed.

``--trace 0`` makes passes until the next would end after ``--seconds``
(always at least one), then set-up-only interpreters until there are eleven
set-up samples, and reports the medians of the end-to-end metrics.
``--trace 1`` makes one pass with tracing off and one traced pass, and
reports the per-layer metrics and the ratio of the two passes' job times.
The last line of stdout is the result object; the full record goes to
``perfbench/out/``.  ``--workload all`` runs the workloads one after another
and ends with one object whose metric names carry the workload's prefix.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import OUT, spans_path
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 11
RUN_LIMIT_S = 170  # a run ends within this, whatever --seconds says


class BenchError(Exception):
    pass


def source_digest() -> str:
    """sha256 over the program's sources, for a checkout that is not a git repo."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout's own .git, read without running git, or None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_worker(workload, seed, mode, deadline) -> dict:
    """Start one worker interpreter, wait for it, return its result object."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} worker for {workload} ran past the run's time limit")
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"{mode} worker for {workload} exited with {proc.returncode}")
    out = json.loads(stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - started
    out["pass_s"] = time.monotonic() - started
    return out


def job_stats(passes):
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(1 for p in passes for _id, _s, ok, _d in p["jobs"] if not ok)
    return attempted, failed


def wall(p) -> float:
    return sum(s for _id, s, _ok, _d in p["jobs"])


def measure(workload, seed, seconds, deadline):
    passes, setups = [], []
    start = time.monotonic()
    while True:
        p = run_worker(workload, seed, "pass", deadline)
        passes.append(p)
        setups.append(p["setup_s"])
        if time.monotonic() + p["pass_s"] > start + seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(workload, seed, "setup", deadline)["setup_s"])
    attempted, failed = job_stats(passes)
    metrics = {
        "wall_s": (statistics.median(wall(p) for p in passes), "s"),
        "max_job_s": (statistics.median(max(j[1] for j in p["jobs"]) for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return metrics, attempted, failed, {"passes": passes, "setups": setups}


def check_accounting(traced) -> None:
    """Raise unless the layer self times account for the traced pass.

    The self times plus ``trace.unattributed_s`` come from the spans; they
    must add up to the set-up call and the job times, which the worker
    measures with its own clock around the root spans.  The tolerance is
    0.1 % plus 1 ms per root span, for the tracer's own work at the roots.
    """
    layers = traced["layers"]
    spans_s = layers["trace.unattributed_s"] + sum(
        v for k, v in layers.items() if k.endswith(".self_s"))
    measured_s = traced["setup_call_s"] + wall(traced)
    tolerance = 1e-3 * measured_s + 1e-3 * (1 + len(traced["jobs"]))
    if abs(spans_s - measured_s) > tolerance:
        raise BenchError(f"layer self times sum to {spans_s:.6f} s, but set-up and jobs "
                         f"took {measured_s:.6f} s")


def measure_traced(workload, seed, deadline):
    plain = run_worker(workload, seed, "pass", deadline)
    traced = run_worker(workload, seed, "trace", deadline)
    check_accounting(traced)
    layers = traced["layers"]
    layers["trace.overhead_ratio"] = wall(traced) / wall(plain)
    units = {"_s": "s", "ratio": "ratio"}
    metrics = {}
    for name, value in layers.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        metrics[name] = (value, unit)
    attempted, failed = job_stats([plain, traced])
    return metrics, attempted, failed, {"passes": [plain, traced],
                                        "spans": str(spans_path(workload, seed))}


def run_workload(workload, args) -> dict:
    """Measure one workload, print its metrics and meta line, return its result."""
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        metrics, attempted, failed, detail = measure_traced(workload, args.seed, deadline)
    else:
        metrics, attempted, failed, detail = measure(workload, args.seed, args.seconds, deadline)
    meta = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    for name, (value, unit) in metrics.items():
        print(f"{workload:10s} {name:32s} {value:14.6g} {unit}")
    print(json.dumps({"meta": meta}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "result": result, **detail}, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not (SRC / "quinncalc" / "__init__.py").is_file():
        print(f"no quinncalc sources under {SRC}", file=sys.stderr)
        return 2
    # byte-compile once, untimed, so every interpreter imports from the cache
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("quinncalc sources do not compile", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args) for name in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (final,) = results.values()
    else:  # every workload: metric names are prefixed with the workload's
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
