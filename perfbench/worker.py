"""One pass of a workload in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --mode pass|setup|trace

``setup`` builds the inputs and stops; ``pass`` also runs every job once, in
the order the seed gives; ``trace`` runs the pass under the tracer and
writes its spans to ``spans_path(workload, seed)``.  The last line of stdout
is one JSON object.  Times of the set-up end are ``time.monotonic()``
readings (CLOCK_MONOTONIC, shared by all processes on Linux), so run.py can
measure set-up from before it started this interpreter.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
OUT = HERE / "out"


def spans_path(workload, seed) -> Path:
    return OUT / f"spans-{workload}-seed{seed}.jsonl"


def job_order(jobs, seed):
    """The seed permutes the job order; outputs do not depend on it."""
    order = list(jobs)
    random.Random(seed).shuffle(order)
    return order


def run_jobs(jobs, expected, tracer=None, log=sys.stderr):
    """Run each job once; return [job id, seconds, ok, digest] per job.

    A job fails when it raises, when its output's digest differs from the
    expected one, or when its invariant does not hold.  With ``expected``
    None the digest is recorded instead of compared.
    """
    rows = []
    for job in jobs:
        gc.collect()  # each job starts from a collected heap, whatever ran before
        t0 = time.perf_counter()
        try:
            result = tracer.run_job(job.id, job.run) if tracer else job.run()
        except Exception:
            seconds = time.perf_counter() - t0
            print(f"job {job.id} raised:\n{traceback.format_exc()}", file=log)
            rows.append([job.id, seconds, False, None])
            continue
        seconds = time.perf_counter() - t0
        digest = job.digest(result)
        ok = bool(job.invariant(result))
        if not ok:
            print(f"job {job.id}: invariant does not hold", file=log)
        if expected is not None and digest != expected.get(job.id):
            print(f"job {job.id}: output digest {digest} differs from the expected "
                  f"{expected.get(job.id)}", file=log)
            ok = False
        del result
        rows.append([job.id, seconds, ok, digest])
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["pass", "setup", "trace"], required=True)
    args = p.parse_args(argv)

    import quinncalc

    src = (ROOT / "src").resolve()
    if src not in Path(quinncalc.__file__).resolve().parents:
        print(f"quinncalc was imported from {quinncalc.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    import workloads

    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer().__enter__()

    work = HERE / "_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        if tracer:
            jobs = tracer.run_job("setup", workloads.setup, args.workload, work)
        else:
            jobs = workloads.setup(args.workload, work)
        # the set-up call alone, timed outside the tracer's spans
        out = {"ready": time.monotonic(), "setup_call_s": time.perf_counter() - t0, "jobs": []}
        if args.mode != "setup":
            expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[args.workload]
            out["jobs"] = run_jobs(job_order(jobs, args.seed), expected, tracer)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.__exit__(None, None, None)
            tracer.check_nesting()
            out["layers"] = tracer.layer_metrics()
            OUT.mkdir(exist_ok=True)
            tracer.write_spans(spans_path(args.workload, args.seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
