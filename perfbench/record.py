"""Record the expected output digest of every job from the current code.

    python3 perfbench/record.py [WORKLOAD ...]

Run it at the commit whose outputs are the reference.  It runs each job
once, asserts every job's invariant, and rewrites expected.json for the
named workloads (all by default).
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from worker import EXPECTED, run_jobs  # noqa: E402


def main(names) -> int:
    expected = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    for name in names or workloads.WORKLOADS:
        (HERE / "_work").mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(dir=HERE / "_work"))
        try:
            rows = run_jobs(workloads.setup(name, work), None)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        bad = [job_id for job_id, _s, ok, _d in rows if not ok]
        if bad:
            print(f"{name}: invariants fail for {bad}", file=sys.stderr)
            return 1
        expected[name] = {job_id: digest for job_id, _s, _ok, digest in rows}
        print(f"{name}: {len(rows)} jobs, {sum(r[1] for r in rows):.1f} s", file=sys.stderr)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
