"""Record the CSV digests that every later run must reproduce at the golden seed.

Usage (from the repository root)::

    python3 bench/make_golden.py

Generates each workload's inputs at ``run.GOLDEN_SEED``, runs every op once,
requires each output to pass its own check, and writes the sha256 of each CSV
to ``bench/golden.json``. Rewriting the file moves the byte-identity gate, so
do it only when a change of output is intended.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile

import run


def main() -> int:
    digests = {}
    for workload, build in run.WORKLOADS.items():
        work_dir = tempfile.mkdtemp(prefix=".bench_tmp-", dir=run.ROOT)
        try:
            ops, _ = build(work_dir, run.GOLDEN_SEED)
            runner = run.Runner(work_dir, golden=None)
            digests[workload] = {}
            for op in ops:
                op_run = runner.run(op)
                runner.finish(op_run)
                if op_run.error:
                    print(f"{workload} {op.label}: {op_run.error}", file=sys.stderr)
                    return 1
                digests[workload][op.label] = hashlib.sha256(op_run.csv).hexdigest()
        finally:
            shutil.rmtree(work_dir)
    with open(run.GOLDEN, "w", encoding="utf-8") as f:
        json.dump({"seed": run.GOLDEN_SEED, "sha256": digests}, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
