"""Record the reference rows that check.py compares shipped seeds against.

    python3 perfbench/record_reference.py

Run from the repository root, at a commit whose outputs are trusted.  Runs
every ``run`` operation of every workload once for each seed in
``REFERENCE_SEEDS`` (0-10) and rewrites perfbench/reference.json.  Oracle
results are not stored: they are checked against the Fock referee's own
tolerance on every seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import check
from run import Runner, prepare_work
from workloads import WORKLOADS, make_workload

REFERENCE_SEEDS = range(11)


def main() -> int:
    root = Path.cwd().resolve()
    table = {}
    for name in WORKLOADS:
        for seed in REFERENCE_SEEDS:
            workload = make_workload(name, seed)
            if not any(op.kind == "run" for op in workload.ops):
                continue
            runner = Runner(root, prepare_work(workload), seed, workload)
            runner.reference = None
            rows = {}
            for i, op in enumerate(workload.ops):
                runner.op(op, f"reference-{i}")
                for experiment in op.rows:
                    text = (runner.work / "out" / f"{experiment}.csv").read_text(encoding="utf-8")
                    rows[experiment] = check.pack_rows(check.parse_rows(text))
            if runner.problems:
                print("\n".join(runner.problems), file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = rows
            print(f"{name} seed {seed}: {sum(len(r['t']) for r in rows.values())} rows", flush=True)
    # one line per workload and seed keeps the file diffable
    body = ",\n".join(
        f"{json.dumps(name)}: {{\n" + ",\n".join(
            f"{json.dumps(seed)}: {json.dumps(rows, separators=(',', ':'))}"
            for seed, rows in seeds.items()) + "\n}"
        for name, seeds in table.items())
    check.REFERENCE_PATH.write_text("{\n" + body + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
