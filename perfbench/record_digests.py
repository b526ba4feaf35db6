#!/usr/bin/env python3
"""Record each op's output digest and the mix invariants for some seeds.

    python3 perfbench/record_digests.py 0 1 2 3 4

Run it only at a commit whose outputs are trusted: afterwards the benchmark
counts every op whose output (stdout plus any document it writes) differs
from the recorded digest as failed, so byte-identical output is enforced for
the recorded seeds, and a traced run whose ``run.INVARIANTS`` metrics differ
from the recorded values is incorrect.  Ops that fail are recorded as null.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def record(seeds: list[int]) -> dict:
    table: dict[str, dict[str, dict]] = {}
    work = run.ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    try:
        for name in workloads.WORKLOADS:
            for seed in seeds:
                runner, metrics = run.trace(name, seed, work, recorded=False)
                if not runner.correct:
                    raise SystemExit(f"{name} seed {seed}: {runner.problems[:3]}")
                table.setdefault(name, {})[str(seed)] = {
                    "invariants": run.invariants(metrics), "digests": runner.digests()}
                print(f"{name} seed {seed}: {len(runner.workload.ops)} ops", flush=True)
    finally:
        os.chdir(run.ROOT)
        shutil.rmtree(work, ignore_errors=True)
    return table


def main() -> int:
    seeds = [int(arg) for arg in sys.argv[1:]] or [0]
    table = record(seeds)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
