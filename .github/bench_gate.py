"""Pass through a ``perfbench/run.py`` report and fail unless it is correct.

    python3 perfbench/run.py --workload symbolic --seed 3 --trace 1 | python3 .github/bench_gate.py

``run.py`` exits 0 whatever its verdict; its last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  This exits 1 unless that
object has ``"correct": true`` and ``"failed": 0``.
"""

import json
import sys

lines = sys.stdin.read().splitlines()
print("\n".join(lines))
try:
    verdict = json.loads(lines[-1])
except (IndexError, ValueError):
    verdict = None
if not isinstance(verdict, dict):
    sys.exit("bench gate: the last line of the report is not a JSON object")
if verdict.get("correct") is not True or verdict.get("failed") != 0:
    sys.exit(f"bench gate: correct={verdict.get('correct')!r}, failed={verdict.get('failed')!r}")
