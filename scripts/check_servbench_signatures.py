#!/usr/bin/env python
"""Check one servbench run's wave signatures against the pinned set.

Pipe a ``servbench/run.py`` run through it; its output passes through
unchanged.  Exits 1 unless the run used the pinned seed and printed every
wave of its workload with the pinned signature::

    python3 servbench/run.py --workload mixed_fleet --seed 1 --seconds 1 --trace 0 \\
        | python3 scripts/check_servbench_signatures.py
"""

import json
import sys
from pathlib import Path

PINNED = Path(__file__).resolve().parent.parent / "tests" / "data" / "servbench_signatures.json"

pinned = json.loads(PINNED.read_text())
seeds, seen = set(), {}
for line in sys.stdin:
    sys.stdout.write(line)
    if line.startswith('{"host"'):
        seeds.add(json.loads(line)["seed"])
    elif line.startswith("signature "):
        _, workload, wave, signature = line.split()[:4]
        seen.setdefault(workload, {})[wave.removeprefix("wave=")] = signature
expected = {workload: pinned["workloads"].get(workload) for workload in seen}
if seeds != {pinned["seed"]} or len(seen) != 1 or seen != expected:
    sys.exit(f"servbench signatures {seen} (seed {sorted(seeds)}) != pinned {expected} "
             f"(seed {pinned['seed']})")
print(f"servbench signatures match {PINNED.name}")
