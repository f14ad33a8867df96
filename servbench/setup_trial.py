"""One set-up trial in a fresh interpreter: imports, construction, fleets.

Run by ``run.py`` several times per run (set-up can only be measured once
per interpreter, because imports are cached).  Prints one JSON line with
the set-up wall time, measured from the first statement of this script to
the moment the workload's first pass is ready to serve.

    python3 servbench/setup_trial.py --workload mixed_fleet --seed 1 --root DIR
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", type=Path, required=True)
    args = parser.parse_args()
    workloads.isolate()
    workloads.prepare(args.workload, args.seed, args.root)
    print(json.dumps({"setup_s": time.perf_counter() - STARTED}))


if __name__ == "__main__":
    main()
