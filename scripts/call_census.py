"""Count the Python and C calls one servbench pass makes, per layer.

Wall time on a shared 2-core host cannot resolve a 5-10% change in one run;
the work a pass does is deterministic, and so is its call count.  This
builds passes exactly as ``servbench/run.py`` does
(``servbench/workloads.py``, imported read-only), serves one warm-up pass,
then counts every ``call`` and ``c_call`` profiler event inside the serve
calls of one more pass.  Each event is attributed to the innermost active
layer of ``servbench/layers.py``'s ``TARGETS``, matched by code object;
calls outside every layer count as ``other``.
``sharded_waves`` runs at ``EUDOXUS_MAX_WORKERS=1``, so every session is
counted in this process, through the same payload path the workers run.

    python3 scripts/call_census.py --workload mixed_fleet --seed 1

Prints one JSON object.  Compare censuses only between equal Python and
numpy versions; a census complements wall time, it never replaces it.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import shutil
import sys
from collections import Counter
from pathlib import Path

import numpy

SERVBENCH = Path(__file__).resolve().parent.parent / "servbench"
sys.path.insert(0, str(SERVBENCH))

import workloads  # noqa: E402


def layer_codes():
    """Code object of each layer's entry point -> layer name."""
    import layers

    codes = {}
    for module_name, class_name, attribute, layer in layers.TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        codes[getattr(owner, attribute).__code__] = layer
    return codes


def count_pass(run, codes):
    python, native = Counter(), Counter()
    stack = []  # (frame, layer) of every active layer entry point

    def profile(frame, event, arg):
        if event == "call":
            layer = codes.get(frame.f_code)
            if layer is not None:
                stack.append((frame, layer))
            python[stack[-1][1] if stack else "other"] += 1
        elif event == "return":
            if stack and stack[-1][0] is frame:
                stack.pop()
        elif event == "c_call":
            native[stack[-1][1] if stack else "other"] += 1

    gc.collect()
    gc.disable()  # no collection, and no finalizer, lands inside the count
    sys.setprofile(profile)
    try:
        for wave in run.waves:  # the serve calls alone: no host-speed probe
            run.engine.serve(wave.fleet)
    finally:
        sys.setprofile(None)
        gc.enable()
    return python, native


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workloads.isolate()
    os.environ["EUDOXUS_MAX_WORKERS"] = "1"
    root = workloads.WORK_DIR / f"census-{os.getpid()}"
    try:
        workloads.prepare(args.workload, args.seed, root / "warmup").serve()
        run = workloads.prepare(args.workload, args.seed, root / "counted")
        python, native = count_pass(run, layer_codes())
    finally:
        shutil.rmtree(root, ignore_errors=True)
    layers = {layer: {"python_calls": python[layer], "c_calls": native[layer]}
              for layer in sorted(set(python) | set(native))}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "layers": layers,
        "total": {"python_calls": sum(python.values()), "c_calls": sum(native.values())},
    }, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
