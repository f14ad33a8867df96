"""The serving benchmark: one command, three fleet workloads, checked outputs.

    python3 servbench/run.py --workload mixed_fleet --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout.  The run first times set-up in fresh
interpreters (``setup_trial.py``), then serves passes of the workload, each
on a fresh engine and fresh stores, while the next pass is expected to end
within ``--seconds`` (at least two passes, so every wave's report signature
is checked against a repeat of itself).  Each pass is reduced to a summary
as soon as it ends, so memory does not grow with the number of passes.

Wall times are reported in reference-host time: a host-speed probe runs
between waves (``workloads.probe_host_speed``) and scales each wave's
times.  On a shared 2-vCPU x86_64 VM the host's speed swings by up to 1.8x
for minutes at a time, and raw numbers follow the neighbours rather than
the program.  The raw values are printed on the line before the result.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, measured by
wrapping each layer's public entry points (``layers.py``); the gap between
traced and untraced passes is reported as ``trace_overhead_frac``.

The host facts and the wave signatures are printed before the result; the
last line of standard output is the JSON result.  See ``README.md`` for
why each workload exists and what each metric should predict.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import workloads
from workloads import ROOT, WORK_DIR

MIN_PASSES = 2
SETUP_TRIALS = 3
SETUP_TRIAL_TIMEOUT_S = 120
# Closure: the spans inside the serve calls must account for the traced
# wall to within this share (the rest is the benchmark's own loop).
CLOSURE_TOLERANCE = 0.02
# Cross-check: the program's frame_wall_ms covers process_frame plus the
# mode policy and result collection, so it may exceed the outside timing of
# process_frame by this much, and may never fall short of it.
FRAME_TIMER_RANGE = (0.99, 1.15)

END_TO_END = {
    "setup_s": "s",
    "frames_per_s": "1/s",
    "frame_ms_p50": "ms",
    "frame_ms_p99": "ms",
    "deadline_miss_frac": "fraction",
    "ate_rmse_m": "m",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sensors.build_s": "s", "sensors.segments": "count",
    "core.prepare_s": "s", "core.prepare_calls": "count",
    "core.process_frame_self_s": "s", "core.frame_timer_ratio": "ratio",
    "frontend.process_s": "s", "frontend.frames": "count",
    "backend.slam_s": "s", "backend.slam_frames": "count",
    "backend.vio_s": "s", "backend.vio_frames": "count",
    "backend.registration_s": "s", "backend.registration_frames": "count",
    "maps.merge_s": "s", "maps.merges": "count",
    "maps.publish_s": "s", "maps.publishes": "count",
    "maps.apply_updates_s": "s", "maps.acquisitions": "count",
    "maps.stale_demotions": "count", "maps.tier_hit_rate": "fraction",
    "maps.registration_share": "fraction",
    "serving.self_s": "s", "serving.ticks": "count",
    "scheduler.virtual_wait_ms_p95": "ms", "scheduler.final_workers": "count",
    "scheduler.resizes": "count",
    "cluster.self_s": "s", "cluster.dispatch_s": "s",
    "cluster.shard_imbalance": "ratio", "cluster.report_bytes": "B",
    "cluster.sync_bytes": "B", "cluster.sync_fallbacks": "count",
    "runner.fan_out_s": "s",
    "traced_wall_s": "s", "unattributed_s": "s", "trace_overhead_frac": "fraction",
}


@dataclass
class PassSummary:
    """What one pass leaves behind once its reports are dropped."""

    traced: bool
    serve_walls: List[float]
    speed_factors: List[float]
    signatures: List[Tuple[str, str]]
    frames: int = 0
    misses: int = 0
    frame_ms: List[float] = field(default_factory=list)       # reference-host
    raw_frame_ms: List[float] = field(default_factory=list)   # as measured
    rmse: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    virtual_ms: List[float] = field(default_factory=list)
    imbalance: List[float] = field(default_factory=list)

    @property
    def serve_s(self) -> float:
        return sum(self.serve_walls)

    @property
    def reference_serve_s(self) -> float:
        return sum(wall * factor
                   for wall, factor in zip(self.serve_walls, self.speed_factors))


def flag(problems: List[str], message: str) -> None:
    """Record a failed check and say so on standard error."""
    problems.append(message)
    print(f"servbench: CHECK FAILED: {message}", file=sys.stderr)


# ------------------------------------------------------------------ host


def git_commit() -> str:
    """The checkout's commit from ``.git`` if there is one (no subprocess)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts() -> Dict[str, object]:
    import numpy

    from repro.experiments.runner import code_fingerprint
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "code_fingerprint": code_fingerprint(), "git_commit": git_commit()}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children covers the shard workers.
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


# ----------------------------------------------------------------- set-up


def measure_setup(workload: str, seed: int, root: Path) -> Tuple[List[float], float]:
    """Set-up wall of several fresh interpreters (imports are per process).

    Returns the times and the host-speed factor probed around them.
    """
    times = []
    probes = [workloads.probe_host_speed()]
    for trial in range(SETUP_TRIALS):
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_trial.py")),
             "--workload", workload, "--seed", str(seed),
             "--root", str(root / f"setup{trial}")],
            cwd=ROOT, capture_output=True, text=True,
            timeout=SETUP_TRIAL_TIMEOUT_S, check=True)
        times.append(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])
        probes.append(workloads.probe_host_speed())
    return times, workloads.speed_factor(probes)


# ---------------------------------------------------------------- serving


def serve_passes(args, root: Path, trace) -> List[PassSummary]:
    """Serve passes while the next one is expected to end within the budget.

    Odd passes are traced when ``trace`` is given.
    """
    summaries: List[PassSummary] = []
    started = time.perf_counter()
    last_pass_s = 0.0
    while (len(summaries) < MIN_PASSES
           or time.perf_counter() - started + last_pass_s <= args.seconds):
        pass_started_at = time.perf_counter()
        index = len(summaries)
        traced = trace is not None and index % 2 == 1
        pass_root = root / f"pass{index}"
        run = workloads.prepare(args.workload, args.seed, pass_root)
        if traced:
            trace.install()
        try:
            reports = run.serve()
        finally:
            if traced:
                trace.uninstall()
        summary = summarize(args.workload, run, reports, traced)
        summaries.append(summary)
        print(f"pass {index}{' traced' if traced else ''}: serve {summary.serve_s:.3f} s, "
              f"{summary.frames / summary.serve_s:.1f} frames/s, host speed "
              f"{statistics.mean(summary.speed_factors):.2f}", file=sys.stderr)
        del run, reports
        shutil.rmtree(pass_root, ignore_errors=True)
        gc.collect()
        last_pass_s = time.perf_counter() - pass_started_at
    return summaries


# ------------------------------------------------------- checks and facts


def stale_demotions(report) -> int:
    return sum(1 for result in report.results.values()
               for switch in result.mode_switches if switch.reason == "map_stale")


def registration_frames_in_shared(report, fleet) -> Tuple[int, int]:
    """(registration frames, frames) over shared-environment segments."""
    specs = {spec.stream_id: spec for spec in fleet}
    registration = shared = 0
    for stream_id, result in report.results.items():
        environments = specs[stream_id].environment_ids
        if not environments:
            continue
        starts = result.segment_starts
        for estimate in result.trajectory.estimates:
            segment = bisect_right(starts, estimate.frame_index) - 1
            if segment in environments:
                shared += 1
                registration += estimate.mode == "registration"
    return registration, shared


def check_contrast(workload: str, reports: Dict[str, object],
                   summary: PassSummary) -> None:
    """The behaviour each workload exists to exercise must actually occur."""
    if workload == "mixed_fleet":
        modes = reports["mixed"].mode_census()
        if not all(modes.get(mode) for mode in ("slam", "vio", "registration")):
            flag(summary.problems, f"mixed fleet did not exercise every mode: {modes}")
    elif workload == "map_lifecycle":
        if not reports["cold"].maps_published:
            flag(summary.problems, "cold wave published no maps")
        if not reports["warm"].mode_census().get("registration"):
            flag(summary.problems, "warm wave did not register against the fleet map")
        if not (stale_demotions(reports["drift"]) and reports["drift"].maps_updated):
            flag(summary.problems, "drift wave did not demote a stale map and apply updates")
    elif workload == "sharded_waves":
        if not all(report.parallel for report in reports.values()):
            flag(summary.problems, "a sharded wave did not fan out to worker processes")
        if not all(reports[label].fleet_maps for label in ("wave1", "wave2")):
            flag(summary.problems, "waves 2-3 resolved no fleet maps to ship")


def summarize(workload: str, run: workloads.Pass, reports: List[object],
              traced: bool) -> PassSummary:
    """Check one pass's outputs and keep only the numbers the metrics need."""
    from repro.obs.triage import SIG_DIVERGENCE

    summary = PassSummary(traced, list(run.serve_walls), list(run.speed_factors),
                          [(wave.label, report.signature())
                           for wave, report in zip(run.waves, reports)])
    counts = dict.fromkeys(("publishes", "acquisitions", "stale_demotions", "ticks",
                            "resizes", "cache_served", "cache_total", "registration",
                            "shared", "dispatch_s", "report_bytes"), 0.0)
    for wave, report, serve_wall, factor in zip(run.waves, reports, run.serve_walls,
                                                run.speed_factors):
        specs = {spec.stream_id: spec for spec in wave.fleet}
        summary.attempted += len(specs)
        for stream_id, spec in specs.items():
            result = report.results.get(stream_id)
            if (result is None or result.frame_count != spec.frame_count
                    or report.failure_signatures.get(stream_id) == SIG_DIVERGENCE):
                summary.failed += 1
        if report.computed_sessions != len(specs) or report.replayed_streams:
            flag(summary.problems, f"wave {wave.label}: {report.computed_sessions}/"
                            f"{len(specs)} sessions computed")
        summary.frames += report.frame_count
        summary.misses += report.deadline_misses
        for result in report.results.values():
            summary.raw_frame_ms.extend(result.frame_wall_ms)
            summary.frame_ms.extend(ms * factor for ms in result.frame_wall_ms)
            summary.rmse.append(result.trajectory.rmse_error())
        summary.virtual_ms.extend(report.virtual_latency_ms)
        counts["publishes"] += report.maps_published
        counts["acquisitions"] += report.map_acquisition_count
        counts["stale_demotions"] += stale_demotions(report)
        counts["ticks"] += report.ticks
        counts["resizes"] += report.resize_count
        counts["cache_served"] += report.map_cache_hits + report.map_staleness_served
        counts["cache_total"] += (report.map_cache_hits + report.map_staleness_served
                                  + report.map_cache_misses)
        registration, shared = registration_frames_in_shared(report, wave.fleet)
        counts["registration"] += registration
        counts["shared"] += shared
        shards = [shard for shard in getattr(report, "shard_reports", [])
                  if shard is not None]
        if shards:
            shard_walls = [shard.wall_s for shard in shards]
            counts["dispatch_s"] += serve_wall - max(shard_walls)
            summary.imbalance.append(max(shard_walls) / statistics.mean(shard_walls))
            if traced:
                # What crossed the process boundary, re-pickled after the
                # pass so the cost stays out of every timed span.
                counts["report_bytes"] += sum(
                    len(pickle.dumps(shard, protocol=pickle.HIGHEST_PROTOCOL))
                    for shard in shards)
    counts["final_workers"] = reports[-1].final_workers
    sync = getattr(run.engine, "sync_accounting", None)
    counts["sync_bytes"] = sync.delta_bytes if sync is not None else 0
    counts["sync_fallbacks"] = sync.fallbacks if sync is not None else 0
    summary.counts = counts
    check_contrast(workload, {wave.label: report
                              for wave, report in zip(run.waves, reports)}, summary)
    if summary.failed:
        flag(summary.problems, f"{summary.failed} of {summary.attempted} sessions failed")
    return summary


def check_repeats(summaries: List[PassSummary], problems: List[str]) -> None:
    """Every pass of one seed must reproduce the first pass's signatures."""
    reference = summaries[0].signatures
    for number, summary in enumerate(summaries[1:], start=1):
        for (label, signature), (_, expected) in zip(summary.signatures, reference):
            if signature != expected:
                flag(problems, f"pass {number} wave {label}: signature "
                               f"{signature} != {expected}")


# ---------------------------------------------------------------- metrics


def end_to_end(summaries: List[PassSummary], setup_times: List[float],
               setup_factor: float) -> Dict[str, float]:
    """The user-facing metrics, with wall times in reference-host time."""
    import numpy as np

    frames = sum(summary.frames for summary in summaries)
    samples = [ms for summary in summaries for ms in summary.frame_ms]
    raw_samples = [ms for summary in summaries for ms in summary.raw_frame_ms]
    print(f"frame latency samples: {len(samples)} frames over {len(summaries)} passes "
          f"({len(samples) // 100} beyond p99)")
    print(json.dumps({"raw": {
        "setup_s": statistics.median(setup_times),
        "frames_per_s": frames / sum(summary.serve_s for summary in summaries),
        "frame_ms_p50": float(np.percentile(raw_samples, 50.0)),
        "frame_ms_p99": float(np.percentile(raw_samples, 99.0)),
        "host_speed": [summary.speed_factors for summary in summaries]}}))
    return {
        "setup_s": statistics.median(setup_times) * setup_factor,
        "frames_per_s": frames / sum(summary.reference_serve_s for summary in summaries),
        "frame_ms_p50": float(np.percentile(samples, 50.0)),
        "frame_ms_p99": float(np.percentile(samples, 99.0)),
        "deadline_miss_frac": sum(summary.misses for summary in summaries) / frames,
        "ate_rmse_m": float(np.mean(summaries[0].rmse)),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(summaries: List[PassSummary], trace, problems: List[str],
              in_process: bool) -> Dict[str, float]:
    import numpy as np

    from layers import Ledger

    traced = [summary for summary in summaries if summary.traced]
    untraced = [summary for summary in summaries if not summary.traced]
    passes = len(traced)
    combined = Ledger()
    combined.add(trace.ledger.snapshot())
    combined.add(trace.workers.snapshot())

    def self_s(layer: str) -> float:
        return combined.self_s.get(layer, 0.0) / passes

    def calls(layer: str) -> float:
        return combined.calls.get(layer, 0) / passes

    def count(name: str) -> float:
        return sum(summary.counts[name] for summary in traced) / passes

    def ratio(part: str, whole: str) -> float:
        total = count(whole)
        return count(part) / total if total else 0.0

    traced_wall = sum(summary.serve_s for summary in traced)
    unattributed = traced_wall - sum(trace.ledger.self_s.values())
    frame_wall_s = sum(sum(summary.raw_frame_ms) for summary in traced) / 1000.0
    frame_timer_ratio = frame_wall_s / combined.total_s["core.process_frame"]
    virtual = [ms for summary in traced for ms in summary.virtual_ms]
    imbalance = [value for summary in traced for value in summary.imbalance]

    metrics = {
        "sensors.build_s": self_s("sensors.build"),
        "sensors.segments": calls("sensors.build"),
        "core.prepare_s": self_s("core.prepare"),
        "core.prepare_calls": calls("core.prepare"),
        "core.process_frame_self_s": self_s("core.process_frame"),
        "core.frame_timer_ratio": frame_timer_ratio,
        "frontend.process_s": self_s("frontend.process"),
        "frontend.frames": calls("frontend.process"),
        "maps.merge_s": self_s("maps.merge"),
        "maps.merges": calls("maps.merge"),
        "maps.publish_s": self_s("maps.publish"),
        "maps.publishes": count("publishes"),
        "maps.apply_updates_s": self_s("maps.apply_updates"),
        "maps.acquisitions": count("acquisitions"),
        "maps.stale_demotions": count("stale_demotions"),
        "maps.tier_hit_rate": ratio("cache_served", "cache_total"),
        "maps.registration_share": ratio("registration", "shared"),
        "serving.self_s": self_s("serving.serve"),
        "serving.ticks": count("ticks"),
        "scheduler.virtual_wait_ms_p95": (float(np.percentile(virtual, 95.0))
                                          if virtual else 0.0),
        "scheduler.final_workers": count("final_workers"),
        "scheduler.resizes": count("resizes"),
        "cluster.self_s": self_s("cluster.serve"),
        "cluster.dispatch_s": count("dispatch_s"),
        "cluster.shard_imbalance": statistics.mean(imbalance) if imbalance else 0.0,
        "cluster.report_bytes": count("report_bytes"),
        "cluster.sync_bytes": count("sync_bytes"),
        "cluster.sync_fallbacks": count("sync_fallbacks"),
        "runner.fan_out_s": self_s("runner.fan_out"),
        "traced_wall_s": traced_wall / passes,
        "unattributed_s": unattributed / passes,
        "trace_overhead_frac": (
            statistics.median(summary.reference_serve_s for summary in traced)
            / statistics.median(summary.reference_serve_s for summary in untraced) - 1.0),
    }
    for mode in ("slam", "vio", "registration"):
        metrics[f"backend.{mode}_s"] = self_s(f"backend.{mode}")
        metrics[f"backend.{mode}_frames"] = calls(f"backend.{mode}")

    # Closure: only in-process workloads serve every span in this process.
    if in_process and not -0.001 <= unattributed / traced_wall <= CLOSURE_TOLERANCE:
        flag(problems, f"closure: unattributed {unattributed:.4f} s of "
                       f"{traced_wall:.4f} s traced wall")
    low, high = FRAME_TIMER_RANGE
    if not low <= frame_timer_ratio <= high:
        flag(problems, f"frame_wall_ms / outside process_frame = "
                       f"{frame_timer_ratio:.4f}, outside {FRAME_TIMER_RANGE}")
    print_breakdown(metrics)
    return {name: metrics[name] for name in PER_LAYER}


def print_breakdown(metrics: Dict[str, float]) -> None:
    """Self time per layer as a share of the traced wall (standard error)."""
    wall = metrics["traced_wall_s"]
    rows = [(name, value) for name, value in metrics.items()
            if name.endswith("_s") and name not in ("traced_wall_s", "cluster.dispatch_s")]
    print(f"per-pass traced wall {wall:.3f} s; self time by layer:", file=sys.stderr)
    for name, value in sorted(rows, key=lambda row: -row[1]):
        print(f"  {name:<28} {value:9.4f} s  {100.0 * value / wall:6.2f} %",
              file=sys.stderr)


# ------------------------------------------------------------------- main


def parse_args(argv: Optional[List[str]] = None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    workloads.isolate()
    root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        setup_times, setup_factor = measure_setup(args.workload, args.seed, root)
        from layers import LayerTrace
        trace = LayerTrace() if args.trace else None
        summaries = serve_passes(args, root, trace)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            WORK_DIR.rmdir()  # only when no other run is using it
        except OSError:
            pass

    print(json.dumps({"host": host_facts(), "workload": args.workload,
                      "seed": args.seed, "passes": len(summaries)}))
    for label, signature in summaries[0].signatures:
        print(f"signature {args.workload} wave={label} {signature} "
              f"(checked on {len(summaries)} passes)")
    problems = [problem for summary in summaries for problem in summary.problems]
    check_repeats(summaries, problems)
    if args.trace:
        metrics = per_layer(summaries, trace, problems,
                            in_process=args.workload != "sharded_waves")
        units = PER_LAYER
    else:
        metrics = end_to_end(summaries, setup_times, setup_factor)
        units = END_TO_END
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(summary.attempted for summary in summaries),
        "failed": sum(summary.failed for summary in summaries),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
