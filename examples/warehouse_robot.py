#!/usr/bin/env python3
"""Warehouse logistics robot: mode switching across operating scenarios.

The paper's motivating deployment is a logistics robot that spends half of
its time outdoors between warehouses (GPS available), a quarter in a
pre-mapped warehouse (registration) and a quarter mapping a new warehouse
(SLAM).  This example serves that mixed deployment as one stream, lets the
session switch backend modes online, and reports the accuracy of each
segment.  It exits non-zero unless all three backend modes served frames.

Run with:  python examples/warehouse_robot.py
"""

import sys
from collections import Counter

from repro.core.result import TrajectoryResult
from repro.serving import mixed_deployment_stream, run_session

MODES = {"vio", "slam", "registration"}


def main() -> int:
    # 50 % outdoor frames, 25 % indoor without a map, 25 % indoor with a map.
    spec = mixed_deployment_stream("warehouse-robot", seed=2, platform_kind="car",
                                   camera_rate_hz=10.0, landmark_count=250,
                                   segment_duration=10.0, dropout=False)
    result = run_session(spec)
    estimates = result.trajectory.estimates
    print(f"Mixed deployment: {len(spec.segments)} segments, "
          f"{result.frame_count} frames total")

    print("\nPer-segment results (the session switches backend modes online):")
    print(f"{'segment':<16} {'scenario':<18} {'backend':<14} {'frames':>6} {'RMSE [m]':>9}")
    # A stream numbers its frames from 0, so a segment's first frame index
    # is also its first position in the trajectory.
    bounds = result.segment_starts + [len(estimates)]
    for segment, lo, hi in zip(spec.segments, bounds, bounds[1:]):
        segment_result = TrajectoryResult(estimates=estimates[lo:hi])
        mode = Counter(e.mode for e in segment_result.estimates).most_common(1)[0][0]
        print(f"{segment.label:<16} {segment.kind.value:<18} {mode:<14} "
              f"{hi - lo:>6} {segment_result.rmse_error():>9.3f}")

    print(f"\nOverall RMSE across the whole deployment: "
          f"{result.trajectory.rmse_error():.3f} m")
    modes_used = {e.mode for e in estimates}
    print(f"Backend modes exercised: {', '.join(sorted(modes_used))}")
    missing = MODES - modes_used
    if missing:
        print(f"error: no frame served in {', '.join(sorted(missing))}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
