"""Localization accuracy metrics.

The paper reports root-mean-square error in metres (Fig. 3) and relative
trajectory error in percent of distance travelled (Sec. IV-A, VII-G).  Both
are provided here, together with the Umeyama similarity alignment that is
standard when comparing a drift-prone relative trajectory (VIO/SLAM without
GPS) against ground truth.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.common.geometry import Pose


def rmse(errors: Sequence[float]) -> float:
    """Root-mean-square of a sequence of scalar errors."""
    errors = np.asarray(list(errors), dtype=float)
    if errors.size == 0:
        return 0.0
    return float(np.sqrt(np.mean(errors**2)))


def umeyama_alignment(estimated: np.ndarray, reference: np.ndarray,
                      with_scale: bool = False) -> Tuple[np.ndarray, np.ndarray, float]:
    """Least-squares similarity transform aligning ``estimated`` to ``reference``.

    Returns ``(rotation, translation, scale)`` such that
    ``reference ~= scale * rotation @ estimated + translation``.
    """
    estimated = np.asarray(estimated, dtype=float).reshape(-1, 3)
    reference = np.asarray(reference, dtype=float).reshape(-1, 3)
    if estimated.shape != reference.shape or estimated.shape[0] < 3:
        raise ValueError("need at least 3 matched positions of equal length")

    mu_est = estimated.mean(axis=0)
    mu_ref = reference.mean(axis=0)
    est_centered = estimated - mu_est
    ref_centered = reference - mu_ref
    covariance = ref_centered.T @ est_centered / estimated.shape[0]
    u, singular, vt = np.linalg.svd(covariance)
    s = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        s[2, 2] = -1.0
    rotation = u @ s @ vt
    if with_scale:
        variance = np.mean(np.sum(est_centered**2, axis=1))
        scale = float(np.trace(np.diag(singular) @ s) / max(variance, 1e-12))
    else:
        scale = 1.0
    translation = mu_ref - scale * rotation @ mu_est
    return rotation, translation, scale


def absolute_trajectory_error(estimated: Sequence[Pose], reference: Sequence[Pose],
                              align: bool = False) -> float:
    """RMSE of translational error between two pose sequences (metres).

    With ``align=True`` the estimated trajectory is first rigidly aligned to
    the reference (appropriate for map-free relative methods); with
    ``align=False`` the raw error is used (appropriate for absolute methods
    such as registration or GPS-aided VIO).
    """
    est = np.array([p.translation for p in estimated])
    ref = np.array([p.translation for p in reference])
    if est.shape != ref.shape:
        raise ValueError("trajectories must have the same length")
    if est.shape[0] == 0:
        return 0.0
    if align and est.shape[0] >= 3:
        rotation, translation, scale = umeyama_alignment(est, ref)
        est = (scale * (rotation @ est.T)).T + translation
    errors = np.linalg.norm(est - ref, axis=1)
    return rmse(errors)


def trajectory_length(reference: Sequence[Pose]) -> float:
    """Total distance travelled along a pose sequence (metres)."""
    positions = np.array([p.translation for p in reference])
    if positions.shape[0] < 2:
        return 0.0
    return float(np.linalg.norm(np.diff(positions, axis=0), axis=1).sum())


def relative_trajectory_error_percent(estimated: Sequence[Pose], reference: Sequence[Pose],
                                      segment_frames: int = 10) -> float:
    """Relative trajectory error as a percentage of distance travelled.

    For every segment of ``segment_frames`` frames, the drift of the relative
    motion is divided by the segment length; the mean over segments is
    reported in percent, following the convention the paper quotes
    (0.1 %-2 % for competitive algorithms).
    """
    est = list(estimated)
    ref = list(reference)
    if len(est) != len(ref):
        raise ValueError("trajectories must have the same length")
    if len(est) <= segment_frames:
        length = trajectory_length(ref)
        if length <= 0:
            return 0.0
        return 100.0 * absolute_trajectory_error(est, ref, align=True) / length

    ratios: List[float] = []
    for start in range(0, len(est) - segment_frames, segment_frames):
        end = start + segment_frames
        est_rel = est[start].inverse().compose(est[end])
        ref_rel = ref[start].inverse().compose(ref[end])
        segment_length = trajectory_length(ref[start : end + 1])
        if segment_length < 1e-6:
            continue
        drift = float(np.linalg.norm(est_rel.translation - ref_rel.translation))
        ratios.append(100.0 * drift / segment_length)
    return float(np.mean(ratios)) if ratios else 0.0
