"""GPS receiver simulation.

GPS provides absolute translational position but no orientation, is blocked
indoors and can suffer multipath errors outdoors (Sec. II).  The simulator
models all three effects: additive noise, complete indoor outage, and
occasional multipath glitches with a much larger error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.common.geometry import Pose


@dataclass
class GpsSample:
    """One GPS fix; ``valid`` is False during outages."""

    timestamp: float
    position: np.ndarray
    valid: bool = True
    covariance: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=float).reshape(3)
        if self.covariance is None:
            self.covariance = np.eye(3)


class GpsSimulator:
    """Generates GPS fixes from ground-truth poses.

    Parameters
    ----------
    noise_std:
        Standard deviation (metres) of the usual additive noise.
    outage_probability:
        Probability that any individual fix is dropped (e.g. urban canyon).
    multipath_probability / multipath_scale:
        Probability and magnitude of multipath glitches.
    indoor:
        When True, no fixes are ever produced — GPS is blocked indoors.
    """

    def __init__(
        self,
        noise_std: float = 0.3,
        outage_probability: float = 0.0,
        multipath_probability: float = 0.02,
        multipath_scale: float = 5.0,
        indoor: bool = False,
        seed: int = 0,
    ) -> None:
        self.noise_std = float(noise_std)
        self.outage_probability = float(outage_probability)
        self.multipath_probability = float(multipath_probability)
        self.multipath_scale = float(multipath_scale)
        self.indoor = bool(indoor)
        self._rng = np.random.default_rng(seed)

    def measure(self, timestamp: float, pose: Pose) -> Optional[GpsSample]:
        """Return a GPS fix, or None when the signal is unavailable."""
        if self.indoor:
            return None
        if self._rng.random() < self.outage_probability:
            return None
        noise_std = self.noise_std
        if self._rng.random() < self.multipath_probability:
            noise_std = self.noise_std * self.multipath_scale
        noise = self._rng.normal(0.0, noise_std, size=3)
        covariance = np.eye(3) * noise_std**2
        return GpsSample(
            timestamp=timestamp,
            position=pose.translation + noise,
            valid=True,
            covariance=covariance,
        )
