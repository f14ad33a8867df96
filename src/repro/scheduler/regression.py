"""Least-squares polynomial regression used by the runtime scheduler.

The paper fits the projection time with a linear model and the Kalman-gain /
marginalization times with quadratic models of the kernel's input size
(Fig. 16), reporting R^2 values of 0.83-0.98.  This module provides the
small normal-equations solver those fits need, with no external dependencies
beyond NumPy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def r_squared(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Coefficient of determination of a fit."""
    actual = np.asarray(list(actual), dtype=float)
    predicted = np.asarray(list(predicted), dtype=float)
    if actual.size == 0:
        return 0.0
    residual = float(np.sum((actual - predicted) ** 2))
    total = float(np.sum((actual - np.mean(actual)) ** 2))
    if total <= 1e-12:
        return 1.0 if residual <= 1e-12 else 0.0
    return 1.0 - residual / total


class PolynomialRegression:
    """Least-squares fit of ``y = c0 + c1 x + ... + c_d x^d``."""

    def __init__(self, degree: int = 1) -> None:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = int(degree)
        self.coefficients = np.zeros(self.degree + 1)
        self._fitted = False

    def _design(self, x: np.ndarray) -> np.ndarray:
        return np.vander(x, self.degree + 1, increasing=True)

    def fit(self, x: Sequence[float], y: Sequence[float]) -> "PolynomialRegression":
        x = np.asarray(list(x), dtype=float)
        y = np.asarray(list(y), dtype=float)
        if x.size != y.size:
            raise ValueError("x and y must have the same length")
        if x.size < self.degree + 1:
            raise ValueError("not enough samples to fit the requested degree")
        design = self._design(x)
        # Normal equations with a tiny ridge term for numerical robustness.
        gram = design.T @ design + np.eye(self.degree + 1) * 1e-9
        self.coefficients = np.linalg.solve(gram, design.T @ y)
        self._fitted = True
        return self

    def predict(self, x) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("fit() must be called before predict()")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self._design(x) @ self.coefficients

    def predict_scalar(self, x: float) -> float:
        return float(self.predict([x])[0])

    def score(self, x: Sequence[float], y: Sequence[float]) -> float:
        return r_squared(y, self.predict(x))
