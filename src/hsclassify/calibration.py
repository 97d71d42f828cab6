"""Temperature scaling of classifier logits for calibrated report scores."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classifier import mean_log_loss, picked_probabilities, softmax_inplace
from .errors import BadTemperature, EmptyInput

TEMPERATURE_BOUNDS = (0.05, 20.0)
SEARCH_TOLERANCE = 1e-4  # on the ln T scale
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class TemperatureScaler:
    temperature: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise BadTemperature(f"temperature must be finite and positive, got {self.temperature}")

    def probabilities(self, logits) -> np.ndarray:
        """softmax(logits / T); preserves the argsort of the logits for any T > 0."""
        return softmax_inplace(np.asarray(logits, dtype=float) / self.temperature)


def _mean_nll(
    logits: np.ndarray, labels: np.ndarray, temperature: float, out: np.ndarray | None = None
) -> float:
    """Mean NLL of ``softmax(logits / temperature)``; ``logits / temperature`` goes to ``out``."""
    return mean_log_loss(picked_probabilities(np.divide(logits, temperature, out=out), labels))


def fit_temperature(
    validation_logits: Sequence[np.ndarray], labels: Sequence[int]
) -> TemperatureScaler:
    """Pick T minimizing validation NLL by golden-section search on ln T.

    The search runs over ln T in [ln 0.05, ln 20] down to ``SEARCH_TOLERANCE``,
    so the bracket always contains T = 1.
    """
    if len(validation_logits) == 0:
        raise EmptyInput("no validation logits to fit a temperature")
    logits = np.asarray(validation_logits, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if logits.shape[0] != labels.shape[0]:
        raise EmptyInput("logits and labels lengths differ")

    scaled = np.empty_like(logits)  # every step divides into this one buffer

    def objective(log_t: float) -> float:
        return _mean_nll(logits, labels, math.exp(log_t), out=scaled)

    low = math.log(TEMPERATURE_BOUNDS[0])
    high = math.log(TEMPERATURE_BOUNDS[1])
    inner_low = high - _INV_PHI * (high - low)
    inner_high = low + _INV_PHI * (high - low)
    f_low = objective(inner_low)
    f_high = objective(inner_high)
    # <= prefers the lower segment on plateaus, e.g. NLL underflowing to 0.
    while high - low > SEARCH_TOLERANCE:
        if f_low <= f_high:
            high, inner_high, f_high = inner_high, inner_low, f_low
            inner_low = high - _INV_PHI * (high - low)
            f_low = objective(inner_low)
        else:
            low, inner_low, f_low = inner_low, inner_high, f_high
            inner_high = low + _INV_PHI * (high - low)
            f_high = objective(inner_high)
    return TemperatureScaler(temperature=math.exp((low + high) / 2.0))
