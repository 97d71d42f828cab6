"""Temperature scaling: exact scaling behaviour and NLL-minimizing fit."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsclassify.calibration import TemperatureScaler, fit_temperature
from hsclassify.errors import BadTemperature, EmptyInput


def sample_self_consistent_logits(n: int, classes: int, seed: int, spread: float = 2.0):
    """Logits with labels drawn from their own softmax: calibrated by design."""
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, spread, size=(n, classes))
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    labels = np.array([rng.choice(classes, p=p) for p in probs])
    return logits, labels


def mean_nll(logits, labels, temperature):
    probs = TemperatureScaler(temperature).probabilities(logits)
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.log(np.maximum(picked, 1e-12)).mean())


class TestScale:
    def test_unit_temperature_is_plain_softmax(self):
        logits = np.array([0.5, -1.0, 2.0])
        expected = np.exp(logits) / np.exp(logits).sum()
        probs = TemperatureScaler(1.0).probabilities(logits)
        np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_huge_temperature_flattens_to_uniform(self):
        probs = TemperatureScaler(1e6).probabilities(np.array([3.0, 0.0, -2.0, 1.0]))
        np.testing.assert_allclose(probs, 0.25, atol=1e-4)

    def test_halved_logits_match_half_temperature(self):
        got = TemperatureScaler(2.0).probabilities(np.array([2.0, 0.0]))
        assert got[0] == pytest.approx(0.7311, abs=1e-4)
        assert got[1] == pytest.approx(0.2689, abs=1e-4)

    def test_bad_temperature(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(BadTemperature):
                TemperatureScaler(bad).probabilities(np.zeros(2))

    def test_output_is_simplex(self):
        rng = np.random.default_rng(3)
        probs = TemperatureScaler(0.37).probabilities(rng.normal(size=7))
        assert probs.min() >= 0.0
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=6),
        st.floats(0.05, 20.0),
    )
    def test_argmax_preserved(self, logits, temperature):
        # Tie-tolerant: the original argmax must attain the scaled maximum
        # (near-equal logits may collapse to exact ties in float).
        logits = np.array(logits)
        probs = TemperatureScaler(temperature).probabilities(logits)
        assert probs[int(np.argmax(logits))] == probs.max()


class TestTemperatureScaler:
    def test_rejects_bad_temperature(self):
        for bad in (0.0, -2.0, math.inf):
            with pytest.raises(BadTemperature):
                TemperatureScaler(bad)


class TestFitTemperature:
    def test_calibrated_logits_fit_near_one(self):
        logits, labels = sample_self_consistent_logits(10_000, 10, seed=1234)
        scaler = fit_temperature(logits, labels)
        assert 0.8 <= scaler.temperature <= 1.25

    def test_scaled_logits_recover_the_scale(self):
        logits, labels = sample_self_consistent_logits(10_000, 10, seed=1234)
        scaler = fit_temperature(logits * 3.0, labels)
        assert 2.4 <= scaler.temperature <= 3.75

    def test_fitted_nll_not_worse_than_unit(self):
        logits, labels = sample_self_consistent_logits(2_000, 6, seed=77)
        for factor in (0.5, 1.0, 3.0):
            scaled = logits * factor
            fitted = fit_temperature(scaled, labels)
            assert mean_nll(scaled, labels, fitted.temperature) <= mean_nll(scaled, labels, 1.0) + 1e-9

    def test_single_correct_example_hits_lower_bound(self):
        logits = [np.array([2.0, 0.0, -1.0])]
        scaler = fit_temperature(logits, [0])
        assert scaler.temperature == pytest.approx(0.05, abs=2e-3)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            fit_temperature([], [])

    def test_fit_is_deterministic(self):
        logits, labels = sample_self_consistent_logits(500, 4, seed=9)
        first = fit_temperature(logits, labels).temperature
        second = fit_temperature(logits, labels).temperature
        assert first == second
