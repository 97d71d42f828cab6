"""Softmax head: loss, gradients, training dynamics, checkpointing."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from hsclassify import classifier
from hsclassify.classifier import (
    SoftmaxClassifier,
    TrainConfig,
    _gradient,
    softmax_inplace,
    train,
)
from hsclassify.errors import DimensionMismatch, EmptyInput, IndexOutOfRange


def finite_difference_gradients(weights, bias, inputs, labels, l2, h=1e-5):
    """Central-difference gradients of the training objective ``train`` descends."""

    def loss_at(w, b):
        return oracles.mean_loss(w, b, inputs, labels, l2)

    grad_w = np.zeros_like(weights)
    for i in range(weights.shape[0]):
        for j in range(weights.shape[1]):
            bumped = weights.copy()
            bumped[i, j] += h
            up = loss_at(bumped, bias)
            bumped[i, j] -= 2 * h
            down = loss_at(bumped, bias)
            grad_w[i, j] = (up - down) / (2 * h)
    grad_b = np.zeros_like(bias)
    for j in range(bias.shape[0]):
        bumped = bias.copy()
        bumped[j] += h
        up = loss_at(weights, bumped)
        bumped[j] -= 2 * h
        down = loss_at(weights, bumped)
        grad_b[j] = (up - down) / (2 * h)
    return grad_w, grad_b


def relative_error(analytic, numeric):
    scale = max(float(np.abs(numeric).max()), 1e-8)
    return float(np.abs(analytic - numeric).max()) / scale


def separable_blobs(seed=0, per_class=10, spread=0.4):
    rng = np.random.default_rng(seed)
    a = rng.normal((-2.0, 0.0), spread, size=(per_class, 2))
    b = rng.normal((2.0, 0.0), spread, size=(per_class, 2))
    inputs = np.vstack([a, b])
    labels = [0] * per_class + [1] * per_class
    return list(inputs), labels


def probabilities(clf, x):
    """The head's softmax, as the pipeline's temperature scaler takes it at T = 1."""
    return softmax_inplace(clf.logits(x))


class TestSoftmaxOfLogits:
    def test_zero_parameters_give_uniform(self):
        clf = SoftmaxClassifier(np.zeros((3, 4)), np.zeros(4), ["a", "b", "c", "d"])
        np.testing.assert_allclose(probabilities(clf, [1.0, 2.0, 3.0]), 0.25)

    def test_shift_invariance(self):
        clf = SoftmaxClassifier(np.eye(2), np.zeros(2), ["a", "b"])
        shifted = SoftmaxClassifier(np.eye(2), np.full(2, 5.0), ["a", "b"])
        x = [0.3, -1.2]
        np.testing.assert_allclose(probabilities(clf, x), probabilities(shifted, x), atol=1e-12)

    def test_two_class_logits_one_zero(self):
        clf = SoftmaxClassifier(np.array([[1.0, 0.0]]), np.zeros(2), ["a", "b"])
        probs = probabilities(clf, [1.0])
        assert probs[0] == pytest.approx(0.7311, abs=1e-4)
        assert probs[1] == pytest.approx(0.2689, abs=1e-4)

    def test_simplex_output(self):
        rng = np.random.default_rng(5)
        clf = SoftmaxClassifier(rng.normal(size=(4, 6)), rng.normal(size=6), list("abcdef"))
        probs = probabilities(clf, rng.normal(size=4))
        assert probs.min() >= 0.0
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch(self):
        clf = SoftmaxClassifier(np.zeros((3, 2)), np.zeros(2), ["a", "b"])
        with pytest.raises(DimensionMismatch):
            probabilities(clf, [1.0, 2.0])


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            d = int(rng.integers(1, 9))
            c = int(rng.integers(2, 6))
            n = int(rng.integers(1, 21))
            weights = rng.normal(size=(d, c))
            bias = rng.normal(size=c)
            inputs = rng.normal(size=(n, d))
            labels = rng.integers(0, c, size=n)
            l2 = float(rng.uniform(0.0, 0.1))
            grad_w, grad_b, _ = _gradient(weights, bias, inputs, labels, l2)
            fd_w, fd_b = finite_difference_gradients(weights, bias, inputs, labels, l2)
            assert relative_error(grad_w, fd_w) < 1e-4
            assert relative_error(grad_b, fd_b) < 1e-4


def reference_step(weights, bias, inputs, label_indices, l2_penalty):
    """One mini-batch step's gradients and summed cross-entropy from one plain softmax."""
    n = inputs.shape[0]
    logits = inputs @ weights + bias
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=-1, keepdims=True)
    picked = probs[np.arange(n), label_indices]
    loss_sum = float(-np.log(np.maximum(picked, 1e-12)).sum())
    delta = probs
    delta[np.arange(n), label_indices] -= 1.0
    grad_w = inputs.T @ delta / n + l2_penalty * weights
    grad_b = delta.mean(axis=0)
    return grad_w, grad_b, loss_sum


def reference_train(inputs, labels, val_inputs, val_labels, config, num_classes):
    """``train``'s loop: each epoch's loss is the steps' summed cross-entropy over n,
    plus the L2 penalty at the epoch's final weights."""
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(labels, dtype=int)
    has_val = len(val_inputs) > 0
    rng = np.random.default_rng(config.seed)
    weights = np.zeros((x.shape[1], num_classes))
    bias = np.zeros(num_classes)
    losses, accuracies = [], []
    best_acc, best, best_epoch = -1.0, (weights.copy(), bias.copy()), 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(x))
        total = 0.0
        for start in range(0, len(x), config.batch_size):
            batch = order[start : start + config.batch_size]
            grad_w, grad_b, loss_sum = reference_step(
                weights, bias, x[batch], y[batch], config.l2_penalty
            )
            weights -= config.learning_rate * grad_w
            bias -= config.learning_rate * grad_b
            total += loss_sum
        losses.append(total / len(x) + 0.5 * config.l2_penalty * float((weights**2).sum()))
        accuracy = 0.0
        if has_val:
            xv = np.asarray(val_inputs, dtype=float)
            predictions = np.argmax(xv @ weights + bias, axis=1)
            accuracy = float((predictions == np.asarray(val_labels)).mean())
        accuracies.append(accuracy)
        if has_val and accuracy > best_acc:
            best_acc, best, best_epoch = accuracy, (weights.copy(), bias.copy()), epoch
    if not has_val:
        best, best_epoch = (weights.copy(), bias.copy()), config.epochs - 1
    return best[0], best[1], losses, accuracies, best_epoch


def assert_train_stops_exactly(inputs, labels, val_inputs, val_labels, config, classes):
    """``train`` keeps the full-length reference's parameters and best epoch, and runs
    its epochs up to the first with validation top-1 1.0 (all of them if none is).

    Returns the reference's validation accuracies, one per epoch of the cap.
    """
    clf, report = train(
        inputs, labels, val_inputs, val_labels, config, [f"c{i}" for i in range(classes)]
    )
    weights, bias, losses, accuracies, best_epoch = reference_train(
        inputs, labels, val_inputs, val_labels, config, classes
    )
    assert clf.weights.tobytes() == weights.tobytes()
    assert clf.bias.tobytes() == bias.tobytes()
    assert report.best_epoch == best_epoch
    run = accuracies.index(1.0) + 1 if 1.0 in accuracies else config.epochs
    assert len(report.losses) == len(report.val_accuracies) == run
    assert [v.hex() for v in report.losses] == [v.hex() for v in losses[:run]]
    assert [v.hex() for v in report.val_accuracies] == [v.hex() for v in accuracies[:run]]
    return accuracies


def offset_line(seed=0, per_class=12):
    """One feature, classes on either side of 1.1: the boundary must move far from
    where zero weights put it, so validation becomes perfect only after some epochs."""
    rng = np.random.default_rng(seed)
    values = np.concatenate([rng.uniform(0.0, 1.0, per_class), rng.uniform(1.2, 2.2, per_class)])
    inputs = [np.array([v]) for v in values]
    val_inputs = [np.array([v]) for v in (0.2, 0.9, 1.3, 2.0)]
    return inputs, [0] * per_class + [1] * per_class, val_inputs, [0, 0, 1, 1]


class TestStepMatchesPlainReference:
    """``train`` and ``_gradient`` keep the bits of the plain one-softmax step."""

    def test_gradient_and_loss_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d, c, n = (int(v) for v in rng.integers(1, 9, size=3))
            args = (
                rng.normal(size=(d, c)),
                rng.normal(size=c),
                rng.normal(size=(n, d)),
                rng.integers(0, c, size=n),
                float(rng.uniform(0.0, 0.1)),
            )
            grad_w, grad_b, loss_sum = _gradient(*args)
            want_w, want_b, want_loss = reference_step(*args)
            assert grad_w.tobytes() == want_w.tobytes()
            assert grad_b.tobytes() == want_b.tobytes()
            assert loss_sum.hex() == want_loss.hex()

    @pytest.mark.parametrize(
        "case",
        [
            "batch_does_not_divide_n",
            "no_validation",
            "sentinel_validation",
            "single_class",
            "batch_size_one",
            "batch_larger_than_n",
        ],
    )
    def test_train(self, case):
        rng = np.random.default_rng(17)
        n, d, classes = 37, 5, 4
        inputs = list(rng.normal(size=(n, d)))
        labels = [int(v) for v in rng.integers(0, classes, size=n)]
        val_inputs = list(rng.normal(size=(9, d)))
        val_labels = [int(v) for v in rng.integers(0, classes, size=9)]
        batch_size = 8
        if case == "no_validation":
            val_inputs, val_labels = [], []
        elif case == "sentinel_validation":
            val_labels[::2] = [-1] * len(val_labels[::2])
        elif case == "single_class":
            classes, labels, val_labels = 1, [0] * n, [0] * 9
        elif case == "batch_size_one":
            batch_size = 1
        elif case == "batch_larger_than_n":
            batch_size = n + 5
        config = TrainConfig(
            epochs=12, learning_rate=0.5, batch_size=batch_size, seed=4, l2_penalty=1e-3
        )
        accuracies = assert_train_stops_exactly(
            inputs, labels, val_inputs, val_labels, config, classes
        )
        if case == "single_class":  # every prediction is right: stops after epoch 0
            assert accuracies[0] == 1.0


class TestStopAtFirstPerfectEpoch:
    """Training ends after the first epoch with validation top-1 1.0, keeping what
    a run of every epoch keeps: no later epoch can score strictly higher."""

    @pytest.mark.parametrize(
        "case, first_perfect",
        [
            ("perfect_at_epoch_0", 0),
            ("perfect_mid_run", 6),
            ("never_perfect", None),
            ("sentinel_validation", None),
            ("no_validation", None),
        ],
    )
    def test_matches_the_full_run(self, case, first_perfect):
        config = TrainConfig(epochs=12, learning_rate=0.5, batch_size=8, seed=4)
        if case in ("perfect_at_epoch_0", "sentinel_validation", "no_validation"):
            inputs, labels = separable_blobs(seed=3)
            val_inputs, val_labels = separable_blobs(seed=4, per_class=3)
            if case == "sentinel_validation":  # the other labels are all predicted right
                val_labels[0] = -1
            elif case == "no_validation":
                val_inputs, val_labels = [], []
        else:
            inputs, labels, val_inputs, val_labels = offset_line()
            if case == "never_perfect":
                config = replace(config, learning_rate=0.05)
        accuracies = assert_train_stops_exactly(
            inputs, labels, val_inputs, val_labels, config, 2
        )
        assert (accuracies.index(1.0) if 1.0 in accuracies else None) == first_perfect
        if case == "sentinel_validation":
            assert set(accuracies) == {(len(val_labels) - 1) / len(val_labels)}
        if case == "perfect_mid_run":  # the kept snapshot was replaced before the stop
            assert 0.0 < max(accuracies[:first_perfect]) < 1.0

    @pytest.mark.parametrize("case, first_perfect", [("blobs", 0), ("offset_line", 4)])
    def test_steps_run(self, case, first_perfect, monkeypatch):
        """A head perfect at epoch e runs (e + 1) x ceil(n / batch_size) steps."""
        if case == "blobs":
            inputs, labels = separable_blobs(seed=3)
            val_inputs, val_labels = separable_blobs(seed=4, per_class=3)
        else:
            inputs, labels, val_inputs, val_labels = offset_line()
        config = TrainConfig(epochs=12, learning_rate=0.5, batch_size=7, seed=4)
        steps = []
        gradient = classifier._gradient

        def counted(*args):
            steps.append(len(args[2]))
            return gradient(*args)

        monkeypatch.setattr(classifier, "_gradient", counted)
        _, report = train(inputs, labels, val_inputs, val_labels, config, ["a", "b"])
        assert report.best_epoch == first_perfect
        assert len(steps) == (first_perfect + 1) * math.ceil(len(inputs) / config.batch_size)
        assert sum(steps) == (first_perfect + 1) * len(inputs)


class TestTrain:
    def test_separable_classes_converge(self):
        inputs, labels = separable_blobs(seed=3)
        clf, report = train(inputs, labels, [], [], TrainConfig(epochs=20, seed=0), ["a", "b"])
        for before, after in zip(report.losses[:5], report.losses[1:6]):
            assert after < before
        predictions = [int(np.argmax(probabilities(clf, x))) for x in inputs]
        assert predictions == labels

    def test_zero_learning_rate_keeps_initialization(self):
        inputs, labels = separable_blobs(seed=1)
        clf, _ = train(
            inputs, labels, [], [], TrainConfig(epochs=1, learning_rate=0.0), ["a", "b"]
        )
        assert not clf.weights.any()
        assert not clf.bias.any()

    def test_single_class_degenerate_fit(self):
        rng = np.random.default_rng(9)
        inputs = list(rng.normal(size=(8, 3)))
        labels = [1] * 8
        clf, _ = train(inputs, labels, [], [], TrainConfig(epochs=5), ["a", "b", "c"])
        assert all(int(np.argmax(probabilities(clf, x))) == 1 for x in inputs)

    def test_best_epoch_selects_highest_validation_accuracy(self):
        blobs = (*separable_blobs(seed=7), *separable_blobs(seed=8, per_class=5))
        for inputs, labels, val_inputs, val_labels in (blobs, offset_line()):
            _, report = train(
                inputs, labels, val_inputs, val_labels, TrainConfig(epochs=10), ["a", "b"]
            )
            accs = report.val_accuracies
            assert len(accs) == (accs.index(1.0) + 1 if 1.0 in accs else 10)
            assert accs[report.best_epoch] == max(accs)
            assert report.best_epoch == accs.index(max(accs))  # earliest tie

    def test_seeded_training_is_bit_reproducible(self):
        inputs, labels = separable_blobs(seed=5)
        config = TrainConfig(epochs=7, seed=123)
        first, _ = train(inputs, labels, [], [], config, ["a", "b"])
        second, _ = train(inputs, labels, [], [], config, ["a", "b"])
        assert np.array_equal(first.weights, second.weights)
        assert np.array_equal(first.bias, second.bias)

    def test_sentinel_validation_label_counts_as_wrong(self):
        inputs, labels = separable_blobs(seed=2)
        _, report = train(
            inputs, labels, inputs[:4], [-1, -1, -1, -1], TrainConfig(epochs=3), ["a", "b"]
        )
        assert report.val_accuracies == [0.0, 0.0, 0.0]

    def test_epoch_loss_is_the_objective_when_the_parameters_stay_put(self):
        inputs, labels = separable_blobs(seed=4)
        config = TrainConfig(epochs=3, learning_rate=0.0, batch_size=7)
        _, report = train(inputs, labels, [], [], config, ["a", "b"])
        x, y = np.asarray(inputs), np.asarray(labels)
        want = oracles.mean_loss(np.zeros((2, 2)), np.zeros(2), x, y, config.l2_penalty)
        assert report.losses == pytest.approx([want] * 3, rel=1e-15)
        assert want == pytest.approx(math.log(2), rel=1e-15)

    def test_full_batch_loss_is_the_objective_at_the_epoch_start(self):
        """With one step per epoch the cross-entropy part is measured before the update."""
        inputs, labels = separable_blobs(seed=6)
        config = TrainConfig(epochs=4, batch_size=len(inputs), l2_penalty=0.0)
        x, y = np.asarray(inputs), np.asarray(labels)
        weights, bias = np.zeros((2, 2)), np.zeros(2)
        want = []
        for _ in range(config.epochs):
            want.append(oracles.mean_loss(weights, bias, x, y, 0.0))
            grad_w, grad_b, _ = _gradient(weights, bias, x, y, 0.0)
            weights = weights - config.learning_rate * grad_w
            bias = bias - config.learning_rate * grad_b
        _, report = train(inputs, labels, [], [], config, ["a", "b"])
        assert report.losses == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("split", ["training", "validation"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_inputs_fail_before_the_first_epoch(self, split, bad, monkeypatch):
        inputs, labels = separable_blobs(seed=2)
        val_inputs, val_labels = separable_blobs(seed=3, per_class=2)
        target = inputs if split == "training" else val_inputs
        target[1] = np.array([0.5, bad])

        def no_step(*args):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(classifier, "_gradient", no_step)
        with pytest.raises(ValueError, match=f"^{split} inputs must be finite$"):
            train(inputs, labels, val_inputs, val_labels, TrainConfig(epochs=2), ["a", "b"])

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            train([], [], [], [], TrainConfig(), ["a", "b"])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            train([np.zeros(2)], [0, 1], [], [], TrainConfig(), ["a", "b"])

    @pytest.mark.parametrize("label", [-1, 2])
    def test_label_outside_the_class_list(self, label):
        with pytest.raises(IndexOutOfRange):
            train([np.zeros(2)], [label], [], [], TrainConfig(), ["a", "b"])


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)

    def test_defaults(self):
        config = TrainConfig()
        assert config.epochs == 50
        assert config.learning_rate == 0.1
        assert config.batch_size == 32
        assert config.l2_penalty == 1e-4
