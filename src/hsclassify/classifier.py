"""Trainable multinomial softmax head over encoder outputs.

Plain mini-batch gradient descent on mean cross-entropy plus an L2 weight
penalty. Weights start at zero (the objective is convex for a linear head),
shuffling is driven by the config seed, and the returned parameters are the
snapshot from the best validation epoch. ``TrainConfig.epochs`` is a cap:
training stops after the first epoch whose validation top-1 is 1.0, since
a snapshot is replaced only by a strictly better epoch and no later epoch
can be kept. The returned parameters are the ones a run of every epoch
keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, EmptyInput, IndexOutOfRange

_LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    learning_rate: float = 0.1
    batch_size: int = 32
    seed: int = 0
    l2_penalty: float = 1e-4

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.l2_penalty < 0:
            raise ValueError("l2_penalty must be >= 0")


@dataclass
class TrainReport:
    """Per-epoch training curve and the selected epoch.

    The lists hold one entry per epoch run: all of ``TrainConfig.epochs``,
    or fewer when an epoch's validation top-1 reached 1.0 and training
    stopped there (that epoch is then ``best_epoch``). The entries equal the
    first entries of a run of every epoch.

    ``losses[e]`` is the mean of each row's cross-entropy at the parameters
    its epoch-``e`` step began from, plus (l2/2)*||W||^2 at the epoch's end.
    ``best_epoch`` is the argmax of validation top-1 accuracy with ties going
    to the earliest epoch; when no validation data was supplied the final
    epoch is kept and all accuracies read 0.0.
    """

    losses: list[float] = field(default_factory=list)
    val_accuracies: list[float] = field(default_factory=list)
    best_epoch: int = 0


# Each mini-batch softmax and validation pass computes its logits into one
# array and works on it in place, in the plain expressions' order (``x @ W +
# b``, ``exp(z - max) / sum``), so every float is the same. Passes are not
# split into row chunks: BLAS may round a chunk's rows of ``x @ W`` otherwise
# than the same rows of the whole product (a one-row chunk goes to a
# matrix-vector kernel, and threads split rows elsewhere). The step's
# reductions call ``np.maximum.reduce`` and ``np.add.reduce`` directly: the
# ndarray methods ``max``, ``sum`` and ``mean`` run the same reductions
# through Python wrappers.


def _logits(weights, bias, inputs) -> np.ndarray:
    logits = inputs @ weights
    logits += bias
    return logits


def _exp_shifted(logits: np.ndarray) -> np.ndarray:
    """exp(logits - row max), written over ``logits``."""
    logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
    return np.exp(logits, out=logits)


def softmax_inplace(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, written over ``logits``."""
    exp = _exp_shifted(logits)
    exp /= np.add.reduce(exp, axis=-1, keepdims=True)
    return exp


def picked_probabilities(logits: np.ndarray, label_indices) -> np.ndarray:
    """softmax(logits)[i, label_indices[i]] for each row i; overwrites ``logits``."""
    exp = _exp_shifted(logits)
    return exp[np.arange(exp.shape[0]), label_indices] / np.add.reduce(exp, axis=-1)


def mean_log_loss(picked: np.ndarray) -> float:
    """Mean of -ln p over the picked probabilities, each floored at 1e-12."""
    return float(-np.log(np.maximum(picked, _LOG_FLOOR)).mean())


def _gradient(weights, bias, inputs, label_indices, l2_penalty):
    """Gradients (W, b) of mean cross-entropy + (l2/2)*||W||^2, and the summed cross-entropy."""
    rows = np.arange(inputs.shape[0])
    delta = softmax_inplace(_logits(weights, bias, inputs))
    picked = delta[rows, label_indices]  # a copy, taken before the one-hot subtraction
    np.log(np.maximum(picked, _LOG_FLOOR, out=picked), out=picked)
    loss_sum = -float(np.add.reduce(picked))
    delta[rows, label_indices] -= 1.0
    grad_w = inputs.T @ delta / rows.size + l2_penalty * weights
    grad_b = np.add.reduce(delta, axis=0) / rows.size
    return grad_w, grad_b, loss_sum


class SoftmaxClassifier:
    """Linear head: softmax(x @ W + b) over a bound label list."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray, labels: Sequence[str]):
        weights = np.asarray(weights, dtype=float)
        bias = np.asarray(bias, dtype=float)
        if weights.ndim != 2 or bias.ndim != 1:
            raise DimensionMismatch("weights must be d x C, bias length C")
        if weights.shape[1] != bias.shape[0] or weights.shape[1] != len(labels):
            raise DimensionMismatch("class counts of weights, bias and labels differ")
        if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
            raise ValueError("parameters must be finite")
        self.weights = weights
        self.bias = bias
        self.labels = list(labels)

    @property
    def input_dimension(self) -> int:
        return self.weights.shape[0]

    def logits(self, x) -> np.ndarray:
        """``x @ W + b`` for one input ``(d,)`` or for each row of ``(n, d)``.

        Each row is a ``(1, d)`` stack item of one product, which makes one
        matrix-vector call per row, so a row's logits have the bits of that
        row alone. The plain ``(n, d) @ W`` is a matrix-matrix call whose
        rounding depends on the row count.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.input_dimension:
            raise DimensionMismatch(
                f"input shape {x.shape} does not match d={self.input_dimension}"
            )
        return (x[..., None, :] @ self.weights)[..., 0, :] + self.bias


def _top1_accuracy(weights, bias, inputs, label_indices) -> float:
    if inputs.shape[0] == 0:
        return 0.0
    predictions = np.argmax(_logits(weights, bias, inputs), axis=1)
    return float((predictions == label_indices).mean())


def train(
    inputs: Sequence[np.ndarray],
    labels: Sequence[int],
    val_inputs: Sequence[np.ndarray],
    val_labels: Sequence[int],
    config: TrainConfig,
    class_labels: Sequence[str],
) -> tuple[SoftmaxClassifier, TrainReport]:
    """Fit a softmax head; returns the parameters from the best epoch.

    ``labels`` are indices into ``class_labels``. Validation labels may use
    the sentinel -1 for cases whose gold label is outside the class list;
    those always count as misclassified.
    """
    if len(inputs) == 0:
        raise EmptyInput("no training inputs")
    if len(inputs) != len(labels):
        raise DimensionMismatch(f"{len(inputs)} inputs vs {len(labels)} labels")
    if len(val_inputs) != len(val_labels):
        raise DimensionMismatch(f"{len(val_inputs)} val inputs vs {len(val_labels)} val labels")

    x = np.asarray(inputs, dtype=float)
    y = np.asarray(labels, dtype=int)
    num_classes = len(class_labels)
    if num_classes < 1:
        raise EmptyInput("class label list is empty")
    if y.min(initial=0) < 0 or y.max(initial=0) >= num_classes:
        raise IndexOutOfRange("training label index outside the class list")
    if x.ndim != 2:
        raise DimensionMismatch("inputs must share one vector length")
    dim = x.shape[1]

    has_val = len(val_inputs) > 0
    if has_val:
        xv = np.asarray(val_inputs, dtype=float)
        yv = np.asarray(val_labels, dtype=int)
        if xv.shape[1] != dim:
            raise DimensionMismatch("validation vectors have a different length")
    else:
        xv = np.zeros((0, dim))
        yv = np.zeros(0, dtype=int)
    for split, array in (("training", x), ("validation", xv)):
        if not np.isfinite(array).all():
            raise ValueError(f"{split} inputs must be finite")

    rng = np.random.default_rng(config.seed)
    weights = np.zeros((dim, num_classes))
    bias = np.zeros(num_classes)

    report = TrainReport()
    best_acc, best = -1.0, (weights.copy(), bias.copy())

    for epoch in range(config.epochs):
        order = rng.permutation(len(x))
        loss_sum = 0.0
        for start in range(0, len(x), config.batch_size):
            batch = order[start : start + config.batch_size]
            grad_w, grad_b, loss = _gradient(weights, bias, x[batch], y[batch], config.l2_penalty)
            weights -= config.learning_rate * grad_w
            bias -= config.learning_rate * grad_b
            loss_sum += loss

        penalty = 0.5 * config.l2_penalty * float((weights**2).sum())
        report.losses.append(loss_sum / len(x) + penalty)
        accuracy = _top1_accuracy(weights, bias, xv, yv) if has_val else 0.0
        report.val_accuracies.append(accuracy)
        if has_val and accuracy > best_acc:
            best_acc = accuracy
            best = (weights.copy(), bias.copy())
            report.best_epoch = epoch
            if accuracy == 1.0:  # no later epoch can score higher
                break

    if not has_val:
        best, report.best_epoch = (weights, bias), config.epochs - 1
    return SoftmaxClassifier(best[0], best[1], class_labels), report
