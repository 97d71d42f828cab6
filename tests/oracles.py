"""Independent brute-force oracles and bit-exact reference copies.

The oracles deliberately avoid the package's numpy code paths: similarity
and scoring run as plain-python double loops, and retrieval is found by
enumerating every ordered sentence subset and keeping the unique one
consistent with the selection rules.

The reference copies at the end are the plain whole-array expressions of
the training loss, its gradient, validation accuracy, the calibration NLL
and the token-by-token pooled encoding. The package computes the same
floats in one buffer or from prepared parts, and the exactness tests compare
the two bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from hsclassify.textproc import tokenize


def oracle_cosine(u: list[float], v: list[float]) -> float:
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return dot / (nu * nv)


def oracle_best_alignment(
    keyword: str, sentence: list[str], vectors: dict[str, list[float]], dim: int
) -> float:
    zero = [0.0] * dim
    best = 0.0 if not sentence else -1.0
    for token in sentence:
        sim = oracle_cosine(vectors.get(keyword, zero), vectors.get(token, zero))
        best = max(best, sim)
    return best


def oracle_alignment_score(
    keywords: set[str],
    sentence: list[str],
    vectors: dict[str, list[float]],
    idf: dict[str, float],
    default_idf: float,
    dim: int,
) -> float:
    total = 0.0
    for keyword in sorted(keywords):
        best = max(0.0, oracle_best_alignment(keyword, sentence, vectors, dim))
        total += idf.get(keyword, default_idf) * best
    return total


@dataclass
class OracleRetrieval:
    indices: list[int]
    scores: list[float]
    covered: set[str]
    uncovered: set[str]


def _argmax_lowest_index(scores: dict[int, float]) -> int:
    best_index = min(scores)
    best_score = scores[best_index]
    for index in sorted(scores):
        if scores[index] > best_score:
            best_index, best_score = index, scores[index]
    return best_index


def oracle_retrieve(
    keywords: set[str],
    sentences: list[list[str]],
    vectors: dict[str, list[float]],
    idf: dict[str, float],
    default_idf: float,
    dim: int,
    max_sentences: int,
    coverage_threshold: float,
) -> OracleRetrieval:
    """Enumerate all ordered sentence subsets; exactly one obeys the rules."""

    def step_scores(uncovered: set[str], remaining: set[int]) -> dict[int, float]:
        return {
            i: oracle_alignment_score(uncovered, sentences[i], vectors, idf, default_idf, dim)
            for i in remaining
        }

    def newly_covered(uncovered: set[str], index: int) -> set[str]:
        return {
            t
            for t in uncovered
            if oracle_best_alignment(t, sentences[index], vectors, dim) >= coverage_threshold
        }

    def check(sequence: tuple[int, ...]) -> OracleRetrieval | None:
        uncovered = set(keywords)
        remaining = set(range(len(sentences)))
        scores: list[float] = []
        for index in sequence:
            if not uncovered or not remaining:
                return None
            step = step_scores(uncovered, remaining)
            if _argmax_lowest_index(step) != index:
                return None
            gained = newly_covered(uncovered, index)
            if not gained:
                return None
            scores.append(step[index])
            uncovered -= gained
            remaining.discard(index)
        # Termination must be justified at the end of the sequence.
        if uncovered and remaining and len(sequence) < max_sentences:
            step = step_scores(uncovered, remaining)
            if newly_covered(uncovered, _argmax_lowest_index(step)):
                return None
        return OracleRetrieval(
            indices=list(sequence),
            scores=scores,
            covered=set(keywords) - uncovered,
            uncovered=uncovered,
        )

    valid: list[OracleRetrieval] = []
    limit = min(max_sentences, len(sentences))
    for size in range(limit + 1):
        for sequence in itertools.permutations(range(len(sentences)), size):
            outcome = check(sequence)
            if outcome is not None:
                valid.append(outcome)
    assert len(valid) == 1, f"expected exactly one rule-consistent sequence, got {len(valid)}"
    return valid[0]


# -- bit-exact reference copies ------------------------------------------------

LOG_FLOOR = 1e-12


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def mean_loss(weights, bias, inputs, label_indices, l2_penalty) -> float:
    """Mean cross-entropy + (l2/2)*||W||^2, with a fresh array per step."""
    n = inputs.shape[0]
    probs = softmax(inputs @ weights + bias)
    picked = probs[np.arange(n), label_indices]
    loss = float(-np.log(np.maximum(picked, LOG_FLOOR)).mean())
    return loss + 0.5 * l2_penalty * float((weights**2).sum())


def gradient(weights, bias, inputs, label_indices, l2_penalty) -> tuple[np.ndarray, np.ndarray]:
    n = inputs.shape[0]
    delta = softmax(inputs @ weights + bias)
    delta[np.arange(n), label_indices] -= 1.0
    grad_w = inputs.T @ delta / n + l2_penalty * weights
    grad_b = delta.mean(axis=0)
    return grad_w, grad_b


def mean_loss_and_gradient(weights, bias, inputs, label_indices, l2_penalty):
    """The training objective and its gradients w.r.t. W and bias."""
    loss = mean_loss(weights, bias, inputs, label_indices, l2_penalty)
    grad_w, grad_b = gradient(weights, bias, inputs, label_indices, l2_penalty)
    return loss, grad_w, grad_b


def top1_accuracy(weights, bias, inputs, label_indices) -> float:
    if inputs.shape[0] == 0:
        return 0.0
    predictions = np.argmax(inputs @ weights + bias, axis=1)
    return float((predictions == label_indices).mean())


def mean_nll(logits: np.ndarray, labels: np.ndarray, temperature: float) -> float:
    probs = softmax(np.asarray(logits, dtype=float) / temperature)
    picked = probs[np.arange(logits.shape[0]), labels]
    return float(-np.log(np.maximum(picked, LOG_FLOOR)).mean())


def scalar_encode(vectors, idf, text: str) -> np.ndarray:
    """``PooledEncoder.encode`` as a running sum over the tokens of ``text``."""
    pooled = np.zeros(vectors.dimension)
    total_weight = 0.0
    for token in tokenize(text):
        if token not in vectors:
            continue
        weight = idf.value(token)
        pooled += weight * vectors.get(token)
        total_weight += weight
    if total_weight <= 0.0:
        return np.zeros(vectors.dimension)
    pooled /= total_weight
    norm = np.linalg.norm(pooled)
    if norm > 0.0:
        pooled /= norm
    return pooled


def joined_encode_with_evidence(vectors, idf, description: str, sentences) -> np.ndarray:
    """The description and its evidence joined into one text, then encoded."""
    if not sentences:
        return scalar_encode(vectors, idf, description)
    return scalar_encode(vectors, idf, " ‖ ".join([description, *sentences]))
