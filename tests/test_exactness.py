"""Bit-exactness of the one-buffer passes and of pooling from prepared parts.

Each function is compared with ``==`` (on bytes or float hex) against the
plain whole-array or token-by-token reference copy in ``oracles``. Matrix
products go through BLAS, whose kernels depend on the row count and the
thread count, so CI also runs this file with ``OPENBLAS_NUM_THREADS=1``.
Evidence parts come from the encoder and from the retriever's prepared
manual entry, the source the pipeline reads them from.
"""

from __future__ import annotations

import numpy as np
import pytest

import oracles
from hsclassify import calibration
from hsclassify.alignment import KeySentenceRetriever
from hsclassify.calibration import _mean_nll, fit_temperature
from hsclassify.classifier import _gradient, _top1_accuracy
from hsclassify.encoder import PooledEncoder
from hsclassify.textproc import WordVectorTable, tokenize

from conftest import encode, encode_with_evidence, idf_encoder, make_manual_entry

# One row, which BLAS routes to a matrix-vector kernel, and counts on either
# side of 1,024 rows and twice that.
K = 1024
ROW_COUNTS = [1, K - 1, K, K + 1, 2 * K + 1]
CLASS_COUNTS = [1, 7, 360]


def passes_instance(n: int, classes: int, seed: int = 0):
    rng = np.random.default_rng([seed, n, classes])
    d = 13
    weights = rng.normal(size=(d, classes))
    bias = rng.normal(size=classes)
    inputs = rng.normal(size=(n, d))
    labels = rng.integers(0, classes, size=n)
    return weights, bias, inputs, labels


def extreme_logits(n: int, classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Logits of +-700: exp underflows to 0 and the log floor is hit."""
    rng = np.random.default_rng([7, n, classes])
    logits = rng.choice([-700.0, 0.0, 700.0], size=(n, classes))
    labels = rng.integers(0, classes, size=n)
    return logits, labels


class TestBufferedPasses:
    @pytest.mark.parametrize("classes", CLASS_COUNTS)
    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_loss_gradient_and_accuracy(self, n, classes):
        weights, bias, inputs, labels = passes_instance(n, classes)
        args = (weights, bias, inputs, labels, 1e-3)
        want_w, want_b, want_loss = oracles.gradient_and_loss_sum(*args)
        grad_w, grad_b, loss_sum = _gradient(*args)
        assert grad_w.tobytes() == want_w.tobytes()
        assert grad_b.tobytes() == want_b.tobytes()
        assert loss_sum.hex() == want_loss.hex()
        validation = labels.copy()
        validation[::3] = -1  # gold label outside the class list
        got = _top1_accuracy(weights, bias, inputs, validation)
        assert got.hex() == oracles.top1_accuracy(weights, bias, inputs, validation).hex()

    @pytest.mark.parametrize("classes", CLASS_COUNTS)
    def test_extreme_logits_hit_the_log_floor(self, classes):
        n = K + 1
        logits, labels = extreme_logits(n, classes)
        args = (np.eye(classes), np.zeros(classes), logits, labels)
        want = oracles.summed_cross_entropy(*args)
        assert _gradient(*args, 0.0)[2].hex() == want.hex()
        for temperature in (0.05, 1.0, 20.0):
            got = _mean_nll(logits, labels, temperature)
            assert got.hex() == oracles.mean_nll(logits, labels, temperature).hex()
        if classes > 1:  # some true-class probabilities underflow to 0
            assert not oracles.softmax(logits)[np.arange(n), labels].all()

    @pytest.mark.parametrize("classes", CLASS_COUNTS)
    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_mean_nll(self, n, classes):
        weights, bias, inputs, labels = passes_instance(n, classes, seed=1)
        logits = inputs @ weights + bias
        scaled = np.empty_like(logits)  # one buffer for every temperature, as in the search
        for temperature in (0.05, 0.7, 1.0, 3.3, 20.0):
            want = oracles.mean_nll(logits, labels, temperature).hex()
            assert _mean_nll(logits, labels, temperature).hex() == want
            assert _mean_nll(logits, labels, temperature, out=scaled).hex() == want

    @pytest.mark.parametrize("n", [1, K + 1, 2 * K + 1])
    def test_fit_temperature_equals_search_on_reference_objective(self, n, monkeypatch):
        weights, bias, inputs, labels = passes_instance(n, 7, seed=2)
        logits = list(3.0 * (inputs @ weights + bias))
        got = fit_temperature(logits, labels).temperature
        monkeypatch.setattr(calibration, "_mean_nll", oracles.mean_nll)
        assert got.hex() == fit_temperature(logits, labels).temperature.hex()


def encoder_of(vectors: dict, idf: dict, documents: int = 5) -> PooledEncoder:
    return idf_encoder(WordVectorTable(vectors), idf, documents)


def retrieved_from_manual(encoder: PooledEncoder, description: str, sentences: list[str]):
    """The description pooled with the retriever's parts of ``sentences``, taken in order."""
    entry = make_manual_entry("8541", sorted(set(sentences)))
    prepared = KeySentenceRetriever(encoder).prepare(entry)
    parts = [prepared.parts[entry.sentences.index(s)] for s in sentences]
    vectors, idf = encoder.vectors, oracles.idf_values(encoder)
    for sentence, part in zip(sentences, parts):
        assert part.dtype == np.intp
        assert part.tobytes() == encoder.parts([tokenize(sentence)])[0].tobytes()
        # The gathered rows and weights are each known token's own.
        known = [t for t in tokenize(sentence) if t in vectors]
        rows = np.array([vectors.get(t) for t in known]).reshape(len(known), vectors.dimension)
        assert vectors.matrix[part].tobytes() == rows.tobytes()
        assert encoder.weights[part].tobytes() == np.array([idf[t] for t in known]).tobytes()
    return encoder.pool_many([[*encoder.parts([tokenize(description)]), *parts]])[0]


def assert_pools_exactly(encoder: PooledEncoder, description: str, sentences: list[str]):
    assert encode(encoder, description).tobytes() == (
        oracles.scalar_encode(encoder, description).tobytes()
    )
    want = oracles.joined_encode_with_evidence(encoder, description, sentences)
    assert encode_with_evidence(encoder, description, sentences).tobytes() == want.tobytes()
    manual = [s for s in sentences if s.strip()]  # a manual sentence is never blank
    if manual:
        want = oracles.joined_encode_with_evidence(encoder, description, manual)
        assert retrieved_from_manual(encoder, description, manual).tobytes() == want.tobytes()


class TestPoolingIsExact:
    def test_seeded_cases(self):
        rng = np.random.default_rng(11)
        vocab = [f"w{i}" for i in range(40)]
        for _ in range(400):
            d = int(rng.integers(1, 9))
            vectors = {t: rng.normal(size=d) * 10.0 ** rng.integers(-3, 4) for t in vocab}
            idf = {t: float(rng.uniform(0.0, 3.0)) for t in vocab[::2]}
            # Out-of-vocabulary words ("oov...") and punctuation mix in.
            words = [*vocab, "oov1", "oov2", "--", "a.b"]

            def text(length):
                return " ".join(rng.choice(words, size=int(length)))

            encoder = encoder_of(vectors, idf)
            sentences = [text(rng.integers(0, 12)) for _ in range(int(rng.integers(0, 5)))]
            assert_pools_exactly(encoder, text(rng.integers(0, 15)), sentences)
            # Sentences repeat and come in another order.
            assert_pools_exactly(encoder, text(rng.integers(0, 15)), sentences[::-1] * 2)

    def test_description_without_in_vocabulary_token(self):
        encoder = encoder_of({"x": [1.0, 2.0], "y": [0.5, -1.0]}, {"x": 1.5})
        assert_pools_exactly(encoder, "unknown words only", ["x y", "y"])
        assert_pools_exactly(encoder, "", ["x"])

    def test_token_less_sentence(self):
        encoder = encoder_of({"x": [1.0, 2.0], "y": [0.5, -1.0]}, {"x": 1.5})
        assert_pools_exactly(encoder, "x y", ["--", "", "y x", "?!"])

    def test_repeated_tokens(self):
        encoder = encoder_of({"x": [0.1, 0.7, 0.3], "y": [0.5, -1.0, 1e-3]}, {"x": 0.3})
        assert_pools_exactly(encoder, "x x y x y y x", ["x x", "y y y", "x"])

    def test_negative_zero_components(self):
        encoder = encoder_of({"x": [-0.0, 1.0, -0.0], "y": [-0.0, -2.0, 0.0]}, {})
        assert_pools_exactly(encoder, "x", ["y"])
        assert_pools_exactly(encoder, "x y x", ["x", "y"])
        assert np.signbit(encode(encoder, "x")).tolist() == [False, False, False]

    @pytest.mark.parametrize("weight", [1e-20, 1e20])
    def test_vectors_and_weights_at_the_range_edges(self, weight):
        encoder = encoder_of(
            {"x": [1e-50, 3e-50, 0.0], "y": [1e50, -1e-50, 1e-49], "z": [-1e50, 0.0, 1e50]},
            {"y": weight, "z": 1e-20},
        )
        assert_pools_exactly(encoder, "x y", ["y x x", "x"])
        assert_pools_exactly(encoder, "x", [])
        assert_pools_exactly(encoder, "z x", ["x", "z y z"])

    def test_all_zero_idf_weights_give_the_zero_vector(self):
        encoder = encoder_of({"x": [1.0, 2.0], "y": [0.5, -1.0]}, {"x": 0.0, "y": 0.0})
        assert_pools_exactly(encoder, "x y", ["y", "x x"])
        assert not encode(encoder, "x y").any()
        assert not encode_with_evidence(encoder, "x", ["y"]).any()
