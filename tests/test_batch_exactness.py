"""Bit-exactness of the batched inference core against its one-item references.

``infer_many`` must give each description the trace that the
per-description reference (``oracles.reference_infer``) computes for it
alone, at any batch size and in every pipeline mode. ``pool_many``,
``retrieve_many``, the stacked head product and row softmax must each equal
their token-by-token, scalar or single-row reference. Everything compares
with ``==`` on bytes or float hex. Matrix products go through BLAS, whose
kernels depend on the row count and the thread count, so CI also runs this
file with ``OPENBLAS_NUM_THREADS=1``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import oracles
from hsclassify.alignment import KeySentenceRetriever, RetrievalConfig
from hsclassify.calibration import TemperatureScaler
from hsclassify.classifier import SoftmaxClassifier, TrainConfig
from hsclassify.corpus import ManualEntry, chronological_split
from hsclassify.encoder import PooledEncoder
from hsclassify.errors import MissingManualWarning
from hsclassify.pipeline import CHUNK_ROWS, PipelineConfig, fit
from hsclassify.synth import SynthConfig, generate
from hsclassify.textproc import IdfTable, WordVectorTable, tokenize

BATCH_SIZES = [1, 2, 40, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1]

SMALL = SynthConfig(
    headings=6,
    subheadings_per_heading=2,
    train_per_subheading=12,
    validation_per_subheading=3,
    test_per_subheading=3,
    vector_dimension=24,
    seed=11,
)

TRAIN = dict(
    heading_train=TrainConfig(epochs=8, learning_rate=0.5, seed=0),
    subheading_train=TrainConfig(epochs=8, learning_rate=0.5, seed=1),
)

MODES = {
    "evidence": {},
    "ablation": dict(train_ablation=True),
    "heading_without_manual": {},
    # Stage 3 falls back to the description vector where the top heading has
    # no manual, while the ablation head reads it for every description.
    "ablation_heading_without_manual": dict(train_ablation=True),
    # The stage-3 vector differs from the ablation head's input by one
    # pooled sentence.
    "ablation_one_sentence": dict(
        train_ablation=True, retrieval=RetrievalConfig(max_sentences=1)
    ),
    # Retrieval settings: a one-sentence cap, and a threshold that many more
    # alignments reach, so the batched early stop ends loops elsewhere.
    "one_sentence": dict(retrieval=RetrievalConfig(max_sentences=1)),
    "loose_coverage": dict(retrieval=RetrievalConfig(coverage_threshold=0.5)),
}
# Modes whose first heading's manual entry is deleted before fitting.
WITHOUT_MANUAL = {"heading_without_manual", "ablation_heading_without_manual"}


@pytest.fixture(scope="module")
def corpus():
    corpus = generate(SMALL)
    return corpus, chronological_split(corpus.cases)


@pytest.fixture(scope="module", params=sorted(MODES))
def mode(request, corpus):
    corpus, split = corpus
    manuals = dict(corpus.manual)
    if request.param in WITHOUT_MANUAL:
        del manuals[sorted(manuals)[0]]
    config = PipelineConfig(**TRAIN, **MODES[request.param])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MissingManualWarning)
        model = fit(split.train, split.validation, manuals, corpus.vectors, config=config)
    return request.param, model


def descriptions(split) -> list[str]:
    """CHUNK_ROWS + 1 descriptions; empty and all-out-of-vocabulary ones among them."""
    texts = [c.description for c in (*split.train, *split.validation, *split.test)]
    for position, text in ((1, ""), (39, "qqq zzz"), (CHUNK_ROWS - 1, "--"), (CHUNK_ROWS, "xq")):
        texts.insert(position, text)
    assert len(texts) > CHUNK_ROWS
    return texts[: CHUNK_ROWS + 1]


def retrieval_key(result):
    if result is None:
        return None
    sentences = [(s.index, s.score.hex(), s.text) for s in result.sentences]
    keywords = (result.covered_keywords, result.uncovered_keywords, result.query_keywords)
    return sentences, keywords


def assert_same_trace(got, want):
    assert got.description == want.description
    assert got.tokens == want.tokens
    for name in (
        "heading_logits",
        "heading_probabilities",
        "stage3_vector",
        "subheading_logits",
        "subheading_probabilities",
        "ablation_logits",
    ):
        got_array, want_array = getattr(got, name), getattr(want, name)
        if want_array is None:
            assert got_array is None, name
        else:
            assert got_array.shape == want_array.shape, name
            assert got_array.tobytes() == want_array.tobytes(), name
    assert got.ranked_headings == want.ranked_headings
    assert all(type(h) is int for h in got.ranked_headings)
    assert list(map(retrieval_key, got.retrievals)) == list(map(retrieval_key, want.retrievals))


class TestInferMany:
    @pytest.mark.parametrize("headings", [0, 5])
    def test_traces_equal_the_per_description_reference(self, mode, corpus, headings):
        name, model = mode
        texts = descriptions(corpus[1])
        reference = [oracles.reference_infer(model, text, headings) for text in texts]
        for size in BATCH_SIZES:
            traces = list(model.infer_many(texts[:size], headings))
            assert len(traces) == size
            for got, want in zip(traces, reference):
                assert_same_trace(got, want)
        for position in (1, 39):  # an empty and an all-out-of-vocabulary description alone
            assert_same_trace(model.infer(texts[position], headings), reference[position])

        retrievals = [r for trace in reference for r in trace.retrievals]
        assert any(r is not None and r.sentences for r in retrievals)
        if name in WITHOUT_MANUAL:
            assert None in retrievals
        if MODES[name].get("train_ablation"):
            assert all(trace.ablation_logits is not None for trace in reference)

    def test_empty_batch(self, mode):
        assert list(mode[1].infer_many([])) == []


# -- pooling --------------------------------------------------------------------


def random_encoder(rng, d: int) -> PooledEncoder:
    vocab = [f"w{i}" for i in range(30)]
    vectors = {t: rng.normal(size=d) * 10.0 ** rng.integers(-300, 3) for t in vocab}
    vectors["neg"] = np.full(d, -0.0)
    vectors["tiny"] = np.full(d, 5e-324)
    # Some idf weights are zero, so a group's total weight can be zero.
    idf = {t: float(rng.choice([0.0, rng.uniform(0.0, 3.0)])) for t in [*vocab, "neg"]}
    return PooledEncoder(WordVectorTable(vectors), IdfTable(5, idf))


def assert_pools_like_the_token_loop(encoder: PooledEncoder, groups):
    got = encoder.pool_many(groups)
    assert got.shape == (len(groups), encoder.output_dimension)
    for row, group in zip(got, groups):
        want = oracles.scalar_pool(group, encoder.output_dimension)
        assert row.tobytes() == want.tobytes()


class TestPoolMany:
    @pytest.mark.parametrize("seed", range(8))
    def test_groups_of_unequal_length(self, seed):
        rng = np.random.default_rng([31, seed])
        words = [*(f"w{i}" for i in range(30)), "neg", "tiny", "oov"]
        for _ in range(25):
            encoder = random_encoder(rng, int(rng.choice([1, 2, 7, 50])))
            groups = [
                [
                    encoder.part(rng.choice(words, size=int(rng.integers(0, 12))).tolist())
                    for _ in range(int(rng.integers(1, 4)))
                ]
                for _ in range(int(rng.integers(1, 45)))
            ]
            assert_pools_like_the_token_loop(encoder, groups)

    def test_negative_zero_subnormal_and_zero_idf_tokens(self):
        tiny = 5e-324
        encoder = PooledEncoder(
            WordVectorTable({"x": [-0.0, 1.0, -0.0], "y": [-0.0, -2.0, 0.0],
                             "t": [tiny, 3 * tiny, 0.0], "z": [1.0, 2.0, 3.0]}),
            IdfTable(5, {"z": 0.0, "t": 1e-5}),
        )

        def part(text):
            return encoder.part(tokenize(text))

        groups = [[part("x")], [part("x y x"), part("y")], [part("t x t")], [part("z z")],
                  [part("")], [part("z"), part("x")], [part("t")]]
        assert_pools_like_the_token_loop(encoder, groups)
        pooled = encoder.pool_many(groups)
        assert not np.signbit(pooled[0]).any()
        assert not pooled[3].any() and not pooled[4].any()

    def test_pool_is_the_one_group_case(self):
        encoder = random_encoder(np.random.default_rng(5), 7)
        parts = [encoder.part(["w1", "w2", "neg"]), encoder.part(["w3", "oov"])]
        assert encoder.pool(parts).tobytes() == encoder.pool_many([parts])[0].tobytes()
        assert encoder.pool_many([]).shape == (0, 7)


# -- retrieval ------------------------------------------------------------------


def make_retriever(vectors: dict, idf_values: dict, **config) -> KeySentenceRetriever:
    return KeySentenceRetriever(
        WordVectorTable({k: np.asarray(v, dtype=float) for k, v in vectors.items()}),
        IdfTable(document_count=4, values=idf_values),
        stopwords=frozenset(),
        config=RetrievalConfig(**config),
    )


def assert_retrieves_like_the_scalar_loop(retriever, texts, entry):
    queries = [retriever.query(tokenize(text)) for text in texts]
    results = retriever.retrieve_many(queries, entry)
    assert len(results) == len(texts)
    for text, got in zip(texts, results):
        want = oracles.scalar_retrieve(retriever, text, entry)
        assert retrieval_key(got) == retrieval_key(want)
        assert retrieval_key(retriever.retrieve(text, entry)) == retrieval_key(want)
    return results


class TestRetrieveMany:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_manuals(self, seed):
        rng = np.random.default_rng([47, seed])
        dim = int(rng.choice([3, 16, 50]))
        vocab = [f"w{i}" for i in range(30)]
        directions = rng.normal(size=(3, dim))
        vectors = {}
        for word in vocab[:-4]:  # the last four words have no vector
            scale = float(rng.choice([1.0, rng.uniform(0.3, 3.0)]))
            direction = directions[int(rng.integers(0, 3))]
            vectors[word] = direction * scale if rng.random() < 0.5 else rng.normal(size=dim)
        idf_values = {w: float(rng.choice([0.5, 1.0, rng.uniform(0.1, 3.0)])) for w in vocab}
        sentences = [
            " ".join(rng.choice(vocab, size=int(rng.integers(0, 9))).tolist()) or "--"
            for _ in range(int(rng.integers(1, 16)))
        ]
        retriever = make_retriever(
            vectors,
            idf_values,
            max_sentences=int(rng.integers(1, 8)),
            coverage_threshold=float(rng.choice([0.5, 0.95, 1.0])),
        )
        entry = ManualEntry(heading="8541", sentences=tuple(sentences))
        texts = [
            " ".join(rng.choice(vocab, size=int(rng.integers(0, 10)), replace=False))
            for _ in range(int(rng.integers(10, 25)))
        ]
        assert_retrieves_like_the_scalar_loop(retriever, texts, entry)

    def test_alignment_at_the_threshold_covers_and_the_next_float_below_does_not(self):
        # k0 aligns with s0 at about 0.95 and with no other token near it. A
        # threshold equal to that alignment covers k0 with sentence 0; one a
        # float above it leaves the alignment the next float below the
        # threshold, and then no sentence covers k0.
        entry = ManualEntry(heading="8541", sentences=("s0 s1", "s2 s3", "s4 s5"))
        texts = ["k0", *(f"k{i} k{i + 1} k{i + 2}" for i in range(1, 12))]
        rng = np.random.default_rng(53)
        words = [*(f"s{i}" for i in range(6)), *(f"k{i}" for i in range(14))]
        vectors = {w: rng.normal(size=50) for w in words}
        vectors["k0"] = vectors["s0"] + 0.3 * rng.normal(size=50)
        idf_values = dict.fromkeys(words, 1.0)
        probe = make_retriever(vectors, idf_values)
        prepared = probe.prepare(entry)
        alignments = oracles.canonical_alignments(["k0"], prepared.rows, probe.vectors)[0]
        at = float(alignments[prepared.occurrences[:2]].max())
        assert 0.5 < at < 1.0 and alignments[prepared.occurrences[2:]].max() < 0.5

        retriever = make_retriever(vectors, idf_values, coverage_threshold=at)
        results = assert_retrieves_like_the_scalar_loop(retriever, texts, entry)
        assert [s.index for s in results[0].sentences] == [0]
        assert results[0].covered_keywords == {"k0"}

        above = float(np.nextafter(at, 2.0))
        retriever = make_retriever(vectors, idf_values, coverage_threshold=above)
        results = assert_retrieves_like_the_scalar_loop(retriever, texts, entry)
        assert results[0].sentences == []
        assert results[0].uncovered_keywords == {"k0"}

    def test_empty_query_list(self):
        retriever = make_retriever({"a": [1.0, 0.0]}, {})
        assert retriever.retrieve_many([], ManualEntry(heading="8541", sentences=("a",))) == []


# -- heads, softmax and similar-case rescoring ----------------------------------


@pytest.mark.parametrize("classes", [1, 7, 360])
@pytest.mark.parametrize("d", [1, 50, 300])
def test_stacked_head_product_equals_each_row_alone(d, classes):
    rng = np.random.default_rng([59, d, classes])
    weights, bias = rng.normal(size=(d, classes)), rng.normal(size=classes)
    classifier = SoftmaxClassifier(weights, bias, [f"c{i}" for i in range(classes)])
    scaler = TemperatureScaler(0.7)
    for n in BATCH_SIZES:
        x = rng.normal(size=(n, d))
        logits = classifier.logits(x)
        assert logits.shape == (n, classes)
        probabilities = scaler.probabilities(logits)
        order = np.argsort(-probabilities, axis=1, kind="stable")
        for i in range(n):
            want = x[i] @ weights + bias
            assert logits[i].tobytes() == want.tobytes()
            assert classifier.logits(x[i]).tobytes() == want.tobytes()
            alone = oracles.softmax(want / 0.7)
            assert probabilities[i].tobytes() == alone.tobytes()
            assert order[i].tolist() == np.argsort(-alone, kind="stable").tolist()
