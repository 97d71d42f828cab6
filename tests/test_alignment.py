"""Key-sentence retrieval against an independent enumeration oracle."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from hsclassify import textproc
from hsclassify.alignment import KeySentenceRetriever, RetrievalConfig
from hsclassify.corpus import ManualEntry
from hsclassify.textproc import WordVectorTable, tokenize

from conftest import idf_encoder, retrieve
from oracles import (
    alignment_score,
    oracle_alignment_score,
    oracle_retrieve,
    scalar_retrieve,
    unit_rows,
)

NO_STOPWORDS: frozenset[str] = frozenset()


def make_retriever(vectors: dict, idf_values: dict, n_docs: int = 4, **config) -> KeySentenceRetriever:
    return KeySentenceRetriever(
        idf_encoder(
            WordVectorTable({k: np.asarray(v, dtype=float) for k, v in vectors.items()}),
            idf_values,
            n_docs,
        ),
        stopwords=NO_STOPWORDS,
        config=RetrievalConfig(**config),
    )


def random_instance(seed: int):
    """Toy 3-dim instance: <=5 sentences, <=6 keywords, synonym-rich vocab."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(10)]
    vectors: dict[str, np.ndarray] = {}
    for i, word in enumerate(vocab):
        if i > 0 and rng.random() < 0.4:
            vectors[word] = vectors[vocab[int(rng.integers(0, i))]].copy()
        else:
            vectors[word] = rng.normal(size=3)
    idf_values = {w: float(rng.uniform(0.1, 2.0)) for w in vocab}
    sentences = [
        [vocab[int(j)] for j in rng.integers(0, len(vocab), size=int(rng.integers(1, 5)))]
        for _ in range(int(rng.integers(1, 6)))
    ]
    keywords = set(rng.choice(vocab, size=int(rng.integers(1, 7)), replace=False).tolist())
    return vectors, idf_values, sentences, keywords


def run_both(vectors, idf_values, sentences, keywords, max_sentences=7, threshold=0.95):
    retriever = make_retriever(
        vectors, idf_values, max_sentences=max_sentences, coverage_threshold=threshold
    )
    entry = ManualEntry(heading="8541", sentences=tuple(" ".join(s) for s in sentences))
    result = retrieve(retriever, " ".join(sorted(keywords)), entry)
    dim = len(next(iter(vectors.values())))
    expected = oracle_retrieve(
        keywords=keywords,
        sentences=sentences,
        vectors={k: list(map(float, v)) for k, v in vectors.items()},
        idf=idf_values,
        default_idf=math.log(4),
        dim=dim,
        max_sentences=max_sentences,
        coverage_threshold=threshold,
    )
    return result, expected


class TestAlignmentScore:
    def test_verbatim_match_contributes_full_idf(self, toy_encoder):
        score = alignment_score({"solar"}, ["solar", "panel"], toy_encoder)
        # "solar" is in 3 of the 4 idf documents.
        assert score == pytest.approx(math.log(4 / 3), abs=1e-12)

    def test_empty_sentence_scores_zero(self, toy_encoder):
        assert alignment_score({"solar", "panel"}, [], toy_encoder) == 0.0

    def test_empty_query_scores_zero(self, toy_encoder):
        assert alignment_score(set(), ["solar"], toy_encoder) == 0.0

    def test_negative_similarity_clamped(self):
        encoder = idf_encoder(WordVectorTable({"up": [1.0, 0.0], "down": [-1.0, 0.0]}))
        assert alignment_score({"up"}, ["down"], encoder) == 0.0

    def test_out_of_vocabulary_contributes_nothing(self, toy_encoder):
        assert alignment_score({"mystery"}, ["solar"], toy_encoder) == 0.0

    def test_matches_double_loop_oracle(self):
        vectors = {
            "a": [1.0, 0.0, 0.0],
            "b": [0.5, 0.5, 0.0],
            "x": [0.0, 1.0, 0.0],
            "y": [0.2, -0.3, 0.9],
            "z": [-1.0, 0.0, 0.0],
        }
        idf_values = {"a": 1.5, "b": 0.7, "x": 0.4, "y": 1.1, "z": 0.9}
        retriever = make_retriever(vectors, idf_values)
        sentence = ["x", "y", "z"]
        got = alignment_score({"a", "b"}, sentence, retriever.encoder)
        expected = oracle_alignment_score(
            {"a", "b"}, sentence, vectors, idf_values, math.log(4), dim=3
        )
        assert got == pytest.approx(expected, abs=1e-12)


class TestRetrieve:
    def test_single_sentence_covers_everything(self, toy_encoder):
        retriever = KeySentenceRetriever(toy_encoder, NO_STOPWORDS)
        entry = ManualEntry(heading="8541", sentences=("solar panel cell", "glass diode"))
        result = retrieve(retriever, "solar panel", entry)
        assert result.indices == [0]
        assert result.uncovered_keywords == set()
        assert result.covered_keywords == {"solar", "panel"}

    def test_synonym_vectors_cover_keywords(self, toy_encoder):
        retriever = KeySentenceRetriever(toy_encoder, NO_STOPWORDS)
        entry = ManualEntry(heading="8541", sentences=("sunlight collectors",))
        result = retrieve(retriever, "solar", entry)
        assert result.indices == [0]
        assert result.covered_keywords == {"solar"}

    def test_nothing_aligns_returns_empty(self):
        vectors = WordVectorTable({"solar": [1.0, 0.0], "iron": [0.0, 1.0]})
        retriever = KeySentenceRetriever(idf_encoder(vectors), NO_STOPWORDS)
        entry = ManualEntry(heading="7201", sentences=("iron iron", "iron"))
        result = retrieve(retriever, "solar", entry)
        assert result.indices == []
        assert result.uncovered_keywords == {"solar"}
        assert result.covered_keywords == set()

    def test_planted_multi_step_selection(self):
        # Synonym pairs k_i ~ m_i; idf makes s0 win, then s1/s2 tie -> s1.
        axes = np.eye(6)
        vectors = {}
        for i in range(5):
            vectors[f"k{i}"] = axes[i]
            vectors[f"m{i}"] = axes[i].copy()
        vectors["junk"] = axes[5]
        idf_values = {f"k{i}": 1.0 for i in range(5)}
        idf_values["k4"] = 3.0
        sentences = [["m4"], ["m0", "m1"], ["m2", "m3", "junk"], ["m0"]]
        keywords = {f"k{i}" for i in range(5)}
        result, expected = run_both(vectors, idf_values, sentences, keywords)
        assert result.indices == [0, 1, 2]
        assert result.scores == pytest.approx([3.0, 2.0, 2.0])
        assert result.indices == expected.indices
        assert result.uncovered_keywords == expected.uncovered == set()

    def test_max_sentences_one_returns_global_argmax(self):
        vectors, idf_values, sentences, keywords = random_instance(seed=100)
        result, expected = run_both(vectors, idf_values, sentences, keywords, max_sentences=1)
        assert result.indices == expected.indices
        assert len(result.indices) <= 1

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_enumeration_oracle(self, seed):
        vectors, idf_values, sentences, keywords = random_instance(seed)
        result, expected = run_both(vectors, idf_values, sentences, keywords)
        assert result.indices == expected.indices
        assert result.covered_keywords == expected.covered
        assert result.uncovered_keywords == expected.uncovered
        for got, want in zip(result.scores, expected.scores):
            assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("seed", [7, 21, 33])
    def test_retrieve_is_deterministic(self, seed):
        vectors, idf_values, sentences, keywords = random_instance(seed)
        retriever = make_retriever(vectors, idf_values)
        entry = ManualEntry(heading="8541", sentences=tuple(" ".join(s) for s in sentences))
        description = " ".join(sorted(keywords))
        first = retrieve(retriever, description, entry)
        second = retrieve(retriever, description, entry)
        assert first.indices == second.indices
        assert first.covered_keywords == second.covered_keywords

    @pytest.mark.parametrize("seed", range(40, 60))
    def test_structural_invariants(self, seed):
        vectors, idf_values, sentences, keywords = random_instance(seed)
        retriever = make_retriever(vectors, idf_values)
        entry = ManualEntry(heading="8541", sentences=tuple(" ".join(s) for s in sentences))
        result = retrieve(retriever, " ".join(sorted(keywords)), entry)
        indices = result.indices
        assert len(indices) == len(set(indices))
        assert all(0 <= i < len(entry.sentences) for i in indices)
        assert len(result.indices) <= len(keywords)
        assert result.covered_keywords | result.uncovered_keywords == keywords
        assert result.covered_keywords & result.uncovered_keywords == set()
        assert result.sentence_texts() == [entry.sentences[i] for i in indices]

    def test_stopwords_removed_from_query(self, toy_encoder):
        retriever = KeySentenceRetriever(toy_encoder, frozenset({"the"}))
        entry = ManualEntry(heading="8541", sentences=("solar panel",))
        result = retrieve(retriever, "the solar", entry)
        assert result.covered_keywords | result.uncovered_keywords == {"solar"}


class TestRetrievalConfig:
    def test_defaults(self):
        config = RetrievalConfig()
        assert config.max_sentences == 7
        assert config.coverage_threshold == 0.95

    def test_validation(self):
        with pytest.raises(ValueError):
            RetrievalConfig(max_sentences=0)
        with pytest.raises(ValueError):
            RetrievalConfig(coverage_threshold=0.0)
        with pytest.raises(ValueError):
            RetrievalConfig(coverage_threshold=1.5)


class TestZeroIdfKeywords:
    """A token in every idf document has idf ln(N/N) = 0 and stays a keyword."""

    def test_zero_idf_keyword_is_kept_and_covered(self):
        axes = np.eye(3)
        vectors = {"k0": axes[0], "m0": axes[0], "k1": axes[1], "m1": axes[1], "junk": axes[2]}
        idf_values = {"k0": 0.0, "k1": 1.0, "m0": 1.0, "m1": 1.0, "junk": 1.0}
        entry = ManualEntry(heading="8541", sentences=("m0 junk", "m1"))
        result = retrieve(make_retriever(vectors, idf_values), "k0 k1", entry)
        # k1's sentence scores first; k0 adds no score, yet the sentence that
        # aligns with it is still selected to cover it.
        assert result.indices == [1, 0]
        assert result.scores == [1.0, 0.0]
        assert result.covered_keywords == {"k0", "k1"}
        assert result.uncovered_keywords == set()

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_oracle_with_zero_idf_keywords(self, seed):
        vectors, idf_values, sentences, keywords = random_instance(seed)
        median = float(np.median([idf_values[k] for k in keywords]))
        idf_values = {w: 0.0 if v <= median else v for w, v in idf_values.items()}
        assert any(idf_values[k] == 0.0 for k in keywords)
        result, expected = run_both(vectors, idf_values, sentences, keywords)
        assert result.covered_keywords | result.uncovered_keywords == keywords
        assert result.indices == expected.indices
        assert result.covered_keywords == expected.covered
        assert result.uncovered_keywords == expected.uncovered


def assert_same_retrieval(retriever, description, entry):
    got = retrieve(retriever, description, entry)
    want = scalar_retrieve(retriever, description, entry)
    # Scores compare with ==: the lockstep selection must return the scalar loop's very bits.
    assert (got.indices, got.scores, got.sentence_texts()) == (
        want.indices, want.scores, want.sentence_texts()
    )
    assert all(type(i) is int for i in got.indices)
    assert got.covered_keywords == want.covered_keywords
    assert got.uncovered_keywords == want.uncovered_keywords
    return got


class TestRetrievalIsExact:
    """The lockstep selection equals the scalar loop on the canonical alignments."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_manuals(self, seed):
        rng = np.random.default_rng(1000 + seed)
        dim = int(rng.choice([3, 16, 50]))
        vocab = [f"w{i}" for i in range(30)]
        # Scaled copies of a few directions tie exactly in the true cosine, and
        # their computed cosines differ by rounding.
        directions = rng.normal(size=(3, dim))
        vectors = {}
        for word in vocab[:-4]:  # the last four words have no vector
            scale = float(rng.choice([1.0, rng.uniform(0.3, 3.0)]))
            direction = directions[int(rng.integers(0, 3))]
            vectors[word] = direction * scale if rng.random() < 0.5 else rng.normal(size=dim)
        idf_values = {w: float(rng.choice([0.5, 1.0, rng.uniform(0.1, 3.0)])) for w in vocab}
        sentences = []
        for _ in range(int(rng.integers(1, 16))):
            words = rng.choice(vocab, size=int(rng.integers(0, 9))).tolist()
            sentences.append(" ".join(words) if words else "--")
        if rng.random() < 0.5:
            donor = sentences[int(rng.integers(0, len(sentences)))].split()
            sentences.append(" ".join(reversed(donor)) or "--")
        retriever = make_retriever(
            vectors,
            idf_values,
            max_sentences=int(rng.integers(1, 8)),
            coverage_threshold=float(rng.choice([0.5, 0.95, 1.0])),
        )
        entry = ManualEntry(heading="8541", sentences=tuple(sentences))
        for _ in range(10):
            words = rng.choice(vocab, size=int(rng.integers(0, 10)), replace=False)
            assert_same_retrieval(retriever, " ".join(words), entry)

    def test_reordered_sentence_ties_to_lowest_index(self):
        vectors = {"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0], "c": [0.6, 0.8, 0.0]}
        retriever = make_retriever(vectors, {"a": 1.0, "b": 1.0, "c": 1.0})
        entry = ManualEntry(heading="8541", sentences=("c", "b a c", "a c b", "a b"))
        got = assert_same_retrieval(retriever, "a b", entry)
        assert got.indices == [1]

    @pytest.mark.parametrize("seed", [10, 54, 200])
    def test_scaled_copies_of_one_vector_near_tie(self, seed):
        # Half the words are scaled copies of one vector, so many sentences tie
        # in exact arithmetic and their computed scores differ by rounding; on
        # these seeds a whole-matrix product and a per-sentence one rank the
        # tied sentences differently.
        rng = np.random.default_rng(seed)
        dim = int(rng.choice([16, 50]))
        vocab = [f"w{i}" for i in range(20)]
        base = rng.normal(size=dim)
        vectors = {
            word: (base if i % 2 else rng.normal(size=dim)) * rng.uniform(0.3, 3.0)
            for i, word in enumerate(vocab)
        }
        idf_values = {word: float(rng.uniform(0.1, 3.0)) for word in vocab}
        sentences = tuple(
            " ".join(rng.choice(vocab, size=int(rng.integers(1, 6))).tolist()) for _ in range(8)
        )
        retriever = make_retriever(vectors, idf_values, coverage_threshold=0.5)
        entry = ManualEntry(heading="8541", sentences=sentences)
        assert_same_retrieval(retriever, " ".join(rng.choice(vocab, size=6, replace=False)), entry)

    def test_smallest_vectors(self):
        vectors = {"q": [3.3e-50, 1e-50], "x": [1.0, 0.0], "y": [2e-50, 2e-50]}
        retriever = make_retriever(vectors, {"q": 1.0}, coverage_threshold=0.5)
        entry = ManualEntry(heading="8541", sentences=("y", "x", "x y"))
        assert_same_retrieval(retriever, "q", entry)

    def test_repeat_retrieval_tokenizes_the_sentences_once(self, monkeypatch):
        from hsclassify import alignment

        calls = []
        original = alignment.tokenize
        monkeypatch.setattr(alignment, "tokenize", lambda t: calls.append(t) or original(t))
        vectors, idf_values, sentences, keywords = random_instance(3)
        retriever = make_retriever(vectors, idf_values)
        entry = ManualEntry(heading="8541", sentences=tuple(" ".join(s) for s in sentences))
        description = " ".join(sorted(keywords))
        first = retrieve(retriever, description, entry)
        assert calls == list(entry.sentences)
        second = retrieve(retriever, description, entry)
        assert calls == list(entry.sentences)
        assert retrieval_bits(second) == retrieval_bits(first)

    def test_repeat_retrieval_reuses_the_prepared_rows(self, monkeypatch):
        vectors, idf_values, sentences, keywords = random_instance(3)
        retriever = make_retriever(vectors, idf_values)
        entry = ManualEntry(heading="8541", sentences=tuple(" ".join(s) for s in sentences))
        description = " ".join(sorted(keywords))
        first = retrieve(retriever, description, entry)
        prepared = retriever.prepare(entry)
        calls = Counter()
        build = textproc._unit_table
        monkeypatch.setattr(textproc, "_unit_table", lambda m: calls.update(["unit"]) or build(m))
        second = retrieve(retriever, description, entry)
        # The query's rows and the entry's rows are gathered from the unit
        # table built with the vector table.
        assert calls == {}
        assert retriever.prepare(entry) is prepared
        assert retrieval_bits(second) == retrieval_bits(first)

    def test_prepared_rows_are_one_per_distinct_token(self):
        vectors, idf_values, sentences, _ = random_instance(5)
        retriever = make_retriever(vectors, idf_values)
        texts = tuple(" ".join(s) for s in sentences) + ("--",)
        prepared = retriever.prepare(ManualEntry(heading="8541", sentences=texts))
        assert len(prepared.rows) == len({t for s in sentences for t in s})
        # Row j is the unit row of token j.
        want = unit_rows(prepared.tokens, retriever.encoder.vectors)
        assert prepared.rows.tobytes() == want.tobytes()
        for index, text in enumerate(texts):
            want = unit_rows(tokenize(text), retriever.encoder.vectors)
            occurrences = prepared.occurrences[prepared.bounds[index] : prepared.bounds[index + 1]]
            assert prepared.rows[occurrences].tobytes() == want.tobytes()
            assert prepared.token_set(index) == set(tokenize(text))

    @pytest.mark.parametrize("seed", range(10))
    def test_unknown_keywords_change_no_selection(self, seed):
        # An unknown keyword has the zero row, so its alignments are ±0 and
        # its weight reaches no score: the query selects what it selects
        # without it and leaves it uncovered. Its ±0 terms shift the order
        # in which the step score's other terms are summed, so the scores
        # agree to rounding.
        vectors, idf_values, sentences, keywords = random_instance(seed)
        retriever = make_retriever(vectors, idf_values)
        entry = ManualEntry(heading="8541", sentences=tuple(" ".join(s) for s in sentences))
        unknown = {"mystery", "unseen", "zzz"}
        plain = retrieve(retriever, " ".join(sorted(keywords)), entry)
        padded = retrieve(retriever, " ".join(sorted(keywords | unknown)), entry)
        assert padded.indices == plain.indices
        assert padded.scores == pytest.approx(plain.scores, rel=1e-14)
        assert padded.covered_keywords == plain.covered_keywords
        assert padded.uncovered_keywords == plain.uncovered_keywords | unknown

    @pytest.mark.parametrize("seed", range(10))
    def test_the_unknown_id_weight_reaches_no_score_bit(self, seed):
        vectors, idf_values, sentences, keywords = random_instance(seed)
        retriever = make_retriever(vectors, idf_values)
        (query,) = retriever.queries([["mystery", "unseen"]])
        unknown = len(retriever.encoder.vectors)
        assert query.ids.tolist() == [unknown, unknown]
        encoder = retriever.encoder
        assert not encoder.vectors.unit_rows[unknown].any() and encoder.weights[unknown] == 0.0
        # Any finite weight >= 0 of the unknown id selects the same
        # sentences with the same score bits, e.g. the ln(N) an unseen
        # token gets.
        heavy = make_retriever(vectors, idf_values)
        heavy.encoder.weights = np.append(heavy.encoder.weights[:-1], math.log(4))
        entry = ManualEntry(heading="8541", sentences=tuple(" ".join(s) for s in sentences))
        description = " ".join(sorted(keywords | {"mystery", "unseen", "zzz"}))
        assert retrieval_bits(retrieve(heavy, description, entry)) == retrieval_bits(
            retrieve(retriever, description, entry)
        )


class TestViewsEqualTheOracle:
    """A result stores its selection; its views equal the scalar loop's stored fields."""

    # "solar" aligns with no sentence token and "mystery", "unseen" have no vector.
    DESCRIPTIONS = [
        "",  # no keywords
        "mystery unseen",  # no keyword has a vector
        "solar",  # nothing covers it: the query stops before its first step
        "solar mystery",
        "iron solar",
        "iron steel solar mystery",
    ]

    @staticmethod
    def retriever_and_entry():
        vectors = {"solar": [1.0, 0.0], "iron": [0.0, 1.0], "steel": [0.6, 0.8]}
        retriever = make_retriever(vectors, {"solar": 1.0, "iron": 0.5, "steel": 2.0})
        return retriever, ManualEntry(heading="7201", sentences=("iron iron", "steel", "iron steel"))

    @pytest.mark.parametrize("description", DESCRIPTIONS)
    def test_alone(self, description):
        retriever, entry = self.retriever_and_entry()
        got = assert_same_retrieval(retriever, description, entry)
        assert got.sentence_texts() == scalar_retrieve(retriever, description, entry).sentence_texts()

    def test_in_one_call(self):
        # Queries that stop before their first step sit beside queries that step.
        retriever, entry = self.retriever_and_entry()
        queries = retriever.queries([tokenize(d) for d in self.DESCRIPTIONS])
        results = retriever.retrieve_many(queries, entry)
        assert [bool(r.indices) for r in results] == [False, False, False, False, True, True]
        for description, got in zip(self.DESCRIPTIONS, results):
            want = scalar_retrieve(retriever, description, entry)
            assert retrieval_bits(got) == retrieval_bits(want)
            assert got.sentence_texts() == want.sentence_texts()

    def test_when_nothing_in_the_call_is_covered(self):
        retriever, entry = self.retriever_and_entry()
        descriptions = ["solar", "", "solar mystery"]
        results = retriever.retrieve_many(retriever.queries([tokenize(d) for d in descriptions]), entry)
        for description, got in zip(descriptions, results):
            assert retrieval_bits(got) == retrieval_bits(scalar_retrieve(retriever, description, entry))

    def test_views_read_twice_are_built_on_each_read(self):
        retriever, entry = self.retriever_and_entry()
        description = "iron steel solar mystery"
        got = retrieve(retriever, description, entry)
        want = scalar_retrieve(retriever, description, entry)
        assert got.covered_keywords and got.uncovered_keywords
        for _ in range(2):
            assert retrieval_bits(got) == retrieval_bits(want)
            assert got.sentence_texts() == want.sentence_texts()
            # A view is a new object on each read: changing one changes no later read.
            got.covered_keywords.add("x")
            got.uncovered_keywords.clear()
            got.sentence_texts().clear()
        assert got.covered_keywords is not got.covered_keywords


def retrieval_bits(result):
    scores = [score.hex() for score in result.scores]
    texts = result.sentence_texts()
    return result.indices, scores, texts, result.covered_keywords, result.uncovered_keywords


class TestBatchInvariance:
    """A query's retrieval is the same alone and among up to 70 others."""

    @pytest.mark.parametrize("dim", [3, 16, 50, 300])
    @pytest.mark.parametrize("seed", range(6))
    def test_alone_and_in_one_call(self, dim, seed):
        rng = np.random.default_rng([67, dim, seed])
        vocab = [f"w{i}" for i in range(40)]
        # Scaled copies of a few directions tie exactly in the true cosine.
        directions = rng.normal(size=(3, dim))
        vectors = {}
        for word in vocab[:-4]:  # the last four words have no vector
            if rng.random() < 0.5:
                vectors[word] = directions[int(rng.integers(0, 3))] * rng.uniform(0.3, 3.0)
            else:
                vectors[word] = rng.normal(size=dim)
        idf_values = {w: float(rng.choice([0.5, 1.0, rng.uniform(0.1, 3.0)])) for w in vocab}
        sentences = tuple(
            " ".join(rng.choice(vocab, size=int(rng.integers(0, 12))).tolist()) or "--"
            for _ in range(int(rng.integers(1, 16)))
        )
        retriever = make_retriever(
            vectors,
            idf_values,
            max_sentences=int(rng.integers(1, 8)),
            coverage_threshold=float(rng.choice([0.5, 0.95, 1.0])),
        )
        entry = ManualEntry(heading="8541", sentences=sentences)
        texts = [
            " ".join(rng.choice(vocab, size=int(rng.integers(0, 14)), replace=False))
            for _ in range(int(rng.integers(40, 71)))
        ]
        texts[int(rng.integers(0, len(texts)))] = ""
        batched = retriever.retrieve_many(retriever.queries([tokenize(t) for t in texts]), entry)
        assert len(batched) == len(texts)
        for text, got in zip(texts, batched):
            assert retrieval_bits(got) == retrieval_bits(retrieve(retriever, text, entry))
