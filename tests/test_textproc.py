"""Tokenizer, idf statistics, cosine, keywords, and the vector table."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsclassify.errors import DimensionMismatch, EmptyInput, ParseError
from hsclassify.textproc import (
    DEFAULT_STOPWORDS,
    WordVectorTable,
    compute_idf,
    content_keywords,
    cosine,
    load_stopwords,
    tokenize,
)


class TestTokenize:
    def test_plain_words(self):
        assert tokenize("Photovoltaic cell panel") == ["photovoltaic", "cell", "panel"]

    def test_empty(self):
        assert tokenize("") == []

    def test_measurements_keep_interior_dot(self):
        assert tokenize("135W, 22.1V") == ["135w", "22.1v"]

    def test_punctuation_stripped(self):
        assert tokenize('with an aluminum frame, "Tedlar EVA".') == [
            "with",
            "an",
            "aluminum",
            "frame",
            "tedlar",
            "eva",
        ]

    def test_separator_token_vanishes(self):
        assert tokenize("panel ‖ glass") == ["panel", "glass"]

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=80))
    def test_idempotent_on_own_output(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens
        assert all(t and not any(ch.isspace() for ch in t) for t in tokens)


class TestComputeIdf:
    def test_token_in_every_document(self):
        table = compute_idf([["a", "b"], ["a"], ["a", "c"]])
        assert table.value("a") == 0.0

    def test_one_of_four(self):
        table = compute_idf([["rare"], ["x"], ["y"], ["z"]])
        assert table.value("rare") == pytest.approx(math.log(4), abs=1e-12)
        assert table.value("rare") == pytest.approx(1.3863, abs=1e-4)

    def test_unseen_token_falls_back_to_ln_n(self):
        table = compute_idf([["x"], ["y"], ["z"], ["w"]])
        assert table.value("never-seen") == pytest.approx(math.log(4))

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            compute_idf([])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from("abcdef"), max_size=5),
            min_size=1,
            max_size=10,
        )
    )
    def test_monotone_in_document_frequency(self, docs):
        table = compute_idf(docs)
        df = {}
        for doc in docs:
            for t in set(doc):
                df[t] = df.get(t, 0) + 1
        tokens = sorted(df, key=df.get)
        for a, b in zip(tokens, tokens[1:]):
            if df[a] <= df[b]:
                assert table.value(a) >= table.value(b) - 1e-12
        assert all(table.value(t) >= 0.0 for t in df)


class TestCosine:
    def test_identical_nonzero(self):
        assert cosine([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_zero_norm_convention(self):
        assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine([1.0], [1.0, 2.0])

    def test_tiny_norm_stays_exact(self):
        # Squaring 3e-162 gives a subnormal float, which skews a naive norm.
        assert cosine([3.3341784415318333e-162], [1.0]) == 1.0
        assert cosine([3e-162, -3e-162], [-1.0, 1.0]) == pytest.approx(-1.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
        st.data(),
    )
    def test_symmetry_and_bound(self, u, data):
        v = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=len(u), max_size=len(u)))
        assert cosine(u, v) == pytest.approx(cosine(v, u), abs=1e-12)
        assert abs(cosine(u, v)) <= 1.0 + 1e-12


class TestContentKeywords:
    def test_all_stopwords(self, uniform_idf):
        assert content_keywords(["the", "of", "and"], uniform_idf) == set()

    def test_stopword_removed(self, uniform_idf):
        assert content_keywords(["solar", "panel", "the"], uniform_idf) == {"solar", "panel"}

    def test_photovoltaic_description_keywords(self, uniform_idf):
        tokens = tokenize(
            "Photovoltaic cell panel silicon embedded in plastic and assembled a layer of "
            "glass and fiberglass with an aluminum frame"
        )
        keywords = content_keywords(tokens, uniform_idf)
        assert {"and", "with", "of", "in", "a", "an"}.isdisjoint(keywords)
        assert {"photovoltaic", "cell", "panel", "silicon", "glass"} <= keywords

    def test_idf_floor_drops_common_tokens(self):
        idf = compute_idf([["everywhere", "rare"], ["everywhere"], ["everywhere"]])
        keywords = content_keywords(["everywhere", "rare"], idf, min_idf=0.5)
        assert keywords == {"rare"}


class TestWordVectorTable:
    def test_out_of_vocabulary_token_is_zero(self, toy_vectors):
        assert not toy_vectors.get("missing").any()
        assert toy_vectors.get("solar") @ toy_vectors.get("sunlight") == 1.0

    def test_save_load_roundtrip(self, tmp_path, toy_vectors):
        path = tmp_path / "vectors.txt"
        toy_vectors.save(path)
        loaded = WordVectorTable.load(path)
        assert loaded.dimension == toy_vectors.dimension
        for token in toy_vectors.tokens():
            assert np.array_equal(loaded.get(token), toy_vectors.get(token))

    def test_header_line_skipped(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("2 3\nfoo 1 0 0\nbar 0 1 0\n", encoding="utf-8")
        table = WordVectorTable.load(path)
        assert len(table) == 2
        assert table.dimension == 3

    def test_inconsistent_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            WordVectorTable({"a": np.ones(2), "b": np.ones(3)})

    @pytest.mark.parametrize(
        "text, line",
        [
            ("foo 1 0 0\nbar 0 nan 0\n", 2),
            ("foo 1 0 0\nbar 0 1 0\nbaz inf 0 0\n", 3),
            ("foo -Infinity 0 0\n", 1),
        ],
    )
    def test_non_finite_values_rejected_with_line(self, tmp_path, text, line):
        path = tmp_path / "vectors.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match="non-finite") as info:
            WordVectorTable.load(path)
        assert info.value.line == line


def test_load_stopwords(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("The\nof\n\nwith\n", encoding="utf-8")
    assert load_stopwords(path) == {"the", "of", "with"}


def test_default_stopword_list_is_small_english():
    assert {"the", "of", "and", "with"} <= DEFAULT_STOPWORDS
    assert 100 <= len(DEFAULT_STOPWORDS) <= 160
