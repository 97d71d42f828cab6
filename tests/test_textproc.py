"""Tokenizer, idf statistics, keywords, and the vector table with its value range."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hsclassify.errors import DimensionMismatch, EmptyInput, OutOfRange, ParseError
from hsclassify.textproc import (
    DEFAULT_STOPWORDS,
    WordVectorTable,
    compute_idf,
    content_keywords,
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
        assert compute_idf([["a", "b"], ["a"], ["a", "c"]], ["a"]).tolist() == [0.0]

    def test_one_of_four(self):
        (rare,) = compute_idf([["rare"], ["x"], ["y"], ["z"]], ["rare"])
        assert rare == pytest.approx(math.log(4), abs=1e-12)
        assert rare == pytest.approx(1.3863, abs=1e-4)

    def test_unseen_token_falls_back_to_ln_n(self):
        weights = compute_idf([["x"], ["y"], ["z"], ["w"]], ["never-seen"])
        assert weights.tolist() == [math.log(4)]

    def test_one_weight_per_vocabulary_token_in_order(self):
        docs = [["a", "b"], ["a"], ["a", "c", "c"]]
        weights = compute_idf(docs, ["c", "unseen", "a", "b"])
        assert weights.dtype == float
        assert weights.tolist() == [math.log(3 / 1), math.log(3), 0.0, math.log(3 / 1)]
        assert compute_idf(docs, []).shape == (0,)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            compute_idf([], ["a"])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from("abcdef"), max_size=5),
            min_size=1,
            max_size=10,
        )
    )
    def test_monotone_in_document_frequency(self, docs):
        df = {}
        for doc in docs:
            for t in set(doc):
                df[t] = df.get(t, 0) + 1
        tokens = sorted(df, key=df.get)
        idf = dict(zip(tokens, compute_idf(docs, tokens).tolist()))
        for a, b in zip(tokens, tokens[1:]):
            if df[a] <= df[b]:
                assert idf[a] >= idf[b] - 1e-12
        assert all(value >= 0.0 for value in idf.values())


class TestContentKeywords:
    def test_all_stopwords(self):
        assert content_keywords(["the", "of", "and"]) == set()

    def test_stopword_removed(self):
        assert content_keywords(["solar", "panel", "the"]) == {"solar", "panel"}

    def test_photovoltaic_description_keywords(self):
        tokens = tokenize(
            "Photovoltaic cell panel silicon embedded in plastic and assembled a layer of "
            "glass and fiberglass with an aluminum frame"
        )
        keywords = content_keywords(tokens)
        assert {"and", "with", "of", "in", "a", "an"}.isdisjoint(keywords)
        assert {"photovoltaic", "cell", "panel", "silicon", "glass"} <= keywords

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from(["the", "of", "solar", "panel", "everywhere"]), max_size=8))
    def test_only_stopwords_are_dropped(self, tokens):
        # A token in every idf document (idf 0) is still a keyword.
        idf = compute_idf([["everywhere", "solar"], ["everywhere"], ["everywhere", "panel"]],
                          ["everywhere"])
        assert idf.tolist() == [0.0]
        assert content_keywords(tokens) == set(tokens) - DEFAULT_STOPWORDS


class TestWordVectorTable:
    def test_out_of_vocabulary_token_is_zero(self, toy_vectors):
        assert not toy_vectors.get("missing").any()
        assert toy_vectors.get("solar") @ toy_vectors.get("sunlight") == 1.0

    def test_save_load_roundtrip(self, tmp_path):
        # Floats written with repr() read back bit for bit.
        vectors = {"solar": [0.1, 1 / 3, -1e-50], "panel": [1e50, -0.0, 2 / 7]}
        path = tmp_path / "vectors.txt"
        path.write_text(
            "".join(f"{t} {' '.join(map(repr, v))}\n" for t, v in vectors.items()), encoding="utf-8"
        )
        loaded = WordVectorTable.load(path)
        assert loaded.dimension == 3
        for token, values in vectors.items():
            assert loaded.get(token).tolist() == values

    def test_header_line_skipped(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("2 3\nfoo 1 0 0\nbar 0 1 0\n", encoding="utf-8")
        table = WordVectorTable.load(path)
        assert len(table) == 2
        assert table.dimension == 3

    def test_inconsistent_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            WordVectorTable({"a": np.ones(2), "b": np.ones(3)})

    def test_empty_table_rejected(self):
        with pytest.raises(EmptyInput):
            WordVectorTable({})
        with pytest.raises(EmptyInput):
            WordVectorTable.from_rows([], np.zeros((0, 3)))

    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, -np.inf, 9.99e-51, -9.99e-51, 1.01e50, -1.01e50, 5e-324]
    )
    def test_values_out_of_range_are_refused_naming_the_token(self, value):
        message = re.escape(f"token 'a' has the vector value {value!r}")
        with pytest.raises(OutOfRange, match=message):
            WordVectorTable({"a": [value, 1.0], "b": [1.0, 2.0]})
        with pytest.raises(OutOfRange, match="token 'b'"):
            WordVectorTable.from_rows(["a", "b"], np.array([[1.0, 2.0], [3.0, value]]))
        with pytest.raises(OutOfRange, match="token 'a'"):  # a repeated token's first vector
            WordVectorTable.from_rows(["a", "a"], np.array([[value, 2.0], [3.0, 4.0]]))

    def test_values_at_the_range_edges_are_accepted(self):
        edges = [1e-50, -1e-50, 1e50, -1e50, 0.0, -0.0]
        table = WordVectorTable.from_rows([f"w{i}" for i in range(6)], np.diag(edges))
        assert table.matrix.diagonal().tolist() == edges
        assert table.unit_rows[:4].diagonal().tolist() == [1.0, -1.0, 1.0, -1.0]
        assert not table.unit_rows[4:].any()

    def test_from_rows_checks_the_row_count(self):
        with pytest.raises(DimensionMismatch):
            WordVectorTable.from_rows(["a", "b"], np.ones((3, 2)))
        with pytest.raises(DimensionMismatch):
            WordVectorTable.from_rows(["a", "b"], np.ones(2))

    def test_ids_index_the_matrix(self, toy_vectors):
        ids = toy_vectors.ids(["panel", "missing", "solar", "panel"])
        assert ids.dtype == np.intp
        # A token without a vector gets V, the id of the last, zero unit row.
        assert ids[1] == len(toy_vectors) == len(toy_vectors.unit_rows) - 1
        known = ids[[0, 2, 3]]
        assert [toy_vectors.tokens()[i] for i in known] == ["panel", "solar", "panel"]
        assert toy_vectors.matrix[known].tobytes() == np.array(
            [toy_vectors.get(t) for t in ["panel", "solar", "panel"]]
        ).tobytes()
        assert toy_vectors.ids([]).shape == (0,)

    def test_repeated_token_keeps_its_last_vector(self):
        table = WordVectorTable.from_rows(["a", "b", "a"], np.array([[1.0], [2.0], [3.0]]))
        assert table.tokens() == ["a", "b"] and len(table) == 2
        assert table.get("a").tolist() == [3.0] and table.matrix.shape == (2, 1)

    def test_load_keeps_the_last_vector_of_a_repeated_token(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("a 1 0\nb 0 1\na 2 0\n", encoding="utf-8")
        table = WordVectorTable.load(path)
        assert table.tokens() == ["a", "b"]
        assert table.get("a").tolist() == [2.0, 0.0]

    @pytest.mark.parametrize(
        "text, vectors",
        [
            ("foo 1 0\r\nbar 0 1\r\n", {"foo": [1.0, 0.0], "bar": [0.0, 1.0]}),
            ("foo  1 0 \nbar 0  1\n", {"foo": [1.0, 0.0], "bar": [0.0, 1.0]}),
            ("foo 1_0 \u0661\u0662 .5 -1e-400\n", {"foo": [10.0, 12.0, 0.5, -0.0]}),
        ],
    )
    def test_load_reads_values_as_float_does(self, tmp_path, text, vectors):
        path = tmp_path / "vectors.txt"
        path.write_text(text, encoding="utf-8")
        table = WordVectorTable.load(path)
        assert {t: table.get(t).tolist() for t in table.tokens()} == vectors

    @pytest.mark.parametrize(
        "text, error, match, line",
        [
            ("foo 1 0\nbar\n", ParseError, "token 'bar' has no vector values", 2),
            ("foo 1 0\nbar \nbaz 1 2 3\n", ParseError, "token 'bar' has no vector values", 2),
            (
                "foo 1 0\nbar 1 x\nbaz 1 2 3\n",
                ParseError,
                "bad vector value: could not convert string to float: 'x'",
                2,
            ),
            ("foo 1 0\nbar 1 0 0\nbaz 1 y\n", ParseError, "could not convert string to float: 'y'", 3),
            ("foo 1 0\nbar 1 2 3\n", DimensionMismatch, r"inconsistent vector lengths: \[2, 3\]", None),
        ],
    )
    def test_first_fault_in_file_order_is_reported(self, tmp_path, text, error, match, line):
        # Per-line faults in file order, then inconsistent lengths.
        path = tmp_path / "vectors.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(error, match=match) as info:
            WordVectorTable.load(path)
        assert getattr(info.value, "line", None) == line

    @pytest.mark.parametrize("header", ["", "2 3\n"])
    def test_leading_byte_order_mark_is_skipped(self, tmp_path, header):
        path = tmp_path / "vectors.txt"
        path.write_text(f"\ufeff{header}foo 1 0 0\nbar 0 1 0\n", encoding="utf-8")
        table = WordVectorTable.load(path)
        assert table.tokens() == ["foo", "bar"] and table.dimension == 3

    def test_bytes_that_are_not_utf8_are_refused_with_the_file_and_line(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_bytes(b"2 3\nfoo 1 0 0\nbar 0 1 0\n\xff")
        with pytest.raises(ParseError, match="vectors.txt: not UTF-8") as info:
            WordVectorTable.load(path)
        assert info.value.line == 4


class TestWordVectorTableIsImmutable:
    def test_constructor_copies_its_input(self):
        vector = np.array([1.0, 2.0])
        table = WordVectorTable({"a": vector})
        vector[0] = 9.0
        assert table.get("a").tolist() == [1.0, 2.0]

    def test_from_rows_takes_a_float_matrix_read_only(self):
        matrix = np.array([[1.0, 2.0]])
        table = WordVectorTable.from_rows(["a"], matrix)
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 9.0
        assert table.get("a").tolist() == [1.0, 2.0]
        rows = [[1, 2]]
        table = WordVectorTable.from_rows(["a"], rows)
        rows[0][0] = 9
        assert table.get("a").tolist() == [1.0, 2.0]

    def test_rows_are_read_only(self, toy_vectors):
        for array in (toy_vectors.get("solar"), toy_vectors.matrix, toy_vectors.unit_rows):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 9.0
        assert toy_vectors.get("solar").tolist() == [1.0, 0.0, 0.0]

    def test_out_of_vocabulary_row_is_read_only(self, toy_vectors):
        with pytest.raises(ValueError, match="read-only"):
            toy_vectors.get("missing")[0] = 9.0
        assert not toy_vectors.get("other").any()


class TestUnitRows:
    def test_each_row_is_its_vector_normalised_alone(self):
        vectors = {
            "zero": [0.0, 0.0, 0.0],
            "negzero": [-0.0, -0.0, -0.0],
            "mixed": [-0.0, 1.0, -0.0],
            "huge": [1e50, -3e49, 2e49],
            "plain": [0.1, 1 / 3, -2.5],
            "small": [1e-50, 2e-50, 0.0],
            "edge": [1e-50, 0.0, 0.0],
        }
        table = WordVectorTable(vectors)
        for token in vectors:
            want = oracles.unit_row(vectors[token])[0]
            assert table.unit_rows[table.index[token]].tobytes() == want.tobytes(), token
        huge = table.unit_rows[table.index["huge"]]
        np.testing.assert_allclose(huge, np.array([10.0, -3.0, 2.0]) / np.sqrt(113.0), rtol=1e-15)
        assert table.unit_rows.shape == (len(vectors) + 1, 3)
        assert table.unit_rows[-1].tobytes() == np.zeros(3).tobytes()
        assert np.signbit(table.unit_rows[table.index["negzero"]]).all()
        assert table.unit_rows[table.index["edge"]].tolist() == [1.0, 0.0, 0.0]
        small = table.unit_rows[table.index["small"]]
        assert np.linalg.norm(small) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_tables(self, seed):
        rng = np.random.default_rng([5, seed])
        d = int(rng.choice([1, 7, 8, 50, 301]))
        tokens = [f"w{i}" for i in range(int(rng.integers(1, 200)))]
        matrix = rng.normal(size=(len(tokens), d)) * 10.0 ** rng.integers(-40, 41, (len(tokens), 1))
        matrix[0, 0], matrix[-1, -1] = 1e-50, -1e50  # the range's edges
        table = WordVectorTable.from_rows(tokens, matrix)
        want = oracles.unit_rows([*tokens, "unknown"], table)
        assert table.unit_rows.tobytes() == want.tobytes()
        picked = [tokens[-1], "unknown", tokens[0], tokens[-1]]
        rows = table.unit_rows[table.ids(picked)]
        assert rows.tobytes() == oracles.unit_rows(picked, table).tobytes()
        assert table.unit_rows[table.ids([])].shape == (0, d)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("foo 1 0 0\nbar 0 nan 0\n", 2),
            ("foo 1 0 0\nbar 0 1 0\nbaz inf 0 0\n", 3),
            ("foo -Infinity 0 0\n", 1),
            ("foo 1 0 0\nbar 0 nan 0\nbaz x 0 0\n", 2),
            ("foo 1 0 0\nbar 0 1e400\nbaz x 0 0\nqux 1\n", 2),
            ("foo 1\nbar 1 2 3\n\nbaz 1 nan\nqux 1 inf\n", 4),
            ("foo 1 0 0\nbar 0 1e-60 0\nbaz x 0 0\n", 2),
            ("foo 1e-50 0\nbar 0 1e50\nbaz -1.5e50 0\nqux 1 nan\n", 3),
            ("foo 1 0\nbar 1 2 3\nbaz 0 5e-324\n", 3),
        ],
    )
    def test_values_out_of_range_rejected_with_file_line_and_token(self, tmp_path, text, line):
        path = tmp_path / "vectors.txt"
        path.write_text(text, encoding="utf-8")
        token = text.split("\n")[line - 1].split(" ")[0]
        with pytest.raises(ParseError, match=r"from 1e-50 to 1e\+50") as info:
            WordVectorTable.load(path)
        assert info.value.line == line
        assert f"{path}: token {token!r} has the vector value " in str(info.value)


def test_load_stopwords(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("The\nof\n\nwith\n", encoding="utf-8")
    assert load_stopwords(path) == {"the", "of", "with"}


def test_load_stopwords_skips_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("\ufeffThe\nof\n", encoding="utf-8")
    assert load_stopwords(path) == {"the", "of"}


def test_load_stopwords_refuses_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_bytes(b"the\nof\n\nna\xc3\xafve\nd\xe9j\xe0\n")
    with pytest.raises(ParseError, match="stop.txt: not UTF-8") as info:
        load_stopwords(path)
    assert info.value.line == 5


def test_default_stopword_list_is_small_english():
    assert {"the", "of", "and", "with"} <= DEFAULT_STOPWORDS
    assert 100 <= len(DEFAULT_STOPWORDS) <= 160
