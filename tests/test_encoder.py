"""Pooled encoder behaviour and the evidence-concatenation contract."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsclassify.encoder import PooledEncoder
from hsclassify.errors import DimensionMismatch, OutOfRange
from hsclassify.textproc import WordVectorTable

import oracles
from conftest import encode, encode_with_evidence, idf_encoder, idf_weight, vector_component


def _toy_encoder() -> PooledEncoder:
    vectors = WordVectorTable(
        {
            "solar": [1.0, 0.0, 0.0],
            "panel": [0.0, 1.0, 0.0],
            "cell": [0.0, 0.0, 1.0],
            "glass": [1.0, 1.0, 0.0],
            "diode": [0.0, 1.0, 1.0],
        }
    )
    return idf_encoder(vectors)


@pytest.fixture
def encoder(toy_vectors) -> PooledEncoder:
    """Every token unseen, so each gets idf = ln(4): equal positive weights."""
    return idf_encoder(toy_vectors)


class TestPooledEncoder:
    def test_output_dimension(self, encoder):
        assert encoder.output_dimension == 3

    def test_all_oov_is_zero_vector(self, encoder):
        assert not encode(encoder, "completely unknown words").any()

    def test_empty_text_is_zero_vector(self, encoder):
        assert not encode(encoder, "").any()

    def test_single_token_is_unit_parallel(self, encoder, toy_vectors):
        out = encode(encoder, "glass")
        expected = toy_vectors.get("glass") / np.linalg.norm(toy_vectors.get("glass"))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_equal_idf_two_tokens_is_normalized_mean(self, encoder):
        # mean of (1,0,0) and (0,1,0) is (.5,.5,0); normalized: (1,1,0)/sqrt(2)
        out = encode(encoder, "solar panel")
        expected = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_idf_weighting_shifts_the_mean(self, toy_vectors):
        enc = idf_encoder(toy_vectors, {"solar": math.log(4), "panel": math.log(2)})
        w_solar, w_panel = math.log(4), math.log(2)
        mean = (w_solar * np.array([1.0, 0, 0]) + w_panel * np.array([0, 1.0, 0])) / (
            w_solar + w_panel
        )
        expected = mean / np.linalg.norm(mean)
        np.testing.assert_allclose(encode(enc, "solar panel"), expected, atol=1e-12)

    def test_zero_total_weight_gives_zero_vector(self, toy_vectors):
        enc = idf_encoder(toy_vectors, documents=1)  # ln(1) = 0 for every token
        assert not encode(enc, "solar solar").any()

    def test_weights_are_one_per_id_then_zero_for_the_unknown_id(self, toy_vectors):
        enc = PooledEncoder(toy_vectors, np.arange(len(toy_vectors), dtype=float) + 1.0)
        assert enc.weights.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0]
        assert not enc.weights.flags.writeable
        parts = enc.parts([["cell", "unknown", "solar"], [], ["unknown"], ["solar"]])
        assert [part.tolist() for part in parts] == [[3, 0], [], [], [0]]
        assert enc.parts([]) == []

    @pytest.mark.parametrize("weights", [[1.0] * 5, [1.0] * 7, [[1.0] * 6]])
    def test_one_weight_per_vector_token(self, toy_vectors, weights):
        with pytest.raises(DimensionMismatch):
            PooledEncoder(toy_vectors, weights)

    @pytest.mark.parametrize(
        "weight", [np.nan, np.inf, -np.inf, -1.0, -1e-20, 9.99e-21, 1.01e20, 5e-324]
    )
    def test_weights_out_of_range_are_refused_naming_the_token(self, toy_vectors, weight):
        weights = [1.0] * len(toy_vectors)
        weights[2] = weight
        with pytest.raises(OutOfRange, match=f"token {toy_vectors.tokens()[2]!r} has the idf"):
            PooledEncoder(toy_vectors, weights)

    @pytest.mark.parametrize("scale", [1e-50, 1e50])
    @pytest.mark.parametrize("weight", [1e-20, 1.0, 1e20])
    def test_rows_at_the_range_edges_pool_to_unit_length(self, scale, weight):
        # The smallest and largest vectors, at the smallest and largest weights.
        enc = PooledEncoder(WordVectorTable({"a": [scale, 0.0], "b": [scale, scale]}), [weight] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert encode(enc, "a").tolist() == [1.0, 0.0]
            (pooled,) = enc.pool_many([enc.parts([["a", "b"]])])
        assert np.linalg.norm(pooled) == pytest.approx(1.0, rel=1e-15)
        assert pooled @ [1.0, 0.0] == pytest.approx(2 / math.sqrt(5.0), rel=1e-15)

    @pytest.mark.parametrize("description, sentence", [("a", "b"), ("b", "a")])
    def test_a_continued_group_at_the_range_edges_is_the_joint_pooling(
        self, description, sentence
    ):
        enc = PooledEncoder(WordVectorTable({"a": [1e50, 1e-50], "b": [-1e-50, 1e50]}),
                            [1e20, 1e-20])
        lead = enc.parts([[description] * 3])
        group = enc.parts([[sentence] * 2])
        sums = np.zeros((1, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            enc.pool_many([lead], sums_out=sums)
            (continued,) = enc.pool_many([group], sums)
            (joint,) = enc.pool_many([[*lead, *group]])
        assert continued.tobytes() == joint.tobytes()
        assert continued.tobytes() == oracles.scalar_pool(enc, [*lead, *group]).tobytes()
        assert np.linalg.norm(continued) == pytest.approx(1.0, rel=1e-15)

    def test_a_long_sum_of_the_largest_terms_stays_finite(self):
        # 10**5 terms of 1e70 and a total weight of 1e25.
        enc = PooledEncoder(WordVectorTable({"a": [1e50, 1.0], "b": [1e50, -1.0]}), [1e20, 1e20])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (pooled,) = enc.pool_many([enc.parts([["a", "b"] * 50_000])])
        assert pooled.tolist() == [1.0, 0.0]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_pooling_at_the_range_edges_warns_never_and_equals_the_token_loop(self, data):
        d = data.draw(st.integers(1, 4))
        v = data.draw(st.integers(1, 5))
        matrix = data.draw(st.lists(st.lists(vector_component, min_size=d, max_size=d),
                                    min_size=v, max_size=v))
        weights = data.draw(st.lists(idf_weight, min_size=v, max_size=v))
        ids = st.lists(st.integers(0, v - 1), max_size=6).map(lambda x: np.array(x, np.intp))
        groups = data.draw(st.lists(st.lists(ids, min_size=1, max_size=3), min_size=1, max_size=5))
        leads = data.draw(st.lists(ids, min_size=len(groups), max_size=len(groups)))
        with warnings.catch_warnings(), np.errstate(under="raise"):
            warnings.simplefilter("error")
            enc = PooledEncoder(WordVectorTable.from_rows([f"w{i}" for i in range(v)], matrix),
                                weights)
            pooled = enc.pool_many(groups)
            sums = np.zeros((len(groups), d + 1))
            enc.pool_many([[lead] for lead in leads], sums_out=sums)
            continued = enc.pool_many(groups, sums)
        for rows, lead in ((pooled, None), (continued, leads)):
            for i, (row, group) in enumerate(zip(rows, groups)):
                parts = group if lead is None else [lead[i], *group]
                assert row.tobytes() == oracles.scalar_pool(enc, parts).tobytes()
                norm = np.linalg.norm(row)
                assert norm == 0.0 and not row.any() or abs(norm - 1.0) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.permutations(["solar", "panel", "cell", "glass", "diode"]))
    def test_token_order_is_irrelevant(self, order):
        enc = _toy_encoder()
        reference = encode(enc, "solar panel cell glass diode")
        np.testing.assert_allclose(encode(enc, " ".join(order)), reference, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from(["solar", "panel", "unk", "the", "glass"]), max_size=8))
    def test_norm_is_zero_or_one(self, tokens):
        norm = np.linalg.norm(encode(_toy_encoder(), " ".join(tokens)))
        assert norm == pytest.approx(0.0, abs=1e-9) or norm == pytest.approx(1.0, abs=1e-9)


class TestEncodeWithEvidence:
    def test_no_sentences_is_exactly_plain_encode(self, encoder):
        desc = "solar panel cell"
        np.testing.assert_array_equal(
            encode_with_evidence(encoder, desc, []),
            oracles.scalar_encode(encoder, desc),
        )

    def test_empty_description_single_sentence(self, encoder):
        out = encode_with_evidence(encoder, "", ["solar panel"])
        np.testing.assert_allclose(out, encode(encoder, "solar panel"), atol=1e-12)

    def test_equals_encode_of_concatenation(self, encoder):
        desc = "Photovoltaic cell panel with glass"
        sentences = ["solar diode assemblies", "panel of glass"]
        direct = encode(encoder, desc + " ‖ " + " ‖ ".join(sentences))
        np.testing.assert_array_equal(encode_with_evidence(encoder, desc, sentences), direct)
