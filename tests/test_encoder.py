"""Pooled encoder behaviour and the evidence-concatenation contract."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsclassify.encoder import DescriptionEncoder, PooledEncoder, encode_with_evidence
from hsclassify.textproc import IdfTable, WordVectorTable


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
    return PooledEncoder(vectors, IdfTable(document_count=4, values={}))


@pytest.fixture
def encoder(toy_vectors, uniform_idf) -> PooledEncoder:
    return PooledEncoder(toy_vectors, uniform_idf)


class TestPooledEncoder:
    def test_satisfies_contract(self, encoder):
        assert isinstance(encoder, DescriptionEncoder)
        assert encoder.output_dimension == 3

    def test_all_oov_is_zero_vector(self, encoder):
        assert not encoder.encode("completely unknown words").any()

    def test_empty_text_is_zero_vector(self, encoder):
        assert not encoder.encode("").any()

    def test_single_token_is_unit_parallel(self, encoder, toy_vectors):
        out = encoder.encode("glass")
        expected = toy_vectors.get("glass") / np.linalg.norm(toy_vectors.get("glass"))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_equal_idf_two_tokens_is_normalized_mean(self, encoder):
        # mean of (1,0,0) and (0,1,0) is (.5,.5,0); normalized: (1,1,0)/sqrt(2)
        out = encoder.encode("solar panel")
        expected = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_idf_weighting_shifts_the_mean(self, toy_vectors):
        idf = IdfTable(document_count=4, values={"solar": math.log(4), "panel": math.log(2)})
        enc = PooledEncoder(toy_vectors, idf)
        w_solar, w_panel = math.log(4), math.log(2)
        mean = (w_solar * np.array([1.0, 0, 0]) + w_panel * np.array([0, 1.0, 0])) / (
            w_solar + w_panel
        )
        expected = mean / np.linalg.norm(mean)
        np.testing.assert_allclose(enc.encode("solar panel"), expected, atol=1e-12)

    def test_zero_total_weight_gives_zero_vector(self, toy_vectors):
        idf = IdfTable(document_count=1, values={"solar": 0.0})
        enc = PooledEncoder(toy_vectors, idf)
        assert not enc.encode("solar solar").any()

    @settings(max_examples=50, deadline=None)
    @given(st.permutations(["solar", "panel", "cell", "glass", "diode"]))
    def test_token_order_is_irrelevant(self, order):
        enc = _toy_encoder()
        reference = enc.encode("solar panel cell glass diode")
        np.testing.assert_allclose(enc.encode(" ".join(order)), reference, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from(["solar", "panel", "unk", "the", "glass"]), max_size=8))
    def test_norm_is_zero_or_one(self, tokens):
        norm = np.linalg.norm(_toy_encoder().encode(" ".join(tokens)))
        assert norm == pytest.approx(0.0, abs=1e-9) or norm == pytest.approx(1.0, abs=1e-9)


class TestEncodeWithEvidence:
    def test_no_sentences_is_exactly_plain_encode(self, encoder):
        desc = "solar panel cell"
        np.testing.assert_array_equal(
            encode_with_evidence(encoder, desc, []), encoder.encode(desc)
        )

    def test_empty_description_single_sentence(self, encoder):
        out = encode_with_evidence(encoder, "", ["solar panel"])
        np.testing.assert_allclose(out, encoder.encode("solar panel"), atol=1e-12)

    def test_equals_encode_of_concatenation(self, encoder):
        desc = "Photovoltaic cell panel with glass"
        sentences = ["solar diode assemblies", "panel of glass"]
        direct = encoder.encode(desc + " ‖ " + " ‖ ".join(sentences))
        np.testing.assert_array_equal(encode_with_evidence(encoder, desc, sentences), direct)
