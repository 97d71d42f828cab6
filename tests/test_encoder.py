"""Pooled encoder behaviour and the evidence-concatenation contract."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsclassify.encoder import PooledEncoder
from hsclassify.errors import DimensionMismatch
from hsclassify.textproc import WordVectorTable, cosine

import oracles
from conftest import encode, encode_with_evidence, idf_encoder


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

    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e-320, 1e170, 1e300])
    def test_tiny_and_huge_rows_are_rescaled_to_unit_length(self, scale):
        # The row's squared norm underflows, is subnormal or overflows.
        enc = idf_encoder(WordVectorTable({"a": [scale, 0.0], "b": [scale, scale]}))
        assert encode(enc, "a").tolist() == [1.0, 0.0]
        (pooled,) = enc.pool_many([enc.parts([["a", "b"]])])
        assert np.linalg.norm(pooled) == pytest.approx(1.0, rel=1e-15)
        assert pooled @ [1.0, 0.0] == pytest.approx(cosine([2.0, 1.0], [1.0, 0.0]), rel=1e-15)

    def test_a_group_whose_mean_overflows_pools_to_a_finite_unit_row(self):
        # 1.5e308 * ln 4 overflows, so the groups with "a" are pooled again from
        # their vectors over 1.5e308; the group of "b" alone keeps its bits.
        enc = idf_encoder(WordVectorTable({"a": [1.5e308, 1.0], "b": [0.3, 0.7]}))
        groups = [[part] for part in enc.parts([["a"], ["b"], ["a", "b"]])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pooled = enc.pool_many(groups)
            alone = [enc.pool_many([group])[0] for group in groups]
        assert pooled[0].tolist() == enc.vectors.unit_rows[0].tolist() == [1.0, 1 / 1.5e308]
        b_alone = idf_encoder(WordVectorTable({"b": [0.3, 0.7]}))
        assert pooled[1].tobytes() == encode(b_alone, "b").tobytes()
        # The mean of the two rows points along [1.5e308 + 0.3, 1.7].
        assert pooled[2][0] == 1.0
        assert pooled[2][1] == pytest.approx(1.7 / 1.5e308, rel=1e-12)
        for row, one in zip(pooled, alone):
            assert row.tobytes() == one.tobytes()

    @pytest.mark.parametrize("description, sentence", [("a", "b"), ("b", "a")])
    def test_a_continued_group_whose_mean_overflows_is_pooled_again_whole(
        self, description, sentence
    ):
        # The overflow check counts the description's tokens, and the group is
        # pooled again from the description's vectors followed by the
        # sentence's: the bits of pooling both jointly.
        enc = idf_encoder(WordVectorTable({"a": [1.5e308, 1.0], "b": [0.0, 1.0]}))
        lead = enc.parts([[description]])
        group = enc.parts([[sentence]])
        sums = np.zeros((1, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            enc.pool_many([lead], sums_out=sums)
            (continued,) = enc.pool_many([group], (lead, sums))
            (joint,) = enc.pool_many([[*lead, *group]])
        assert continued.tobytes() == joint.tobytes()
        assert continued[0] == 1.0
        assert continued[1] == pytest.approx(2 / 1.5e308, rel=1e-12)

    def test_norms_ignore_overflow_only_when_a_squared_norm_could_overflow(self, monkeypatch):
        ordinary = idf_encoder(WordVectorTable({"a": [3.0, -4.0], "b": [1e-300, 2.0]}))
        # (1e160)**2 overflows a float.
        huge = idf_encoder(WordVectorTable({"a": [1e160, 1.0], "b": [0.3, 0.7]}))
        entered = []
        errstate = np.errstate
        monkeypatch.setattr(np, "errstate", lambda **kw: entered.append(kw) or errstate(**kw))
        ordinary.pool_many([[part] for part in ordinary.parts([["a", "b"], ["b"]])])
        assert entered == []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pooled = huge.pool_many([[part] for part in huge.parts([["a"], ["a", "b"]])])
        assert entered == [{"over": "ignore"}]
        assert pooled[0].tolist() == [1.0, 1e-160]
        assert np.linalg.norm(pooled[1]) == pytest.approx(1.0, rel=1e-15)

    def test_a_sum_that_overflows_from_finite_terms(self):
        # Each w * v is ln 4 * 1e308, finite; their sum is not.
        enc = idf_encoder(WordVectorTable({"a": [1e308, 1.0], "b": [1e308, -1.0]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (pooled,) = enc.pool_many([enc.parts([["a", "b"]])])
        assert pooled.tolist() == [1.0, 0.0]

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
