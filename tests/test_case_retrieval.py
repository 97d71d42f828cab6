"""Case index construction and similar-case lookup."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsclassify.case_retrieval import build_index, similar_cases
from hsclassify.errors import BadK, DimensionMismatch, DuplicateId, EmptyInput, OutOfRange
from hsclassify.encoder import PooledEncoder
from hsclassify.textproc import WordVectorTable

import oracles
from conftest import encode_with_evidence, idf_encoder, make_case, vector_component


@pytest.fixture
def encoder() -> PooledEncoder:
    vectors = WordVectorTable(
        {
            "alpha": [1.0, 0.0, 0.0],
            "beta": [0.0, 1.0, 0.0],
            "gamma": [0.0, 0.0, 1.0],
        }
    )
    return idf_encoder(vectors)


def embedded(cases, encoder, evidence=None):
    """Each case's description encoded with its ``evidence`` sentences, if any."""
    evidence = evidence or {}
    return [encode_with_evidence(encoder, c.description, evidence.get(c.id, [])) for c in cases]


def indexed(embeddings: dict, subheading: str = "854140"):
    """An index of one bucket: case id -> embedding, each described by its id."""
    cases = [make_case(cid, description=f"case {cid}", code=subheading) for cid in embeddings]
    return build_index(cases, list(embeddings.values()))


def largest_at_one(rows: np.ndarray) -> np.ndarray:
    """Each row scaled so its largest component magnitude is 1.

    Times a scale of 1e50, a row's largest component sits at the top of the
    range an index accepts.
    """
    return rows / np.abs(rows).max(axis=1, keepdims=True)


def ten_cases():
    cases = []
    for i in range(10):
        code = "854140" if i < 6 else "854151"
        word = "alpha" if i < 6 else "beta"
        cases.append(make_case(f"case-{i:02d}", description=f"{word} item {i}", code=code))
    return cases


class TestBuildIndex:
    def test_two_buckets_sum_to_input(self, encoder):
        index = build_index(ten_cases(), embedded(ten_cases(), encoder))
        assert set(index.by_subheading) == {"854140", "854151"}
        assert sum(len(v.ids) for v in index.by_subheading.values()) == 10

    def test_duplicate_id_rejected(self, encoder):
        cases = [make_case("same"), make_case("same")]
        with pytest.raises(DuplicateId):
            build_index(cases, embedded(cases, encoder))

    def test_rebuild_is_bit_identical(self, encoder):
        evidence = {"case-00": ["beta gamma"], "case-07": ["alpha"]}
        first = build_index(ten_cases(), embedded(ten_cases(), encoder, evidence))
        second = build_index(ten_cases(), embedded(ten_cases(), encoder, evidence))
        for sub, a in first.by_subheading.items():
            b = second.by_subheading[sub]
            assert a.ids == b.ids
            assert a.embeddings.tobytes() == b.embeddings.tobytes()

    def test_empty_input(self, encoder):
        with pytest.raises(EmptyInput):
            build_index([], [])

    @pytest.mark.parametrize("value", [1e200, -1e200, float(np.nextafter(1e50, np.inf)), np.inf, np.nan])
    def test_component_beyond_the_vector_range_refused(self, value):
        # A row with a component this large could have a squared norm that overflows.
        embeddings = {"ok": np.array([1.0, 0.0]), "bad": np.array([0.5, value])}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange) as info:
                indexed(embeddings)
        assert str(info.value).startswith(f"case 'bad' has the embedding value {value!r}; ")

    def test_overflowing_row_refused(self):
        with pytest.raises(OutOfRange, match=r"case 'huge' has the embedding value 1e\+200"):
            indexed({"huge": np.array([1e200, 1e200])})

    def test_components_at_the_vector_range_top_indexed(self):
        embeddings = {"up": np.array([1e50, -1e50]), "down": np.array([-1e50, 1e50]),
                      "unit": np.array([1.0, 0.0])}
        index = indexed(embeddings)
        got = similar_cases(index, np.array([1.0, -1.0]), "854140", m=3)
        assert [(cid, sim) for cid, sim, _ in got] == [
            ("up", pytest.approx(1.0, abs=1e-12)),
            ("unit", pytest.approx(2 ** -0.5, abs=1e-12)),
            ("down", pytest.approx(-1.0, abs=1e-12)),
        ]


class TestSimilarCases:
    def test_exact_match_ranks_first_with_unit_similarity(self, encoder):
        index = build_index(ten_cases(), embedded(ten_cases(), encoder))
        query = index.by_subheading["854140"].embeddings[2]
        results = similar_cases(index, query, "854140", m=3)
        assert results[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_absent_subheading_gives_empty_list(self, encoder):
        index = build_index(ten_cases(), embedded(ten_cases(), encoder))
        assert similar_cases(index, np.ones(3), "999999") == []

    def test_ranking_matches_brute_force_sort(self):
        embeddings = {
            "c-a": np.array([1.0, 0.0]),
            "c-b": np.array([0.8, 0.6]),
            "c-c": np.array([0.0, 1.0]),
            "c-d": np.array([-1.0, 0.0]),
            "c-e": np.array([0.6, 0.8]),
        }
        index = indexed(embeddings)
        query = np.array([1.0, 0.0])

        def brute(vec_map, q):
            def cos(u, v):
                import math

                nu = math.hypot(*u)
                nv = math.hypot(*v)
                return (u[0] * v[0] + u[1] * v[1]) / (nu * nv)

            return sorted(((cid, cos(q, v)) for cid, v in vec_map.items()), key=lambda p: (-p[1], p[0]))

        expected = brute(embeddings, query)
        got = similar_cases(index, query, "854140", m=5)
        assert [cid for cid, _, _ in got] == [cid for cid, _ in expected]
        for (_, a, _), (_, b) in zip(got, expected):
            assert a == pytest.approx(b, abs=1e-12)

    def test_result_size_and_ordering_invariants(self, encoder):
        index = build_index(ten_cases(), embedded(ten_cases(), encoder))
        for m in (1, 3, 10, 50):
            results = similar_cases(index, np.array([1.0, 1.0, 0.0]), "854140", m=m)
            assert len(results) == min(m, 6)
            sims = [s for _, s, _ in results]
            assert all(-1.0 - 1e-12 <= s <= 1.0 + 1e-12 for s in sims)
            assert sims == sorted(sims, reverse=True)

    def test_tie_breaks_lexicographically(self):
        index = indexed({"zz": np.array([1.0, 0.0]), "aa": np.array([2.0, 0.0])})
        results = similar_cases(index, np.array([1.0, 0.0]), "854140", m=2)
        assert [cid for cid, _, _ in results] == ["aa", "zz"]


def scalar_reference(embeddings: dict, query, m: int) -> list[tuple[str, float]]:
    """``oracles.cosine`` against every case, then sort: the loop the lookup must equal."""
    scored = [(cid, oracles.cosine(query, vector)) for cid, vector in embeddings.items()]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:m]


def assert_exact(embeddings: dict, query, m: int) -> list:
    got = similar_cases(indexed(embeddings), query, "854140", m=m)
    # Floats compare with ==: the lookup must return the reference's very bits.
    assert [(cid, sim) for cid, sim, _ in got] == scalar_reference(embeddings, query, m)
    assert [snippet for _, _, snippet in got] == [f"case {cid}" for cid, _, _ in got]
    return got


class TestLookupIsExact:
    """The one-pass lookup equals the scalar ``oracles.cosine`` loop bit for bit."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_buckets(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.choice([2, 3, 24, 50]))
        n = int(rng.integers(1, 80))
        vectors = rng.normal(size=(n, dim))
        # Near-ties: scaled copies share a direction, so their cosines differ
        # only by rounding.
        for i in rng.integers(0, n, size=n // 3):
            vectors[int(rng.integers(0, n))] = vectors[i] * rng.uniform(0.1, 10.0)
        ids = [f"c{int(j):03d}" for j in rng.permutation(n)]
        embeddings = dict(zip(ids, vectors))
        queries = [rng.normal(size=dim), vectors[int(rng.integers(0, n))] * 3.0]
        for query in queries:
            for m in (1, 3, 5, n - 1, n, n + 1):
                assert_exact(embeddings, query, m)

    def test_equal_embeddings_break_on_id(self):
        got = assert_exact({"b": np.array([1.0, 2.0]), "a": np.array([1.0, 2.0]),
                            "c": np.array([2.0, -1.0]), "d": np.array([0.0, 1.0])},
                           np.array([1.0, 2.0]), m=1)
        assert [cid for cid, _, _ in got] == ["a"]

    def test_zero_query_ties_every_case(self):
        embeddings = {f"c{i}": v for i, v in zip([3, 1, 4, 0, 2], np.eye(5) + 0.5)}
        got = assert_exact(embeddings, np.zeros(5), m=3)
        assert [(cid, sim) for cid, sim, _ in got] == [("c0", 0.0), ("c1", 0.0), ("c2", 0.0)]

    def test_zero_norm_row(self):
        embeddings = {"a": np.zeros(3), "b": np.array([-1.0, 0.0, 0.0]),
                      "c": np.array([-1.0, -1.0, 0.0]), "d": np.array([0.0, -1.0, 0.0])}
        got = assert_exact(embeddings, np.array([1.0, 0.0, 0.0]), m=1)
        assert got[0][:2] == ("a", 0.0)
        assert_exact(embeddings, np.array([1.0, 0.0, 0.0]), m=2)

    def test_smallest_norm_query_and_rows(self):
        embeddings = {"a": np.array([1.0, 0.1]), "b": np.array([1e-50, 0.0]),
                      "c": np.array([0.0, 1.0]), "d": np.array([-1.0, 0.5])}
        assert_exact(embeddings, np.array([3.3e-50, 1e-50]), m=1)
        got = assert_exact(embeddings, np.array([1.0, 0.0]), m=1)
        assert got[0][:2] == ("b", 1.0)

    def test_m_zero_and_small_buckets(self):
        embeddings = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
        assert similar_cases(indexed(embeddings), np.array([1.0, 1.0]), "854140", m=0) == []
        for m in (1, 2, 3):
            assert_exact(embeddings, np.array([1.0, 2.0]), m)

    def test_wrong_query_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            similar_cases(indexed({"a": np.ones(3)}), np.ones(2), "854140")

    def test_negative_m_rejected(self):
        embeddings = {cid: np.array([1.0, float(i)]) for i, cid in enumerate("abcd")}
        for m in (-1, -3):
            with pytest.raises(BadK):
                similar_cases(indexed(embeddings), np.array([1.0, 0.0]), "854140", m=m)

    @pytest.mark.parametrize("seed", range(3))
    def test_unit_rows_with_near_duplicates(self, seed):
        # Encoder outputs are unit rows; a rescaled copy of a row, normalized
        # again, shares its direction up to rounding.
        rng = np.random.default_rng(100 + seed)
        vectors = rng.normal(size=(200, 300))
        for i in rng.integers(0, 200, size=60):
            vectors[int(rng.integers(0, 200))] = vectors[i] * rng.uniform(0.1, 10.0)
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        embeddings = {f"c{int(j):03d}": v for j, v in zip(rng.permutation(200), vectors)}
        for query in (rng.normal(size=300), vectors[int(rng.integers(0, 200))]):
            for m in (1, 3, 5, 199, 200):
                assert_exact(embeddings, query, m)

    @pytest.mark.parametrize("seed", range(10))
    def test_scales_at_the_vector_range_edges(self, seed):
        rng = np.random.default_rng(200 + seed)
        n, dim = int(rng.integers(2, 40)), int(rng.choice([3, 24]))
        scales = rng.choice([1.0, 1e50, 1e-50, 0.0], size=(n, 1))
        vectors = largest_at_one(rng.normal(size=(n, dim))) * scales
        embeddings = {f"c{int(j):02d}": v for j, v in zip(rng.permutation(n), vectors)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1.0, 1e50, 1e-50):
                for m in (1, 3, n - 1, n):
                    assert_exact(embeddings, rng.normal(size=dim) * scale, m)

    def test_bucket_norms_are_each_rows_norm(self):
        rng = np.random.default_rng(7)
        scales = rng.choice([1.0, 1e-3, 1e50, 1e-50], size=(500, 1))
        vectors = largest_at_one(rng.normal(size=(500, 300))) * scales
        index = indexed({f"c{i:03d}": v for i, v in enumerate(vectors)})
        bucket = index.by_subheading["854140"]
        assert [n.hex() for n in bucket.norms] == [np.linalg.norm(r).hex() for r in vectors]



@settings(max_examples=150, deadline=None)
@given(st.data())
def test_scores_are_bounded_and_symmetric_for_vectors_in_range(data):
    dim = data.draw(st.integers(1, 6))
    vector = st.lists(vector_component, min_size=dim, max_size=dim).map(np.array)
    rows = data.draw(st.lists(vector, min_size=1, max_size=8))
    query = data.draw(vector)
    embeddings = {f"c{i}": row for i, row in enumerate(rows)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = similar_cases(indexed(embeddings), query, "854140", m=len(rows))
        for cid, score, _ in got:
            assert -1.0 - 1e-12 <= score <= 1.0 + 1e-12
            ((_, back, _),) = similar_cases(indexed({"q": query}), embeddings[cid], "854140", m=1)
            assert score == pytest.approx(back, abs=1e-12)
