"""Case index construction and similar-case lookup."""

from __future__ import annotations

import numpy as np
import pytest

from hsclassify.case_retrieval import CaseIndex, IndexedCase, build_index, similar_cases
from hsclassify.encoder import PooledEncoder, encode_with_evidence
from hsclassify.errors import DuplicateId, EmptyInput
from hsclassify.textproc import IdfTable, WordVectorTable

from conftest import make_case


@pytest.fixture
def encoder() -> PooledEncoder:
    vectors = WordVectorTable(
        {
            "alpha": [1.0, 0.0, 0.0],
            "beta": [0.0, 1.0, 0.0],
            "gamma": [0.0, 0.0, 1.0],
        }
    )
    return PooledEncoder(vectors, IdfTable(document_count=4, values={}))


def embedded(cases, encoder, evidence=None):
    """Each case's description encoded with its ``evidence`` sentences, if any."""
    evidence = evidence or {}
    return [encode_with_evidence(encoder, c.description, evidence.get(c.id, [])) for c in cases]


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
        assert sum(len(v) for v in index.by_subheading.values()) == 10

    def test_duplicate_id_rejected(self, encoder):
        cases = [make_case("same"), make_case("same")]
        with pytest.raises(DuplicateId):
            build_index(cases, embedded(cases, encoder))

    def test_rebuild_is_bit_identical(self, encoder):
        evidence = {"case-00": ["beta gamma"], "case-07": ["alpha"]}
        first = build_index(ten_cases(), embedded(ten_cases(), encoder, evidence))
        second = build_index(ten_cases(), embedded(ten_cases(), encoder, evidence))
        for sub in first.by_subheading:
            for a, b in zip(first.by_subheading[sub], second.by_subheading[sub]):
                assert a.case_id == b.case_id
                assert np.array_equal(a.embedding, b.embedding)

    def test_empty_input(self, encoder):
        with pytest.raises(EmptyInput):
            build_index([], [])


class TestSimilarCases:
    def test_exact_match_ranks_first_with_unit_similarity(self, encoder):
        index = build_index(ten_cases(), embedded(ten_cases(), encoder))
        query = index.by_subheading["854140"][2].embedding
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
        index = CaseIndex(
            by_subheading={
                "854140": [IndexedCase(cid, vec, cid) for cid, vec in embeddings.items()]
            },
            dimension=2,
        )
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
        assert [cid for cid, _ in got] == [cid for cid, _ in expected]
        for (_, a), (_, b) in zip(got, expected):
            assert a == pytest.approx(b, abs=1e-12)

    def test_result_size_and_ordering_invariants(self, encoder):
        index = build_index(ten_cases(), embedded(ten_cases(), encoder))
        for m in (1, 3, 10, 50):
            results = similar_cases(index, np.array([1.0, 1.0, 0.0]), "854140", m=m)
            assert len(results) == min(m, 6)
            sims = [s for _, s in results]
            assert all(-1.0 - 1e-12 <= s <= 1.0 + 1e-12 for s in sims)
            assert sims == sorted(sims, reverse=True)

    def test_tie_breaks_lexicographically(self):
        index = CaseIndex(
            by_subheading={
                "854140": [
                    IndexedCase("zz", np.array([1.0, 0.0]), ""),
                    IndexedCase("aa", np.array([2.0, 0.0]), ""),
                ]
            },
            dimension=2,
        )
        results = similar_cases(index, np.array([1.0, 0.0]), "854140", m=2)
        assert [cid for cid, _ in results] == ["aa", "zz"]
