"""Per-subheading index of prior-case embeddings for similar-case lookup."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import DecisionCase
from .encoder import DescriptionEncoder, encode_with_evidence
from .errors import DimensionMismatch, DuplicateId, EmptyInput
from .textproc import cosine

SNIPPET_LENGTH = 80


@dataclass(frozen=True)
class IndexedCase:
    case_id: str
    embedding: np.ndarray
    snippet: str


@dataclass
class CaseIndex:
    """Map subheading -> prior cases with their train-time embeddings."""

    by_subheading: dict[str, list[IndexedCase]]
    dimension: int

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "by_subheading": {
                sub: [
                    {"id": c.case_id, "embedding": c.embedding.tolist(), "snippet": c.snippet}
                    for c in cases
                ]
                for sub, cases in sorted(self.by_subheading.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CaseIndex":
        dimension = int(data["dimension"])

        def indexed(record: dict) -> IndexedCase:
            embedding = np.array(record["embedding"], dtype=float)
            if embedding.shape != (dimension,):
                raise DimensionMismatch(
                    f"case {record['id']!r} embedding has shape {embedding.shape}, "
                    f"index dimension is {dimension}"
                )
            return IndexedCase(record["id"], embedding, record["snippet"])

        return cls(
            by_subheading={
                sub: [indexed(record) for record in cases]
                for sub, cases in data["by_subheading"].items()
            },
            dimension=dimension,
        )


def _snippet(description: str) -> str:
    flat = " ".join(description.split())
    if len(flat) <= SNIPPET_LENGTH:
        return flat
    return flat[: SNIPPET_LENGTH - 1].rstrip() + "…"


def build_index(
    cases: Sequence[DecisionCase],
    encoder: DescriptionEncoder,
    evidence_by_case: Mapping[str, Sequence[str]],
) -> CaseIndex:
    """Embed each case with its train-time evidence, grouped by gold subheading.

    ``evidence_by_case`` maps case id to the key sentences used when the case
    was embedded for training (may be empty for cases without a manual entry).
    """
    if not cases:
        raise EmptyInput("no cases to index")
    seen: set[str] = set()
    by_subheading: dict[str, list[IndexedCase]] = {}
    for case in cases:
        if case.id in seen:
            raise DuplicateId(f"duplicate case id {case.id!r} in index build")
        seen.add(case.id)
        sentences = list(evidence_by_case.get(case.id, ()))
        embedding = encode_with_evidence(encoder, case.description, sentences)
        by_subheading.setdefault(case.label.subheading, []).append(
            IndexedCase(case_id=case.id, embedding=embedding, snippet=_snippet(case.description))
        )
    return CaseIndex(by_subheading=by_subheading, dimension=encoder.output_dimension)


def similar_cases(
    index: CaseIndex, query_embedding: np.ndarray, subheading: str, m: int = 3
) -> list[tuple[str, float]]:
    """Top-m prior cases of ``subheading`` by cosine to the query embedding.

    Ties break on lexicographic case id; an unknown subheading yields [].
    """
    bucket = index.by_subheading.get(subheading, [])
    scored = [(c.case_id, cosine(query_embedding, c.embedding)) for c in bucket]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:m]


def snippet_for(index: CaseIndex, subheading: str, case_id: str) -> str:
    for case in index.by_subheading.get(subheading, []):
        if case.case_id == case_id:
            return case.snippet
    return ""
