"""Per-subheading index of prior-case embeddings for similar-case lookup."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import DecisionCase
from .errors import DuplicateId, EmptyInput
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


def _snippet(description: str) -> str:
    flat = " ".join(description.split())
    if len(flat) <= SNIPPET_LENGTH:
        return flat
    return flat[: SNIPPET_LENGTH - 1].rstrip() + "…"


def build_index(cases: Sequence[DecisionCase], embeddings: Sequence[np.ndarray]) -> CaseIndex:
    """Group each case with its embedding under the case's gold subheading.

    ``embeddings[i]`` is the vector ``cases[i]`` was trained on; the index
    keeps that array, so a query compares against the training inputs.
    """
    if not cases:
        raise EmptyInput("no cases to index")
    seen: set[str] = set()
    by_subheading: dict[str, list[IndexedCase]] = {}
    for case, embedding in zip(cases, embeddings, strict=True):
        if case.id in seen:
            raise DuplicateId(f"duplicate case id {case.id!r} in index build")
        seen.add(case.id)
        by_subheading.setdefault(case.label.subheading, []).append(
            IndexedCase(case_id=case.id, embedding=embedding, snippet=_snippet(case.description))
        )
    return CaseIndex(by_subheading=by_subheading, dimension=len(embeddings[0]))


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
