"""Per-subheading index of prior-case embeddings for similar-case lookup.

Each subheading's cases form one bucket: an ``n x d`` embedding matrix with
the case ids and snippets beside it. A lookup ranks the whole bucket with
one matrix-vector product, then recomputes with ``cosine`` only the cases
that can still reach the top m, so its result equals ranking every case
with ``cosine``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import DecisionCase
from .errors import DimensionMismatch, DuplicateId, EmptyInput
from .textproc import cosine

SNIPPET_LENGTH = 80

# With norms in NORM_RANGE nothing overflows and underflow is negligible, so
# the prefilter and ``cosine`` each compute a cosine to within (2d + 4)u of the
# true value (u = 2**-53, d the dimension: the dot-product bound with
# Cauchy-Schwarz, plus the roundings of the norms, their product and the
# division). They differ by at most (4d + 8)u, 1.3e-13 at d = 300 and below
# PREFILTER_MARGIN for d under two million. Other rows are always rescored.
NORM_RANGE = (1e-150, 1e150)
PREFILTER_MARGIN = 1e-9


@dataclass(frozen=True)
class Bucket:
    """One subheading's prior cases: row i of ``embeddings`` is case ``ids[i]``."""

    ids: list[str]
    snippets: list[str]
    embeddings: np.ndarray
    norms: np.ndarray


@dataclass
class CaseIndex:
    """Map subheading -> bucket of prior cases with their train-time embeddings."""

    by_subheading: dict[str, Bucket]
    dimension: int

    @classmethod
    def from_rows(cls, subheadings: Sequence[str], ids: Sequence[str], snippets: Sequence[str],
                  embeddings: np.ndarray) -> "CaseIndex":
        """Index rows grouped by subheading; each bucket's matrix is a view of ``embeddings``."""
        norms = np.linalg.norm(embeddings, axis=1)
        rows = len(subheadings)
        starts = [i for i in range(rows) if i == 0 or subheadings[i] != subheadings[i - 1]]
        by_subheading: dict[str, Bucket] = {}
        for start, stop in zip(starts, [*starts[1:], rows]):
            subheading = subheadings[start]
            if subheading in by_subheading:
                raise ValueError(f"rows of subheading {subheading} are not contiguous")
            by_subheading[subheading] = Bucket(
                list(ids[start:stop]),
                list(snippets[start:stop]),
                embeddings[start:stop],
                norms[start:stop],
            )
        return cls(by_subheading, dimension=embeddings.shape[1])


def _snippet(description: str) -> str:
    flat = " ".join(description.split())
    if len(flat) <= SNIPPET_LENGTH:
        return flat
    return flat[: SNIPPET_LENGTH - 1].rstrip() + "…"


def build_index(cases: Sequence[DecisionCase], embeddings: Sequence[np.ndarray]) -> CaseIndex:
    """Group each case with its embedding under the case's gold subheading.

    ``embeddings[i]`` is the vector ``cases[i]`` was trained on, so a query
    compares against the training inputs. Buckets are ordered by subheading
    and keep the input order of their cases.
    """
    if not cases:
        raise EmptyInput("no cases to index")
    seen: set[str] = set()
    for case, _ in zip(cases, embeddings, strict=True):
        if case.id in seen:
            raise DuplicateId(f"duplicate case id {case.id!r} in index build")
        seen.add(case.id)
    order = sorted(range(len(cases)), key=lambda i: cases[i].label.subheading)
    return CaseIndex.from_rows(
        [cases[i].label.subheading for i in order],
        [cases[i].id for i in order],
        [_snippet(cases[i].description) for i in order],
        np.asarray(embeddings)[order],
    )


def _leaders(bucket: Bucket, query: np.ndarray, query_norm: float, m: int) -> np.ndarray:
    """Rows that can rank in the top m by ``cosine``: the prefilter's survivors."""
    rows = len(bucket.ids)
    low, high = NORM_RANGE
    if not low <= query_norm <= high:
        return np.arange(rows)
    outside = ~((bucket.norms >= low) & (bucket.norms <= high))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        approximate = bucket.embeddings @ query / (bucket.norms * query_norm)
    approximate[outside] = -np.inf
    cut = np.partition(approximate, rows - m)[rows - m]
    return np.flatnonzero((approximate >= cut - PREFILTER_MARGIN) | outside)


def similar_cases(
    index: CaseIndex, query_embedding: np.ndarray, subheading: str, m: int = 3
) -> list[tuple[str, float, str]]:
    """Top-m prior cases of ``subheading`` by cosine to the query embedding.

    Each is ``(case_id, similarity, snippet)``. Ties break on lexicographic
    case id; an unknown subheading yields []. A bucket of more than m cases
    is prefiltered with one matrix-vector product, and ``cosine`` rescores
    every case within ``PREFILTER_MARGIN`` of the m-th best approximate score.
    The query's norm is computed once per lookup.
    """
    bucket = index.by_subheading.get(subheading)
    if bucket is None:
        return []
    query = np.asarray(query_embedding, dtype=float)
    if query.shape != (index.dimension,):
        raise DimensionMismatch(
            f"query shape {query.shape} does not match index dimension {index.dimension}"
        )
    if m == 0:
        return []
    query_norm = np.linalg.norm(query)
    rows = range(len(bucket.ids))
    if 0 < m < len(rows):
        rows = _leaders(bucket, query, query_norm, m)
    scored = sorted(
        ((bucket.ids[i], cosine(query, bucket.embeddings[i], query_norm), i) for i in rows),
        key=lambda item: (-item[1], item[0]),
    )
    return [(case_id, similarity, bucket.snippets[i]) for case_id, similarity, i in scored[:m]]
