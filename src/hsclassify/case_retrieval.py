"""Per-subheading index of prior-case embeddings for similar-case lookup.

Each subheading's cases form one bucket: an ``n x d`` embedding matrix with
the case ids, snippets and row norms beside it. A lookup scores every case
once as ``np.dot(row, query) / (norm(row) * norm(query))`` (+0.0 where that
product of norms is 0), one stacked dot product per row, so its ranking and
similarities equal scoring the cases one at a time. An index refuses an
embedding component that is NaN, infinite or larger in magnitude than
``VECTOR_RANGE[1]``, so no squared row norm overflows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import DecisionCase
from .errors import BadK, DimensionMismatch, DuplicateId, EmptyInput, OutOfRange
from .textproc import VECTOR_RANGE

SNIPPET_LENGTH = 80

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
    def from_sizes(cls, sizes: Mapping[str, int], ids: Sequence[str], snippets: Sequence[str],
                   embeddings: np.ndarray) -> "CaseIndex":
        """Index consecutive buckets of rows: the next ``sizes[s]`` rows hold subheading ``s``.

        Buckets follow the order of ``sizes``; a subheading of size 0 gets
        none. Each bucket's matrix is a view of ``embeddings``.
        """
        if min(sizes.values(), default=0) < 0:
            raise ValueError(f"a bucket size is negative: {min(sizes.values())}")
        rows = [len(embeddings), sum(sizes.values()), len(ids), len(snippets)]
        if embeddings.ndim != 2 or len(set(rows)) != 1:
            raise DimensionMismatch(f"row counts of embeddings, bucket sizes, ids, snippets: {rows}")
        high = VECTOR_RANGE[1]
        if not np.abs(embeddings).max(initial=0.0) <= high:  # NaN fails too
            bad = int(np.argmin(np.abs(embeddings) <= high))
            value = float(embeddings.flat[bad])
            raise OutOfRange(
                f"case {ids[bad // embeddings.shape[1]]!r} has the embedding value {value!r}; "
                f"a value must be finite with magnitude at most {high:g}"
            )
        norms = np.sqrt(_row_dots(embeddings, embeddings))
        by_subheading: dict[str, Bucket] = {}
        start = 0
        for subheading, size in sizes.items():
            stop = start + size
            if size:
                by_subheading[subheading] = Bucket(
                    list(ids[start:stop]),
                    list(snippets[start:stop]),
                    embeddings[start:stop],
                    norms[start:stop],
                )
            start = stop
        return cls(by_subheading, dimension=embeddings.shape[1])


def _row_dots(rows: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Each row's dot with ``other``, or with its own row of a matrix ``other``.

    numpy computes each ``(1, d) @ (d, 1)`` stack item with one ``np.dot``
    call, so a row's norm has the bits of ``np.linalg.norm(row)``.
    """
    return (rows[:, None, :] @ other[..., :, None])[:, 0, 0]


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
    return CaseIndex.from_sizes(
        Counter(cases[i].label.subheading for i in order),
        [cases[i].id for i in order],
        [_snippet(cases[i].description) for i in order],
        np.asarray(embeddings)[order],
    )


def similar_cases(
    index: CaseIndex, query_embedding: np.ndarray, subheading: str, m: int = 3
) -> list[tuple[str, float, str]]:
    """Top-m prior cases of ``subheading`` by cosine to the query embedding.

    Each is ``(case_id, similarity, snippet)``. Ties break on lexicographic
    case id; an unknown subheading yields []. Every case is scored once,
    its dot with the query over the product of their norms; a zero row or
    a zero query scores +0.0. Encoder rows are unit or zero, so no product
    overflows or underflows.
    """
    if m < 0:
        raise BadK(f"m={m} is negative")
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
    norms = bucket.norms * np.linalg.norm(query)
    scores = np.zeros(len(norms))
    np.divide(_row_dots(bucket.embeddings, query), norms, out=scores, where=norms > 0.0)
    rows = len(scores)
    leaders = range(rows)
    if m < rows:
        leaders = np.nonzero(scores >= np.partition(scores, rows - m)[rows - m])[0].tolist()
    ranked = sorted(leaders, key=lambda i: (-scores[i], bucket.ids[i]))[:m]
    return [(bucket.ids[i], float(scores[i]), bucket.snippets[i]) for i in ranked]
