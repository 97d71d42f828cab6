"""Text-to-vector encoders behind a pluggable contract.

``DescriptionEncoder`` (``encode(text)`` and ``output_dimension``) is the
contract the classifiers and the case index consume. The pipeline also
builds each text's ``Part`` once and pools descriptions with their evidence
sentences from parts, so it needs ``PooledEncoder``'s ``part`` and ``pool``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from .textproc import IdfTable, WordVectorTable, tokenize


@runtime_checkable
class DescriptionEncoder(Protocol):
    """Deterministic map from text to a fixed-dimension real vector."""

    output_dimension: int

    def encode(self, text: str) -> np.ndarray: ...


@dataclass(frozen=True)
class Part:
    """A text's in-vocabulary token vectors, in token order, and their idf weights."""

    rows: np.ndarray
    weights: np.ndarray


class PooledEncoder:
    """Unit-length IDF-weighted mean of in-vocabulary token vectors.

    Empty or all-out-of-vocabulary text encodes to the zero vector; every
    other output has unit L2 norm, so downstream cosine similarities reduce
    to dot products.

    A text is pooled from its ``Part``: tokenized and gathered once, then
    pooled alone or followed by other parts (a description by its evidence
    sentences' parts, which the retriever keeps with its prepared manual
    entry).
    """

    def __init__(self, vectors: WordVectorTable, idf: IdfTable):
        self.vectors = vectors
        self.idf = idf
        self.output_dimension = vectors.dimension

    def part(self, tokens: Iterable[str]) -> Part:
        known = [token for token in tokens if token in self.vectors]
        rows = np.array([self.vectors.get(token) for token in known], dtype=float)
        return Part(
            rows=rows.reshape(len(known), self.output_dimension),
            weights=np.array([self.idf.value(token) for token in known], dtype=float),
        )

    def pool(self, parts: Sequence[Part]) -> np.ndarray:
        """Encode the concatenation of ``parts``' tokens.

        Equal to ``encode`` of the parts' texts joined by a separator the
        tokenizer drops.

        Token by token from +0.0, as a running sum: ``pooled += w * v`` and
        ``total += w``. ``np.add.accumulate`` adds in that order, and adding
        +0.0 to its last row gives the running sum's +0.0 where it has -0.0.
        """
        weights = np.concatenate([part.weights for part in parts])
        if not len(weights):
            return np.zeros(self.output_dimension)
        rows = np.concatenate([part.rows for part in parts])
        total_weight = float(np.add.accumulate(weights)[-1])
        if total_weight <= 0.0:
            return np.zeros(self.output_dimension)
        pooled = np.add.accumulate(weights[:, None] * rows, axis=0)[-1] + 0.0
        pooled /= total_weight
        norm = np.linalg.norm(pooled)
        if norm > 0.0:
            pooled /= norm
        return pooled

    def encode(self, text: str) -> np.ndarray:
        return self.pool([self.part(tokenize(text))])

