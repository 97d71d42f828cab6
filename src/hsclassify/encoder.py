"""Text-to-vector encoders behind a pluggable contract.

``DescriptionEncoder`` is the contract every stage consumes; the shipped
implementation pools static word vectors, so a transformer-backed encoder
can be swapped in later without touching the classifiers.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .textproc import IdfTable, WordVectorTable, tokenize

# Joined between description and evidence sentences; the tokenizer drops the
# reserved mark, so pooling sees plain concatenation.
EVIDENCE_SEPARATOR = " ‖ "


@runtime_checkable
class DescriptionEncoder(Protocol):
    """Deterministic map from text to a fixed-dimension real vector."""

    output_dimension: int

    def encode(self, text: str) -> np.ndarray: ...


class PooledEncoder:
    """Unit-length IDF-weighted mean of in-vocabulary token vectors.

    Empty or all-out-of-vocabulary text encodes to the zero vector; every
    other output has unit L2 norm, so downstream cosine similarities reduce
    to dot products.
    """

    def __init__(self, vectors: WordVectorTable, idf: IdfTable):
        self.vectors = vectors
        self.idf = idf
        self.output_dimension = vectors.dimension

    def encode(self, text: str) -> np.ndarray:
        pooled = np.zeros(self.output_dimension)
        total_weight = 0.0
        for token in tokenize(text):
            if token not in self.vectors:
                continue
            weight = self.idf.value(token)
            pooled += weight * self.vectors.get(token)
            total_weight += weight
        if total_weight <= 0.0:
            return np.zeros(self.output_dimension)
        pooled /= total_weight
        norm = np.linalg.norm(pooled)
        if norm > 0.0:
            pooled /= norm
        return pooled


def encode_with_evidence(
    encoder: DescriptionEncoder, description: str, sentences: Sequence[str]
) -> np.ndarray:
    """Encode a description joined with its evidence sentences in order.

    With no sentences this is exactly ``encoder.encode(description)``.
    """
    if not sentences:
        return encoder.encode(description)
    return encoder.encode(EVIDENCE_SEPARATOR.join([description, *sentences]))
