"""The text-to-vector encoder: an idf-weighted mean of word vectors.

A text's ``Part`` is the array of its in-vocabulary token ids, looked up
once (``PooledEncoder.part``). The encoder holds one idf weight per
vocabulary id and pools groups of parts, many groups at a time
(``PooledEncoder.pool_many``): a description alone, or followed by its
evidence sentences' parts. The vectors and weights of a group's tokens are
gathered by id.

The encoder owns the vector table and the idf weights of a fitted pipeline,
the only copy of each: the key-sentence retriever reads both through it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch
from .textproc import WordVectorTable, rescale_rows


# A text's part: the ids of its in-vocabulary tokens, in token order.
Part = np.ndarray

# No sum of k terms of magnitude at most m overflows while k * m is below this.
_SUM_LIMIT = np.finfo(float).max / 2


class PooledEncoder:
    """Unit-length IDF-weighted mean of in-vocabulary token vectors.

    Empty or all-out-of-vocabulary text encodes to the zero vector; every
    other output has unit L2 norm, so downstream cosine similarities reduce
    to dot products.

    A text is pooled from its ``Part``: tokenized and looked up once, then
    pooled alone or followed by other parts (a description by its evidence
    sentences' parts, which the retriever keeps with its prepared manual
    entry). ``pool_many`` pools many such groups at once. ``weights[i]`` is
    id i's idf weight; the unknown id V, whose unit row is zero, has 0.0.
    """

    def __init__(self, vectors: WordVectorTable, weights: Sequence[float]):
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(vectors),):
            raise DimensionMismatch(f"idf weights of shape {weights.shape} for {len(vectors)} tokens")
        self.vectors = vectors
        self.output_dimension = vectors.dimension
        self.weights = np.append(weights, 0.0)
        self.weights.flags.writeable = False
        # Bounds every |w * v| and every weight a pooled sum adds; a product of
        # Python floats overflows to inf without a warning.
        matrix = vectors.matrix
        largest = max(float(matrix.max(initial=0.0)), -float(matrix.min(initial=0.0)), 1.0)
        self._largest_term = float(np.abs(self.weights).max()) * largest

    def part(self, tokens: Iterable[str]) -> Part:
        ids = self.vectors.ids(tokens)
        return ids[ids < len(self.vectors)]

    def pool_many(self, groups: Sequence[Sequence[Part]]) -> np.ndarray:
        """Row i: the encoding of the concatenation of ``groups[i]``'s tokens.

        The idf-weighted mean of the group's token vectors at unit length,
        computed token by token from +0.0 as a running sum:
        ``pooled += w * v`` and ``total += w``. Each token's ``w * v`` and
        ``w`` form one row of ``d + 1`` terms. Token j of group i goes to
        ``padded[j, i]`` of a zero-padded ``(tokens, groups, d + 1)`` array,
        which is summed over its first axis from +0.0: that adds whole
        ``(groups, d + 1)`` slabs in token order, and the padding adds +0.0,
        which changes nothing. The total weight is summed with the terms,
        never pairwise. When a batch's sums could overflow (a word vector
        near the float maximum), each group whose mean is not finite is
        pooled again from its vectors over their largest absolute value,
        which keeps its direction; the other groups keep their bits. Row
        norms are stacked dot products, the same calls as
        ``np.linalg.norm``; a row that ``rescale_rows`` rescales, as it does
        the vector table's unit rows, gets the norm of the rescaled row.
        """
        d = self.output_dimension
        n = len(groups)
        lengths = [sum(len(part) for part in group) for group in groups]
        width = max(lengths, default=0)
        if not width:
            return np.zeros((n, d))
        ids = np.concatenate([part for group in groups for part in group])
        if len(ids) * self._largest_term < _SUM_LIMIT:
            pooled = self._means(ids, lengths, width)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                pooled = self._means(ids, lengths, width)
            for i in np.flatnonzero(~np.isfinite(pooled).all(axis=1)):
                start = sum(lengths[:i])
                group = ids[start : start + lengths[i]]
                rows = self.vectors.matrix[group]
                rows = rows / np.abs(rows).max() * self.weights[group][:, None]
                pooled[i] = np.add.reduce(rows, axis=0, initial=0.0)
        with np.errstate(over="ignore"):
            norms = np.sqrt(pooled[:, None, :] @ pooled[:, :, None])[:, 0]
        for i in rescale_rows(pooled, norms):
            norms[i] = np.sqrt(pooled[i] @ pooled[i])
        np.divide(pooled, norms, out=pooled, where=norms > 0.0)
        return pooled

    def _means(self, ids: np.ndarray, lengths: list[int], width: int) -> np.ndarray:
        """Each group's weighted mean of its tokens' vectors, the groups' ids end to end."""
        d = self.output_dimension
        n = len(lengths)
        weights = self.weights[ids][:, None]
        terms = self.vectors.matrix[ids]
        terms *= weights
        if n == 1:
            padded = np.concatenate((terms, weights), axis=1)[:, None]
        else:
            starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
            slots = (np.arange(len(terms)) - starts) * n + np.repeat(np.arange(n), lengths)
            padded = np.zeros((width, n, d + 1))
            flat = padded.reshape(width * n, d + 1)
            flat[slots, :d] = terms
            flat[slots, d] = weights[:, 0]
        sums = np.add.reduce(padded, axis=0, initial=0.0)
        totals = sums[:, d:]
        pooled = np.zeros((n, d))
        np.divide(sums[:, :d], totals, out=pooled, where=~(totals <= 0.0))
        return pooled

