"""The text-to-vector encoder: an idf-weighted mean of word vectors.

A text's ``Part`` is the array of its in-vocabulary token ids, looked up
once (``PooledEncoder.parts``, for many texts in one pass). The encoder
holds one idf weight per vocabulary id and pools groups of parts, many
groups at a time (``PooledEncoder.pool_many``): a description alone, or
its evidence sentences' parts continuing the running sums that pooling the
description ended with. The continued row is the description and its
evidence pooled jointly, bit for bit, while the description's tokens are
summed once. The vectors and weights of a group's tokens are gathered by
id.

The encoder owns the vector table and the idf weights of a fitted pipeline,
the only copy of each: the key-sentence retriever reads both through it.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import Sequence

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
    pooled alone or followed by other parts (a description, from its
    running sums, by its evidence sentences' parts, which the retriever
    keeps with its prepared manual entry). ``pool_many`` pools many such
    groups at once. ``weights[i]`` is id i's idf weight; the unknown id V,
    whose unit row is zero, has 0.0.
    """

    def __init__(self, vectors: WordVectorTable, weights: Sequence[float]):
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(vectors),):
            raise DimensionMismatch(f"idf weights of shape {weights.shape} for {len(vectors)} tokens")
        self.vectors = vectors
        self.output_dimension = d = vectors.dimension
        self.weights = np.append(weights, 0.0)
        self.weights.flags.writeable = False
        # Bounds every |w * v| and every weight a pooled sum adds; a product of
        # Python floats overflows to inf without a warning.
        matrix = vectors.matrix
        largest = max(float(matrix.max(initial=0.0)), -float(matrix.min(initial=0.0)), 1.0)
        self._largest_term = float(np.abs(self.weights).max()) * largest
        # A mean with non-negative weights lies within ``largest`` in every
        # component (within ``largest + 0.5`` for subnormal weights), so its
        # squared norm cannot overflow while this holds.
        self._norms_fit = (
            bool(self.weights.min() >= 0.0) and d * largest * largest < _SUM_LIMIT / 2
        )

    def parts(self, token_lists: Sequence[Sequence[str]]) -> list[Part]:
        """Each token list's part, from one id lookup over all the lists."""
        ids = self.vectors.ids(chain.from_iterable(token_lists))
        known = ids < len(self.vectors)
        if len(token_lists) == 1:  # predict's case: nothing to split
            return [ids[known]]
        ends = accumulate((len(tokens) for tokens in token_lists), initial=0)
        bounds = np.concatenate(([0], np.cumsum(known)))[list(ends)].tolist()
        kept = ids[known]
        return [kept[start:stop] for start, stop in zip(bounds, bounds[1:])]

    def pool_many(
        self,
        groups: Sequence[Sequence[Part]],
        lead: tuple[Sequence[Part], np.ndarray] | None = None,
        sums_out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Row i: the encoding of the concatenation of ``groups[i]``'s tokens.

        The idf-weighted mean of the group's token vectors at unit length,
        computed token by token from +0.0 as a running sum:
        ``pooled += w * v`` and ``total += w``. Each token's ``w * v`` and
        ``w`` form one row of ``d + 1`` terms. Token j of group i goes to
        ``padded[j, i]`` of a zero-padded ``(tokens, groups, d + 1)`` array,
        which is summed over its first axis from +0.0: that adds whole
        ``(groups, d + 1)`` slabs in token order, and the padding adds +0.0,
        which changes nothing. The total weight is summed with the terms,
        never pairwise. ``sums_out``, if given, receives each group's final
        running sums: its ``d + 1`` terms, not finite where they overflowed.

        ``lead`` continues a running sum: ``(parts, sums)`` of an earlier
        call, where row i of ``sums`` is the running sums of ``parts[i]``.
        Row i is then the encoding of ``parts[i]`` followed by ``groups[i]``,
        pooled from ``sums[i]`` as a leading slab. That is the joint pooling
        bit for bit: a running sum from +0.0 is never -0.0, so ``0.0 + S``
        is ``S``, and the group's tokens are added in order after it.

        When a batch's sums could overflow (a word vector near the float
        maximum), each group whose mean is not finite is pooled again, with
        its leading part, from its vectors over their largest absolute
        value, which keeps its direction; the other groups keep their bits.
        Row norms are stacked dot products, the same calls as
        ``np.linalg.norm``; a row that ``rescale_rows`` rescales, as it does
        the vector table's unit rows, gets the norm of the rescaled row.
        """
        d = self.output_dimension
        n = len(groups)
        lengths = [sum(map(len, group)) for group in groups]
        width = max(lengths, default=0)
        lead_parts, lead_sums = lead or ((), None)
        if not n or (not width and lead is None):  # no token and no leading sum
            if sums_out is not None:
                sums_out[...] = 0.0
            return np.zeros((n, d))
        parts = [part for group in groups for part in group]
        ids = np.concatenate(parts) if parts else np.zeros(0, dtype=np.intp)
        fits = (len(ids) + sum(map(len, lead_parts))) * self._largest_term < _SUM_LIMIT
        if fits:
            pooled = self._means(ids, lengths, width, lead_sums, sums_out)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                pooled = self._means(ids, lengths, width, lead_sums, sums_out)
            for i in np.flatnonzero(~np.isfinite(pooled).all(axis=1)):
                start = sum(lengths[:i])
                group = ids[start : start + lengths[i]]
                if lead is not None:
                    group = np.concatenate((lead_parts[i], group))
                rows = self.vectors.matrix[group]
                rows = rows / np.abs(rows).max() * self.weights[group][:, None]
                pooled[i] = np.add.reduce(rows, axis=0, initial=0.0)
        if fits and self._norms_fit:
            norms = _row_norms(pooled)
        else:
            with np.errstate(over="ignore"):
                norms = _row_norms(pooled)
        for i in rescale_rows(pooled, norms):
            norms[i] = np.sqrt(pooled[i] @ pooled[i])
        np.divide(pooled, norms, out=pooled, where=norms > 0.0)
        return pooled

    def _means(
        self,
        ids: np.ndarray,
        lengths: list[int],
        width: int,
        lead_sums: np.ndarray | None,
        sums_out: np.ndarray | None,
    ) -> np.ndarray:
        """Each group's weighted mean of its tokens' vectors, the groups' ids end to end.

        ``lead_sums``, if given, is the padded array's first slab.
        """
        d = self.output_dimension
        n = len(lengths)
        skip = int(lead_sums is not None)
        weights = self.weights[ids][:, None]
        terms = self.vectors.matrix[ids]
        terms *= weights
        if n == 1:
            rows = np.concatenate((terms, weights), axis=1)
            padded = (np.concatenate((lead_sums, rows)) if skip else rows)[:, None]
        else:
            starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
            slots = (np.arange(len(terms)) - starts + skip) * n + np.repeat(np.arange(n), lengths)
            padded = np.zeros((width + skip, n, d + 1))
            flat = padded.reshape((width + skip) * n, d + 1)
            flat[slots, :d] = terms
            flat[slots, d] = weights[:, 0]
            if skip:
                padded[0] = lead_sums
        running = np.add.reduce(padded, axis=0, initial=0.0)
        if sums_out is not None:
            sums_out[...] = running
        totals = running[:, d:]
        pooled = np.zeros((n, d))
        np.divide(running[:, :d], totals, out=pooled, where=~(totals <= 0.0))
        return pooled


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Each row's L2 norm as a column: stacked dot products, as in ``np.linalg.norm``."""
    return np.sqrt(rows[:, None, :] @ rows[:, :, None])[:, 0]
