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

from .errors import DimensionMismatch, OutOfRange
from .textproc import WEIGHT_RANGE, WordVectorTable, first_outside


# A text's part: the ids of its in-vocabulary tokens, in token order.
Part = np.ndarray


class PooledEncoder:
    """Unit-length IDF-weighted mean of in-vocabulary token vectors.

    Empty or all-out-of-vocabulary text encodes to the zero vector; every
    other output has unit L2 norm, so downstream cosine similarities reduce
    to dot products.

    A text is pooled from its ``Part``: tokenized and looked up once, then
    pooled alone or followed by other parts (a description, from its
    running sums, by its evidence sentences' parts, which the retriever
    keeps with its prepared manual entry). ``pool_many`` pools many such
    groups at once. ``weights[i]`` is id i's idf weight, 0 or within
    ``WEIGHT_RANGE``; the unknown id V, whose unit row is zero, has 0.0.
    """

    def __init__(self, vectors: WordVectorTable, weights: Sequence[float]):
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(vectors),):
            raise DimensionMismatch(f"idf weights of shape {weights.shape} for {len(vectors)} tokens")
        bad = first_outside(weights, *WEIGHT_RANGE)
        if bad is not None:
            raise OutOfRange(
                f"token {vectors.tokens()[bad]!r} has the idf weight {float(weights[bad])!r}; "
                "a weight must be 0 or from {:g} to {:g}".format(*WEIGHT_RANGE)
            )
        self.vectors = vectors
        self.output_dimension = vectors.dimension
        self.weights = np.append(weights, 0.0)
        self.weights.flags.writeable = False

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
        lead: np.ndarray | None = None,
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
        running sums: its ``d + 1`` terms.

        ``lead`` continues running sums: row i is the ``sums_out`` row an
        earlier call ended a group ``g`` with. Row i is then the encoding of
        ``g`` followed by ``groups[i]``, pooled from ``lead[i]`` as a
        leading slab. That is the joint pooling bit for bit: a running sum
        from +0.0 is never -0.0, so ``0.0 + S`` is ``S``, and the group's
        tokens are added in order after it.

        Row norms are stacked dot products, the same calls as
        ``np.linalg.norm``. With vectors in ``VECTOR_RANGE`` and weights in
        ``WEIGHT_RANGE`` no sum, mean or squared norm overflows or
        underflows (see ``textproc``).
        """
        d = self.output_dimension
        n = len(groups)
        lengths = [sum(map(len, group)) for group in groups]
        width = max(lengths, default=0)
        if not n or (not width and lead is None):  # no token and no leading sum
            if sums_out is not None:
                sums_out[...] = 0.0
            return np.zeros((n, d))
        parts = [part for group in groups for part in group]
        ids = np.concatenate(parts) if parts else np.zeros(0, dtype=np.intp)
        skip = int(lead is not None)
        weights = self.weights[ids][:, None]
        terms = self.vectors.matrix[ids]
        terms *= weights
        if n == 1:
            rows = np.concatenate((terms, weights), axis=1)
            padded = (np.concatenate((lead, rows)) if skip else rows)[:, None]
        else:
            starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
            slots = (np.arange(len(terms)) - starts + skip) * n + np.repeat(np.arange(n), lengths)
            padded = np.zeros((width + skip, n, d + 1))
            flat = padded.reshape((width + skip) * n, d + 1)
            flat[slots, :d] = terms
            flat[slots, d] = weights[:, 0]
            if skip:
                padded[0] = lead
        running = np.add.reduce(padded, axis=0, initial=0.0)
        if sums_out is not None:
            sums_out[...] = running
        totals = running[:, d:]
        pooled = np.zeros((n, d))
        np.divide(running[:, :d], totals, out=pooled, where=totals > 0.0)
        norms = np.sqrt(pooled[:, None, :] @ pooled[:, :, None])[:, 0]
        np.divide(pooled, norms, out=pooled, where=norms > 0.0)
        return pooled
