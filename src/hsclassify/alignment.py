"""Key-sentence retrieval by IDF-weighted token alignment.

A query keyword aligns with a manual sentence through the best cosine
similarity between their word vectors; sentence scores sum the keywords'
idf-weighted alignments. Sentences are selected greedily against the still
uncovered keywords until every keyword is covered, a selection would cover
nothing new, or the sentence budget runs out.

Every score is a fixed function of the entry, the query and its uncovered
keywords, computed the same way whatever else is in the call. Keywords and
an entry's distinct tokens read their unit rows from the vector table's one
unit-row table, by token id (the zero row for a token without a vector);
a keyword reads its idf weight from the encoder by the same id.
A keyword's cosines with the distinct tokens are one ``(1, d) @ (d, T)``
product against their rows, and its best alignment in a sentence is the
maximum over the sentence's tokens. Those are a function of the keyword's
id and the entry alone, so a call with many queries aligns each distinct
keyword id once and gathers the rows back to every query that holds it. A
sentence's step score is one ``np.add.reduceat`` segment, over the query's
sorted keywords, of ``uncovered * max(best, 0) * idf``. So a query
selects the same sentences with the same score bits alone or among others,
and the greedy steps of all queries of an entry run together.

The retriever is built on the ``PooledEncoder`` and reads its vector table
and idf weights, so retrieval and pooling see one copy of each. A prepared
entry keeps each sentence's encoder part, which pools key sentences on from
their description's running sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Sequence

import numpy as np

from .corpus import ManualEntry
from .encoder import Part, PooledEncoder
from .textproc import DEFAULT_STOPWORDS, content_keywords, tokenize


@dataclass(frozen=True)
class RetrievalConfig:
    max_sentences: int = 7
    coverage_threshold: float = 0.95

    def __post_init__(self):
        if self.max_sentences < 1:
            raise ValueError("max_sentences must be >= 1")
        if not 0.0 < self.coverage_threshold <= 1.0:
            raise ValueError("coverage_threshold must be in (0, 1]")


@dataclass(frozen=True)
class RetrievedSentence:
    text: str
    index: int
    score: float


@dataclass
class RetrievalResult:
    """Selected sentences plus the keyword-coverage record."""

    sentences: list[RetrievedSentence] = field(default_factory=list)
    covered_keywords: set[str] = field(default_factory=set)
    uncovered_keywords: set[str] = field(default_factory=set)

    def sentence_texts(self) -> list[str]:
        return [s.text for s in self.sentences]


@dataclass(frozen=True)
class _PreparedEntry:
    """A manual entry's sentences as unit rows, one row per distinct token.

    ``tokens[j]`` is the token of row ``j``, gathered from the vector
    table's unit rows. Sentence ``i``'s tokens, in order, have the rows
    ``occurrences[bounds[i]:bounds[i + 1]]``. ``starts[j]`` is the first
    occurrence of sentence ``nonempty[j]``, the j-th sentence with tokens.
    ``parts[i]`` is sentence ``i``'s encoder ``Part``.
    """

    tokens: tuple[str, ...]
    rows: np.ndarray
    parts: tuple[Part, ...]
    occurrences: np.ndarray
    bounds: np.ndarray
    nonempty: np.ndarray
    starts: np.ndarray

    def best_alignments(self, keyword_rows: np.ndarray) -> np.ndarray:
        """Keyword x sentence best cosines; 0 for a sentence without tokens.

        Each keyword's cosines with the distinct tokens are a ``(1, d)`` stack
        item's product with ``rows.T``: one matrix-vector call per keyword,
        whatever the other keywords.
        """
        best = np.zeros((len(keyword_rows), len(self.bounds) - 1))
        if len(self.nonempty):
            alignments = (keyword_rows[:, None, :] @ self.rows.T)[:, 0, :]
            best[:, self.nonempty] = np.maximum.reduceat(
                alignments[:, self.occurrences], self.starts, axis=1
            )
        return best

    def token_set(self, index: int) -> set[str]:
        """The distinct tokens of sentence ``index``."""
        occurrences = self.occurrences[self.bounds[index] : self.bounds[index + 1]]
        return {self.tokens[j] for j in occurrences.tolist()}


@dataclass(frozen=True, eq=False)
class Query:
    """A description's keywords, sorted, with their vector-table ids.

    ``ids[k]`` is keyword k's id: V, the unknown id, for a keyword without
    a vector, whose unit row is zero and idf weight 0.0 (its alignments
    are ±0 anyway). Built once per description and shared by every entry
    retrieved from.
    """

    ordered: list[str]
    ids: np.ndarray


class KeySentenceRetriever:
    """Binds an encoder's vectors and idf weights and a stopword set to the retrieval procedure.

    ``queries`` builds each description's ``Query`` once, and
    ``retrieve_many`` selects key sentences from one manual entry for many
    queries at a time. The first retrieval from an entry tokenizes its
    sentences (unless ``prepare`` was given their tokens) and keeps their
    distinct tokens' unit rows and each sentence's encoder part, keyed by
    the entry.
    """

    def __init__(
        self,
        encoder: PooledEncoder,
        stopwords: frozenset[str] | set[str] = DEFAULT_STOPWORDS,
        config: RetrievalConfig = RetrievalConfig(),
    ):
        self.encoder = encoder
        self.stopwords = frozenset(stopwords)
        self.config = config
        self._entries: dict[ManualEntry, _PreparedEntry] = {}

    def prepare(
        self, entry: ManualEntry, sentence_tokens: list[list[str]] | None = None
    ) -> _PreparedEntry:
        """The prepared form of ``entry``, built on first use from ``sentence_tokens``.

        ``sentence_tokens`` are the tokens of each sentence, if the caller has
        them; otherwise the sentences are tokenized here.
        """
        prepared = self._entries.get(entry)
        if prepared is None:
            if sentence_tokens is None:
                sentence_tokens = [tokenize(s) for s in entry.sentences]
            lengths = np.array([len(t) for t in sentence_tokens], dtype=np.intp)
            distinct: dict[str, int] = {}
            occurrences = np.array(
                [
                    distinct.setdefault(t, len(distinct))
                    for t in chain.from_iterable(sentence_tokens)
                ],
                dtype=np.intp,
            )
            bounds = np.concatenate(([0], np.cumsum(lengths)))
            prepared = self._entries[entry] = _PreparedEntry(
                tokens=tuple(distinct),
                rows=self.encoder.vectors.unit_rows[self.encoder.vectors.ids(distinct)],
                parts=tuple(self.encoder.parts(sentence_tokens)),
                occurrences=occurrences,
                bounds=bounds,
                nonempty=np.flatnonzero(lengths),
                starts=bounds[:-1][lengths > 0],
            )
        return prepared

    def queries(self, token_lists: Sequence[list[str]]) -> list[Query]:
        """The query of each description's tokens."""
        orders = [sorted(content_keywords(tokens, self.stopwords)) for tokens in token_lists]
        ids = self.encoder.vectors.ids(chain.from_iterable(orders))
        ends = accumulate(len(order) for order in orders)
        return [Query(order, ids[end - len(order) : end]) for order, end in zip(orders, ends)]

    def retrieve_many(
        self, queries: Sequence[Query], manual_entry: ManualEntry
    ) -> list[RetrievalResult]:
        """Greedy iterative selection of manual sentences, for each query.

        Each step scores every unselected sentence against the query's
        currently uncovered keywords only and takes the argmax (ties to the
        lowest sentence index). A keyword counts as covered once its best
        cosine within a selected sentence reaches the coverage threshold.
        Selection stops when all keywords are covered, the argmax sentence
        would cover nothing new (it is not taken), or ``max_sentences`` is
        reached; a query whose keywords no sentence covers stops before the
        first step. The queries that go on take each step together.

        Each distinct keyword id of the call is aligned once: one
        ``best_alignments`` row per id, gathered back to each keyword by
        ``np.unique``'s inverse index. A call with one query aligns its own
        keywords' rows as they are, with no such step.
        """
        prepared = self.prepare(manual_entry)
        results = [RetrievalResult(uncovered_keywords=set(q.ordered)) for q in queries]
        ids = [i for i, query in enumerate(queries) if query.ordered]
        if not ids:
            return results
        unit_rows = self.encoder.vectors.unit_rows
        if len(ids) == 1:
            keyword_ids = queries[ids[0]].ids
            best = prepared.best_alignments(unit_rows[keyword_ids])
        else:
            keyword_ids = np.concatenate([queries[i].ids for i in ids])
            distinct, inverse = np.unique(keyword_ids, return_inverse=True)
            best = prepared.best_alignments(unit_rows[distinct])[inverse]
        covers = best >= self.config.coverage_threshold
        if not covers.any():
            return results
        lengths = np.array([len(queries[i].ordered) for i in ids])
        weighted = np.maximum(best, 0.0) * self.encoder.weights[keyword_ids][:, None]

        # Query j's keywords are the segment starting at starts[j] of the
        # keyword axis, in sorted order; keyword k belongs to query owner[k].
        starts = np.cumsum(lengths) - lengths
        owner = np.repeat(np.arange(len(ids)), lengths)
        keyword_index = np.arange(len(owner))
        uncovered = np.ones(len(owner))
        texts = manual_entry.sentences
        taken = np.zeros((len(ids), len(texts)), dtype=bool)
        going = np.logical_or.reduceat(covers.any(axis=1), starts)
        for _ in range(min(self.config.max_sentences, len(texts))):
            if not going.any():
                break
            scores = np.add.reduceat(weighted * uncovered[:, None], starts, axis=0)
            scores[taken] = -np.inf
            picks = scores.argmax(axis=1)
            gained = covers[keyword_index, picks[owner]] & (uncovered > 0.0)
            going &= np.logical_or.reduceat(gained, starts)
            stepping = np.flatnonzero(going)
            picked = picks[stepping]
            for j, index, score in zip(
                stepping.tolist(), picked.tolist(), scores[stepping, picked].tolist()
            ):
                results[ids[j]].sentences.append(RetrievedSentence(texts[index], index, score))
            taken[stepping, picked] = True
            uncovered[gained & going[owner]] = 0.0
            going &= np.logical_or.reduceat(uncovered > 0.0, starts)

        flags = uncovered.tolist()
        for i, start in zip(ids, starts.tolist()):
            ordered = queries[i].ordered
            covered = {t for t, flag in zip(ordered, flags[start : start + len(ordered)]) if not flag}
            results[i].covered_keywords = covered
            results[i].uncovered_keywords -= covered
        return results
