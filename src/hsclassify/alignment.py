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

A ``RetrievalResult`` stores the selection only: the selected sentence
indices and their step scores, with references to the entry's sentences,
the query's sorted keywords and the query's final per-keyword uncovered
flags. The selected sentences' texts and the covered and uncovered keyword
sets are derived from those when read, so a caller that reads only the
indices, as training and stage 3 do, pays for no presentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain, compress
from operator import not_
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


@dataclass(slots=True)
class RetrievalResult:
    """One query's selection from one manual entry.

    A result stores the selection: ``indices`` are the selected sentences in
    the order they were taken and ``scores`` their step scores. It keeps
    references to what the selection reads: the entry's ``entry_sentences``,
    the query's sorted ``keywords`` and ``uncovered``, one flag per keyword
    (1.0 while it is uncovered, 0.0 once covered). The properties
    ``covered_keywords`` and ``uncovered_keywords`` and ``sentence_texts()``
    derive the presentation from those fields each time they are read, and
    cache nothing.
    """

    entry_sentences: Sequence[str]
    keywords: Sequence[str]
    indices: list[int] = field(default_factory=list)
    scores: list[float] = field(default_factory=list)
    uncovered: Sequence[float] = ()

    @property
    def covered_keywords(self) -> set[str]:
        return set(compress(self.keywords, map(not_, self.uncovered)))

    @property
    def uncovered_keywords(self) -> set[str]:
        return set(compress(self.keywords, self.uncovered))

    def sentence_texts(self) -> list[str]:
        texts = self.entry_sentences
        return [texts[i] for i in self.indices]


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


@dataclass(slots=True, eq=False)
class Query:
    """A description's keywords, sorted, with their vector-table ids.

    ``ids[k]`` is keyword k's id: V, the unknown id, for a keyword without
    a vector, whose unit row is zero and idf weight 0.0 (its alignments
    are ±0 anyway). Built once per description and shared by every entry
    retrieved from; queries compare by identity, and nothing changes one
    after ``queries`` built it.
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

        Each query's result is filled in the greedy loop: each step appends
        the selected index and its step score. Once the loop ends, the result
        takes the query's slice of the per-keyword uncovered flags. No
        sentence text or keyword set is built here; the result derives them
        when read.
        """
        prepared = self.prepare(manual_entry)
        texts = manual_entry.sentences
        results = [RetrievalResult(texts, query.ordered) for query in queries]
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
        lengths = np.array([len(queries[i].ordered) for i in ids])
        if not covers.any():
            for i, length in zip(ids, lengths.tolist()):
                results[i].uncovered = [1.0] * length
            return results
        weighted = np.maximum(best, 0.0) * self.encoder.weights[keyword_ids][:, None]

        # Query j's keywords are the segment starting at starts[j] of the
        # keyword axis, in sorted order; keyword k belongs to query owner[k].
        starts = np.cumsum(lengths) - lengths
        owner = np.repeat(np.arange(len(ids)), lengths)
        keyword_index = np.arange(len(owner))
        uncovered = np.ones(len(owner))
        taken = np.zeros((len(ids), len(texts)), dtype=bool)
        selected = [results[i].indices for i in ids]
        step_scores = [results[i].scores for i in ids]
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
                selected[j].append(index)
                step_scores[j].append(score)
            taken[stepping, picked] = True
            uncovered[gained & going[owner]] = 0.0
            going &= np.logical_or.reduceat(uncovered > 0.0, starts)

        flags = uncovered.tolist()
        for i, start, length in zip(ids, starts.tolist(), lengths.tolist()):
            results[i].uncovered = flags[start : start + length]
        return results
