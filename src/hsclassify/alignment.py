"""Key-sentence retrieval by IDF-weighted token alignment.

A query keyword aligns with a manual sentence through the best cosine
similarity between their word vectors; sentence scores sum the keywords'
idf-weighted alignments. Sentences are selected greedily against the still
uncovered keywords until every keyword is covered, a selection would cover
nothing new, or the sentence budget runs out.

Each greedy step ranks every sentence approximately from one keyword x
sentence matrix (one matrix product for all queries of an entry) and rescores
exactly only the sentences within ``PREFILTER_MARGIN`` of the best. The
exact score of a sentence is the sum over the uncovered keywords of idf
times the best cosine against the sentence's tokens, clamped at 0; the
rescore computes it from the prepared unit rows, so the selection and its
scores equal scoring every sentence exactly. A query's selection also stops
once no remaining sentence aligns approximately with an uncovered keyword to
within the margin of the coverage threshold: then no sentence can cover
anything new.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Iterable, Sequence

import numpy as np

from .corpus import ManualEntry
from .encoder import Part
from .errors import EmptyManual
from .textproc import DEFAULT_STOPWORDS, IdfTable, WordVectorTable, content_keywords, tokenize


# The prefilter and the exact rescore use the same unit rows (``_unit_rows``
# is row-wise), so their scores of a sentence differ only in the rounding of
# the dot products and of the idf-weighted sum: by at most (2d + 2k + 2)uR
# times the summed |idf| of the k uncovered keywords (u = 2**-53, d the vector
# dimension, R >= 1 bounding |keyword row| * |token row|, which exceeds 1 only
# for vectors whose squared components are subnormal). The dot-product bound
# with Cauchy-Schwarz gives this; the max over tokens and the clamp at 0 keep
# it. It is below PREFILTER_MARGIN times R and the summed |idf| for d + k
# under four million. A single alignment (one dot product, then the max)
# differs by at most 2duR, below PREFILTER_MARGIN times R.
PREFILTER_MARGIN = 1e-9


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
    query_keywords: set[str] = field(default_factory=set)

    def sentence_texts(self) -> list[str]:
        return [s.text for s in self.sentences]


def _vector_rows(tokens: Iterable[str], vectors: WordVectorTable) -> np.ndarray:
    rows = np.array([vectors.get(t) for t in tokens], dtype=float)
    return rows.reshape(len(rows), vectors.dimension)


def _unit(rows: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return rows / norms


def _unit_rows(tokens: Iterable[str], vectors: WordVectorTable) -> np.ndarray:
    return _unit(_vector_rows(tokens, vectors))


@dataclass(frozen=True)
class _PreparedEntry:
    """A manual entry's sentences as unit rows, one row per distinct token.

    ``tokens[j]`` is the token of row ``j``. Sentence ``i``'s tokens, in
    order, have the rows ``occurrences[bounds[i]:bounds[i + 1]]``.
    ``starts[j]`` is the first occurrence of sentence ``nonempty[j]``, the
    j-th sentence with tokens; ``reach`` is the largest row norm. The distinct tokens' word vectors,
    vocabulary mask and idf weights give each sentence's encoder ``Part``.
    """

    tokens: tuple[str, ...]
    rows: np.ndarray
    vectors: np.ndarray
    known: np.ndarray
    weights: np.ndarray
    occurrences: np.ndarray
    bounds: np.ndarray
    nonempty: np.ndarray
    starts: np.ndarray
    reach: float

    def sentence_rows(self, index: int) -> np.ndarray:
        return self.rows[self.occurrences[self.bounds[index] : self.bounds[index + 1]]]

    def token_set(self, index: int) -> set[str]:
        """The distinct tokens of sentence ``index``."""
        occurrences = self.occurrences[self.bounds[index] : self.bounds[index + 1]]
        return {self.tokens[j] for j in occurrences.tolist()}

    def part(self, index: int) -> Part:
        """``PooledEncoder.part`` of sentence ``index``'s tokens."""
        occurrences = self.occurrences[self.bounds[index] : self.bounds[index + 1]]
        occurrences = occurrences[self.known[occurrences]]
        return Part(rows=self.vectors[occurrences], weights=self.weights[occurrences])


@dataclass(frozen=True, eq=False)
class Query:
    """A description's keywords, sorted, with their unit rows and idf weights.

    Built once per description and shared by every entry retrieved from;
    ``reach`` is the largest row norm.
    """

    keywords: set[str]
    ordered: list[str]
    rows: np.ndarray
    weights: np.ndarray
    reach: float


class KeySentenceRetriever:
    """Binds vector, idf and stopword tables to the retrieval procedure.

    The first retrieval from a manual entry tokenizes its sentences (unless
    ``prepare`` was given their tokens) and keeps their distinct tokens and
    vector rows, keyed by the entry; ``evidence_parts`` reads the selected
    sentences' encoder parts from them.
    """

    def __init__(
        self,
        vectors: WordVectorTable,
        idf: IdfTable,
        stopwords: frozenset[str] | set[str] = DEFAULT_STOPWORDS,
        config: RetrievalConfig = RetrievalConfig(),
    ):
        self.vectors = vectors
        self.idf = idf
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
            vectors = _vector_rows(distinct, self.vectors)
            rows = _unit(vectors)
            bounds = np.concatenate(([0], np.cumsum(lengths)))
            prepared = self._entries[entry] = _PreparedEntry(
                tokens=tuple(distinct),
                rows=rows,
                vectors=vectors,
                known=np.array([t in self.vectors for t in distinct], dtype=bool),
                weights=np.array([self.idf.value(t) for t in distinct], dtype=float),
                occurrences=occurrences,
                bounds=bounds,
                nonempty=np.flatnonzero(lengths),
                starts=bounds[:-1][lengths > 0],
                reach=float(np.linalg.norm(rows, axis=1).max(initial=0.0)),
            )
        return prepared

    def evidence_parts(self, manual_entry: ManualEntry, result: RetrievalResult) -> list[Part]:
        """The encoder parts of ``result``'s sentences, retrieved from ``manual_entry``."""
        prepared = self.prepare(manual_entry)
        return [prepared.part(sentence.index) for sentence in result.sentences]

    def query_keywords(self, description: str) -> set[str]:
        return self.query(tokenize(description)).keywords

    def query(self, tokens: list[str]) -> Query:
        """The query of a description with ``tokens``."""
        keywords = content_keywords(tokens, self.stopwords)
        ordered = sorted(keywords)
        rows = _unit_rows(ordered, self.vectors)
        return Query(
            keywords=keywords,
            ordered=ordered,
            rows=rows,
            weights=np.array([self.idf.value(t) for t in ordered]),
            reach=float(np.linalg.norm(rows, axis=1).max(initial=0.0)),
        )

    def retrieve(self, description: str | Query, manual_entry: ManualEntry) -> RetrievalResult:
        """``retrieve_many`` of one query; ``description`` is the text or its ``query``."""
        if not isinstance(description, Query):
            description = self.query(tokenize(description))
        return self.retrieve_many([description], manual_entry)[0]

    def retrieve_many(
        self, queries: Sequence[Query], manual_entry: ManualEntry
    ) -> list[RetrievalResult]:
        """Greedy iterative selection of manual sentences, for each query.

        Each step scores every unselected sentence against the currently
        uncovered keywords only and takes the argmax (ties to the lowest
        sentence index). Only the sentences within the prefilter margin of the
        best approximate score are scored exactly. A keyword counts as covered
        once its best cosine within a selected sentence reaches the coverage
        threshold. Selection stops when all keywords are covered, the argmax
        sentence would cover nothing new (it is not taken), or
        ``max_sentences`` is reached.

        The approximate alignments of all queries come from one matrix
        product; each query's selection then runs on its own columns.
        """
        if not manual_entry.sentences:
            raise EmptyManual(f"manual entry {manual_entry.heading} has no sentences")
        prepared = self.prepare(manual_entry)
        if not queries:
            return []

        # Sentence x keyword best cosines, for the keywords of every query.
        keyword_rows = np.concatenate([q.rows for q in queries])
        best = np.zeros((len(manual_entry.sentences), len(keyword_rows)))
        if len(keyword_rows) and len(prepared.nonempty):
            best[prepared.nonempty] = np.maximum.reduceat(
                (prepared.rows @ keyword_rows.T)[prepared.occurrences], prepared.starts, axis=0
            )
        ends = accumulate(len(query.ordered) for query in queries)
        return [
            self._select(query, prepared, manual_entry, best[:, end - len(query.ordered) : end])
            for query, end in zip(queries, ends)
        ]

    def _select(
        self, query: Query, prepared: _PreparedEntry, manual_entry: ManualEntry, best: np.ndarray
    ) -> RetrievalResult:
        """One query's greedy selection, from its sentence x keyword best cosines."""
        keywords, ordered = query.keywords, query.ordered
        keyword_rows, weights = query.rows, query.weights
        threshold = self.config.coverage_threshold

        # Idf-weighted clamped best cosines. Summed over the uncovered
        # keywords, a row is within PREFILTER_MARGIN times max(1, their summed
        # error scales) of the exact score.
        weighted = np.maximum(best, 0.0) * weights
        reach = max(1.0, prepared.reach * query.reach)
        error_scale = np.abs(weights) * reach
        # Sentence x keyword pairs whose exact alignment may reach the
        # threshold; a selected sentence's row is cleared.
        coverable = best >= threshold - PREFILTER_MARGIN * reach

        result = RetrievalResult(query_keywords=set(keywords), uncovered_keywords=set(keywords))
        remaining = list(range(len(manual_entry.sentences)))
        uncovered = np.ones(len(ordered), dtype=bool)

        while uncovered.any() and remaining and len(result.sentences) < self.config.max_sentences:
            if not coverable[:, uncovered].any():
                break  # the argmax sentence would cover nothing new
            mask = uncovered.astype(float)
            approximate = weighted[remaining] @ mask
            cut = approximate.max() - PREFILTER_MARGIN * max(1.0, float(error_scale @ mask))
            rows = keyword_rows[uncovered]
            uncovered_weights = weights[uncovered]
            best_index, best_score = -1, -np.inf
            for index, approximate_score in zip(remaining, approximate):
                if approximate_score < cut:
                    continue
                # The exact score, on the prepared rows.
                sentence_rows = prepared.sentence_rows(index)
                if len(sentence_rows):
                    alignments = (rows @ sentence_rows.T).max(axis=1)
                else:
                    alignments = np.zeros(len(rows))
                score = float((uncovered_weights * np.maximum(alignments, 0.0)).sum())
                if score > best_score:
                    best_index, best_score, best_alignments = index, score, alignments

            newly_covered = np.flatnonzero(uncovered)[best_alignments >= threshold]
            if not len(newly_covered):
                break

            result.sentences.append(
                RetrievedSentence(
                    text=manual_entry.sentences[best_index], index=best_index, score=best_score
                )
            )
            remaining.remove(best_index)
            coverable[best_index] = False
            uncovered[newly_covered] = False
            covered = {ordered[i] for i in newly_covered}
            result.covered_keywords |= covered
            result.uncovered_keywords -= covered

        return result
