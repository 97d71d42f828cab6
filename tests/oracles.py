"""Independent brute-force oracles and bit-exact reference copies.

The oracles deliberately avoid the package's numpy code paths: similarity
and scoring run as plain-python double loops, and retrieval is found by
enumerating every ordered sentence subset and keeping the unique one
consistent with the selection rules.

The reference copies at the end are the plain whole-array expressions of
the training loss, its gradient, validation accuracy, the calibration NLL
and the token-by-token pooled encoding, the scalar retrieval loop on each
keyword's own alignment product (``alignment_score`` scores one sentence
the same way), the per-description inference the batched ``infer_many``
replaced, the report-based evaluation and the set-intersection
word-matching baseline. The package computes the same floats in one
buffer, from prepared parts or for many descriptions at once, and the
exactness tests compare the two bit for bit.

Two adapters give the package's private word-matching ranking and evidence
matching a text interface: they tokenize, then call the package's helpers,
and copy none of their logic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from hsclassify.alignment import KeySentenceRetriever
from hsclassify.corpus import DecisionCase, ManualEntry
from hsclassify.encoder import Part, PooledEncoder
from hsclassify.evaluation import (
    MATCH_F1_THRESHOLD,
    CaseRecord,
    MetricsReport,
    PrecisionRecall,
    _match_evidence,
    _word_matching_rankings,
    top_k_accuracy,
)
from hsclassify.errors import EmptyInput
from hsclassify.pipeline import InferenceTrace, PipelineModel, _word_index
from hsclassify.textproc import DEFAULT_STOPWORDS, WordVectorTable, content_keywords, tokenize


def oracle_cosine(u: list[float], v: list[float]) -> float:
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return dot / (nu * nv)


def oracle_best_alignment(
    keyword: str, sentence: list[str], vectors: dict[str, list[float]], dim: int
) -> float:
    zero = [0.0] * dim
    best = 0.0 if not sentence else -1.0
    for token in sentence:
        sim = oracle_cosine(vectors.get(keyword, zero), vectors.get(token, zero))
        best = max(best, sim)
    return best


def oracle_alignment_score(
    keywords: set[str],
    sentence: list[str],
    vectors: dict[str, list[float]],
    idf: dict[str, float],
    default_idf: float,
    dim: int,
) -> float:
    total = 0.0
    for keyword in sorted(keywords):
        best = max(0.0, oracle_best_alignment(keyword, sentence, vectors, dim))
        total += idf.get(keyword, default_idf) * best
    return total


@dataclass
class OracleRetrieval:
    indices: list[int]
    scores: list[float]
    covered: set[str]
    uncovered: set[str]


def _argmax_lowest_index(scores: dict[int, float]) -> int:
    best_index = min(scores)
    best_score = scores[best_index]
    for index in sorted(scores):
        if scores[index] > best_score:
            best_index, best_score = index, scores[index]
    return best_index


def oracle_retrieve(
    keywords: set[str],
    sentences: list[list[str]],
    vectors: dict[str, list[float]],
    idf: dict[str, float],
    default_idf: float,
    dim: int,
    max_sentences: int,
    coverage_threshold: float,
) -> OracleRetrieval:
    """Enumerate all ordered sentence subsets; exactly one obeys the rules."""

    def step_scores(uncovered: set[str], remaining: set[int]) -> dict[int, float]:
        return {
            i: oracle_alignment_score(uncovered, sentences[i], vectors, idf, default_idf, dim)
            for i in remaining
        }

    def newly_covered(uncovered: set[str], index: int) -> set[str]:
        return {
            t
            for t in uncovered
            if oracle_best_alignment(t, sentences[index], vectors, dim) >= coverage_threshold
        }

    def check(sequence: tuple[int, ...]) -> OracleRetrieval | None:
        uncovered = set(keywords)
        remaining = set(range(len(sentences)))
        scores: list[float] = []
        for index in sequence:
            if not uncovered or not remaining:
                return None
            step = step_scores(uncovered, remaining)
            if _argmax_lowest_index(step) != index:
                return None
            gained = newly_covered(uncovered, index)
            if not gained:
                return None
            scores.append(step[index])
            uncovered -= gained
            remaining.discard(index)
        # Termination must be justified at the end of the sequence.
        if uncovered and remaining and len(sequence) < max_sentences:
            step = step_scores(uncovered, remaining)
            if newly_covered(uncovered, _argmax_lowest_index(step)):
                return None
        return OracleRetrieval(
            indices=list(sequence),
            scores=scores,
            covered=set(keywords) - uncovered,
            uncovered=uncovered,
        )

    valid: list[OracleRetrieval] = []
    limit = min(max_sentences, len(sentences))
    for size in range(limit + 1):
        for sequence in itertools.permutations(range(len(sentences)), size):
            outcome = check(sequence)
            if outcome is not None:
                valid.append(outcome)
    assert len(valid) == 1, f"expected exactly one rule-consistent sequence, got {len(valid)}"
    return valid[0]


# -- bit-exact reference copies ------------------------------------------------

LOG_FLOOR = 1e-12


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def mean_loss(weights, bias, inputs, label_indices, l2_penalty) -> float:
    """Mean cross-entropy + (l2/2)*||W||^2 over all rows: the objective the
    mini-batch steps descend, which the finite-difference checks differentiate."""
    n = inputs.shape[0]
    probs = softmax(inputs @ weights + bias)
    picked = probs[np.arange(n), label_indices]
    loss = float(-np.log(np.maximum(picked, LOG_FLOOR)).mean())
    return loss + 0.5 * l2_penalty * float((weights**2).sum())


def summed_cross_entropy(weights, bias, inputs, label_indices) -> float:
    """Sum over the rows of -ln max(p_y, 1e-12), with a fresh array per step."""
    probs = softmax(inputs @ weights + bias)
    picked = probs[np.arange(inputs.shape[0]), label_indices]
    return float(-np.log(np.maximum(picked, LOG_FLOOR)).sum())


def gradient(weights, bias, inputs, label_indices, l2_penalty) -> tuple[np.ndarray, np.ndarray]:
    n = inputs.shape[0]
    delta = softmax(inputs @ weights + bias)
    delta[np.arange(n), label_indices] -= 1.0
    grad_w = inputs.T @ delta / n + l2_penalty * weights
    grad_b = delta.mean(axis=0)
    return grad_w, grad_b


def gradient_and_loss_sum(weights, bias, inputs, label_indices, l2_penalty):
    """``_gradient``'s outputs: the gradients w.r.t. W and bias and the summed cross-entropy."""
    grad_w, grad_b = gradient(weights, bias, inputs, label_indices, l2_penalty)
    return grad_w, grad_b, summed_cross_entropy(weights, bias, inputs, label_indices)


def top1_accuracy(weights, bias, inputs, label_indices) -> float:
    if inputs.shape[0] == 0:
        return 0.0
    predictions = np.argmax(inputs @ weights + bias, axis=1)
    return float((predictions == label_indices).mean())


def mean_nll(logits: np.ndarray, labels: np.ndarray, temperature: float, out=None) -> float:
    """``calibration._mean_nll`` on a fresh array; ``out`` is accepted and left unused."""
    probs = softmax(np.asarray(logits, dtype=float) / temperature)
    picked = probs[np.arange(logits.shape[0]), labels]
    return float(-np.log(np.maximum(picked, LOG_FLOOR)).mean())


def idf_values(encoder: PooledEncoder) -> dict[str, float]:
    """Each vector token's idf weight in ``encoder``, keyed by token."""
    return dict(zip(encoder.vectors.tokens(), encoder.weights.tolist()))


def scalar_encode(encoder: PooledEncoder, text: str) -> np.ndarray:
    """``text`` pooled by ``encoder`` as a running sum over its tokens."""
    vectors, idf = encoder.vectors, idf_values(encoder)
    pooled = np.zeros(vectors.dimension)
    total_weight = 0.0
    for token in tokenize(text):
        if token not in vectors:
            continue
        weight = idf[token]
        pooled += weight * vectors.get(token)
        total_weight += weight
    if total_weight <= 0.0:
        return np.zeros(vectors.dimension)
    return unit_vector(pooled / total_weight)


def joined_encode_with_evidence(encoder: PooledEncoder, description: str, sentences) -> np.ndarray:
    """The description and its evidence joined into one text, then encoded."""
    if not sentences:
        return scalar_encode(encoder, description)
    return scalar_encode(encoder, " ‖ ".join([description, *sentences]))


def unit_vector(pooled: np.ndarray) -> np.ndarray:
    """``pooled`` over its norm, ``np.linalg.norm``; zeros kept as they are."""
    norm = np.linalg.norm(pooled)
    return pooled / norm if norm > 0.0 else pooled


def unit_row(vector) -> np.ndarray:
    """One vector over its L2 norm as a ``(1, d)`` row; a vector of zeros is kept as it is.

    The norm is ``np.linalg.norm(axis=1)`` of that row alone.
    """
    row = np.array(vector, dtype=float).reshape(1, -1)
    if not row.any():
        return row
    return row / np.linalg.norm(row, axis=1, keepdims=True)


def cosine(u, v) -> float:
    """``np.dot(u, v) / (norm(u) * norm(v))``; 0.0 when that product of norms is 0.

    ``similar_cases`` must return these bits for every case.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    norms = np.linalg.norm(u) * np.linalg.norm(v)
    return float(np.dot(u, v) / norms) if norms > 0.0 else 0.0


def unit_rows(tokens: Iterable[str], vectors: WordVectorTable) -> np.ndarray:
    """Each token's ``unit_row`` (the zero row without a vector), computed token by token."""
    rows = [unit_row(vectors.get(token)) for token in tokens]
    return np.concatenate(rows) if rows else np.zeros((0, vectors.dimension))


def canonical_alignments(keywords: list[str], rows: np.ndarray, vectors: WordVectorTable):
    """Keyword x row cosines: one ``(1, d) @ (d, T)`` product per keyword."""
    alignments = np.zeros((len(keywords), len(rows)))
    for k, keyword in enumerate(keywords):
        alignments[k] = (unit_rows([keyword], vectors) @ rows.T)[0]
    return alignments


def step_score(terms: np.ndarray) -> float:
    """The sum of a step score's terms, in keyword order: one ``np.add.reduceat`` segment.

    That is the first term plus numpy's pairwise sum of the others.
    """
    return float(np.add.reduceat(terms, [0])[0]) if len(terms) else 0.0


def keyword_weights(keywords: Iterable[str], idf: Mapping[str, float]) -> np.ndarray:
    """Each keyword's idf weight; 0.0 for a keyword without a vector."""
    return np.array([idf.get(t, 0.0) for t in keywords], dtype=float)


def alignment_score(
    keywords: Iterable[str], sentence_tokens: list[str], encoder: PooledEncoder
) -> float:
    """Sum over the sorted keywords of idf(t) times its best within-sentence cosine.

    Negative per-keyword maxima clamp to zero, so an unrelated sentence never
    scores below the empty sentence. The cosines are the canonical
    alignments against the sentence's distinct tokens.
    """
    vectors = encoder.vectors
    ordered = sorted(set(keywords))
    distinct = list(dict.fromkeys(sentence_tokens))
    best = np.zeros(len(ordered))
    if distinct:
        best = canonical_alignments(ordered, unit_rows(distinct, vectors), vectors).max(axis=1)
    weights = keyword_weights(ordered, idf_values(encoder))
    return step_score(np.maximum(best, 0.0) * weights)


@dataclass
class ScalarRetrieval:
    """``scalar_retrieve``'s result: plain stored fields, under ``RetrievalResult``'s names."""

    indices: list[int] = field(default_factory=list)
    scores: list[float] = field(default_factory=list)
    texts: list[str] = field(default_factory=list)
    covered_keywords: set[str] = field(default_factory=set)
    uncovered_keywords: set[str] = field(default_factory=set)

    def sentence_texts(self) -> list[str]:
        return self.texts


def scalar_retrieve(
    retriever: KeySentenceRetriever, description: str, entry: ManualEntry
) -> ScalarRetrieval:
    """The greedy loop one sentence at a time, from the canonical alignments.

    Each keyword's cosines with the entry's distinct tokens are its own
    product against ``prepare(entry).rows``; a sentence's best alignment per
    keyword is the maximum over its tokens (0 without tokens), and its step
    score the sum over the keywords of ``uncovered * max(best, 0) * idf``.
    """
    keywords = sorted(content_keywords(tokenize(description), retriever.stopwords))
    prepared = retriever.prepare(entry)
    alignments = canonical_alignments(keywords, prepared.rows, retriever.encoder.vectors)
    column = {token: j for j, token in enumerate(prepared.tokens)}
    best = []
    for sentence in entry.sentences:
        columns = [column[token] for token in tokenize(sentence)]
        best.append(
            alignments[:, columns].max(axis=1) if columns else np.zeros(len(keywords))
        )
    weights = keyword_weights(keywords, idf_values(retriever.encoder))
    threshold = retriever.config.coverage_threshold

    result = ScalarRetrieval(uncovered_keywords=set(keywords))
    uncovered = np.ones(len(keywords))
    remaining = list(range(len(entry.sentences)))
    while (
        uncovered.any()
        and remaining
        and len(result.indices) < retriever.config.max_sentences
    ):
        best_index, best_score = -1, -math.inf
        for index in remaining:
            score = step_score(uncovered * np.maximum(best[index], 0.0) * weights)
            if score > best_score:
                best_index, best_score = index, score
        newly_covered = {
            t
            for t, flag, alignment in zip(keywords, uncovered, best[best_index])
            if flag and alignment >= threshold
        }
        if not newly_covered:
            break
        result.indices.append(best_index)
        result.scores.append(best_score)
        result.texts.append(entry.sentences[best_index])
        remaining.remove(best_index)
        uncovered[[k for k, t in enumerate(keywords) if t in newly_covered]] = 0.0
        result.covered_keywords |= newly_covered
        result.uncovered_keywords -= newly_covered
    return result


def word_matching_baseline(
    description: str,
    manuals: dict[str, ManualEntry],
    stopwords: frozenset[str] | set[str] = DEFAULT_STOPWORDS,
) -> list[tuple[str, float]]:
    """The package's word-matching ranking of ``manuals`` for one description.

    Each heading's score is the share of the description's distinct content
    tokens that its manual holds; ties order by ascending heading.
    """
    manual_tokens = {
        heading: [t for sentence in entry.sentences for t in tokenize(sentence)]
        for heading, entry in manuals.items()
    }
    headings, postings = _word_index(manual_tokens)
    order, scores = _word_matching_rankings(
        [tokenize(description)], postings, len(headings), stopwords
    )
    scores = scores[0].tolist()
    return [(headings[i], scores[i]) for i in order[0].tolist()]


def retrieval_precision_recall(
    retrieved: Sequence[str], gold_evidence: Sequence[str], threshold: float = MATCH_F1_THRESHOLD
) -> PrecisionRecall:
    """The package's evidence matching of retrieved and gold sentences, from their texts."""
    return _match_evidence(
        [(set(tokenize(s)), s) for s in retrieved],
        [set(tokenize(s)) for s in gold_evidence],
        threshold,
    )


def word_matching_reference(
    description: str,
    manuals: dict[str, ManualEntry],
    stopwords: frozenset[str] | set[str] = DEFAULT_STOPWORDS,
) -> list[tuple[str, float]]:
    """``word_matching_baseline`` by set intersection with each heading's manual tokens."""
    if not manuals:
        raise EmptyInput("no manual entries")
    content = {t for t in tokenize(description) if t not in stopwords}
    scores = []
    for heading in sorted(manuals):
        tokens = {t for sentence in manuals[heading].sentences for t in tokenize(sentence)}
        scores.append((heading, len(content & tokens) / len(content) if content else 0.0))
    scores.sort(key=lambda pair: (-pair[1], pair[0]))
    return scores


def scalar_pool(encoder, parts: list[Part]) -> np.ndarray:
    """``PooledEncoder.pool`` as a running sum over the tokens of ``parts``.

    A part's ids name the tokens, whose vectors and idf weights are looked
    up by token.
    """
    vectors, idf = encoder.vectors, idf_values(encoder)
    tokens = vectors.tokens()
    pooled = np.zeros(vectors.dimension)
    total_weight = 0.0
    for part in parts:
        for token in (tokens[i] for i in part.tolist()):
            weight = idf[token]
            pooled += weight * vectors.get(token)
            total_weight += weight
    if total_weight <= 0.0:
        return np.zeros(vectors.dimension)
    return unit_vector(pooled / total_weight)


def reference_infer(model: PipelineModel, description: str, headings: int = 0) -> InferenceTrace:
    """One description's trace, stage by stage, as the pipeline computed it alone.

    Heads are ``x @ W + b`` on one vector, scores ``softmax(z / T)``,
    rankings a stable argsort, pooling ``scalar_pool`` and retrieval
    ``scalar_retrieve``.
    """
    space = model.label_space
    encoder = model.retriever.encoder

    def logits(classifier, vector):
        return vector @ classifier.weights + classifier.bias

    def probabilities(scaler, z):
        return softmax(z / scaler.temperature)

    tokens = tokenize(description)
    (part,) = encoder.parts([tokens])
    description_vector = scalar_pool(encoder, [part])
    heading_logits = logits(model.heading_classifier, description_vector)
    heading_probs = probabilities(model.heading_scaler, heading_logits)
    ranked = np.argsort(-heading_probs, kind="stable").tolist()

    entries = [model.manuals.get(space.headings[index]) for index in ranked[: max(headings, 1)]]
    retrievals = [
        scalar_retrieve(model.retriever, description, entry) if entry is not None else None
        for entry in entries
    ]

    stage3_vector = description_vector
    if retrievals[0] is not None and retrievals[0].indices:
        evidence = encoder.parts([tokenize(text) for text in retrievals[0].texts])
        stage3_vector = scalar_pool(encoder, [part, *evidence])
    subheading_logits = logits(model.subheading_classifier, stage3_vector)
    probs = probabilities(model.subheading_scaler, subheading_logits)

    trace = InferenceTrace(
        description=description,
        tokens=tokens,
        heading_logits=heading_logits,
        heading_probabilities=heading_probs,
        ranked_headings=ranked,
        retrievals=retrievals,
        stage3_vector=stage3_vector,
        subheading_logits=subheading_logits,
        subheading_probabilities=probs,
    )
    if model.ablation_classifier is not None:
        trace.ablation_logits = logits(model.ablation_classifier, description_vector)
    return trace


def reference_evaluate(
    model: PipelineModel,
    test_cases: Sequence[DecisionCase],
    ks: Sequence[int] = (1, 3, 5),
) -> MetricsReport:
    """``evaluate_pipeline`` from each case's full top-``max(ks)`` candidate report.

    The word-matching baseline ranks the model's manual entries through
    ``word_matching_baseline``, and evidence is matched through
    ``retrieval_precision_recall``; both adapters tokenize their texts. The
    key sentences are the report's top heading's.
    """
    max_k = max(ks)
    has_ablation = model.ablation_classifier is not None
    ranked = {"heading": [], "subheading": [], "ablation": [], "baseline": []}
    records = []
    precisions = []
    recalls = []
    traces = model.infer_many([case.description for case in test_cases], headings=max_k)
    for case, trace in zip(test_cases, traces):
        report = model.report(trace, max_k)
        headings = [c.heading for c in report.heading_candidates]
        subheadings = [c.subheading for c in report.subheading_candidates]
        ranked["heading"].append(headings)
        ranked["subheading"].append(subheadings)
        baseline = word_matching_baseline(
            case.description, model.manuals, model.retriever.stopwords
        )
        ranked["baseline"].append([h for h, _ in baseline[:max_k]])
        if has_ablation:
            probs = model.ablation_scaler.probabilities(trace.ablation_logits).tolist()
            order = sorted(range(len(probs)), key=lambda i: (-probs[i], i))[:max_k]
            ranked["ablation"].append([model.label_space.subheadings[i] for i in order])
        record = CaseRecord(
            case_id=case.id,
            gold_heading=case.label.heading,
            gold_subheading=case.label.subheading,
            predicted_headings=headings,
            predicted_subheadings=subheadings,
        )
        if case.gold_evidence:
            outcome = retrieval_precision_recall(
                report.heading_candidates[0].key_sentences, list(case.gold_evidence)
            )
            record.retrieval_precision = outcome.precision
            record.retrieval_recall = outcome.recall
            precisions.append(outcome.precision)
            if outcome.recall is not None:
                recalls.append(outcome.recall)
        records.append(record)

    gold_headings = [c.label.heading for c in test_cases]
    gold_subheadings = [c.label.subheading for c in test_cases]

    def accuracy(name, gold):
        return {k: top_k_accuracy(ranked[name], gold, k) for k in ks}

    return MetricsReport(
        n_cases=len(test_cases),
        heading_top_k=accuracy("heading", gold_headings),
        subheading_top_k=accuracy("subheading", gold_subheadings),
        baseline_heading_top_k=accuracy("baseline", gold_headings),
        ablation_subheading_top_k=accuracy("ablation", gold_subheadings) if has_ablation else None,
        retrieval_precision=(sum(precisions) / len(precisions)) if precisions else None,
        retrieval_recall=(sum(recalls) / len(recalls)) if recalls else None,
        per_case=records,
    )
