"""Top-k accuracy, evidence precision/recall, and the word-matching baseline."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import islice
from typing import Mapping, Sequence

import numpy as np

from .corpus import DecisionCase
from .errors import BadK, EmptyInput
from .pipeline import CHUNK_ROWS, PipelineModel, _ranked
from .textproc import content_keywords, tokenize

MATCH_F1_THRESHOLD = 0.6


def top_k_accuracy(ranked: Sequence[Sequence[str]], gold: Sequence[str], k: int) -> float:
    """Fraction of cases whose gold label sits in the first k predictions.

    Ranked lists shorter than k are used as-is, so k larger than the label
    space degrades to membership in the whole list.
    """
    if k < 1:
        raise BadK(f"k={k} must be >= 1")
    if len(ranked) != len(gold):
        raise EmptyInput(f"{len(ranked)} ranked lists vs {len(gold)} gold labels")
    if not ranked:
        raise EmptyInput("nothing to evaluate")
    hits = sum(1 for predictions, label in zip(ranked, gold) if label in islice(predictions, k))
    return hits / len(ranked)


def _overlap_f1(a: set[str], b: set[str]) -> float:
    if not a or not b:
        return 0.0
    overlap = len(a & b)
    return 2.0 * overlap / (len(a) + len(b))


@dataclass(frozen=True)
class PrecisionRecall:
    """Evidence-match outcome; recall is None when there is no gold evidence."""

    precision: float
    recall: float | None
    matches: int


def _match_evidence(
    retrieved: Sequence[tuple[set[str], str]],
    gold_sets: Sequence[set[str]],
    threshold: float = MATCH_F1_THRESHOLD,
) -> PrecisionRecall:
    """Greedy best-first sentence matching at token-overlap F1 >= threshold.

    ``retrieved`` holds each retrieved sentence's token set and text, and
    ``gold_sets`` each gold sentence's token set. Each gold sentence and each
    retrieved sentence matches at most once. Candidate pairs are taken in
    descending F1 with ties broken on gold order and retrieved text, so
    permuting the retrieved list never changes the outcome. With empty gold
    evidence the recall is undefined (None); with nothing retrieved the
    precision is 0.0.
    """
    pairs = []
    for g_idx, g_set in enumerate(gold_sets):
        for r_idx, (r_set, r_text) in enumerate(retrieved):
            f1 = _overlap_f1(g_set, r_set)
            if f1 >= threshold:
                pairs.append((-f1, g_idx, r_text, r_idx))
    pairs.sort()

    used_gold: set[int] = set()
    used_retrieved: set[int] = set()
    matches = 0
    for _, g_idx, _, r_idx in pairs:
        if g_idx in used_gold or r_idx in used_retrieved:
            continue
        used_gold.add(g_idx)
        used_retrieved.add(r_idx)
        matches += 1

    return PrecisionRecall(
        precision=matches / len(retrieved) if retrieved else 0.0,
        recall=matches / len(gold_sets) if gold_sets else None,
        matches=matches,
    )


def _word_matching_rankings(
    token_lists: Sequence[Sequence[str]],
    postings: Mapping[str, Sequence[int]],
    heading_count: int,
    stopwords: frozenset[str] | set[str],
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's heading positions by descending score, ties ascending, and its scores.

    Row i ranks the headings for ``token_lists[i]``. A heading's score is the
    share of the description's distinct content tokens that its manual
    holds; with no content token, every score is 0. The rows' match counts
    are one ``np.bincount`` and their orders one ``_ranked`` call.
    """
    hits: list[int] = []
    lengths = []
    for row, tokens in enumerate(token_lists):
        content = content_keywords(tokens, stopwords)
        lengths.append(len(content))
        offset = row * heading_count
        hits += [offset + position for t in content for position in postings.get(t, ())]
    shape = (len(token_lists), heading_count)
    counts = np.bincount(np.array(hits, dtype=np.intp), minlength=shape[0] * shape[1])
    lengths = np.array(lengths, dtype=np.intp)[:, None]
    scores = np.divide(counts.reshape(shape), lengths, out=np.zeros(shape), where=lengths > 0)
    return _ranked(scores), scores


@dataclass
class CaseRecord:
    case_id: str
    gold_heading: str
    gold_subheading: str
    predicted_headings: list[str]
    predicted_subheadings: list[str]
    retrieval_precision: float | None = None
    retrieval_recall: float | None = None


@dataclass
class MetricsReport:
    """Aggregated test-split metrics in Table-style layout."""

    n_cases: int
    heading_top_k: dict[int, float]
    subheading_top_k: dict[int, float]
    baseline_heading_top_k: dict[int, float]
    ablation_subheading_top_k: dict[int, float] | None = None
    retrieval_precision: float | None = None
    retrieval_recall: float | None = None
    per_case: list[CaseRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        data = {"n_cases": self.n_cases}
        for prefix, accuracies in [
            ("hs4", self.heading_top_k),
            ("hs6", self.subheading_top_k),
            ("baseline_hs4", self.baseline_heading_top_k),
            ("ablation_hs6", self.ablation_subheading_top_k or {}),
        ]:
            data.update((f"{prefix}_top{k}", v) for k, v in accuracies.items())
        data["retrieval_precision"] = self.retrieval_precision
        data["retrieval_recall"] = self.retrieval_recall
        data["per_case"] = [asdict(r) for r in self.per_case]
        return data

    def render_table(self, ks: Sequence[int] = (1, 3, 5)) -> str:
        """Accuracy table: one row per model variant, HS4/HS6 top-k columns."""

        def fmt(value: float | None) -> str:
            return f"{value:.4f}" if value is not None else "-"

        header = ["Model".ljust(28), "HS4 k=1".rjust(9)]
        header += [f"HS6 k={k}".rjust(9) for k in ks]
        rows = [header]

        def row(name: str, hs4: float | None, hs6: dict[int, float] | None) -> list[str]:
            cells = [name.ljust(28), fmt(hs4).rjust(9)]
            cells += [fmt(hs6.get(k) if hs6 else None).rjust(9) for k in ks]
            return cells

        hs4 = self.heading_top_k.get(1)
        rows.append(row("word matching", self.baseline_heading_top_k.get(1), None))
        if self.ablation_subheading_top_k is not None:
            rows.append(row("pipeline (ablation)", hs4, self.ablation_subheading_top_k))
        rows.append(row("pipeline", hs4, self.subheading_top_k))

        lines = ["  ".join(cells) for cells in rows]
        if self.retrieval_precision is not None:
            lines.append("")
            lines.append(
                f"evidence retrieval: precision {fmt(self.retrieval_precision)}"
                f"  recall {fmt(self.retrieval_recall)}"
            )
        return "\n".join(lines) + "\n"


def evaluate_pipeline(
    model: PipelineModel,
    test_cases: Sequence[DecisionCase],
    ks: Sequence[int] = (1, 3, 5),
) -> MetricsReport:
    """Aggregate top-k accuracy, baseline, and evidence quality over a split.

    Evidence precision/recall compares the top-1 heading candidate's key
    sentences against each case's gold evidence, averaged over the cases that
    carry gold evidence. The ablation variant is reported when the model has
    a second stage-3 head; the word-matching baseline ranks the model's
    manual entries, the ones the pipeline retrieves from. ``ks`` must hold
    one or more ints of at least 1; anything else raises ``BadK`` before
    any case is inferred.

    The metrics read the rankings and the top heading's key sentences only,
    so each case is inferred with one retrieval and no candidate report is
    built: the similar cases of a report are never read. Cases are ranked
    one inference chunk (``CHUNK_ROWS`` cases) at a time: the subheadings,
    the ablation head's subheadings and the baseline's headings each by one
    ``_ranked`` call, which orders each row as ``report`` orders it alone.
    Each description is tokenized once, for the inference and the baseline,
    and each distinct gold evidence sentence once per call; manual
    sentences' tokens come from the retriever's prepared entries, so the
    retriever keeps no entry beyond the model's own. The baseline counts
    matches through the model's ``word_index``, built once per model.
    """
    if not ks:
        raise BadK("no k to evaluate")
    for k in ks:
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
            raise BadK(f"k={k!r} must be an int >= 1")
    if not test_cases:
        raise EmptyInput("no test cases")
    max_k = max(ks)

    ablation_ranked: list[list[str]] = []
    baseline_ranked: list[list[str]] = []
    records: list[CaseRecord] = []
    precisions: list[float] = []
    recalls: list[float] = []

    has_ablation = model.ablation_classifier is not None
    space = model.label_space
    retriever = model.retriever
    manual_headings, postings = model.word_index
    gold_token_sets: dict[str, set[str]] = {}

    def token_set(text: str) -> set[str]:
        tokens = gold_token_sets.get(text)
        if tokens is None:
            tokens = gold_token_sets[text] = set(tokenize(text))
        return tokens

    for start in range(0, len(test_cases), CHUNK_ROWS):
        chunk = test_cases[start : start + CHUNK_ROWS]
        traces = list(model.infer_many([case.description for case in chunk], headings=1))
        subheadings = _ranked(np.stack([t.subheading_probabilities for t in traces]))[:, :max_k]
        order, _ = _word_matching_rankings(
            [t.tokens for t in traces], postings, len(manual_headings), retriever.stopwords
        )
        baseline_ranked += [[manual_headings[i] for i in row] for row in order[:, :max_k].tolist()]
        if has_ablation:
            logits = np.stack([t.ablation_logits for t in traces])
            order = _ranked(model.ablation_scaler.probabilities(logits))[:, :max_k]
            ablation_ranked += [[space.subheadings[i] for i in row] for row in order.tolist()]

        for case, trace, top in zip(chunk, traces, subheadings.tolist()):
            record = CaseRecord(
                case_id=case.id,
                gold_heading=case.label.heading,
                gold_subheading=case.label.subheading,
                predicted_headings=[space.headings[i] for i in trace.ranked_headings[:max_k]],
                predicted_subheadings=[space.subheadings[i] for i in top],
            )
            if case.gold_evidence:
                result = trace.retrievals[0]
                retrieved = []
                if result is not None:
                    entry = model.manuals[space.headings[trace.ranked_headings[0]]]
                    prepared = retriever.prepare(entry)
                    retrieved = [(prepared.token_set(i), entry.sentences[i]) for i in result.indices]
                outcome = _match_evidence(retrieved, [token_set(s) for s in case.gold_evidence])
                record.retrieval_precision = outcome.precision
                record.retrieval_recall = outcome.recall
                precisions.append(outcome.precision)
                if outcome.recall is not None:
                    recalls.append(outcome.recall)
            records.append(record)

    heading_ranked = [r.predicted_headings for r in records]
    subheading_ranked = [r.predicted_subheadings for r in records]
    gold_headings = [c.label.heading for c in test_cases]
    gold_subheadings = [c.label.subheading for c in test_cases]
    return MetricsReport(
        n_cases=len(test_cases),
        heading_top_k={k: top_k_accuracy(heading_ranked, gold_headings, k) for k in ks},
        subheading_top_k={k: top_k_accuracy(subheading_ranked, gold_subheadings, k) for k in ks},
        baseline_heading_top_k={k: top_k_accuracy(baseline_ranked, gold_headings, k) for k in ks},
        ablation_subheading_top_k=(
            {k: top_k_accuracy(ablation_ranked, gold_subheadings, k) for k in ks}
            if has_ablation
            else None
        ),
        retrieval_precision=(sum(precisions) / len(precisions)) if precisions else None,
        retrieval_recall=(sum(recalls) / len(recalls)) if recalls else None,
        per_case=records,
    )
