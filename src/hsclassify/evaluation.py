"""Top-k accuracy, evidence precision/recall, and the word-matching baseline."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

from .classifier import top_k
from .corpus import DecisionCase, ManualEntry
from .errors import BadK, EmptyInput
from .pipeline import PipelineModel
from .textproc import DEFAULT_STOPWORDS, tokenize

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
    hits = sum(1 for predictions, label in zip(ranked, gold) if label in list(predictions)[:k])
    return hits / len(ranked)


def _token_set(sentence: str) -> set[str]:
    return set(tokenize(sentence))


def _overlap_f1(a: set[str], b: set[str]) -> float:
    if not a or not b:
        return 0.0
    overlap = len(a & b)
    return 2.0 * overlap / (len(a) + len(b))


@dataclass(frozen=True)
class PrecisionRecall:
    """Evidence-match outcome; flags mark undefined denominators."""

    precision: float
    recall: float | None
    matches: int
    precision_defined: bool = True


def retrieval_precision_recall(
    retrieved: Sequence[str],
    gold_evidence: Sequence[str],
    threshold: float = MATCH_F1_THRESHOLD,
) -> PrecisionRecall:
    """Greedy best-first sentence matching at token-overlap F1 >= threshold.

    Each gold sentence and each retrieved sentence matches at most once.
    Candidate pairs are taken in descending F1 with ties broken on gold order
    and retrieved text, so permuting the retrieved list never changes the
    outcome. With empty gold evidence the recall is undefined (None); with
    nothing retrieved the precision is reported as 0.0 and flagged.
    """
    retrieved_sets = [(_token_set(s), s, i) for i, s in enumerate(retrieved)]
    gold_sets = [_token_set(s) for s in gold_evidence]

    pairs = []
    for g_idx, g_set in enumerate(gold_sets):
        for r_set, r_text, r_idx in retrieved_sets:
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

    if retrieved:
        precision = matches / len(retrieved)
        precision_defined = True
    else:
        precision = 0.0
        precision_defined = False
    recall = matches / len(gold_evidence) if gold_evidence else None
    return PrecisionRecall(
        precision=precision, recall=recall, matches=matches, precision_defined=precision_defined
    )


def word_matching_baseline(
    description: str,
    manuals: Mapping[str, ManualEntry],
    stopwords: frozenset[str] | set[str] = DEFAULT_STOPWORDS,
) -> list[tuple[str, float]]:
    """Rank headings by the share of description content tokens in their manual.

    Ties (including the all-zero case) order by ascending heading.
    """
    if not manuals:
        raise EmptyInput("no manual entries")
    content = {t for t in tokenize(description) if t not in stopwords}
    scores = []
    for heading in sorted(manuals):
        if content:
            manual_tokens: set[str] = set()
            for sentence in manuals[heading].sentences:
                manual_tokens.update(tokenize(sentence))
            score = len(content & manual_tokens) / len(content)
        else:
            score = 0.0
        scores.append((heading, score))
    scores.sort(key=lambda pair: (-pair[1], pair[0]))
    return scores


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
    # Slot for externally measured baselines to display alongside.
    external_baselines: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        data = {"n_cases": self.n_cases}
        for k, v in self.heading_top_k.items():
            data[f"hs4_top{k}"] = v
        for k, v in self.subheading_top_k.items():
            data[f"hs6_top{k}"] = v
        for k, v in self.baseline_heading_top_k.items():
            data[f"baseline_hs4_top{k}"] = v
        if self.ablation_subheading_top_k is not None:
            for k, v in self.ablation_subheading_top_k.items():
                data[f"ablation_hs6_top{k}"] = v
        data["retrieval_precision"] = self.retrieval_precision
        data["retrieval_recall"] = self.retrieval_recall
        data["external_baselines"] = self.external_baselines
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

        rows.append(row("word matching", self.baseline_heading_top_k.get(1), None))
        for name, metrics in self.external_baselines.items():
            hs6 = {k: metrics[f"hs6_top{k}"] for k in ks if f"hs6_top{k}" in metrics}
            rows.append(row(name, metrics.get("hs4_top1"), hs6))
        if self.ablation_subheading_top_k is not None:
            rows.append(
                row(
                    "pipeline (ablation)",
                    self.heading_top_k.get(1),
                    self.ablation_subheading_top_k,
                )
            )
        rows.append(row("pipeline", self.heading_top_k.get(1), self.subheading_top_k))

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
    manuals: Mapping[str, ManualEntry] | None = None,
    ks: Sequence[int] = (1, 3, 5),
) -> MetricsReport:
    """Aggregate top-k accuracy, baseline, and evidence quality over a split.

    Evidence precision/recall compares the top-1 heading candidate's key
    sentences against each case's gold evidence, averaged over the cases that
    carry gold evidence. The ablation variant is reported when the model has
    a second stage-3 head.
    """
    if not test_cases:
        raise EmptyInput("no test cases")
    if manuals is None:
        manuals = model.manuals
    max_k = max(ks)

    heading_ranked: list[list[str]] = []
    subheading_ranked: list[list[str]] = []
    ablation_ranked: list[list[str]] = []
    baseline_ranked: list[list[str]] = []
    records: list[CaseRecord] = []
    precisions: list[float] = []
    recalls: list[float] = []

    has_ablation = model.ablation_classifier is not None
    for case in test_cases:
        trace = model.infer(case.description, headings=max_k)
        report = model.report(trace, max_k)
        headings = [c.heading for c in report.heading_candidates]
        subheadings = [c.subheading for c in report.subheading_candidates]
        heading_ranked.append(headings)
        subheading_ranked.append(subheadings)
        baseline_ranked.append(
            [h for h, _ in word_matching_baseline(case.description, manuals, model.retriever.stopwords)][:max_k]
        )
        if has_ablation:
            probs = model.ablation_scaler.probabilities(trace.ablation_logits)
            order = top_k(probs, min(max_k, len(probs)))
            ablation_ranked.append([model.label_space.subheadings[i] for i, _ in order])

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
