"""End-to-end three-stage pipeline: heading, key sentences, subheading.

Training retrieves evidence from each case's gold heading's manual entry;
inference retrieves from the predicted heading's entry. The subheading head
ranges over the full subheading label space (no heading constraint) unless
the mask-to-heading-children mode is switched on.

``PipelineModel.infer`` is the one inference path: it runs each stage once
per description and records the outputs in an ``InferenceTrace``. Stage 3
and the similar-case query reuse the top heading's evidence retrieved in the
heading stage. ``predict``, ``evaluate_pipeline``, ``refit_temperatures`` and
the stage-3 validation inputs of ``fit`` all read that trace.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .alignment import KeySentenceRetriever, RetrievalConfig, RetrievalResult
from .calibration import TemperatureScaler, fit_temperature
from .case_retrieval import CaseIndex, build_index, similar_cases, snippet_for
from .classifier import SoftmaxClassifier, TrainConfig, TrainReport, top_k, train
from .corpus import DecisionCase, LabelSpace, ManualEntry, build_label_space
from .encoder import PooledEncoder, encode_with_evidence
from .errors import BadK, DimensionMismatch, EmptyInput, HsClassifyError, UntrainedModel
from .errors import MissingManualWarning
from .textproc import DEFAULT_STOPWORDS, IdfTable, WordVectorTable, compute_idf, tokenize

CHECKPOINT_FORMAT = 1


@dataclass(frozen=True)
class PipelineConfig:
    heading_train: TrainConfig = TrainConfig(seed=0)
    subheading_train: TrainConfig = TrainConfig(seed=1)
    retrieval: RetrievalConfig = RetrievalConfig()
    use_evidence: bool = True
    train_ablation: bool = False
    mask_to_heading: bool = False
    evidence_per_candidate: bool = False
    similar_cases_per_candidate: int = 3
    idf_documents: str = "cases+manual"

    def __post_init__(self):
        if self.idf_documents not in ("cases", "manual", "cases+manual"):
            raise ValueError(f"unknown idf_documents mode {self.idf_documents!r}")
        if self.similar_cases_per_candidate < 0:
            raise ValueError("similar_cases_per_candidate must be >= 0")


@dataclass
class SimilarCase:
    case_id: str
    similarity: float
    snippet: str


@dataclass
class HeadingCandidate:
    heading: str
    score: float
    key_sentences: list[str]
    manual_missing: bool = False


@dataclass
class SubheadingCandidate:
    subheading: str
    score: float
    similar_cases: list[SimilarCase]


@dataclass
class CandidateReport:
    """Decision-support output: ranked candidates with their evidence."""

    description: str
    heading_candidates: list[HeadingCandidate]
    subheading_candidates: list[SubheadingCandidate]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CandidateReport":
        return _from_dict(cls, data)

    def render_text(self) -> str:
        """Plain-text report; scores shown to 4 decimal places."""
        lines = [f"Input: {self.description}", "", "Heading candidates:"]
        for rank, cand in enumerate(self.heading_candidates, start=1):
            lines.append(f"  {rank}. {cand.heading}  score {cand.score:.4f}")
            if cand.manual_missing:
                lines.append("     (no manual entry available)")
            elif not cand.key_sentences:
                lines.append("     (no key sentences aligned)")
            else:
                lines.append("     Key sentences:")
                for number, sentence in enumerate(cand.key_sentences, start=1):
                    lines.append(f"       {number}. {sentence}")
        lines.append("")
        lines.append("Subheading candidates:")
        for rank, cand in enumerate(self.subheading_candidates, start=1):
            lines.append(f"  {rank}. {cand.subheading}  score {cand.score:.4f}")
            if cand.similar_cases:
                lines.append("     Similar cases:")
                for case in cand.similar_cases:
                    lines.append(
                        f"       - {case.case_id} (sim {case.similarity:.4f}): {case.snippet}"
                    )
            else:
                lines.append("     (no similar prior cases on record)")
        return "\n".join(lines) + "\n"


@dataclass
class FitReport:
    heading: TrainReport
    subheading: TrainReport
    ablation: TrainReport | None = None
    missing_manual_cases: int = 0


@dataclass
class InferenceTrace:
    """Every stage's output for one description, each computed once.

    ``retrievals[i]`` holds the key sentences from the manual entry of the
    heading ``ranked_headings[i]`` (None when it has no entry). Stage 3, the
    ablation head and the similar-case query all read the top heading's
    evidence.
    """

    description: str
    heading_logits: np.ndarray
    heading_probabilities: np.ndarray
    ranked_headings: list[int]
    retrievals: list[RetrievalResult | None]
    stage3_vector: np.ndarray
    subheading_logits: np.ndarray
    subheading_probabilities: np.ndarray
    ablation_vector: np.ndarray | None = None
    ablation_logits: np.ndarray | None = None


@dataclass
class PipelineModel:
    """A fitted pipeline: encoder, heads, retriever, scalers, case index."""

    encoder: PooledEncoder
    heading_classifier: SoftmaxClassifier
    subheading_classifier: SoftmaxClassifier
    manuals: dict[str, ManualEntry]
    retriever: KeySentenceRetriever
    heading_scaler: TemperatureScaler
    subheading_scaler: TemperatureScaler
    label_space: LabelSpace
    case_index: CaseIndex
    config: PipelineConfig
    ablation_classifier: SoftmaxClassifier | None = None
    ablation_scaler: TemperatureScaler | None = None
    fit_report: FitReport | None = field(default=None, compare=False)

    def __post_init__(self):
        dimension = self.encoder.output_dimension
        heads = [self.heading_classifier, self.subheading_classifier, self.ablation_classifier]
        for classifier in filter(None, heads):
            if classifier.input_dimension != dimension:
                raise DimensionMismatch(
                    f"encoder dimension {dimension} does not match "
                    f"classifier input {classifier.input_dimension}"
                )
        if self.case_index.dimension != dimension:
            raise DimensionMismatch(
                f"encoder dimension {dimension} does not match "
                f"case index dimension {self.case_index.dimension}"
            )
        if self.heading_classifier.labels != list(self.label_space.headings):
            raise ValueError("heading classifier is not bound to the heading label space")
        if self.subheading_classifier.labels != list(self.label_space.subheadings):
            raise ValueError("subheading classifier is not bound to the subheading label space")

    # -- inference ---------------------------------------------------------

    def infer(self, description: str, headings: int = 0) -> InferenceTrace:
        """Run every stage once for one description.

        Key sentences are retrieved only where read: for the top ``headings``
        headings (a report), the top heading when stage 3 or the ablation head
        uses evidence, and the top three for the evidence-per-candidate mixture.
        """
        config = self.config
        space = self.label_space
        description_vector = self.encoder.encode(description)
        heading_logits = self.heading_classifier.logits(description_vector)
        heading_probs = self.heading_scaler.probabilities(heading_logits)
        ranked = [index for index, _ in top_k(heading_probs, len(space.headings))]

        if config.use_evidence or config.train_ablation:
            mixture = config.use_evidence and config.evidence_per_candidate
            headings = max(headings, 3 if mixture else 1)
        entries = [self.manuals.get(space.headings[index]) for index in ranked[:headings]]
        retrievals = [
            self.retriever.retrieve(description, entry) if entry is not None else None
            for entry in entries
        ]

        def vector(position: int, with_evidence: bool) -> np.ndarray:
            result = retrievals[position] if with_evidence else None
            evidence = result.sentence_texts() if result is not None else []
            if not evidence:
                return description_vector
            return encode_with_evidence(self.encoder, description, evidence)

        stage3_vector = vector(0, config.use_evidence)
        subheading_logits = self.subheading_classifier.logits(stage3_vector)
        probs = self.subheading_scaler.probabilities(subheading_logits)
        if config.evidence_per_candidate:
            # Mixture over the top three headings, weighted by calibrated score.
            candidate_probs = [probs] + [
                self.subheading_scaler.probabilities(
                    self.subheading_classifier.logits(vector(position, config.use_evidence))
                )
                for position in range(1, min(3, len(ranked)))
            ]
            mixed = np.zeros(len(space.subheadings))
            weight_sum = 0.0
            for index, candidate in zip(ranked, candidate_probs):
                weight = float(heading_probs[index])
                mixed += weight * candidate
                weight_sum += weight
            probs = mixed / weight_sum

        if config.mask_to_heading:
            top_heading = space.headings[ranked[0]]
            mask = np.array([s.startswith(top_heading) for s in space.subheadings], dtype=float)
            masked = probs * mask
            if masked.sum() > 0:
                probs = masked / masked.sum()

        trace = InferenceTrace(
            description=description,
            heading_logits=heading_logits,
            heading_probabilities=heading_probs,
            ranked_headings=ranked,
            retrievals=retrievals,
            stage3_vector=stage3_vector,
            subheading_logits=subheading_logits,
            subheading_probabilities=probs,
        )
        if config.train_ablation:
            trace.ablation_vector = vector(0, not config.use_evidence)
        if self.ablation_classifier is not None:
            trace.ablation_logits = self.ablation_classifier.logits(trace.ablation_vector)
        return trace

    def heading_logits(self, description: str) -> np.ndarray:
        return self.infer(description).heading_logits

    def heading_probabilities(self, description: str) -> np.ndarray:
        """Calibrated heading probabilities over the full heading space."""
        return self.infer(description).heading_probabilities

    def subheading_probabilities(self, description: str) -> np.ndarray:
        """Calibrated subheading probabilities along the inference path."""
        return self.infer(description).subheading_probabilities

    # -- prediction --------------------------------------------------------

    def predict(self, description: str, k: int = 3) -> CandidateReport:
        """Rank headings and subheadings with evidence; k clamps to the label space."""
        if k < 1:
            raise BadK(f"k={k} must be >= 1")
        return self.report(self.infer(description, headings=k), k)

    def report(self, trace: InferenceTrace, k: int) -> CandidateReport:
        """The top-k candidate report of a trace inferred with ``headings >= k``."""
        space = self.label_space
        heading_candidates = [
            HeadingCandidate(
                heading=space.headings[index],
                score=float(trace.heading_probabilities[index]),
                key_sentences=result.sentence_texts() if result is not None else [],
                manual_missing=result is None,
            )
            for index, result in zip(trace.ranked_headings[:k], trace.retrievals)
        ]

        subheading_candidates = []
        for index, score in top_k(trace.subheading_probabilities, min(k, len(space.subheadings))):
            subheading = space.subheadings[index]
            neighbours = similar_cases(
                self.case_index,
                trace.stage3_vector,
                subheading,
                self.config.similar_cases_per_candidate,
            )
            subheading_candidates.append(
                SubheadingCandidate(
                    subheading=subheading,
                    score=score,
                    similar_cases=[
                        SimilarCase(cid, sim, snippet_for(self.case_index, subheading, cid))
                        for cid, sim in neighbours
                    ],
                )
            )

        return CandidateReport(
            description=trace.description,
            heading_candidates=heading_candidates,
            subheading_candidates=subheading_candidates,
        )


# -- fitting ----------------------------------------------------------------


def _idf_documents(
    cases: Sequence[DecisionCase], manuals: Mapping[str, ManualEntry], mode: str
) -> list[list[str]]:
    documents: list[list[str]] = []
    if mode in ("cases", "cases+manual"):
        documents.extend(tokenize(c.description) for c in cases)
    if mode in ("manual", "cases+manual"):
        for entry in manuals.values():
            documents.extend(tokenize(s) for s in entry.sentences)
    return documents


def _label_indices(cases: Sequence[DecisionCase], index: Mapping[str, int], level: str) -> list[int]:
    """Each case's ``level`` ("heading" or "subheading") label index; -1 if unknown."""
    return [index.get(getattr(case.label, level), -1) for case in cases]


def _fit_scaler(logits: list[np.ndarray], labels: list[int]) -> TemperatureScaler:
    usable = [(z, y) for z, y in zip(logits, labels) if y >= 0]
    if not usable:
        warnings.warn("no usable validation cases; temperature defaults to 1.0", stacklevel=3)
        return TemperatureScaler(1.0)
    return fit_temperature([z for z, _ in usable], [y for _, y in usable])


def fit(
    train_cases: Sequence[DecisionCase],
    validation_cases: Sequence[DecisionCase],
    manuals: dict[str, ManualEntry],
    vectors: WordVectorTable,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
    config: PipelineConfig = PipelineConfig(),
) -> PipelineModel:
    """Train both stages, fit per-stage temperatures, build the case index.

    Each training case is encoded once, and once more with the key sentences
    of its gold heading's manual when stage 3 or the ablation head reads
    evidence; a case without evidence reuses its description vector (a
    missing manual warns once per heading). The case index holds the stage-3
    training vectors; stage-3 validation inputs come from ``infer``.
    """
    if not train_cases:
        raise EmptyInput("no training cases")

    label_space = build_label_space(list(train_cases))
    idf = compute_idf(
        _idf_documents([*train_cases, *validation_cases], manuals, config.idf_documents)
    )
    encoder = PooledEncoder(vectors, idf)
    retriever = KeySentenceRetriever(vectors, idf, stopwords, config.retrieval)

    # Stage 1: heading from the description alone.
    x1_train = [encoder.encode(c.description) for c in train_cases]
    y1_train = _label_indices(train_cases, label_space.heading_index, "heading")
    x1_val = [encoder.encode(c.description) for c in validation_cases]
    y1_val = _label_indices(validation_cases, label_space.heading_index, "heading")
    heading_clf, heading_report = train(
        x1_train, y1_train, x1_val, y1_val, config.heading_train, label_space.headings
    )
    heading_scaler = _fit_scaler([heading_clf.logits(v) for v in x1_val], y1_val)

    for heading in sorted({c.label.heading for c in train_cases} - manuals.keys()):
        warnings.warn(
            f"no manual entry for gold heading {heading}; affected cases train on "
            "description alone",
            MissingManualWarning,
            stacklevel=2,
        )

    # Stage-3 training inputs: key sentences from the gold heading's manual.
    def with_evidence(case: DecisionCase, vector: np.ndarray) -> np.ndarray:
        entry = manuals.get(case.label.heading)
        result = retriever.retrieve(case.description, entry) if entry is not None else None
        evidence = result.sentence_texts() if result is not None else []
        return encode_with_evidence(encoder, case.description, evidence) if evidence else vector

    evidence_train = x1_train
    if config.use_evidence or config.train_ablation:
        evidence_train = [with_evidence(c, v) for c, v in zip(train_cases, x1_train)]
    x3_train, xa_train = (
        (evidence_train, x1_train) if config.use_evidence else (x1_train, evidence_train)
    )
    case_index = build_index(list(train_cases), x3_train)

    # The model so far, with an untrained (uniform) subheading head, infers
    # the stage-3 validation inputs.
    subheadings = list(label_space.subheadings)
    model = PipelineModel(
        encoder=encoder,
        heading_classifier=heading_clf,
        subheading_classifier=SoftmaxClassifier(
            np.zeros((encoder.output_dimension, len(subheadings))),
            np.zeros(len(subheadings)),
            subheadings,
        ),
        manuals=dict(manuals),
        retriever=retriever,
        heading_scaler=heading_scaler,
        subheading_scaler=TemperatureScaler(),
        label_space=label_space,
        case_index=case_index,
        config=config,
    )
    traces = (model.infer(c.description) for c in validation_cases)
    val_vectors = [(t.stage3_vector, t.ablation_vector) for t in traces]

    y3_train = _label_indices(train_cases, label_space.subheading_index, "subheading")
    y3_val = _label_indices(validation_cases, label_space.subheading_index, "subheading")

    x3_val = [v for v, _ in val_vectors]
    subheading_clf, subheading_report = train(
        x3_train, y3_train, x3_val, y3_val, config.subheading_train, subheadings
    )

    ablation = {}
    ablation_report = None
    if config.train_ablation:
        xa_val = [v for _, v in val_vectors]
        ablation_clf, ablation_report = train(
            xa_train, y3_train, xa_val, y3_val, config.subheading_train, subheadings
        )
        ablation = dict(
            ablation_classifier=ablation_clf,
            ablation_scaler=_fit_scaler([ablation_clf.logits(v) for v in xa_val], y3_val),
        )

    return replace(
        model,
        subheading_classifier=subheading_clf,
        subheading_scaler=_fit_scaler([subheading_clf.logits(v) for v in x3_val], y3_val),
        **ablation,
        fit_report=FitReport(
            heading=heading_report,
            subheading=subheading_report,
            ablation=ablation_report,
            missing_manual_cases=sum(1 for c in train_cases if c.label.heading not in manuals),
        ),
    )


def refit_temperatures(model: PipelineModel, validation_cases: Sequence[DecisionCase]) -> None:
    """Refit the per-stage temperature scalers on a validation split in place."""
    # A generator, so only each trace's logits stay in memory.
    traces = (model.infer(c.description) for c in validation_cases)
    logits = [(t.heading_logits, t.subheading_logits, t.ablation_logits) for t in traces]
    heading_labels = _label_indices(validation_cases, model.label_space.heading_index, "heading")
    subheading_labels = _label_indices(
        validation_cases, model.label_space.subheading_index, "subheading"
    )
    model.heading_scaler = _fit_scaler([z for z, _, _ in logits], heading_labels)
    model.subheading_scaler = _fit_scaler([z for _, z, _ in logits], subheading_labels)
    if model.ablation_classifier is not None:
        model.ablation_scaler = _fit_scaler([z for _, _, z in logits], subheading_labels)


# -- checkpointing -----------------------------------------------------------


def _from_dict(cls, data):
    """Inverse of ``dataclasses.asdict`` for this module's annotated dataclasses."""
    if is_dataclass(cls):
        hints = get_type_hints(cls)
        return cls(**{name: _from_dict(hints[name], value) for name, value in data.items()})
    if get_origin(cls) is list:
        (item,) = get_args(cls)
        return [_from_dict(item, value) for value in data]
    return data


def _config_hashes(config: dict) -> dict:
    return {"pipeline": _hash_json(config), "retrieval": _hash_json(config["retrieval"])}


def _hash_json(data) -> str:
    return hashlib.sha256(
        json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _write_json(path: Path, data) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


def save_pipeline(model: PipelineModel, directory: str | Path) -> None:
    """Persist a fitted pipeline as a self-contained checkpoint directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    model.heading_classifier.save(directory / "heading_classifier.json", model.config.heading_train)
    model.subheading_classifier.save(
        directory / "subheading_classifier.json", model.config.subheading_train
    )
    files = ["heading_classifier.json", "subheading_classifier.json"]
    if model.ablation_classifier is not None:
        model.ablation_classifier.save(
            directory / "ablation_classifier.json", model.config.subheading_train
        )
        files.append("ablation_classifier.json")

    _write_json(directory / "case_index.json", model.case_index.to_dict())
    _write_json(directory / "idf.json", model.encoder.idf.to_dict())
    model.encoder.vectors.save(directory / "vectors.txt")
    with open(directory / "stopwords.txt", "w", encoding="utf-8") as handle:
        for word in sorted(model.retriever.stopwords):
            handle.write(word + "\n")
    with open(directory / "manual.jsonl", "w", encoding="utf-8") as handle:
        for heading, entry in model.manuals.items():
            record = {"heading": heading, "sentences": list(entry.sentences)}
            handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    files.extend(["case_index.json", "idf.json", "vectors.txt", "stopwords.txt", "manual.jsonl"])

    config_dict = asdict(model.config)
    manifest = {
        "format_version": CHECKPOINT_FORMAT,
        "package_version": __version__,
        "config": config_dict,
        "config_hashes": _config_hashes(config_dict),
        "heading_temperature": model.heading_scaler.temperature,
        "subheading_temperature": model.subheading_scaler.temperature,
        "ablation_temperature": (
            model.ablation_scaler.temperature if model.ablation_scaler is not None else None
        ),
        "label_space": {
            "headings": list(model.label_space.headings),
            "subheadings": list(model.label_space.subheadings),
        },
        "files": sorted(files),
    }
    _write_json(directory / "manifest.json", manifest)


def _read(path: Path, parse: Callable[[Path], object]):
    """``parse(path)`` for a checkpoint file; any error it raises names the file."""
    try:
        return parse(path)
    except HsClassifyError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UntrainedModel(f"{path}: {type(exc).__name__}: {exc}") from exc


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def load_pipeline(directory: str | Path) -> PipelineModel:
    """Load a checkpoint directory written by save_pipeline; errors name the bad file."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise UntrainedModel(f"no pipeline checkpoint at {directory}")
    manifest = _read(manifest_path, _json)
    if manifest.get("format_version") != CHECKPOINT_FORMAT:
        raise UntrainedModel(f"unsupported checkpoint format {manifest.get('format_version')}")
    for name in manifest.get("files", []):
        if not (directory / name).exists():
            raise UntrainedModel(f"checkpoint at {directory} is incomplete: missing {name}")

    if manifest.get("config_hashes") != _config_hashes(manifest["config"]):
        raise UntrainedModel(f"{manifest_path}: config does not match its config_hashes")
    config = _from_dict(PipelineConfig, manifest["config"])
    vectors = _read(directory / "vectors.txt", WordVectorTable.load)
    idf = _read(directory / "idf.json", lambda path: IdfTable.from_dict(_json(path)))
    stopwords = _read(
        directory / "stopwords.txt",
        lambda path: frozenset(w.strip() for w in path.read_text("utf-8").split("\n") if w.strip()),
    )

    from .corpus import load_manual  # local import to avoid cycle at module load

    manuals = _read(directory / "manual.jsonl", load_manual)
    encoder = PooledEncoder(vectors, idf)
    retriever = KeySentenceRetriever(vectors, idf, stopwords, config.retrieval)

    heading_clf = _read(directory / "heading_classifier.json", SoftmaxClassifier.load)
    subheading_clf = _read(directory / "subheading_classifier.json", SoftmaxClassifier.load)
    ablation_path = directory / "ablation_classifier.json"
    ablation_clf = _read(ablation_path, SoftmaxClassifier.load) if ablation_path.exists() else None
    case_index = _read(directory / "case_index.json", lambda path: CaseIndex.from_dict(_json(path)))

    label_space = LabelSpace(**{key: tuple(v) for key, v in manifest["label_space"].items()})
    ablation_temp = manifest.get("ablation_temperature")
    return PipelineModel(
        encoder=encoder,
        heading_classifier=heading_clf,
        subheading_classifier=subheading_clf,
        manuals=manuals,
        retriever=retriever,
        heading_scaler=TemperatureScaler(manifest["heading_temperature"]),
        subheading_scaler=TemperatureScaler(manifest["subheading_temperature"]),
        label_space=label_space,
        case_index=case_index,
        config=config,
        ablation_classifier=ablation_clf,
        ablation_scaler=TemperatureScaler(ablation_temp) if ablation_temp is not None else None,
    )
