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
import io
import json
import warnings
import zipfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .alignment import KeySentenceRetriever, RetrievalConfig, RetrievalResult
from .calibration import TemperatureScaler, fit_temperature
from .case_retrieval import CaseIndex, build_index, similar_cases
from .classifier import SoftmaxClassifier, TrainConfig, TrainReport, top_k, train
from .corpus import DecisionCase, LabelSpace, ManualEntry, build_label_space
from .encoder import Part, PooledEncoder
from .errors import BadK, DimensionMismatch, EmptyInput, HsClassifyError, UntrainedModel
from .errors import MissingManualWarning
from .textproc import DEFAULT_STOPWORDS, IdfTable, WordVectorTable, compute_idf, tokenize

CHECKPOINT_FORMAT = 3


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
        retriever, encoder = self.retriever, self.encoder
        if retriever.vectors is not encoder.vectors or retriever.idf is not encoder.idf:
            raise ValueError("the encoder and the retriever must share their vector and idf tables")
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
        tokens = tokenize(description)
        part = self.encoder.part(tokens)
        return self._infer(description, tokens, part, self.encoder.pool([part]), headings)

    def _infer(
        self,
        description: str,
        tokens: list[str],
        part: Part,
        description_vector: np.ndarray,
        headings: int = 0,
    ) -> InferenceTrace:
        """``infer`` for a description already tokenized, gathered and encoded.

        Every retrieval shares one query, and every evidence vector pools the
        description's part followed by its sentences' parts.
        """
        config = self.config
        space = self.label_space
        heading_logits = self.heading_classifier.logits(description_vector)
        heading_probs = self.heading_scaler.probabilities(heading_logits)
        ranked = [index for index, _ in top_k(heading_probs, len(space.headings))]

        if config.use_evidence or config.train_ablation:
            mixture = config.use_evidence and config.evidence_per_candidate
            headings = max(headings, 3 if mixture else 1)
        entries = [self.manuals.get(space.headings[index]) for index in ranked[:headings]]
        query = self.retriever.query(tokens) if any(e is not None for e in entries) else None
        retrievals = [
            self.retriever.retrieve(query, entry) if entry is not None else None
            for entry in entries
        ]

        def vector(position: int, with_evidence: bool) -> np.ndarray:
            result = retrievals[position] if with_evidence else None
            if result is None or not result.sentences:
                return description_vector
            evidence = self.retriever.evidence_parts(entries[position], result)
            return self.encoder.pool([part, *evidence])

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
                    similar_cases=[SimilarCase(*neighbour) for neighbour in neighbours],
                )
            )

        return CandidateReport(
            description=trace.description,
            heading_candidates=heading_candidates,
            subheading_candidates=subheading_candidates,
        )


# -- fitting ----------------------------------------------------------------


def _idf_documents(
    case_tokens: Sequence[list[str]], manuals: Mapping[str, ManualEntry], mode: str
) -> list[list[str]]:
    documents: list[list[str]] = []
    if mode in ("cases", "cases+manual"):
        documents.extend(case_tokens)
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

    Each description is tokenized once, for the idf table, its encoding and
    its retrieval query. Each training case is encoded once, and once more
    with the key sentences of its gold heading's manual when stage 3 or the
    ablation head reads evidence; a case without evidence reuses its
    description vector (a missing manual warns once per heading). The case
    index holds the stage-3 training vectors; stage-3 validation inputs come
    from the inference path, which reuses each validation description's
    tokens, part and vector.
    """
    if not train_cases:
        raise EmptyInput("no training cases")

    label_space = build_label_space(list(train_cases))
    train_tokens = [tokenize(c.description) for c in train_cases]
    val_tokens = [tokenize(c.description) for c in validation_cases]
    idf = compute_idf(
        _idf_documents([*train_tokens, *val_tokens], manuals, config.idf_documents)
    )
    encoder = PooledEncoder(vectors, idf)
    retriever = KeySentenceRetriever(vectors, idf, stopwords, config.retrieval)

    for heading in sorted({c.label.heading for c in train_cases} - manuals.keys()):
        warnings.warn(
            f"no manual entry for gold heading {heading}; affected cases train on "
            "description alone",
            MissingManualWarning,
            stacklevel=2,
        )

    # Stage 1 reads each training description's vector; stage 3 (or the
    # ablation head) the same description pooled with the key sentences of
    # its gold heading's manual.
    def with_evidence(case: DecisionCase, tokens: list[str], part: Part, vector: np.ndarray):
        entry = manuals.get(case.label.heading)
        result = retriever.retrieve(retriever.query(tokens), entry) if entry is not None else None
        if result is None or not result.sentences:
            return vector
        return encoder.pool([part, *retriever.evidence_parts(entry, result)])

    reads_evidence = config.use_evidence or config.train_ablation
    x1_train, evidence_train = [], []
    for case, tokens in zip(train_cases, train_tokens):
        part = encoder.part(tokens)
        x1_train.append(encoder.pool([part]))
        if reads_evidence:
            evidence_train.append(with_evidence(case, tokens, part, x1_train[-1]))
    if not reads_evidence:
        evidence_train = x1_train

    y1_train = _label_indices(train_cases, label_space.heading_index, "heading")
    val_parts = [encoder.part(tokens) for tokens in val_tokens]
    x1_val = [encoder.pool([part]) for part in val_parts]
    y1_val = _label_indices(validation_cases, label_space.heading_index, "heading")
    heading_clf, heading_report = train(
        x1_train, y1_train, x1_val, y1_val, config.heading_train, label_space.headings
    )
    heading_scaler = _fit_scaler([heading_clf.logits(v) for v in x1_val], y1_val)

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
    traces = (
        model._infer(c.description, tokens, part, vector)
        for c, tokens, part, vector in zip(validation_cases, val_tokens, val_parts, x1_val)
    )
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
# Only this section knows the checkpoint layout. Each fact is stored once, and
# the manifest holds a sha256 of every other file and of itself.


def _from_dict(cls, data):
    """Inverse of ``dataclasses.asdict`` for this module's annotated dataclasses."""
    if is_dataclass(cls):
        hints = get_type_hints(cls)
        return cls(**{name: _from_dict(hints[name], value) for name, value in data.items()})
    if get_origin(cls) is list:
        (item,) = get_args(cls)
        return [_from_dict(item, value) for value in data]
    return data


def _canonical(data) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _npz(**arrays: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)  # fixed zip member dates: the bytes depend on the arrays alone
    return buffer.getvalue()


# Case snippets are stored "\n"-joined as one array of UTF-8 bytes (a case's
# snippet is its description with every whitespace run flattened to a space).
# Lone surrogates, which JSON input can hold, pass through.
_UTF8 = ("utf-8", "surrogatepass")


def _arrays(data: bytes, *names: str) -> list:
    """The named arrays of ``.npz`` bytes; str arrays come back as lists of str."""
    arrays = np.load(io.BytesIO(data), allow_pickle=False)
    return [a.tolist() if a.dtype.kind == "U" else a for a in map(arrays.__getitem__, names)]


def save_pipeline(model: PipelineModel, directory: str | Path) -> None:
    """Write a fitted pipeline as a self-contained checkpoint directory.

    Float arrays go to ``.npz`` files; ``manifest.json`` holds the config, the
    temperatures, the label space, each file's sha256 and its own. One model
    always saves to the same bytes.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    heads = {"heading": model.heading_classifier, "subheading": model.subheading_classifier,
             "ablation": model.ablation_classifier}
    buckets = sorted(model.case_index.by_subheading.items())
    snippets = [snippet for _, bucket in buckets for snippet in bucket.snippets]
    if any("\n" in snippet for snippet in snippets):
        raise ValueError("a case snippet contains a newline")
    vectors, idf = model.encoder.vectors, model.encoder.idf
    tokens = sorted(vectors.tokens())
    files = {
        **{f"{stage}_classifier.npz": _npz(weights=head.weights, bias=head.bias)
           for stage, head in heads.items() if head is not None},
        "case_index.npz": _npz(
            embeddings=np.concatenate([bucket.embeddings for _, bucket in buckets]),
            subheadings=np.array([sub for sub, bucket in buckets for _ in bucket.ids]),
            ids=np.array([case_id for _, bucket in buckets for case_id in bucket.ids]),
            snippets=np.frombuffer("\n".join(snippets).encode(*_UTF8), dtype=np.uint8),
        ),
        "vectors.npz": _npz(
            tokens=np.array(tokens), vectors=np.array([vectors.get(t) for t in tokens])
        ),
        "idf.json": _canonical(
            {"document_count": idf.document_count, "values": dict(sorted(idf.items()))}
        ) + b"\n",
        "manual.jsonl": b"".join(
            _canonical({"heading": heading, "sentences": list(entry.sentences)}) + b"\n"
            for heading, entry in model.manuals.items()
        ),
        "stopwords.txt": "".join(w + "\n" for w in sorted(model.retriever.stopwords)).encode(),
    }
    manifest = {
        "format_version": CHECKPOINT_FORMAT,
        "package_version": __version__,
        "config": asdict(model.config),
        "heading_temperature": model.heading_scaler.temperature,
        "subheading_temperature": model.subheading_scaler.temperature,
        "ablation_temperature": getattr(model.ablation_scaler, "temperature", None),
        "label_space": {
            key: list(getattr(model.label_space, key)) for key in ("headings", "subheadings")
        },
        "files": {name: _sha256(data) for name, data in files.items()},
    }
    manifest["sha256"] = _sha256(_canonical(manifest))
    files["manifest.json"] = _canonical(manifest) + b"\n"
    for name, data in files.items():
        (directory / name).write_bytes(data)


@contextmanager
def _read(path: Path):
    """Re-raise any error of the block as a package error that names ``path``."""
    try:
        yield
    except HsClassifyError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    except (OSError, ValueError, LookupError, TypeError, AttributeError, EOFError,
            zipfile.BadZipFile) as exc:
        raise UntrainedModel(f"{path}: {type(exc).__name__}: {exc}") from exc


def _manifest(data: bytes) -> dict:
    """The manifest in ``data``, once its format and its own sha256 check out."""
    manifest = json.loads(data)
    version = manifest.get("format_version")
    if version != CHECKPOINT_FORMAT:
        raise UntrainedModel(f"unsupported checkpoint format {version}; retrain")
    digest = manifest.pop("sha256")
    # Only canonical bytes pass, so no byte lies outside what the hash covers.
    canonical = data == _canonical({**manifest, "sha256": digest}) + b"\n"
    if not canonical or _sha256(_canonical(manifest)) != digest:
        raise UntrainedModel("content does not match its sha256")
    return manifest


def _case_index(data: bytes) -> CaseIndex:
    embeddings, subheadings, ids, snippets = _arrays(
        data, "embeddings", "subheadings", "ids", "snippets"
    )
    if not isinstance(snippets, np.ndarray) or snippets.dtype != np.uint8 or snippets.ndim != 1:
        raise ValueError("snippets must be one array of UTF-8 bytes")
    columns = [subheadings, ids, snippets.tobytes().decode(*_UTF8).split("\n")]
    counts = [len(embeddings), *map(len, columns)]
    if embeddings.ndim != 2 or len(set(counts)) != 1:
        raise DimensionMismatch(f"row counts of embeddings, subheadings, ids, snippets: {counts}")
    return CaseIndex.from_rows(*columns, embeddings)


def load_pipeline(directory: str | Path) -> PipelineModel:
    """Load a checkpoint directory written by ``save_pipeline``.

    Each file is read once. The manifest's own sha256 and every file's
    sha256 are checked before any other file is parsed; a checkpoint of
    another format must be retrained. Every error is a package error that
    names the bad file, or the directory when two files disagree.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise UntrainedModel(f"no pipeline checkpoint at {directory}")
    with _read(manifest_path):
        manifest = _manifest(manifest_path.read_bytes())
        config = _from_dict(PipelineConfig, manifest["config"])
        label_space = LabelSpace(**{key: tuple(v) for key, v in manifest["label_space"].items()})
        scalers = {
            f"{stage}_scaler": TemperatureScaler(manifest[f"{stage}_temperature"])
            for stage in ("heading", "subheading", "ablation")
            if manifest[f"{stage}_temperature"] is not None
        }
        digests = dict(manifest["files"])

    data = {}
    for name, digest in digests.items():
        with _read(directory / name):
            data[name] = (directory / name).read_bytes()
            if _sha256(data[name]) != digest:
                raise UntrainedModel(f"content does not match its sha256 in {manifest_path.name}")

    def parse(name: str, parser: Callable[[bytes], object]):
        with _read(directory / name):
            return parser(data[name])

    def classifier(name: str, labels: Sequence[str]) -> SoftmaxClassifier:
        return parse(name, lambda d: SoftmaxClassifier(*_arrays(d, "weights", "bias"), labels))

    vectors = parse("vectors.npz", lambda d: WordVectorTable(
        dict(zip(*_arrays(d, "tokens", "vectors"), strict=True))))
    idf = parse("idf.json", lambda d: IdfTable(**json.loads(d)))
    stopwords = parse("stopwords.txt", lambda d: frozenset(d.decode().split("\n")[:-1]))
    manuals = parse("manual.jsonl", lambda d: {
        r["heading"]: ManualEntry(r["heading"], tuple(r["sentences"]))
        for r in map(json.loads, d.decode().splitlines())
    })
    labels = dict(heading=label_space.headings, subheading=label_space.subheadings,
                  ablation=label_space.subheadings)
    heads = {f"{stage}_classifier": classifier(f"{stage}_classifier.npz", stage_labels)
             for stage, stage_labels in labels.items() if f"{stage}_classifier.npz" in data}
    case_index = parse("case_index.npz", _case_index)
    with _read(directory):
        return PipelineModel(
            encoder=PooledEncoder(vectors, idf),
            manuals=manuals,
            retriever=KeySentenceRetriever(vectors, idf, stopwords, config.retrieval),
            label_space=label_space,
            case_index=case_index,
            config=config,
            **heads,
            **scalers,
        )
