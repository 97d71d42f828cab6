"""End-to-end three-stage pipeline: heading, key sentences, subheading.

Training retrieves evidence from each case's gold heading's manual entry;
inference retrieves from the predicted heading's entry. The subheading head
ranges over the full subheading label space, with no heading constraint.

``PipelineModel.infer_many`` is the one inference path: it runs each stage
once per description, for a chunk of descriptions at a time, and records the
outputs in one ``InferenceTrace`` per description. Stage 3 and the
similar-case query reuse the top heading's evidence retrieved in the heading
stage. ``infer`` and ``predict`` are its one-description case;
``evaluate_pipeline``, ``refit_temperatures`` and the stage-3 validation
inputs of ``fit`` read its traces.

Every batched step computes each description's floats with the same calls as
for that description alone: heads and norms are stacked per-row products,
pooling sums each row's tokens in order, softmax, sums and sorts run per row.
So a trace never depends on the other descriptions of its chunk.
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
from typing import Callable, Iterator, Mapping, Sequence, get_args, get_origin, get_type_hints

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

CHECKPOINT_FORMAT = 5

# Descriptions per batch of the inference path and of fit's encoding passes.
# A batch pools from a zero-padded (tokens x rows x (d + 1)) array, so this
# bounds memory. Refitting temperatures on the benchmark's shapes took the
# same time in batches of 64 as of 128, with about 1.5 MB less peak memory.
CHUNK_ROWS = 64


@dataclass(frozen=True)
class PipelineConfig:
    heading_train: TrainConfig = TrainConfig(seed=0)
    subheading_train: TrainConfig = TrainConfig(seed=1)
    retrieval: RetrievalConfig = RetrievalConfig()
    train_ablation: bool = False
    similar_cases_per_candidate: int = 3

    def __post_init__(self):
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

    ``tokens`` are the description's tokens. ``retrievals[i]`` holds the key
    sentences from the manual entry of the heading ``ranked_headings[i]``
    (None when it has no entry). Stage 3 and the similar-case query read
    the description pooled with the top heading's evidence, the ablation
    head the description vector alone.
    """

    description: str
    tokens: list[str]
    heading_logits: np.ndarray
    heading_probabilities: np.ndarray
    ranked_headings: list[int]
    retrievals: list[RetrievalResult | None]
    stage3_vector: np.ndarray
    subheading_logits: np.ndarray
    subheading_probabilities: np.ndarray
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
        """``infer_many`` of one description."""
        (trace,) = self.infer_many([description], headings)
        return trace

    def infer_many(self, descriptions: Sequence[str], headings: int = 0) -> Iterator[InferenceTrace]:
        """Run every stage once for each description; yields their traces in order.

        Key sentences are retrieved for the top ``max(headings, 1)``
        headings: the top heading's are stage 3's evidence, the others are
        read by a report. Descriptions are tokenized and inferred
        ``CHUNK_ROWS`` at a time.
        """
        for start in range(0, len(descriptions), CHUNK_ROWS):
            chunk = descriptions[start : start + CHUNK_ROWS]
            yield from self._infer_chunk(chunk, [tokenize(d) for d in chunk], headings)

    def _infer_chunk(
        self,
        descriptions: Sequence[str],
        tokens: Sequence[list[str]],
        headings: int,
        description_vectors: np.ndarray | None = None,
    ) -> list[InferenceTrace]:
        """The traces of tokenized descriptions; their vectors if already pooled.

        Every retrieval of a description shares one query, and every evidence
        vector pools the description's part followed by its sentences' parts.
        """
        space = self.label_space
        parts = [self.encoder.part(t) for t in tokens]
        x = description_vectors
        if x is None:
            x = self.encoder.pool_many([[part] for part in parts])
        heading_logits = self.heading_classifier.logits(x)
        heading_probs = self.heading_scaler.probabilities(heading_logits)
        ranked = np.argsort(-heading_probs, axis=1, kind="stable")

        headings = max(headings, 1)
        entries = [[self.manuals.get(space.headings[h]) for h in row[:headings]] for row in ranked]
        retrievals = _retrieve(self.retriever, tokens, entries)
        stage3 = _with_evidence(
            self.encoder, self.retriever, parts, x,
            [row[0] for row in entries], [row[0] for row in retrievals],
        )
        subheading_logits = self.subheading_classifier.logits(stage3)
        probs = self.subheading_scaler.probabilities(subheading_logits)
        ablation_logits = None
        if self.ablation_classifier is not None:
            ablation_logits = self.ablation_classifier.logits(x)
        return [
            InferenceTrace(
                description=description,
                tokens=tokens[i],
                heading_logits=heading_logits[i],
                heading_probabilities=heading_probs[i],
                ranked_headings=ranked[i].tolist(),
                retrievals=retrievals[i],
                stage3_vector=stage3[i],
                subheading_logits=subheading_logits[i],
                subheading_probabilities=probs[i],
                ablation_logits=None if ablation_logits is None else ablation_logits[i],
            )
            for i, description in enumerate(descriptions)
        ]

    # -- prediction --------------------------------------------------------

    def predict(self, description: str, k: int = 3) -> CandidateReport:
        """Rank headings and subheadings with evidence; k clamps to the label space."""
        if k < 1:
            raise BadK(f"k={k} must be >= 1")
        return self.report(self.infer(description, headings=k), k)

    def rankings(
        self, trace: InferenceTrace, k: int
    ) -> tuple[list[tuple[str, float]], list[tuple[str, float]]]:
        """A trace's top-k headings and top-k subheadings, each with its score."""
        space = self.label_space
        headings = [
            (space.headings[index], float(trace.heading_probabilities[index]))
            for index in trace.ranked_headings[:k]
        ]
        ranked = top_k(trace.subheading_probabilities, min(k, len(space.subheadings)))
        subheadings = [(space.subheadings[index], score) for index, score in ranked]
        return headings, subheadings

    def report(self, trace: InferenceTrace, k: int) -> CandidateReport:
        """The top-k candidate report of a trace inferred with ``headings >= k``."""
        headings, subheadings = self.rankings(trace, k)
        heading_candidates = [
            HeadingCandidate(
                heading=heading,
                score=score,
                key_sentences=result.sentence_texts() if result is not None else [],
                manual_missing=result is None,
            )
            for (heading, score), result in zip(headings, trace.retrievals)
        ]

        subheading_candidates = []
        for subheading, score in subheadings:
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


def _retrieve(
    retriever: KeySentenceRetriever,
    tokens: Sequence[list[str]],
    entries: Sequence[Sequence[ManualEntry | None]],
) -> list[list[RetrievalResult | None]]:
    """``retrievals[i][j]``: description i's key sentences from ``entries[i][j]``.

    The descriptions with any entry get their queries from one call; each
    entry is retrieved from once, for all the descriptions that need it.
    """
    requests: dict[ManualEntry, list[tuple[int, int]]] = {}
    for i, row in enumerate(entries):
        for position, entry in enumerate(row):
            if entry is not None:
                requests.setdefault(entry, []).append((i, position))
    needing = [i for i, row in enumerate(entries) if any(entry is not None for entry in row)]
    queries = dict(zip(needing, retriever.queries([tokens[i] for i in needing])))
    retrievals: list[list[RetrievalResult | None]] = [[None] * len(row) for row in entries]
    for entry, slots in requests.items():
        results = retriever.retrieve_many([queries[i] for i, _ in slots], entry)
        for (i, position), result in zip(slots, results):
            retrievals[i][position] = result
    return retrievals


def _with_evidence(
    encoder: PooledEncoder,
    retriever: KeySentenceRetriever,
    parts: Sequence[Part],
    vectors: np.ndarray,
    entries: Sequence[ManualEntry | None],
    results: Sequence[RetrievalResult | None],
) -> np.ndarray:
    """``vectors`` where row i is ``parts[i]`` pooled with its key sentences' parts.

    A row without key sentences keeps its description vector.
    """
    chosen = [i for i, result in enumerate(results) if result is not None and result.sentences]
    if not chosen:
        return vectors
    pooled = vectors.copy()
    pooled[chosen] = encoder.pool_many(
        [[parts[i], *retriever.evidence_parts(entries[i], results[i])] for i in chosen]
    )
    return pooled


# -- fitting ----------------------------------------------------------------


def _pool_descriptions(encoder: PooledEncoder, tokens: Sequence[list[str]]) -> np.ndarray:
    """The description vector of each token list, ``CHUNK_ROWS`` at a time."""
    vectors = np.zeros((len(tokens), encoder.output_dimension))
    for start in range(0, len(tokens), CHUNK_ROWS):
        chunk = tokens[start : start + CHUNK_ROWS]
        vectors[start : start + len(chunk)] = encoder.pool_many([[encoder.part(t)] for t in chunk])
    return vectors


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

    The idf table counts each training and validation description and each
    manual sentence as one document. Each is tokenized once: a description
    for the idf table, its encoding and its retrieval query; a sentence for
    the idf table and its entry's prepared rows. Training cases are encoded
    one gold heading at a time, ``CHUNK_ROWS`` at a time: each once, and
    once more with the key sentences of its gold heading's manual; a case
    without evidence reuses its description vector (a missing manual warns
    once per heading). The case index holds the stage-3 training vectors;
    stage-3 validation inputs come from the inference path, which reuses
    each validation description's tokens and vector. The ablation head, when
    trained, reads the description vectors of stage 1.
    """
    if not train_cases:
        raise EmptyInput("no training cases")

    label_space = build_label_space(list(train_cases))
    train_tokens = [tokenize(c.description) for c in train_cases]
    val_tokens = [tokenize(c.description) for c in validation_cases]
    manual_tokens = {h: [tokenize(s) for s in e.sentences] for h, e in manuals.items()}
    sentence_tokens = [t for sentences in manual_tokens.values() for t in sentences]
    idf = compute_idf([*train_tokens, *val_tokens, *sentence_tokens])
    encoder = PooledEncoder(vectors, idf)
    retriever = KeySentenceRetriever(vectors, idf, stopwords, config.retrieval)
    for heading in label_space.headings:
        if heading in manuals:
            retriever.prepare(manuals[heading], manual_tokens[heading])

    for heading in sorted({c.label.heading for c in train_cases} - manuals.keys()):
        warnings.warn(
            f"no manual entry for gold heading {heading}; affected cases train on "
            "description alone",
            MissingManualWarning,
            stacklevel=2,
        )

    # Stage 1 reads each training description's vector; stage 3 the same
    # description pooled with the key sentences of its gold heading's manual.
    x1_train = np.zeros((len(train_cases), encoder.output_dimension))
    x3_train = np.zeros_like(x1_train)
    by_heading: dict[str, list[int]] = {}
    for i, case in enumerate(train_cases):
        by_heading.setdefault(case.label.heading, []).append(i)
    for heading, members in by_heading.items():
        entry = manuals.get(heading)
        for start in range(0, len(members), CHUNK_ROWS):
            rows = members[start : start + CHUNK_ROWS]
            tokens = [train_tokens[i] for i in rows]
            parts = [encoder.part(t) for t in tokens]
            x1_train[rows] = x1 = encoder.pool_many([[part] for part in parts])
            results = [row[0] for row in _retrieve(retriever, tokens, [[entry]] * len(rows))]
            x3_train[rows] = _with_evidence(
                encoder, retriever, parts, x1, [entry] * len(rows), results
            )

    y1_train = _label_indices(train_cases, label_space.heading_index, "heading")
    x1_val = _pool_descriptions(encoder, val_tokens)
    y1_val = _label_indices(validation_cases, label_space.heading_index, "heading")
    heading_clf, heading_report = train(
        x1_train, y1_train, x1_val, y1_val, config.heading_train, label_space.headings
    )
    heading_scaler = _fit_scaler(heading_clf.logits(x1_val), y1_val)

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
    x3_val = np.zeros_like(x1_val)
    for start in range(0, len(validation_cases), CHUNK_ROWS):
        stop = start + CHUNK_ROWS
        traces = model._infer_chunk(
            [c.description for c in validation_cases[start:stop]],
            val_tokens[start:stop],
            0,
            x1_val[start:stop],
        )
        for i, trace in enumerate(traces, start):
            x3_val[i] = trace.stage3_vector

    y3_train = _label_indices(train_cases, label_space.subheading_index, "subheading")
    y3_val = _label_indices(validation_cases, label_space.subheading_index, "subheading")

    subheading_clf, subheading_report = train(
        x3_train, y3_train, x3_val, y3_val, config.subheading_train, subheadings
    )

    ablation = {}
    ablation_report = None
    if config.train_ablation:
        ablation_clf, ablation_report = train(
            x1_train, y3_train, x1_val, y3_val, config.subheading_train, subheadings
        )
        ablation = dict(
            ablation_classifier=ablation_clf,
            ablation_scaler=_fit_scaler(ablation_clf.logits(x1_val), y3_val),
        )

    return replace(
        model,
        subheading_classifier=subheading_clf,
        subheading_scaler=_fit_scaler(subheading_clf.logits(x3_val), y3_val),
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
    # A generator, so only each chunk's logits stay in memory.
    traces = model.infer_many([c.description for c in validation_cases])
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
    """The named arrays of ``.npz`` bytes; str arrays come back as lists of str.

    A float array with a NaN or infinite value is refused.
    """
    loaded = np.load(io.BytesIO(data), allow_pickle=False)
    arrays = {name: loaded[name] for name in names}
    for name, array in arrays.items():
        if array.dtype.kind == "f" and not np.isfinite(array).all():
            raise ValueError(f"array {name!r} holds a non-finite value")
    return [a.tolist() if a.dtype.kind == "U" else a for a in arrays.values()]


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
    if any("\n" in text for text in [*snippets, *model.retriever.stopwords]):
        raise ValueError("a case snippet or stopword contains a newline")
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
