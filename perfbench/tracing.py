"""Spans recorded around calls into each hsclassify module, from outside.

A span is (name, start, end, parent, request id, phase). Spans live in
compact in-memory columns and are written once, when the run ends. A span's
self time is its duration minus the time its child spans cover; calls are
sequential, so that is the sum of the children's durations.

Functions are wrapped where their caller looks them up: a name imported by
value (``from .textproc import tokenize``) is wrapped in the importing
module, a method on its class. A target that no longer exists is skipped,
so its metrics read zero calls.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager, nullcontext
from time import perf_counter

import numpy as np

PHASES = ("corpus", "fit", "save", "load", "calibrate", "serve", "evaluate")


class Tracer:
    """Span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.phase = array("b")
        self.counters: dict[str, dict[str, float]] = {p: {} for p in PHASES}
        self._stack: list[int] = []
        self._phase = 0
        self._request = -1
        self._seen: set = set()

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request)
        self.phase.append(self._phase)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    @contextmanager
    def in_phase(self, phase: str):
        previous = self._phase
        self._phase = PHASES.index(phase)
        try:
            yield
        finally:
            self._phase = previous

    def set_request(self, request_id: int) -> None:
        """Start request ``request_id``; -1 means outside any request."""
        self._request = request_id
        self._seen.clear()

    def count(self, key: str, value: float = 1.0) -> None:
        bucket = self.counters[PHASES[self._phase]]
        bucket[key] = bucket.get(key, 0.0) + value

    def repeated(self, key) -> bool:
        """True if ``key`` was already seen in the current request."""
        if self._request < 0:
            return False
        if key in self._seen:
            return True
        self._seen.add(key)
        return False

    # -- results ----------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.intc),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.intc),
            "request": np.frombuffer(self.request, dtype=np.intc),
            "phase": np.frombuffer(self.phase, dtype=np.int8),
        }

    def summary(self) -> dict:
        """Per phase and span name: [calls, self seconds], plus the counters."""
        spans: dict[str, dict[str, list[float]]] = {p: {} for p in PHASES}
        if len(self.start):
            cols = self.columns()
            duration = cols["end"] - cols["start"]
            covered = np.zeros(len(duration))
            has_parent = cols["parent"] >= 0
            np.add.at(covered, cols["parent"][has_parent], duration[has_parent])
            own = duration - covered
            width = len(self.names)
            key = cols["phase"].astype(np.int64) * width + cols["name"]
            calls = np.bincount(key, minlength=len(PHASES) * width)
            seconds = np.bincount(key, weights=own, minlength=len(PHASES) * width)
            for flat in np.flatnonzero(calls):
                phase, name = divmod(int(flat), width)
                spans[PHASES[phase]][self.names[name]] = [int(calls[flat]), float(seconds[flat])]
        return {"spans": spans, "counters": self.counters}

    def write(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), phases=np.array(PHASES), **self.columns()
        )


def merge_summaries(a: dict, b: dict) -> dict:
    """Sum two summaries made by ``Tracer.summary``."""
    merged = {"spans": {p: {} for p in PHASES}, "counters": {p: {} for p in PHASES}}
    for summary in (a, b):
        for phase, names in summary["spans"].items():
            for name, (calls, seconds) in names.items():
                calls0, seconds0 = merged["spans"][phase].get(name, (0, 0.0))
                merged["spans"][phase][name] = [calls0 + calls, seconds0 + seconds]
        for phase, counters in summary["counters"].items():
            for key, value in counters.items():
                merged["counters"][phase][key] = merged["counters"][phase].get(key, 0.0) + value
    return merged


# -- wrappers -------------------------------------------------------------------


def _wrap(tracer: Tracer, name: str, function, observe=None):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.close(index)
        if observe is not None:
            observe(tracer, args, result)
        return result

    return traced


def _observe_retrieve(tracer: Tracer, args, result) -> None:
    _, description, entry = args[:3]
    if tracer.repeated(("retrieve", description, entry.heading)):
        tracer.count("alignment.retrieve.duplicates")
    tracer.count("alignment.retrieve.sentences", len(result.sentences))
    tracer.count("alignment.retrieve.covered_keywords", len(result.covered_keywords))
    tracer.count("alignment.retrieve.query_keywords", len(result.query_keywords))


def _observe_encode(tracer: Tracer, args, result) -> None:
    if tracer.repeated(("encode", args[1])):
        tracer.count("encoder.encode.duplicates")


def _observe_logits(tracer: Tracer, args, result) -> None:
    # Heading labels have 4 digits, subheading labels 6.
    level = "heading" if len(args[0].labels[0]) == 4 else "subheading"
    tracer.count(f"classifier.logits.{level}")


def _targets(hs) -> list[tuple]:
    """(owner, attribute, span name, observer) for every wrapped call site."""
    return [
        (hs.pipeline, "similar_cases", "case_retrieval.similar_cases", None),
        (hs.pipeline, "snippet_for", "case_retrieval.snippet_for", None),
        (hs.pipeline, "build_index", "case_retrieval.build_index", None),
        (hs.pipeline, "train", "classifier.train", None),
        (hs.pipeline, "fit_temperature", "calibration.fit_temperature", None),
        (hs.pipeline, "tokenize", "textproc.tokenize", None),
        (hs.case_retrieval, "cosine", "case_retrieval.cosine", None),
        (hs.alignment, "alignment_score", "alignment.alignment_score", None),
        (hs.alignment, "tokenize", "textproc.tokenize", None),
        (hs.encoder, "tokenize", "textproc.tokenize", None),
        (hs.evaluation, "tokenize", "textproc.tokenize", None),
        (hs.evaluation, "word_matching_baseline", "evaluation.word_matching_baseline", None),
        (
            hs.evaluation,
            "retrieval_precision_recall",
            "evaluation.retrieval_precision_recall",
            None,
        ),
        (hs.classifier, "mean_loss_and_gradient", "classifier.mean_loss_and_gradient", None),
        # load_pipeline imports load_manual from the corpus module at call time.
        (hs.corpus, "load_manual", "corpus.load_manual", None),
        (hs.alignment.KeySentenceRetriever, "retrieve", "alignment.retrieve", _observe_retrieve),
        (hs.encoder.PooledEncoder, "encode", "encoder.encode", _observe_encode),
        (hs.classifier.SoftmaxClassifier, "logits", "classifier.logits", _observe_logits),
        (hs.classifier.SoftmaxClassifier, "load", "classifier.SoftmaxClassifier.load", None),
        (hs.calibration.TemperatureScaler, "probabilities", "calibration.probabilities", None),
        (hs.case_retrieval.CaseIndex, "from_dict", "case_retrieval.CaseIndex.from_dict", None),
        (hs.textproc.WordVectorTable, "load", "textproc.WordVectorTable.load", None),
        (hs.pipeline.PipelineModel, "predict", "pipeline.predict", None),
    ]


@contextmanager
def installed(tracer: Tracer, hs):
    """Wrap every target while the block runs; a disabled tracer wraps nothing."""
    if not tracer.enabled:
        yield
        return
    restore = []
    try:
        for owner, attribute, name, observe in _targets(hs):
            original = vars(owner).get(attribute)
            if original is None:
                continue
            if isinstance(original, classmethod):
                replacement = classmethod(_wrap(tracer, name, original.__func__, observe))
            else:
                replacement = _wrap(tracer, name, original, observe)
            setattr(owner, attribute, replacement)
            restore.append((owner, attribute, original))
        yield
    finally:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)
