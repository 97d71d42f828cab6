"""``evaluate_pipeline`` equals the report-based reference, to the bytes of its metrics.

``evaluate_pipeline`` reads each case's rankings, baseline tokens and top
heading's key sentences from one trace inferred with a single retrieval;
``oracles.reference_evaluate`` builds every case's full candidate report and
tokenizes every text again. Both must give the same ``metrics.json``, in
every pipeline mode, for any ``ks``, on the model as fitted, with its
manual replaced by an equal one loaded from file, loaded from a checkpoint,
or with its manual upper-cased; and evaluating prepares the model's own
manual entries and no other. ``evaluate_pipeline`` ranks one inference
chunk at a time, so the split is also evaluated at sizes around the chunk
bounds; the word-matching baseline's index is built once per model, so
repeated calls and ``replace`` copies are checked too. The traces go
through BLAS, so CI also runs this file with ``OPENBLAS_NUM_THREADS=1``.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

import oracles
from hsclassify import pipeline
from hsclassify.alignment import KeySentenceRetriever
from hsclassify.corpus import ManualEntry, load_manual
from hsclassify.evaluation import _word_matching_rankings, evaluate_pipeline
from hsclassify.pipeline import CHUNK_ROWS, _word_index, load_pipeline, save_pipeline
from hsclassify.textproc import DEFAULT_STOPWORDS, tokenize

# The corpus and one fitted model per pipeline mode, as the batch tests use.
from test_batch_exactness import MODES, WITHOUT_MANUAL, corpus, mode  # noqa: F401 (fixtures)

# The last k exceeds both the heading (6) and the subheading (12) count.
KS = [(1, 3, 5), (1,), (2, 20)]


@pytest.fixture(scope="module")
def cases(corpus):
    """Validation and test cases, more than one chunk of the inference path.

    Every third case without gold evidence gets its gold heading's first two
    manual sentences as evidence; others keep none. Every fourth description
    is upper-cased and comma-joined, so only tokenized text matches the
    manual's words.
    """
    corpus, split = corpus
    cases = []
    for i, case in enumerate([*split.validation, *split.test]):
        if i % 3 == 0 and not case.gold_evidence:
            sentences = corpus.manual[case.label.heading].sentences[:2]
            case = replace(case, gold_evidence=tuple(sentences))
        if i % 4 == 1:
            case = replace(case, description=", ".join(case.description.upper().split()) + ".")
        cases.append(case)
    assert any(c.gold_evidence for c in cases) and not all(c.gold_evidence for c in cases)
    return cases


def metrics_json(metrics) -> str:
    return json.dumps(metrics.to_dict(), sort_keys=True)


def model_from(model, source, tmp_path):
    """The mode's model as fitted, or rebuilt with its manual from ``source``.

    ``file`` keeps the fitted retriever, whose prepared entries an equal
    manual loaded from file must hit; ``checkpoint`` and ``upper`` start
    from a retriever with no prepared entry.
    """
    if source == "model":
        return model
    if source == "checkpoint":
        save_pipeline(model, tmp_path / "checkpoint")
        return load_pipeline(tmp_path / "checkpoint")
    path = tmp_path / "manual.jsonl"
    path.write_text(
        "".join(
            json.dumps({"heading": heading, "sentences": list(entry.sentences)}) + "\n"
            for heading, entry in model.manuals.items()
        )
    )
    manuals = load_manual(path)
    assert manuals == model.manuals and manuals is not model.manuals
    if source == "file":
        return replace(model, manuals=manuals)
    retriever = model.retriever
    return replace(
        model,
        manuals={h: replace(e, sentences=tuple(s.upper() for s in e.sentences))
                 for h, e in manuals.items()},
        retriever=KeySentenceRetriever(retriever.encoder, retriever.stopwords, retriever.config),
    )


@pytest.mark.parametrize("ks", KS)
@pytest.mark.parametrize("source", ["model", "file", "checkpoint", "upper"])
def test_evaluate_equals_the_report_based_reference(mode, cases, ks, source, tmp_path):
    name, model = mode
    model = model_from(model, source, tmp_path)
    entries = model.retriever._entries
    before = set(entries)
    assert bool(before) == (source in ("model", "file"))

    got = evaluate_pipeline(model, cases, ks)
    # Evaluating prepares the model's own manual entries and keeps no other;
    # fitting prepared them already, so equal entries add none.
    assert set(entries) == before | set(model.manuals.values())
    if before:
        assert set(entries) == before
    want = oracles.reference_evaluate(model, cases, ks)
    assert metrics_json(got) == metrics_json(want)

    if name in WITHOUT_MANUAL:
        missing = set(model.label_space.headings) - set(model.manuals)
        assert any(
            r.predicted_headings[0] in missing and r.retrieval_precision is not None
            for r in got.per_case
        )
    if MODES[name].get("train_ablation"):
        assert got.ablation_subheading_top_k is not None
    assert got.retrieval_precision is not None


@pytest.mark.parametrize("n", [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1])
def test_evaluate_equals_the_reference_around_chunk_bounds(mode, cases, n):
    _, model = mode
    cases = [cases[i % len(cases)] for i in range(n)]
    got = evaluate_pipeline(model, cases, (1, 2, 20))
    assert len(got.per_case) == n
    assert metrics_json(got) == metrics_json(oracles.reference_evaluate(model, cases, (1, 2, 20)))


def test_word_matching_chunk_orders_ties_and_empty_rows_by_ascending_heading():
    manuals = {
        "8541": ManualEntry("8541", ("diodes and cells",)),
        "8501": ManualEntry("8501", ("motors and cells",)),
        "8528": ManualEntry("8528", ("monitors",)),
        "8504": ManualEntry("8504", ("diodes and motors",)),
    }
    descriptions = [
        "cells",  # 8501 and 8541 tie at 1, 8504 and 8528 at 0
        "the of and",  # no content token: a zero row
        "diodes motors",  # 8504 scores 1, 8501 and 8541 tie at 1/2
        "",
        "widgets",  # a content token that no manual holds: a zero row
    ]
    tokens = {h: [t for s in e.sentences for t in tokenize(s)] for h, e in manuals.items()}
    headings, postings = _word_index(tokens)
    order, scores = _word_matching_rankings(
        [tokenize(d) for d in descriptions], postings, len(headings), DEFAULT_STOPWORDS
    )
    assert order.shape == scores.shape == (len(descriptions), len(headings))
    for description, row_order, row_scores in zip(descriptions, order, scores):
        got = [(headings[i], float(row_scores[i])) for i in row_order.tolist()]
        assert got == oracles.word_matching_reference(description, manuals)
    for row in (1, 3, 4):
        assert order[row].tolist() == [0, 1, 2, 3]
        assert scores[row].tobytes() == bytes(8 * len(headings))  # +0.0, not -0.0
    assert [headings[i] for i in order[0].tolist()] == ["8501", "8541", "8504", "8528"]
    assert [headings[i] for i in order[2].tolist()] == ["8504", "8501", "8541", "8528"]


@pytest.fixture
def index_builds(monkeypatch):
    """The number of baseline indexes built while the test runs."""
    builds = []
    monkeypatch.setattr(
        pipeline, "_word_index", lambda tokens, f=_word_index: builds.append(1) or f(tokens)
    )
    return builds


def test_repeated_evaluation_builds_the_baseline_index_once(mode, cases, index_builds):
    # A replace copy starts without the index the module's model may hold.
    model = replace(mode[1])
    first = metrics_json(evaluate_pipeline(model, cases))
    for chunk in (cases[:40], cases[40:]):
        got = evaluate_pipeline(model, chunk)
        assert metrics_json(got) == metrics_json(oracles.reference_evaluate(model, chunk))
    assert metrics_json(evaluate_pipeline(model, cases)) == first
    assert len(index_builds) == 1


def test_a_replace_copy_builds_its_own_baseline_index(mode, cases, index_builds):
    model = replace(mode[1])
    evaluate_pipeline(model, cases)
    # Without its first heading's manual entry, the copy's baseline ranks one
    # heading fewer; the original's index would still rank it.
    manuals = dict(model.manuals)
    del manuals[min(manuals)]
    copy = replace(model, manuals=manuals)
    got = evaluate_pipeline(copy, cases)
    assert len(index_builds) == 2
    assert copy.word_index is not model.word_index
    assert copy.word_index[0] == sorted(manuals)
    assert metrics_json(got) == metrics_json(oracles.reference_evaluate(copy, cases))
    assert metrics_json(evaluate_pipeline(model, cases)) == metrics_json(
        oracles.reference_evaluate(model, cases)
    )
    assert len(index_builds) == 2
