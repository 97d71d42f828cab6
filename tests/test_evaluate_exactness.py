"""``evaluate_pipeline`` equals the report-based reference, to the bytes of its metrics.

``evaluate_pipeline`` reads each case's rankings, baseline tokens and top
heading's key sentences from one trace inferred with a single retrieval;
``oracles.reference_evaluate`` builds every case's full candidate report and
tokenizes every text again. Both must give the same ``metrics.json``, in
every pipeline mode, for any ``ks``, on the model as fitted, with its
manual replaced by an equal one loaded from file, loaded from a checkpoint,
or with its manual upper-cased; and evaluating prepares the model's own
manual entries and no other. The traces go through BLAS, so CI also runs
this file with ``OPENBLAS_NUM_THREADS=1``.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

import oracles
from hsclassify.alignment import KeySentenceRetriever
from hsclassify.corpus import load_manual
from hsclassify.evaluation import evaluate_pipeline
from hsclassify.pipeline import load_pipeline, save_pipeline

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
        retriever=KeySentenceRetriever(
            retriever.vectors, retriever.idf, retriever.stopwords, retriever.config
        ),
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
