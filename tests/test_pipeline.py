"""End-to-end pipeline: fit, predict, report, checkpointing, ablation."""

from __future__ import annotations

import copy
import json
import re
import warnings
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from hsclassify.alignment import KeySentenceRetriever
from hsclassify.calibration import TEMPERATURE_BOUNDS, TemperatureScaler
from hsclassify.case_retrieval import CaseIndex, _snippet
from hsclassify.classifier import SoftmaxClassifier, TrainConfig
from hsclassify.corpus import ManualEntry, chronological_split, parse_hs_code
from hsclassify.encoder import PooledEncoder
from hsclassify.errors import (
    BadK,
    DimensionMismatch,
    EmptyInput,
    MissingManualWarning,
    TemperatureBoundWarning,
    UntrainedModel,
)
from hsclassify import alignment, evaluation, pipeline, textproc
from hsclassify.evaluation import evaluate_pipeline
from hsclassify.pipeline import (
    CandidateReport,
    PipelineConfig,
    PipelineModel,
    _fit_scaler,
    _from_dict,
    _ranked,
    fit,
    load_pipeline,
    refit_temperatures,
    save_pipeline,
)
from hsclassify.synth import SynthConfig, generate

import oracles
from conftest import (
    drop_first_case_id,
    edit_checkpoint_arrays,
    make_case,
    rehash_checkpoint,
    retrieve,
)

SMALL = SynthConfig(
    headings=6,
    subheadings_per_heading=2,
    train_per_subheading=12,
    validation_per_subheading=3,
    test_per_subheading=3,
    vector_dimension=24,
    seed=11,
)

FAST_TRAIN = dict(
    heading_train=TrainConfig(epochs=30, learning_rate=0.5, seed=0),
    subheading_train=TrainConfig(epochs=30, learning_rate=0.5, seed=1),
)


@pytest.fixture(scope="module")
def small_corpus():
    corpus = generate(SMALL)
    split = chronological_split(corpus.cases)
    return corpus, split


@pytest.fixture(scope="module")
def model(small_corpus):
    corpus, split = small_corpus
    config = PipelineConfig(**FAST_TRAIN)
    return fit(split.train, split.validation, corpus.manual, corpus.vectors, config=config)


class TestFit:
    def test_validation_heading_accuracy_high(self, model):
        report = model.fit_report
        assert max(report.heading.val_accuracies) >= 0.95

    def test_training_case_memorized(self, model, small_corpus):
        _, split = small_corpus
        case = split.train[0]
        report = model.predict(case.description, k=3)
        assert case.label.heading in [c.heading for c in report.heading_candidates]
        assert case.label.subheading in [c.subheading for c in report.subheading_candidates]

    def test_single_case_degenerate_fit(self):
        case = make_case("only", description="solar panel cells", code="854140")
        manuals = {"8541": ManualEntry("8541", ("solar panel cells and diodes",))}
        from hsclassify.textproc import WordVectorTable

        vectors = WordVectorTable(
            {"solar": [1.0, 0.0], "panel": [0.0, 1.0], "cells": [1.0, 1.0], "diodes": [0.5, 0.0]}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pipeline = fit(
                [case],
                [],
                manuals,
                vectors,
                config=PipelineConfig(
                    heading_train=TrainConfig(epochs=5), subheading_train=TrainConfig(epochs=5)
                ),
            )
        report = pipeline.predict(case.description, k=1)
        assert report.heading_candidates[0].heading == "8541"
        assert report.subheading_candidates[0].subheading == "854140"

    def test_missing_manual_falls_back_to_description(self, small_corpus):
        corpus, split = small_corpus
        manuals = dict(corpus.manual)
        dropped = split.train[0].label.heading
        del manuals[dropped]
        count = sum(1 for case in split.train if case.label.heading == dropped)
        message = (
            f"no manual entry for gold heading {dropped}; its {count} training cases train "
            "on the description alone"
        )
        with pytest.warns(MissingManualWarning) as record:
            fit(
                split.train,
                split.validation,
                manuals,
                corpus.vectors,
                config=PipelineConfig(**FAST_TRAIN),
            )
        missing = [str(w.message) for w in record if w.category is MissingManualWarning]
        assert missing == [message]

    def test_evidence_vectors_equal_encoding_of_joined_text(self, model, small_corpus):
        # Pooled from the retriever's prepared sentence parts, bit for bit the
        # token-by-token encoding of the description and key sentences joined.
        _, split = small_corpus
        encoder = model.retriever.encoder
        index = {
            case_id: row
            for bucket in model.case_index.by_subheading.values()
            for case_id, row in zip(bucket.ids, bucket.embeddings)
        }
        for case in split.train:
            entry = model.manuals[case.label.heading]
            evidence = retrieve(model.retriever, case.description, entry).sentence_texts()
            want = oracles.joined_encode_with_evidence(encoder, case.description, evidence)
            assert index[case.id].tobytes() == want.tobytes()
        for case in split.test:
            trace = next(model.infer_many([case.description]))
            evidence = trace.retrievals[0].sentence_texts()
            want = oracles.joined_encode_with_evidence(encoder, case.description, evidence)
            assert trace.stage3_vector.tobytes() == want.tobytes()

    def test_empty_train_rejected(self, small_corpus):
        corpus, _ = small_corpus
        with pytest.raises(EmptyInput):
            fit([], [], corpus.manual, corpus.vectors)


class TestPredict:
    def test_k_one_report_shape(self, model):
        report = model.predict("anything at all", k=1)
        assert len(report.heading_candidates) == 1
        assert len(report.subheading_candidates) == 1

    def test_k_validated(self, model):
        with pytest.raises(BadK):
            model.predict("anything", k=0)

    def test_k_clamped_to_label_space(self, model):
        report = model.predict("anything", k=500)
        assert len(report.heading_candidates) == len(model.label_space.headings)
        assert len(report.subheading_candidates) == len(model.label_space.subheadings)

    def test_missing_manual_flagged_in_report(self, small_corpus, model):
        corpus, split = small_corpus
        victim = model.label_space.headings[0]
        saved = model.manuals.pop(victim)
        try:
            case = next(c for c in split.train if c.label.heading == victim)
            report = model.predict(case.description, k=3)
            flagged = {c.heading: c for c in report.heading_candidates}
            assert victim in flagged
            assert flagged[victim].manual_missing
            assert flagged[victim].key_sentences == []
        finally:
            model.manuals[victim] = saved

    def test_counts_within_template_bounds(self, model, small_corpus):
        _, split = small_corpus
        for case in split.test[:5]:
            report = model.predict(case.description, k=3)
            assert len(report.heading_candidates) == 3
            assert len(report.subheading_candidates) == 3
            for heading in report.heading_candidates:
                assert 0 <= len(heading.key_sentences) <= 7
            for sub in report.subheading_candidates:
                assert 0 <= len(sub.similar_cases) <= 3

    def test_scores_sorted_and_in_unit_interval(self, model, small_corpus):
        _, split = small_corpus
        report = model.predict(split.test[0].description, k=3)
        for candidates in (report.heading_candidates, report.subheading_candidates):
            scores = [c.score for c in candidates]
            assert scores == sorted(scores, reverse=True)
            assert all(0.0 <= s <= 1.0 for s in scores)

    def test_predict_is_deterministic(self, model, small_corpus):
        _, split = small_corpus
        description = split.test[1].description
        assert model.predict(description, k=3) == model.predict(description, k=3)

    def test_calibration_preserves_ranking(self, model, small_corpus):
        _, split = small_corpus
        description = split.test[2].description
        logits = next(model.infer_many([description])).heading_logits
        raw_order = list(np.argsort(-logits, kind="stable"))
        report = model.predict(description, k=3)
        calibrated = [model.label_space.heading_index[c.heading] for c in report.heading_candidates]
        assert calibrated == [int(i) for i in raw_order[:3]]

    def test_evidence_comes_from_predicted_heading_manual(self, model, small_corpus):
        corpus, split = small_corpus
        report = model.predict(split.test[0].description, k=3)
        for candidate in report.heading_candidates:
            entry = corpus.manual[candidate.heading]
            assert all(s in entry.sentences for s in candidate.key_sentences)


class TestCandidateReport:
    def test_structured_roundtrip(self, model, small_corpus):
        _, split = small_corpus
        report = model.predict(split.test[0].description, k=3)
        assert report.to_dict() == asdict(report)
        parsed = _from_dict(CandidateReport, json.loads(json.dumps(report.to_dict())))
        assert parsed == report

    def test_text_rendering_shape(self, model, small_corpus):
        _, split = small_corpus
        report = model.predict(split.test[0].description, k=3)
        text = report.render_text()
        assert text.startswith("Input: ")
        assert "Heading candidates:" in text
        assert "Subheading candidates:" in text
        for candidate in report.heading_candidates:
            assert f"{candidate.score:.4f}" in text


class TestRanked:
    """The one ranking rule: descending probability, ties to the lower index."""

    def test_full_k_is_permutation(self):
        assert _ranked(np.array([0.2, 0.5, 0.3])).tolist() == [1, 2, 0]

    def test_example_ordering(self):
        assert _ranked(np.array([0.1, 0.6, 0.3]))[:2].tolist() == [1, 2]

    def test_tie_breaks_to_lower_index(self):
        probs = np.array([0.1, 0.2, 0.25, 0.2, 0.25])
        assert _ranked(probs).tolist() == [2, 4, 1, 3, 0]

    def test_a_chunk_ranks_each_row_as_alone(self):
        rng = np.random.default_rng(11)
        chunk = rng.choice([0.0, 0.125, 0.25], size=(9, 6))
        ranked = _ranked(chunk)
        for row, order in zip(chunk, ranked):
            assert order.tolist() == _ranked(row).tolist()

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_sorted_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        # Few distinct values, zeros among them, so exact ties are common.
        probs = rng.choice([0.0, 0.125, 0.25, float(rng.uniform())], size=n)
        reference = sorted(range(n), key=lambda i: (-probs[i], i))
        assert _ranked(probs).tolist() == reference


class TestCheckpoint:
    def test_save_load_predict_identical(self, model, small_corpus, tmp_path):
        _, split = small_corpus
        save_pipeline(model, tmp_path / "ckpt")
        loaded = load_pipeline(tmp_path / "ckpt")
        for case in split.test[:4]:
            assert loaded.predict(case.description, k=3) == model.predict(case.description, k=3)

    def test_load_gives_the_saved_tables(self, model, tmp_path, monkeypatch):
        save_pipeline(model, tmp_path / "ckpt")
        units = Counter()
        build = textproc._unit_table
        monkeypatch.setattr(textproc, "_unit_table", lambda m: units.update(["unit"]) or build(m))
        loaded = load_pipeline(tmp_path / "ckpt")
        # One unit table per model, held by the encoder the retriever reads.
        assert units == {"unit": 1}
        saved, table = model.retriever.encoder.vectors, loaded.retriever.encoder.vectors
        assert table.tokens() == sorted(saved.tokens())
        order = [saved.index[t] for t in table.tokens()]
        assert table.matrix.tobytes() == saved.matrix[order].tobytes()
        assert table.unit_rows.tobytes() == saved.unit_rows[[*order, -1]].tobytes()
        weights = loaded.retriever.encoder.weights
        assert weights.tobytes() == model.retriever.encoder.weights[[*order, -1]].tobytes()

    def test_resave_is_byte_identical(self, model, tmp_path):
        save_pipeline(model, tmp_path / "a")
        save_pipeline(model, tmp_path / "b")
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_checkpoint_structure(self, model, tmp_path):
        save_pipeline(model, tmp_path / "ckpt")
        names = {p.name for p in (tmp_path / "ckpt").iterdir()}
        assert names == {
            "manifest.json",
            "heading_classifier.npz",
            "subheading_classifier.npz",
            "case_index.npz",
            "idf.npz",
            "vectors.npz",
            "stopwords.txt",
            "manual.jsonl",
        }
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        assert manifest["format_version"] == 7
        assert set(manifest["files"]) == names - {"manifest.json"}
        assert "config_hashes" not in manifest

    def test_benchmark_checkpoint_metrics_name_saved_files(self, model, tmp_path):
        # The benchmark names one size metric after each checkpoint file stem.
        bench = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
        prefix = "pipeline.checkpoint."
        named = {m["name"][len(prefix): -len("_mb")] for m in bench["per_layer"]
                 if m["name"].startswith(prefix)}
        save_pipeline(model, tmp_path / "ckpt")
        assert named and named <= {p.name.rsplit(".", 1)[0] for p in (tmp_path / "ckpt").iterdir()}

    def test_readme_table_names_the_saved_files(self, model, ablation_model, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        assert f"(`format_version` {pipeline.CHECKPOINT_FORMAT})" in readme
        table = readme.split("| file | holds |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
        named = {name for row in table.splitlines()
                 for name in re.findall(r"`(\w+\.\w+)`", row.split("|")[1])}
        saved = {}
        for label, fitted in (("plain", model), ("ablation", ablation_model)):
            save_pipeline(fitted, tmp_path / label)
            saved[label] = {p.name for p in (tmp_path / label).iterdir()}
        assert named == saved["ablation"]
        assert named - {"ablation_classifier.npz"} == saved["plain"]

    def test_missing_checkpoint_raises_untrained(self, tmp_path):
        with pytest.raises(UntrainedModel):
            load_pipeline(tmp_path / "nowhere")

    def test_incomplete_checkpoint_raises_untrained(self, model, tmp_path):
        save_pipeline(model, tmp_path / "ckpt")
        (tmp_path / "ckpt" / "case_index.npz").unlink()
        with pytest.raises(UntrainedModel, match="case_index.npz"):
            load_pipeline(tmp_path / "ckpt")

    def test_case_index_row_counts_checked_at_load(self, model, tmp_path):
        save_pipeline(model, tmp_path / "ckpt")
        edit_checkpoint_arrays(tmp_path / "ckpt", "case_index.npz", drop_first_case_id)
        with pytest.raises(DimensionMismatch, match="case_index.npz: row counts"):
            load_pipeline(tmp_path / "ckpt")

    def test_ids_and_snippets_stored_as_utf8_bytes_round_trip(self, model, tmp_path):
        buckets = sorted(model.case_index.by_subheading.items())
        sizes = {sub: len(bucket.ids) for sub, bucket in buckets}
        embeddings = np.concatenate([bucket.embeddings for _, bucket in buckets])
        rows = len(embeddings)
        snippets = [_snippet(f"Câble n°{i} « façade » ☃ " * 8) for i in range(rows)]
        snippets[:3] = ["", "lone \ud800 surrogate", "plain"]
        assert snippets[-1].endswith("…")
        ids = [f"décision-{i}-☃" for i in range(rows)]
        ids[:3] = ["", "lone \udfff", "plain"]
        index = CaseIndex.from_sizes(sizes, ids, snippets, embeddings)
        save_pipeline(replace(model, case_index=index), tmp_path / "ckpt")
        with np.load(tmp_path / "ckpt" / "case_index.npz", allow_pickle=False) as arrays:
            assert arrays["snippets"].dtype == arrays["ids"].dtype == np.uint8
        loaded = load_pipeline(tmp_path / "ckpt").case_index.by_subheading
        assert [s for b in loaded.values() for s in b.snippets] == snippets
        assert [i for b in loaded.values() for i in b.ids] == ids

    def test_no_saved_array_is_fixed_width_text(self, ablation_model, tmp_path):
        # A str array stores 4 bytes per character of its longest item.
        save_pipeline(ablation_model, tmp_path / "ckpt")
        for path in sorted((tmp_path / "ckpt").glob("*.npz")):
            with np.load(path, allow_pickle=False) as arrays:
                kinds = {name: arrays[name].dtype.kind for name in arrays.files}
            assert "U" not in kinds.values(), (path.name, kinds)

    @pytest.mark.parametrize("column, what", [("snippets", "case snippet"), ("ids", "case id")])
    def test_snippet_or_case_id_with_a_newline_is_not_saved(self, model, tmp_path, column, what):
        # Saved newline-joined, either would load back as two.
        buckets = dict(model.case_index.by_subheading)
        subheading, bucket = next(iter(buckets.items()))
        buckets[subheading] = replace(bucket, **{column: ["a\nb", *getattr(bucket, column)[1:]]})
        index = CaseIndex(buckets, model.case_index.dimension)
        with pytest.raises(ValueError, match=f"a {what} contains a newline"):
            save_pipeline(replace(model, case_index=index), tmp_path / "ckpt")

    def test_token_with_a_newline_is_not_saved(self, model, tmp_path):
        saved = model.retriever
        table = saved.encoder.vectors
        vectors = textproc.WordVectorTable.from_rows(
            [*table.tokens(), "x\ny"], np.vstack([table.matrix, table.matrix[:1]])
        )
        encoder = PooledEncoder(vectors, np.append(saved.encoder.weights[:-1], 1.0))
        retriever = KeySentenceRetriever(encoder, saved.stopwords, saved.config)
        with pytest.raises(ValueError, match="a vocabulary token contains a newline"):
            save_pipeline(replace(model, retriever=retriever), tmp_path / "ckpt")

    def test_stopword_with_a_newline_is_not_saved(self, model, tmp_path):
        # Saved newline-joined, "zzz\nthe" would load back as two stopwords.
        saved = model.retriever
        retriever = KeySentenceRetriever(saved.encoder, saved.stopwords | {"zzz\nthe"}, saved.config)
        with pytest.raises(ValueError, match="newline"):
            save_pipeline(replace(model, retriever=retriever), tmp_path / "ckpt")

    @pytest.mark.parametrize(
        "edit, message",
        [
            ("one_snippet_too_few", "case_index.npz: row counts"),
            ("str_snippets", "case_index.npz: ValueError: snippets must be one array of UTF-8"),
        ],
    )
    def test_snippet_column_checked_at_load(self, model, tmp_path, edit, message):
        def edited(arrays):
            data = arrays["snippets"].tobytes()
            if edit == "one_snippet_too_few":
                snippets = np.frombuffer(data[: data.rindex(b"\n")], dtype=np.uint8)
            else:
                snippets = np.array(data.decode().split("\n"))
            return {**arrays, "snippets": snippets}

        save_pipeline(model, tmp_path / "ckpt")
        edit_checkpoint_arrays(tmp_path / "ckpt", "case_index.npz", edited)
        with pytest.raises((DimensionMismatch, UntrainedModel), match=message):
            load_pipeline(tmp_path / "ckpt")

    @pytest.mark.parametrize("name, column", [("case_index.npz", "ids"), ("vectors.npz", "tokens")])
    @pytest.mark.parametrize("edit", ["str_array", "not_utf8"])
    def test_text_columns_checked_at_load(self, model, tmp_path, name, column, edit):
        def edited(arrays):
            data = arrays[column].tobytes()
            if edit == "str_array":
                return {**arrays, column: np.array(data.decode().split("\n"))}
            return {**arrays, column: np.frombuffer(b"\xff" + data[1:], dtype=np.uint8)}

        save_pipeline(model, tmp_path / "ckpt")
        edit_checkpoint_arrays(tmp_path / "ckpt", name, edited)
        message = {"str_array": f"ValueError: {column} must be one array of UTF-8 bytes",
                   "not_utf8": "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff"}[edit]
        with pytest.raises(UntrainedModel, match=f"{name}: {message}"):
            load_pipeline(tmp_path / "ckpt")

    def test_case_index_norms_are_each_rows_norm(self, model, tmp_path):
        save_pipeline(model, tmp_path / "ckpt")
        loaded = load_pipeline(tmp_path / "ckpt").case_index.by_subheading.values()
        for bucket in [*model.case_index.by_subheading.values(), *loaded]:
            assert [n.hex() for n in bucket.norms] == [
                np.linalg.norm(row).hex() for row in bucket.embeddings
            ]

    def test_load_keeps_case_index_buckets_as_views(self, model, tmp_path):
        save_pipeline(model, tmp_path / "ckpt")
        loaded = load_pipeline(tmp_path / "ckpt").case_index.by_subheading.values()
        matrices = [bucket.embeddings for bucket in loaded]
        assert all(m.base is not None and m.base is matrices[0].base for m in matrices)
        saved = model.case_index.by_subheading.values()
        assert [b.ids for b in loaded] == [b.ids for b in saved]
        assert [b.snippets for b in loaded] == [b.snippets for b in saved]

    def test_case_index_of_other_dimension_rejected_at_load(self, model, tmp_path):
        def unit_prefix(arrays):
            # The first 5 components of each row, at unit length again.
            rows = arrays["embeddings"][:, :5]
            norms = np.linalg.norm(rows, axis=1, keepdims=True)
            unit = np.divide(rows, norms, out=np.zeros_like(rows), where=norms > 0.0)
            return {**arrays, "embeddings": unit}

        save_pipeline(model, tmp_path / "ckpt")
        edit_checkpoint_arrays(tmp_path / "ckpt", "case_index.npz", unit_prefix)
        with pytest.raises(DimensionMismatch, match="case index dimension 5"):
            load_pipeline(tmp_path / "ckpt")

    def test_resigned_arrays_are_parsed_without_pickles(self, model, tmp_path):
        save_pipeline(model, tmp_path / "ckpt")
        edit_checkpoint_arrays(
            tmp_path / "ckpt",
            "heading_classifier.npz",
            lambda arrays: {key: np.array([object()], dtype=object) for key in arrays},
        )
        with pytest.raises(UntrainedModel, match="heading_classifier.npz: ValueError"):
            load_pipeline(tmp_path / "ckpt")

    @pytest.mark.parametrize(
        "section, key, value",
        [(None, "similar_cases_per_candidate", 1), ("retrieval", "max_sentences", 2)],
    )
    def test_edited_config_rejected_at_load(self, model, tmp_path, section, key, value):
        save_pipeline(model, tmp_path / "ckpt")
        path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(path.read_text())
        config = manifest["config"] if section is None else manifest["config"][section]
        config[key] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(UntrainedModel, match="manifest.json"):
            load_pipeline(tmp_path / "ckpt")

    @pytest.mark.parametrize("head", ["without", "with"])
    def test_ablation_head_and_temperature_load_together(
        self, model, ablation_model, tmp_path, head
    ):
        # A re-signed manifest whose ablation temperature disagrees with its head files.
        checkpoint = tmp_path / "ckpt"
        save_pipeline(ablation_model if head == "with" else model, checkpoint)
        path = checkpoint / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["ablation_temperature"] = None if head == "with" else 1.0
        path.write_text(json.dumps(manifest))
        rehash_checkpoint(checkpoint)
        message = f"{re.escape(str(checkpoint))}: ValueError: an ablation head needs"
        with pytest.raises(UntrainedModel, match=message):
            load_pipeline(checkpoint)

    def test_mismatched_assembly_rejected(self, model):
        bad = SoftmaxClassifier(
            np.zeros((model.heading_classifier.input_dimension + 1, 2)),
            np.zeros(2),
            ["8501", "8502"],
        )
        with pytest.raises(DimensionMismatch):
            type(model)(**{**model.__dict__, "heading_classifier": bad})

    def test_case_index_bound_to_the_subheading_label_space(self, model):
        # A report only reads buckets of label-space subheadings, and a
        # checkpoint stores one bucket size per label-space subheading.
        buckets = dict(model.case_index.by_subheading)
        buckets["999999"] = next(iter(buckets.values()))
        index = CaseIndex(buckets, model.case_index.dimension)
        with pytest.raises(ValueError, match=r"outside the subheading label space: \['999999'\]"):
            replace(model, case_index=index)


class TestRefitTemperatures:
    def test_refit_matches_fit_temperatures(self, model, small_corpus):
        _, split = small_corpus
        before = (model.heading_scaler.temperature, model.subheading_scaler.temperature)
        refit_temperatures(model, list(split.validation))
        after = (model.heading_scaler.temperature, model.subheading_scaler.temperature)
        assert after[0] == pytest.approx(before[0], rel=1e-6)
        assert after[1] == pytest.approx(before[1], rel=1e-6)

    @pytest.mark.parametrize("validation", ["empty", "unknown codes"])
    def test_no_usable_case_keeps_each_stage_temperature(
        self, ablation_model, small_corpus, validation
    ):
        _, split = small_corpus
        unknown = parse_hs_code("999999")
        cases = [] if validation == "empty" else [replace(c, label=unknown) for c in split.validation]
        stages = ("heading_scaler", "subheading_scaler", "ablation_scaler")
        fitted = [getattr(ablation_model, stage).temperature for stage in stages]
        assert all(t != 1.0 for t in fitted)
        refitted = copy.copy(ablation_model)
        with pytest.warns(UserWarning, match="no usable validation cases; the temperature is kept"):
            refit_temperatures(refitted, cases)
        assert [getattr(refitted, stage).temperature for stage in stages] == fitted

    # Right labels with a margin want T -> 0, wrong ones T -> infinity.
    @pytest.mark.parametrize("labels, bound", [([0, 1], 0.05), ([1, 0], 20.0)])
    def test_a_temperature_at_a_search_bound_warns(self, labels, bound):
        assert bound in TEMPERATURE_BOUNDS
        logits = [np.array([4.0, 0.0]), np.array([0.0, 4.0])]
        match = rf"^subheading stage: the fitted temperature [\d.]+ is at the search bound {bound}$"
        with pytest.warns(TemperatureBoundWarning, match=match):
            scaler = _fit_scaler(logits, labels, TemperatureScaler(), "subheading")
        assert scaler.temperature == pytest.approx(bound, rel=1e-4)

    def test_a_temperature_inside_the_bounds_is_silent(self):
        logits = [np.array([2.0, 0.0]), np.array([2.0, 0.0]), np.array([0.0, 2.0])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaler = _fit_scaler(logits, [0, 1, 1], TemperatureScaler(), "heading")
        assert TEMPERATURE_BOUNDS[0] * 1.01 < scaler.temperature < TEMPERATURE_BOUNDS[1] / 1.01


class TestSinglePass:
    """Each stage runs once per batch of descriptions, pinned by counting calls."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()

        def count(owner, name, key, items=None):
            original = getattr(owner, name)

            def counted(self, *args, **kwargs):
                counts[key(self)] += 1
                if items is not None:
                    counts[items] += len(args[0])  # queries or groups in the batch
                return original(self, *args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(KeySentenceRetriever, "retrieve_many", lambda _: "retrieve_many", "queries")
        count(PooledEncoder, "pool_many", lambda _: "pool_many", "pooled")
        # Heading labels have 4 digits, subheading labels 6.
        count(SoftmaxClassifier, "logits", lambda clf: f"logits{len(clf.labels[0])}")
        return counts

    def test_predict(self, model, small_corpus, calls):
        _, split = small_corpus
        report = model.predict(split.test[0].description, k=3)
        assert report.heading_candidates[0].key_sentences
        assert calls == {
            "retrieve_many": 3, "queries": 3, "pool_many": 2, "pooled": 2, "logits4": 1, "logits6": 1
        }

    def test_evaluate_with_ablation_head(self, ablation_model, small_corpus, calls):
        _, split = small_corpus
        cases = list(split.test)
        traces = list(ablation_model.infer_many([c.description for c in cases]))
        with_evidence = sum(1 for trace in traces if trace.retrievals[0].indices)
        top_headings = {trace.ranked_headings[0] for trace in traces}
        calls.clear()
        evaluate_pipeline(ablation_model, cases)
        # One batch: each stage runs once for all cases, and each top heading's
        # manual entry is retrieved from once, for every case it tops.
        assert len(cases) <= pipeline.CHUNK_ROWS
        assert calls == {
            "retrieve_many": len(top_headings),
            "queries": len(cases),
            "pool_many": 2,
            "pooled": len(cases) + with_evidence,
            "logits4": 1,
            "logits6": 2,
        }

    def test_evaluate_tokenizes_each_text_once_and_builds_no_report(
        self, model, small_corpus, monkeypatch
    ):
        _, split = small_corpus
        cases = list(split.test)
        gold = [s for c in cases for s in c.gold_evidence or ()]
        # A manual sentence is gold evidence for many cases.
        assert len(set(gold)) < len(gold)
        calls = Counter()
        tokenized = Counter()
        for module in (pipeline, alignment, evaluation):
            original = module.tokenize
            monkeypatch.setattr(
                module, "tokenize", lambda text, f=original: tokenized.update([text]) or f(text)
            )
        similar = pipeline.similar_cases
        monkeypatch.setattr(
            pipeline, "similar_cases", lambda *a: calls.update(["similar_cases"]) or similar(*a)
        )
        report = PipelineModel.report
        monkeypatch.setattr(
            PipelineModel, "report", lambda *a: calls.update(["report"]) or report(*a)
        )
        # The fitted model prepared every manual entry, so manual sentences
        # are not tokenized; a description once, each distinct gold evidence
        # sentence once, however many cases it is gold for.
        evaluate_pipeline(model, cases)
        assert tokenized == Counter([c.description for c in cases] + list(set(gold)))
        assert calls == {}

    def test_refit_temperatures(self, model, small_corpus, calls):
        _, split = small_corpus
        descriptions = [c.description for c in split.validation]
        top_headings = {trace.ranked_headings[0] for trace in model.infer_many(descriptions)}
        calls.clear()
        refit_temperatures(copy.copy(model), list(split.validation))
        assert len(descriptions) <= pipeline.CHUNK_ROWS
        assert calls["retrieve_many"] == len(top_headings)
        assert calls["queries"] == len(descriptions)
        assert calls["logits4"] == calls["logits6"] == 1
        assert calls["pool_many"] == 2

    def test_repeat_predict_tokenizes_once(
        self, model, small_corpus, calls, monkeypatch
    ):
        def count(module, name):
            original = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, counted)

        _, split = small_corpus
        description = split.test[0].description
        model.predict(description, k=3)  # the first retrieval from an entry tokenizes it
        calls.clear()
        for module in (pipeline, alignment):
            count(module, "tokenize")
        count(textproc, "_unit_table")
        report = model.predict(description, k=3)
        # One tokenization shared by 3 retrievals, whose keyword rows are
        # gathered from the model's unit table: no row is normalised.
        assert calls["tokenize"] == 1 and calls["_unit_table"] == 0
        assert calls["retrieve_many"] == calls["queries"] == 3
        m = model.config.similar_cases_per_candidate
        assert all(len(c.similar_cases) == m for c in report.subheading_candidates)

    def test_fit_encodes_each_training_case_at_most_twice(self, small_corpus, calls):
        # x1 and description+evidence per training case, pooled per gold
        # heading; x1, then description+evidence along the inference path per
        # validation case.
        corpus, split = small_corpus
        config = PipelineConfig(**FAST_TRAIN)
        model = fit(split.train, split.validation, corpus.manual, corpus.vectors, config=config)
        assert calls["pooled"] <= 2 * len(split.train) + 2 * len(split.validation)
        assert calls["pool_many"] == 2 * len(model.label_space.headings) + 2

    @pytest.fixture
    def built(self, monkeypatch):
        """Counts of the results' keyword sets built.

        A result's keyword views build their sets with ``set``, so counting
        the calls of ``alignment.set`` counts them.
        """
        counts = Counter()

        def counted_set(*args):
            counts["keyword sets"] += 1
            return set(*args)

        monkeypatch.setattr(alignment, "set", counted_set, raising=False)
        return counts

    def test_fit_and_calibration_build_no_keyword_set(self, small_corpus, built):
        corpus, split = small_corpus
        model = fit(split.train, split.validation, corpus.manual, corpus.vectors,
                    config=PipelineConfig(**FAST_TRAIN))
        refit_temperatures(model, list(split.validation))
        assert built == {}
        # The views build them, on each read.
        (trace,) = model.infer_many([split.test[0].description])
        result = trace.retrievals[0]
        assert result.indices
        assert result.covered_keywords
        assert built == {"keyword sets": 1}

    def test_evaluate_and_predict_build_no_keyword_set(self, model, small_corpus, built):
        _, split = small_corpus
        cases = list(split.test)
        assert any(case.gold_evidence for case in cases)
        metrics = evaluate_pipeline(model, cases)
        assert metrics.retrieval_precision is not None
        report = model.predict(split.test[0].description, k=3)
        assert report.heading_candidates[0].key_sentences
        assert built == {}

    @pytest.fixture
    def aligned(self, monkeypatch):
        """Each retrieval call's query keywords and the rows it aligned (None: no call)."""
        records = []
        retrieve_many = KeySentenceRetriever.retrieve_many
        best_alignments = alignment._PreparedEntry.best_alignments

        def recording_retrieve(self, queries, entry):
            records.append([[query.ordered for query in queries], None])
            return retrieve_many(self, queries, entry)

        def recording_alignments(self, keyword_rows):
            records[-1][1] = len(keyword_rows)
            return best_alignments(self, keyword_rows)

        monkeypatch.setattr(KeySentenceRetriever, "retrieve_many", recording_retrieve)
        monkeypatch.setattr(alignment._PreparedEntry, "best_alignments", recording_alignments)
        return records

    @pytest.fixture
    def pooled(self, monkeypatch):
        """Each ``pool_many`` call's groups and leading sums (None: no lead)."""
        records = []
        pool_many = PooledEncoder.pool_many

        def recording(self, groups, *args, **kwargs):
            lead = args[0] if args else kwargs.get("lead")
            records.append((groups, lead))
            return pool_many(self, groups, *args, **kwargs)

        monkeypatch.setattr(PooledEncoder, "pool_many", recording)
        return records

    @staticmethod
    def assert_stage3_pools_only_evidence(model, pooled):
        # Stage 1 pools each description part alone; stage 3 pools only key
        # sentences' parts, after the descriptions' running sums, one row per group.
        prepared = [model.retriever.prepare(entry) for entry in model.manuals.values()]
        sentence_parts = {id(part) for entry in prepared for part in entry.parts}
        stages = Counter()
        for groups, lead in pooled:
            if lead is None:
                assert all(len(group) == 1 for group in groups)
                assert not any(id(group[0]) in sentence_parts for group in groups)
            else:
                assert lead.shape == (len(groups), model.retriever.encoder.output_dimension + 1)
                assert all(id(part) in sentence_parts for group in groups for part in group)
            stages[lead is None] += 1
        assert stages[True] and stages[False]

    def test_multi_query_calls_align_each_distinct_keyword_once(
        self, small_corpus, aligned, pooled
    ):
        corpus, split = small_corpus
        model = fit(split.train, split.validation, corpus.manual, corpus.vectors,
                    config=PipelineConfig(**FAST_TRAIN))
        fitted = len(aligned)
        evaluate_pipeline(model, list(split.test))
        refit_temperatures(copy.copy(model), list(split.validation))
        shared = Counter()
        for call, (orders, rows) in enumerate(aligned):
            keywords = [t for order in orders for t in order]
            if sum(map(bool, orders)) < 2:
                assert rows == (len(keywords) or None)
                continue
            # Keywords without a vector share the unknown id.
            distinct = {t if t in corpus.vectors else None for t in keywords}
            assert rows == len(distinct)
            shared[call < fitted] += len(distinct) < len(keywords)
        # fit, and evaluate with calibration, each share keywords across queries.
        assert shared[True] and shared[False]
        self.assert_stage3_pools_only_evidence(model, pooled)

    def test_predict_aligns_its_own_keywords_and_pools_evidence_after_the_description(
        self, model, small_corpus, aligned, pooled, monkeypatch
    ):
        _, split = small_corpus
        description = split.test[0].description
        uniques = Counter()
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: uniques.update([1]) or unique(*a, **k))
        report = model.predict(description, k=3)
        assert report.heading_candidates[0].key_sentences
        (query,) = model.retriever.queries([textproc.tokenize(description)])
        assert aligned == [[[query.ordered], len(query.ordered)]] * 3
        assert not uniques
        self.assert_stage3_pools_only_evidence(model, pooled)
        (_, (stage3, lead)) = pooled
        assert [len(group) for group in stage3] == [len(report.heading_candidates[0].key_sentences)]
        # The lead is the description's own running sums.
        (part,) = model.retriever.encoder.parts([textproc.tokenize(description)])
        sums = np.zeros_like(lead)
        model.retriever.encoder.pool_many([[part]], sums_out=sums)
        assert lead.tobytes() == sums.tobytes()

    def test_fit_tokenizes_each_description_once(self, small_corpus, monkeypatch):
        corpus, split = small_corpus
        tokenized = Counter()
        for module in (pipeline, alignment):
            original = module.tokenize
            monkeypatch.setattr(
                module, "tokenize", lambda text, f=original: tokenized.update([text]) or f(text)
            )
        config = PipelineConfig(**FAST_TRAIN, train_ablation=True)
        fit(split.train, split.validation, corpus.manual, corpus.vectors, config=config)
        descriptions = Counter(c.description for c in [*split.train, *split.validation])
        assert {text: tokenized[text] for text in descriptions} == descriptions
        # A manual sentence: once, for the idf weights and its entry's prepared rows.
        sentences = [s for entry in corpus.manual.values() for s in entry.sentences]
        assert len(set(sentences)) == len(sentences)
        assert {tokenized[s] for s in sentences} == {1}

    def test_case_index_holds_stage3_training_vectors(self, small_corpus, monkeypatch):
        corpus, split = small_corpus
        inputs_by_label_length = {}

        def recording_train(inputs, labels, *rest):
            # Heading labels have 4 digits, subheading labels 6.
            inputs_by_label_length[len(rest[-1][0])] = inputs
            return train(inputs, labels, *rest)

        train = pipeline.train
        monkeypatch.setattr(pipeline, "train", recording_train)
        config = PipelineConfig(**FAST_TRAIN)
        model = fit(split.train, split.validation, corpus.manual, corpus.vectors, config=config)
        stage3_inputs = dict(
            zip((c.id for c in split.train), inputs_by_label_length[6], strict=True)
        )
        buckets = model.case_index.by_subheading.values()
        ids = [case_id for bucket in buckets for case_id in bucket.ids]
        assert sorted(ids) == sorted(stage3_inputs)
        # The bytes the subheading head trained on, stacked bucket by bucket.
        stacked = np.concatenate([bucket.embeddings for bucket in buckets])
        assert stacked.tobytes() == np.array([stage3_inputs[i] for i in ids]).tobytes()

    def test_ablation_head_trains_on_the_description_vectors(self, small_corpus, monkeypatch):
        corpus, split = small_corpus
        inputs = []  # (training, validation) inputs of each head, in training order

        def recording_train(x, y, x_val, *rest):
            inputs.append((x, x_val))
            return train(x, y, x_val, *rest)

        train = pipeline.train
        monkeypatch.setattr(pipeline, "train", recording_train)
        config = PipelineConfig(**FAST_TRAIN, train_ablation=True)
        fit(split.train, split.validation, corpus.manual, corpus.vectors, config=config)
        (heading_x, heading_val), (stage3_x, _), (ablation_x, ablation_val) = inputs
        assert ablation_x.tobytes() == heading_x.tobytes()
        assert ablation_val.tobytes() == heading_val.tobytes()
        assert stage3_x.tobytes() != heading_x.tobytes()

    def test_subheading_head_validates_on_the_inference_vectors(self, small_corpus, monkeypatch):
        corpus, split = small_corpus
        val_inputs = {}  # each head's validation inputs, by label length

        def recording_train(x, y, x_val, *rest):
            val_inputs[len(rest[-1][0])] = x_val
            return train(x, y, x_val, *rest)

        train = pipeline.train
        monkeypatch.setattr(pipeline, "train", recording_train)
        # A barely trained heading head, so that it misranks some validation case.
        config = PipelineConfig(
            heading_train=TrainConfig(epochs=1, learning_rate=0.01),
            subheading_train=FAST_TRAIN["subheading_train"],
        )
        model = fit(split.train, split.validation, corpus.manual, corpus.vectors, config=config)
        traces = [next(model.infer_many([case.description])) for case in split.validation]
        gold = [model.label_space.heading_index[c.label.heading] for c in split.validation]
        assert any(t.ranked_headings[0] != g for t, g in zip(traces, gold))
        stage3 = np.array([trace.stage3_vector for trace in traces])
        assert val_inputs[6].tobytes() == stage3.tobytes()


class TestEvaluate:
    def test_memorization_on_train_split(self, model, small_corpus):
        _, split = small_corpus
        metrics = evaluate_pipeline(model, list(split.train[:40]))
        assert metrics.heading_top_k[1] == 1.0

    def test_topk_monotone_both_levels(self, model, small_corpus):
        _, split = small_corpus
        metrics = evaluate_pipeline(model, list(split.test))
        assert metrics.heading_top_k[1] <= metrics.heading_top_k[3] <= metrics.heading_top_k[5]
        assert (
            metrics.subheading_top_k[1]
            <= metrics.subheading_top_k[3]
            <= metrics.subheading_top_k[5]
        )

    def test_schema_keys_for_requested_ks(self, model, small_corpus):
        _, split = small_corpus
        metrics = evaluate_pipeline(model, list(split.test))
        data = metrics.to_dict()
        for key in ("hs4_top1", "hs6_top1", "hs6_top3", "hs6_top5", "baseline_hs4_top1"):
            assert key in data
        assert "hs6_top2" not in data

    def test_gold_evidence_produces_mean_precision_recall(self, model, small_corpus):
        _, split = small_corpus
        metrics = evaluate_pipeline(model, list(split.test))
        assert metrics.retrieval_precision is not None
        assert 0.0 <= metrics.retrieval_precision <= 1.0
        assert 0.0 <= metrics.retrieval_recall <= 1.0

    def test_uniform_model_hits_chance_level(self, model, small_corpus):
        # Uniform probabilities rank classes by index, so top-1 accuracy is
        # exactly the share of gold labels equal to the first class (~1/C on
        # a balanced corpus).
        _, split = small_corpus
        uniform = fitted_with_zero_heads(model)
        metrics = evaluate_pipeline(uniform, list(split.test))
        first_heading = uniform.label_space.headings[0]
        expected = sum(1 for c in split.test if c.label.heading == first_heading) / len(split.test)
        assert metrics.heading_top_k[1] == pytest.approx(expected)
        first_sub = uniform.label_space.subheadings[0]
        expected_sub = sum(1 for c in split.test if c.label.subheading == first_sub) / len(
            split.test
        )
        assert metrics.subheading_top_k[1] == pytest.approx(expected_sub)
        assert metrics.subheading_top_k[1] == pytest.approx(
            1 / len(uniform.label_space.subheadings), abs=0.1
        )

    def test_probability_vectors_are_simplex(self, model, small_corpus):
        _, split = small_corpus
        for case in split.test[:10]:
            for probs in (
                next(model.infer_many([case.description])).heading_probabilities,
                next(model.infer_many([case.description])).subheading_probabilities,
            ):
                assert probs.min() >= 0.0
                assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_evaluate_keeps_no_entry_beyond_the_models_manual(self, model, small_corpus, tmp_path):
        # A loaded model prepares manual entries on first use, and only its own.
        _, split = small_corpus
        save_pipeline(model, tmp_path)
        loaded = load_pipeline(tmp_path)
        assert not loaded.retriever._entries
        for _ in range(2):
            evaluate_pipeline(loaded, list(split.test))
            assert set(loaded.retriever._entries) == set(loaded.manuals.values())

    def test_empty_test_rejected(self, model):
        with pytest.raises(EmptyInput):
            evaluate_pipeline(model, [])

    @pytest.mark.parametrize("ks", [(), (1, -2), (3.5,), (0,), (1, True)])
    def test_bad_ks_rejected_before_inference(self, model, small_corpus, monkeypatch, ks):
        _, split = small_corpus
        inferred = []
        original = PipelineModel.infer_many
        monkeypatch.setattr(
            PipelineModel, "infer_many", lambda *a, **kw: inferred.append(1) or original(*a, **kw)
        )
        with pytest.raises(BadK):
            evaluate_pipeline(model, list(split.test), ks)
        assert not inferred


def fitted_with_zero_heads(model):
    clone = copy.copy(model)
    clone.heading_classifier = SoftmaxClassifier(
        np.zeros_like(model.heading_classifier.weights),
        np.zeros_like(model.heading_classifier.bias),
        model.heading_classifier.labels,
    )
    clone.subheading_classifier = SoftmaxClassifier(
        np.zeros_like(model.subheading_classifier.weights),
        np.zeros_like(model.subheading_classifier.bias),
        model.subheading_classifier.labels,
    )
    return clone


@pytest.fixture(scope="module")
def ablation_model(small_corpus):
    corpus, split = small_corpus
    config = PipelineConfig(**FAST_TRAIN, train_ablation=True)
    return fit(split.train, split.validation, corpus.manual, corpus.vectors, config=config)


class TestVariants:
    def test_ablation_head_reported(self, ablation_model, small_corpus):
        _, split = small_corpus
        metrics = evaluate_pipeline(ablation_model, list(split.test))
        assert metrics.ablation_subheading_top_k is not None
        data = metrics.to_dict()
        assert "ablation_hs6_top1" in data
        table = metrics.render_table()
        assert "pipeline (ablation)" in table

    def test_ablation_head_bound_to_other_labels_refused(self, ablation_model):
        # Its indices are read through the subheading label space, so a head
        # bound to other labels would be misread.
        head = ablation_model.ablation_classifier
        reversed_head = SoftmaxClassifier(head.weights, head.bias, head.labels[::-1])
        with pytest.raises(ValueError, match="ablation classifier is not bound"):
            replace(ablation_model, ablation_classifier=reversed_head)

    def test_tied_subheadings_rank_the_lower_index_first(self, ablation_model, small_corpus):
        # Both stage-3 heads give every description the same logits, equal
        # (so the probabilities tie exactly) for two subheadings a < b. No
        # case is of subheading b, so top-1 accuracy tells the order apart.
        _, split = small_corpus
        labels = ablation_model.label_space.subheadings
        a, b = sorted({labels.index(c.label.subheading) for c in split.test})[:2]
        cases = [c for c in split.test if c.label.subheading != labels[b]]
        gold = Counter(labels.index(c.label.subheading) for c in cases)
        bias = np.zeros(len(labels))
        bias[[a, b]] = 1.0
        dimension = ablation_model.retriever.encoder.output_dimension
        head = SoftmaxClassifier(np.zeros((dimension, len(labels))), bias, labels)
        tied = replace(ablation_model, subheading_classifier=head, ablation_classifier=head)
        want = [labels[i] for i in [a, b, *(i for i in range(len(labels)) if i not in (a, b))]]

        report = tied.predict(cases[0].description, k=len(labels))
        assert [c.subheading for c in report.subheading_candidates] == want
        scores = [c.score for c in report.subheading_candidates]
        assert scores[0] == scores[1] > scores[2] == scores[-1]

        metrics = evaluate_pipeline(tied, cases, ks=(1, 3))
        assert all(record.predicted_subheadings == want[:3] for record in metrics.per_case)
        share = gold[a] / len(cases)
        assert metrics.subheading_top_k[1] == metrics.ablation_subheading_top_k[1] == share
        reference = oracles.reference_evaluate(tied, cases, ks=(1, 3))
        assert reference.ablation_subheading_top_k[1] == share
        assert json.dumps(reference.to_dict()) == json.dumps(metrics.to_dict())
