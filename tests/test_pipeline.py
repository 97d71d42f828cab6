"""End-to-end pipeline: fit, predict, report, checkpointing, ablation."""

from __future__ import annotations

import copy
import json
import warnings
from collections import Counter

import numpy as np
import pytest

from hsclassify.alignment import KeySentenceRetriever
from hsclassify.classifier import SoftmaxClassifier, TrainConfig
from hsclassify.corpus import ManualEntry, chronological_split
from hsclassify.encoder import PooledEncoder
from hsclassify.errors import (
    BadK,
    DimensionMismatch,
    EmptyInput,
    MissingManualWarning,
    UntrainedModel,
)
from hsclassify import pipeline
from hsclassify.evaluation import evaluate_pipeline
from hsclassify.pipeline import (
    CandidateReport,
    PipelineConfig,
    fit,
    load_pipeline,
    refit_temperatures,
    save_pipeline,
)
from hsclassify.synth import SynthConfig, generate

from conftest import make_case

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
        with pytest.warns(MissingManualWarning):
            pipeline = fit(
                split.train,
                split.validation,
                manuals,
                corpus.vectors,
                config=PipelineConfig(**FAST_TRAIN),
            )
        assert pipeline.fit_report.missing_manual_cases > 0

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
        logits = model.heading_logits(description)
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
        parsed = CandidateReport.from_dict(json.loads(json.dumps(report.to_dict())))
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


class TestCheckpoint:
    def test_save_load_predict_identical(self, model, small_corpus, tmp_path):
        _, split = small_corpus
        save_pipeline(model, tmp_path / "ckpt")
        loaded = load_pipeline(tmp_path / "ckpt")
        for case in split.test[:4]:
            assert loaded.predict(case.description, k=3) == model.predict(case.description, k=3)

    def test_resave_is_byte_identical(self, model, tmp_path):
        save_pipeline(model, tmp_path / "a")
        save_pipeline(model, tmp_path / "b")
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_checkpoint_structure(self, model, tmp_path):
        save_pipeline(model, tmp_path / "ckpt")
        names = {p.name for p in (tmp_path / "ckpt").iterdir()}
        assert {
            "manifest.json",
            "heading_classifier.json",
            "subheading_classifier.json",
            "case_index.json",
            "idf.json",
            "vectors.txt",
            "stopwords.txt",
            "manual.jsonl",
        } <= names
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        assert manifest["format_version"] == 1
        assert "config_hashes" in manifest

    def test_missing_checkpoint_raises_untrained(self, tmp_path):
        with pytest.raises(UntrainedModel):
            load_pipeline(tmp_path / "nowhere")

    def test_incomplete_checkpoint_raises_untrained(self, model, tmp_path):
        save_pipeline(model, tmp_path / "ckpt")
        (tmp_path / "ckpt" / "case_index.json").unlink()
        with pytest.raises(UntrainedModel, match="case_index.json"):
            load_pipeline(tmp_path / "ckpt")

    def test_truncated_case_embedding_rejected_at_load(self, model, tmp_path):
        save_pipeline(model, tmp_path / "ckpt")
        path = tmp_path / "ckpt" / "case_index.json"
        data = json.loads(path.read_text())
        bucket = next(iter(data["by_subheading"].values()))
        bucket[0]["embedding"] = bucket[0]["embedding"][:5]
        path.write_text(json.dumps(data))
        with pytest.raises(DimensionMismatch, match=bucket[0]["id"]):
            load_pipeline(tmp_path / "ckpt")

    def test_case_index_of_other_dimension_rejected_at_load(self, model, tmp_path):
        save_pipeline(model, tmp_path / "ckpt")
        path = tmp_path / "ckpt" / "case_index.json"
        data = json.loads(path.read_text())
        data["dimension"] = 5
        for bucket in data["by_subheading"].values():
            for case in bucket:
                case["embedding"] = case["embedding"][:5]
        path.write_text(json.dumps(data))
        with pytest.raises(DimensionMismatch, match="case index dimension 5"):
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

    def test_mismatched_assembly_rejected(self, model):
        bad = SoftmaxClassifier(
            np.zeros((model.heading_classifier.input_dimension + 1, 2)),
            np.zeros(2),
            ["8501", "8502"],
        )
        with pytest.raises(DimensionMismatch):
            type(model)(**{**model.__dict__, "heading_classifier": bad})


class TestRefitTemperatures:
    def test_refit_matches_fit_temperatures(self, model, small_corpus):
        _, split = small_corpus
        before = (model.heading_scaler.temperature, model.subheading_scaler.temperature)
        refit_temperatures(model, list(split.validation))
        after = (model.heading_scaler.temperature, model.subheading_scaler.temperature)
        assert after[0] == pytest.approx(before[0], rel=1e-6)
        assert after[1] == pytest.approx(before[1], rel=1e-6)


class TestSinglePass:
    """Each stage runs once per description, pinned by counting calls."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()

        def count(owner, name, key):
            original = getattr(owner, name)

            def counted(self, *args, **kwargs):
                counts[key(self)] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(KeySentenceRetriever, "retrieve", lambda _: "retrieve")
        count(PooledEncoder, "encode", lambda _: "encode")
        # Heading labels have 4 digits, subheading labels 6.
        count(SoftmaxClassifier, "logits", lambda clf: f"logits{len(clf.labels[0])}")
        return counts

    def test_predict(self, model, small_corpus, calls):
        _, split = small_corpus
        report = model.predict(split.test[0].description, k=3)
        assert report.heading_candidates[0].key_sentences
        assert calls == {"retrieve": 3, "encode": 2, "logits4": 1, "logits6": 1}

    def test_evaluate_with_ablation_head(self, ablation_model, small_corpus, calls):
        _, split = small_corpus
        evaluate_pipeline(ablation_model, [split.test[0]], ablation_model.manuals)
        assert calls == {"retrieve": 5, "encode": 2, "logits4": 1, "logits6": 2}

    def test_refit_temperatures(self, model, small_corpus, calls):
        _, split = small_corpus
        refit_temperatures(copy.copy(model), list(split.validation))
        assert calls["retrieve"] == len(split.validation)
        assert calls["logits4"] == len(split.validation)

    def test_fit_encodes_each_training_case_at_most_twice(self, small_corpus, calls):
        # x1 and description+evidence per training case; x1, then description
        # and description+evidence along the inference path per validation case.
        corpus, split = small_corpus
        config = PipelineConfig(**FAST_TRAIN)
        fit(split.train, split.validation, corpus.manual, corpus.vectors, config=config)
        assert calls["encode"] <= 2 * len(split.train) + 3 * len(split.validation)

    def test_fit_without_evidence_retrieves_nothing(self, small_corpus, calls):
        corpus, split = small_corpus
        config = PipelineConfig(**FAST_TRAIN, use_evidence=False)
        model = fit(split.train, split.validation, corpus.manual, corpus.vectors, config=config)
        assert calls["retrieve"] == 0
        assert calls["encode"] == len(split.train) + 2 * len(split.validation)
        refit_temperatures(model, list(split.validation))
        assert calls["retrieve"] == 0

    @pytest.mark.parametrize("use_evidence", [True, False])
    def test_case_index_holds_stage3_training_vectors(
        self, small_corpus, monkeypatch, use_evidence
    ):
        corpus, split = small_corpus
        inputs_by_label_length = {}

        def recording_train(inputs, labels, *rest):
            # Heading labels have 4 digits, subheading labels 6.
            inputs_by_label_length[len(rest[-1][0])] = inputs
            return train(inputs, labels, *rest)

        train = pipeline.train
        monkeypatch.setattr(pipeline, "train", recording_train)
        config = PipelineConfig(**FAST_TRAIN, use_evidence=use_evidence)
        model = fit(split.train, split.validation, corpus.manual, corpus.vectors, config=config)
        stage3_inputs = inputs_by_label_length[6]
        indexed = {
            case.case_id: case.embedding
            for bucket in model.case_index.by_subheading.values()
            for case in bucket
        }
        assert len(indexed) == len(split.train)
        for case, vector in zip(split.train, stage3_inputs, strict=True):
            # The very array the subheading head trained on, not a re-encoded copy.
            assert indexed[case.id] is vector


class TestEvaluate:
    def test_memorization_on_train_split(self, model, small_corpus):
        _, split = small_corpus
        metrics = evaluate_pipeline(model, list(split.train[:40]), model.manuals)
        assert metrics.heading_top_k[1] == 1.0

    def test_topk_monotone_both_levels(self, model, small_corpus):
        _, split = small_corpus
        metrics = evaluate_pipeline(model, list(split.test), model.manuals)
        assert metrics.heading_top_k[1] <= metrics.heading_top_k[3] <= metrics.heading_top_k[5]
        assert (
            metrics.subheading_top_k[1]
            <= metrics.subheading_top_k[3]
            <= metrics.subheading_top_k[5]
        )

    def test_schema_keys_for_requested_ks(self, model, small_corpus):
        _, split = small_corpus
        metrics = evaluate_pipeline(model, list(split.test), model.manuals)
        data = metrics.to_dict()
        for key in ("hs4_top1", "hs6_top1", "hs6_top3", "hs6_top5", "baseline_hs4_top1"):
            assert key in data
        assert "hs6_top2" not in data

    def test_gold_evidence_produces_mean_precision_recall(self, model, small_corpus):
        _, split = small_corpus
        metrics = evaluate_pipeline(model, list(split.test), model.manuals)
        assert metrics.retrieval_precision is not None
        assert 0.0 <= metrics.retrieval_precision <= 1.0
        assert 0.0 <= metrics.retrieval_recall <= 1.0

    def test_uniform_model_hits_chance_level(self, model, small_corpus):
        # Uniform probabilities rank classes by index, so top-1 accuracy is
        # exactly the share of gold labels equal to the first class (~1/C on
        # a balanced corpus).
        _, split = small_corpus
        uniform = fitted_with_zero_heads(model)
        metrics = evaluate_pipeline(uniform, list(split.test), model.manuals)
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
                model.heading_probabilities(case.description),
                model.subheading_probabilities(case.description),
            ):
                assert probs.min() >= 0.0
                assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_empty_test_rejected(self, model):
        with pytest.raises(EmptyInput):
            evaluate_pipeline(model, [], model.manuals)


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
        metrics = evaluate_pipeline(ablation_model, list(split.test), ablation_model.manuals)
        assert metrics.ablation_subheading_top_k is not None
        data = metrics.to_dict()
        assert "ablation_hs6_top1" in data
        table = metrics.render_table()
        assert "pipeline (ablation)" in table

    def test_no_evidence_variant_trains(self, small_corpus):
        corpus, split = small_corpus
        config = PipelineConfig(**FAST_TRAIN, use_evidence=False)
        pipeline = fit(split.train, split.validation, corpus.manual, corpus.vectors, config=config)
        case = split.train[0]
        report = pipeline.predict(case.description, k=3)
        assert case.label.subheading in [c.subheading for c in report.subheading_candidates]

    def test_mask_to_heading_restricts_candidates(self, small_corpus):
        corpus, split = small_corpus
        config = PipelineConfig(**FAST_TRAIN, mask_to_heading=True)
        pipeline = fit(split.train, split.validation, corpus.manual, corpus.vectors, config=config)
        report = pipeline.predict(split.test[0].description, k=2)
        top_heading = report.heading_candidates[0].heading
        assert all(c.subheading.startswith(top_heading) for c in report.subheading_candidates)

    def test_evidence_per_candidate_mode_is_valid_distribution(self, small_corpus):
        corpus, split = small_corpus
        config = PipelineConfig(**FAST_TRAIN, evidence_per_candidate=True)
        pipeline = fit(split.train, split.validation, corpus.manual, corpus.vectors, config=config)
        probs = pipeline.subheading_probabilities(split.test[0].description)
        assert probs.min() >= 0.0
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        report = pipeline.predict(split.test[0].description, k=3)
        scores = [c.score for c in report.subheading_candidates]
        assert scores == sorted(scores, reverse=True)
