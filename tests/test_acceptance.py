"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one ``criterion N: PASS/FAIL`` line (visible with -s or in
captured output). Criteria 1, 6 and 7 share a single full training run on
the default synthetic corpus; criterion 8 drives the CLI end to end twice.
"""

from __future__ import annotations

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from hsclassify.calibration import TemperatureScaler, fit_temperature
from hsclassify.classifier import _gradient
from hsclassify.cli import main
from hsclassify.pipeline import CandidateReport, _from_dict, load_pipeline

from oracles import retrieval_precision_recall
from test_alignment import random_instance, run_both
from test_classifier import finite_difference_gradients, relative_error

TIME_BUDGET_SECONDS = 300.0


def announce(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number}: {status} - {detail}")


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """synth -> train -> evaluate on the default 20x3 corpus, timed."""
    directory = tmp_path_factory.mktemp("acceptance")
    runner = CliRunner()
    started = time.monotonic()
    result = runner.invoke(main, ["--seed", "7", "synth", "--out-dir", str(directory)])
    assert result.exit_code == 0, result.output
    config = ["--config", str(directory / "config.json")]
    result = runner.invoke(main, [*config, "--seed", "7", "train"])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, [*config, "evaluate"])
    assert result.exit_code == 0, result.output
    elapsed = time.monotonic() - started
    metrics = json.loads((directory / "checkpoint" / "metrics.json").read_text())
    return SimpleNamespace(directory=directory, runner=runner, metrics=metrics, elapsed=elapsed)


class TestCriterion1SyntheticSurrogate:
    def test_full_pipeline_on_synthetic_corpus(self, full_run):
        hs4_top1 = full_run.metrics["hs4_top1"]
        hs6_top3 = full_run.metrics["hs6_top3"]
        ok = hs4_top1 >= 0.95 and hs6_top3 >= 0.95 and full_run.elapsed < TIME_BUDGET_SECONDS
        announce(
            1,
            ok,
            f"heading top-1 {hs4_top1:.4f} (>=0.95), subheading top-3 {hs6_top3:.4f} "
            f"(>=0.95), wall-clock {full_run.elapsed:.1f}s (<{TIME_BUDGET_SECONDS:.0f}s)",
        )
        assert hs4_top1 >= 0.95
        assert hs6_top3 >= 0.95
        assert full_run.elapsed < TIME_BUDGET_SECONDS


class TestCriterion2RetrievalOracle:
    def test_hundred_random_instances_match_enumeration(self):
        matches = 0
        for seed in range(100):
            vectors, idf_values, sentences, keywords = random_instance(seed)
            result, expected = run_both(vectors, idf_values, sentences, keywords)
            same = (
                result.indices == expected.indices
                and result.covered_keywords == expected.covered
                and result.uncovered_keywords == expected.uncovered
            )
            matches += int(same)
        announce(2, matches == 100, f"{matches}/100 instances equal the enumeration oracle")
        assert matches == 100


class TestCriterion3GradientCorrectness:
    def test_fifty_random_instances(self):
        rng = np.random.default_rng(20240917)
        worst = 0.0
        for _ in range(50):
            d = int(rng.integers(1, 9))
            c = int(rng.integers(2, 6))
            n = int(rng.integers(1, 21))
            weights = rng.normal(size=(d, c))
            bias = rng.normal(size=c)
            inputs = rng.normal(size=(n, d))
            labels = rng.integers(0, c, size=n)
            l2 = float(rng.uniform(0.0, 0.1))
            grad_w, grad_b, _ = _gradient(weights, bias, inputs, labels, l2)
            fd_w, fd_b = finite_difference_gradients(weights, bias, inputs, labels, l2)
            worst = max(worst, relative_error(grad_w, fd_w), relative_error(grad_b, fd_b))
        announce(3, worst < 1e-4, f"max relative gradient error {worst:.2e} (<1e-4)")
        assert worst < 1e-4


class TestCriterion4Calibration:
    def test_scaled_logits_recovered(self):
        rng = np.random.default_rng(424242)
        n, classes = 10_000, 10
        logits = rng.normal(0.0, 2.0, size=(n, classes))
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        labels = np.array([rng.choice(classes, p=p) for p in probs])
        scaled = logits * 3.0

        scaler = fit_temperature(scaled, labels)

        def nll(temperature: float) -> float:
            picked = TemperatureScaler(temperature).probabilities(scaled)[np.arange(n), labels]
            return float(-np.log(np.maximum(picked, 1e-12)).mean())

        in_range = 2.4 <= scaler.temperature <= 3.75
        not_worse = nll(scaler.temperature) <= nll(1.0) + 1e-12
        preserved = all(
            scaler.probabilities(z)[int(np.argmax(z))] == scaler.probabilities(z).max()
            for z in scaled
        )
        ok = in_range and not_worse and preserved
        announce(
            4,
            ok,
            f"fitted T {scaler.temperature:.4f} in [2.4, 3.75]; NLL {nll(scaler.temperature):.4f}"
            f" <= NLL@1 {nll(1.0):.4f}; argmax preserved on 100% of 10000 samples",
        )
        assert in_range
        assert not_worse
        assert preserved


class TestCriterion5EvidenceArithmetic:
    def test_four_retrieved_three_matched_four_gold(self):
        gold = [
            "Transmission apparatus for radio broadcasting television cameras and video camera recorders",
            "Television cameras digital cameras and video camera recorders for image capture",
            "This group covers cameras that capture images and convert them into electronic signals",
            "In digital cameras and video camera recorders images are recorded onto internal storage",
        ]
        retrieved = [
            "Parts suitable for use with woven textile machinery of heading fifty nine",
            "Television cameras digital cameras and video camera recorders for image capture",
            "Transmission apparatus for radio broadcasting television cameras and video camera recorders",
            "In digital cameras and video camera recorders images are recorded onto internal storage",
        ]
        outcome = retrieval_precision_recall(retrieved, gold)
        exact = (outcome.precision, outcome.recall) == (0.75, 0.75)
        announce(
            5,
            exact,
            f"precision {outcome.precision} recall {outcome.recall} "
            f"({outcome.matches} matches, 4 retrieved, 4 gold) == (0.75, 0.75) exactly",
        )
        assert outcome.precision == 0.75
        assert outcome.recall == 0.75


class TestCriterion6BaselineOrdering:
    def test_trained_model_beats_word_matching(self, full_run):
        trained = full_run.metrics["hs4_top1"]
        baseline = full_run.metrics["baseline_hs4_top1"]
        gap = trained - baseline
        announce(
            6,
            gap >= 0.30,
            f"trained heading top-1 {trained:.4f} vs word matching {baseline:.4f}: "
            f"gap {gap:.4f} (>=0.30)",
        )
        assert gap >= 0.30


class TestCriterion7MetricInvariants:
    def test_topk_monotone_and_probabilities_normalized(self, full_run):
        metrics = full_run.metrics
        monotone = (
            metrics["hs4_top1"] <= metrics["hs4_top3"] <= metrics["hs4_top5"]
            and metrics["hs6_top1"] <= metrics["hs6_top3"] <= metrics["hs6_top5"]
        )

        model = load_pipeline(full_run.directory / "checkpoint")
        descriptions = [
            json.loads(line)["description"]
            for line in (full_run.directory / "cases.jsonl").read_text().splitlines()[:50]
        ]
        worst = 0.0
        for description in descriptions:
            for probs in (
                next(model.infer_many([description])).heading_probabilities,
                next(model.infer_many([description])).subheading_probabilities,
            ):
                worst = max(worst, abs(float(probs.sum()) - 1.0))
                assert probs.min() >= 0.0
        ok = monotone and worst <= 1e-9
        announce(
            7,
            ok,
            f"top-k monotone at both levels; max |sum(p)-1| {worst:.2e} (<=1e-9) "
            f"over {2 * len(descriptions)} probability vectors",
        )
        assert monotone
        assert worst <= 1e-9


class TestCriterion8EndToEndDeterminism:
    def test_train_predict_evaluate_twice_byte_identical(self, full_run, tmp_path_factory):
        base = full_run.directory
        runner = full_run.runner
        description = json.loads((base / "cases.jsonl").read_text().splitlines()[0])["description"]

        outputs = []
        for tag in ("a", "b"):
            workdir = tmp_path_factory.mktemp(f"repeat-{tag}")
            config = json.loads((base / "config.json").read_text())
            config["cases"] = str(base / "cases.jsonl")
            config["manual"] = str(base / "manual.jsonl")
            config["vectors"] = str(base / "vectors.txt")
            config["checkpoint_dir"] = str(workdir / "checkpoint")
            config_path = workdir / "config.json"
            config_path.write_text(json.dumps(config, sort_keys=True))

            args = ["--config", str(config_path), "--seed", "7"]
            assert runner.invoke(main, [*args, "train"]).exit_code == 0
            predict_text = runner.invoke(main, [*args, "predict", description]).output
            predict_json = runner.invoke(
                main, [*args, "--format", "structured", "predict", description]
            ).output
            assert runner.invoke(main, [*args, "evaluate"]).exit_code == 0
            checkpoint = workdir / "checkpoint"
            outputs.append(
                SimpleNamespace(
                    files={p.name: p.read_bytes() for p in sorted(checkpoint.iterdir())},
                    predict_text=predict_text,
                    predict_json=predict_json,
                )
            )

        first, second = outputs
        identical_files = first.files == second.files
        identical_outputs = (
            first.predict_text == second.predict_text and first.predict_json == second.predict_json
        )

        report = _from_dict(CandidateReport, json.loads(first.predict_json))
        template_ok = (
            len(report.heading_candidates) == 3
            and all(len(c.key_sentences) <= 7 for c in report.heading_candidates)
            and len(report.subheading_candidates) == 3
            and all(len(c.similar_cases) <= 3 for c in report.subheading_candidates)
        )

        ok = identical_files and identical_outputs and template_ok
        announce(
            8,
            ok,
            f"byte-identical checkpoints ({len(first.files)} files) and reports across two "
            "seeded runs; template: 3 headings x <=7 sentences, 3 subheadings x <=3 cases",
        )
        assert identical_files
        assert identical_outputs
        assert template_ok
