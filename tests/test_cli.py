"""CLI surface: subcommands, exit codes, renderings, determinism."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

from hsclassify.cli import main
from hsclassify.pipeline import CandidateReport

SMALL_SYNTH = [
    "--headings", "4",
    "--subheadings-per-heading", "2",
    "--train-per-subheading", "8",
    "--validation-per-subheading", "2",
    "--test-per-subheading", "2",
    "--dimension", "16",
]


@pytest.fixture(scope="module")
def runner() -> CliRunner:
    return CliRunner()


@pytest.fixture(scope="module")
def corpus_dir(runner, tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("corpus")
    result = runner.invoke(
        main, ["--seed", "13", "synth", "--out-dir", str(directory), *SMALL_SYNTH]
    )
    assert result.exit_code == 0, result.output
    # Faster training for CLI runs.
    config_path = directory / "config.json"
    config = json.loads(config_path.read_text())
    config["heading_train"] = {"epochs": 25, "learning_rate": 0.5}
    config["subheading_train"] = {"epochs": 25, "learning_rate": 0.5}
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return directory


@pytest.fixture(scope="module")
def trained_dir(runner, corpus_dir) -> Path:
    result = runner.invoke(
        main, ["--config", str(corpus_dir / "config.json"), "--seed", "13", "train"]
    )
    assert result.exit_code == 0, result.output
    return corpus_dir


def checkpoint_bytes(checkpoint: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(checkpoint.iterdir())}


def write_config(corpus_dir: Path, path: Path, **changes) -> Path:
    """The corpus config with absolute input paths and ``changes``, written to ``path``."""
    config = json.loads((corpus_dir / "config.json").read_text())
    config["cases"] = str(corpus_dir / "cases.jsonl")
    config["manual"] = str(corpus_dir / "manual.jsonl")
    config["vectors"] = str(corpus_dir / "vectors.txt")
    config.update(changes)
    path.write_text(json.dumps(config))
    return path


class TestSynthCommand:
    def test_outputs_listed(self, corpus_dir):
        for name in ("cases.jsonl", "manual.jsonl", "vectors.txt", "config.json"):
            assert (corpus_dir / name).exists()


class TestTrainCommand:
    def test_checkpoint_structure(self, trained_dir):
        checkpoint = trained_dir / "checkpoint"
        names = {p.name for p in checkpoint.iterdir()}
        assert "manifest.json" in names
        assert "heading_classifier.json" in names
        assert "subheading_classifier.json" in names
        assert "case_index.json" in names

    def test_missing_manual_file_exit_2(self, runner, corpus_dir, tmp_path):
        # Paths resolve relative to the config file, so point the good inputs
        # back at the corpus and only the manual at a missing file.
        config = json.loads((corpus_dir / "config.json").read_text())
        config["manual"] = "does-not-exist.jsonl"
        config["cases"] = str(corpus_dir / "cases.jsonl")
        config["vectors"] = str(corpus_dir / "vectors.txt")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        result = runner.invoke(main, ["--config", str(bad), "train"])
        assert result.exit_code == 2
        assert "does-not-exist.jsonl" in result.output

    def test_rerun_same_seed_byte_identical(self, runner, corpus_dir, trained_dir, tmp_path_factory):
        first = checkpoint_bytes(trained_dir / "checkpoint")
        result = runner.invoke(
            main, ["--config", str(corpus_dir / "config.json"), "--seed", "13", "train"]
        )
        assert result.exit_code == 0
        second = checkpoint_bytes(trained_dir / "checkpoint")
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name

    def test_no_config_exit_2(self, runner):
        result = runner.invoke(main, ["train"])
        assert result.exit_code == 2


class TestPredictCommand:
    def test_text_rendering(self, runner, trained_dir):
        cases = (trained_dir / "cases.jsonl").read_text().splitlines()
        description = json.loads(cases[0])["description"]
        result = runner.invoke(
            main, ["--config", str(trained_dir / "config.json"), "predict", description]
        )
        assert result.exit_code == 0, result.output
        assert "Heading candidates:" in result.output
        assert "Subheading candidates:" in result.output

    def test_structured_roundtrip(self, runner, trained_dir):
        description = json.loads((trained_dir / "cases.jsonl").read_text().splitlines()[0])[
            "description"
        ]
        result = runner.invoke(
            main,
            [
                "--config", str(trained_dir / "config.json"),
                "--format", "structured",
                "predict", description,
            ],
        )
        assert result.exit_code == 0, result.output
        parsed = CandidateReport.from_dict(json.loads(result.output))
        assert parsed.description == description
        assert len(parsed.heading_candidates) == 3
        assert len(parsed.subheading_candidates) == 3

    def test_structured_equals_text_candidates(self, runner, trained_dir):
        description = json.loads((trained_dir / "cases.jsonl").read_text().splitlines()[3])[
            "description"
        ]
        config = ["--config", str(trained_dir / "config.json")]
        text = runner.invoke(main, [*config, "predict", description]).output
        structured = runner.invoke(
            main, [*config, "--format", "structured", "predict", description]
        ).output
        report = CandidateReport.from_dict(json.loads(structured))
        for candidate in report.heading_candidates:
            assert f"{candidate.heading}  score {candidate.score:.4f}" in text
            for sentence in candidate.key_sentences:
                assert sentence in text
        for candidate in report.subheading_candidates:
            assert f"{candidate.subheading}  score {candidate.score:.4f}" in text

    def test_empty_description_exit_2(self, runner, trained_dir):
        result = runner.invoke(
            main, ["--config", str(trained_dir / "config.json"), "predict", "   "]
        )
        assert result.exit_code == 2

    def test_input_file_source(self, runner, trained_dir, tmp_path):
        description = json.loads((trained_dir / "cases.jsonl").read_text().splitlines()[0])[
            "description"
        ]
        source = tmp_path / "item.txt"
        source.write_text(description, encoding="utf-8")
        result = runner.invoke(
            main,
            ["--config", str(trained_dir / "config.json"), "predict", "--input-file", str(source)],
        )
        assert result.exit_code == 0

    def test_missing_checkpoint_exit_2(self, runner, corpus_dir, tmp_path):
        config = json.loads((corpus_dir / "config.json").read_text())
        config["cases"] = str(corpus_dir / "cases.jsonl")
        config["manual"] = str(corpus_dir / "manual.jsonl")
        config["vectors"] = str(corpus_dir / "vectors.txt")
        config["checkpoint_dir"] = str(tmp_path / "no-checkpoint")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        result = runner.invoke(main, ["--config", str(path), "predict", "solar panel"])
        assert result.exit_code == 2


class TestEvaluateCommand:
    def test_report_schema(self, runner, trained_dir):
        result = runner.invoke(
            main, ["--config", str(trained_dir / "config.json"), "evaluate"]
        )
        assert result.exit_code == 0, result.output
        metrics = json.loads((trained_dir / "checkpoint" / "metrics.json").read_text())
        for key in ("hs4_top1", "hs6_top1", "hs6_top3", "hs6_top5"):
            assert key in metrics
        assert (trained_dir / "checkpoint" / "metrics.txt").exists()

    def test_gold_evidence_metrics_present(self, runner, trained_dir):
        runner.invoke(main, ["--config", str(trained_dir / "config.json"), "evaluate"])
        metrics = json.loads((trained_dir / "checkpoint" / "metrics.json").read_text())
        assert metrics["retrieval_precision"] is not None
        assert metrics["retrieval_recall"] is not None

    def test_consecutive_runs_identical_reports(self, runner, trained_dir, tmp_path_factory):
        out_a = tmp_path_factory.mktemp("eval-a")
        out_b = tmp_path_factory.mktemp("eval-b")
        config = ["--config", str(trained_dir / "config.json")]
        assert runner.invoke(main, [*config, "evaluate", "--output-dir", str(out_a)]).exit_code == 0
        assert runner.invoke(main, [*config, "evaluate", "--output-dir", str(out_b)]).exit_code == 0
        assert (out_a / "metrics.json").read_bytes() == (out_b / "metrics.json").read_bytes()
        assert (out_a / "metrics.txt").read_bytes() == (out_b / "metrics.txt").read_bytes()


class TestCalibrateCommand:
    def test_calibrate_updates_checkpoint(self, runner, trained_dir):
        before = json.loads((trained_dir / "checkpoint" / "manifest.json").read_text())
        result = runner.invoke(
            main, ["--config", str(trained_dir / "config.json"), "calibrate"]
        )
        assert result.exit_code == 0, result.output
        after = json.loads((trained_dir / "checkpoint" / "manifest.json").read_text())
        assert after["heading_temperature"] == pytest.approx(
            before["heading_temperature"], rel=1e-6
        )


class TestPhotovoltaicFixture:
    """A hand-built English corpus where solar-cell items map to 854140."""

    PV_WORDS = ["photovoltaic", "solar", "cell", "panel", "silicon", "diode"]
    TV_WORDS = ["monitor", "screen", "display", "projector", "reception"]

    def build_corpus(self, directory: Path) -> Path:
        import itertools

        axes = [
            [1, 0, 0, 0], [0.9, 0.1, 0, 0], [0.8, 0, 0.2, 0],
            [0.9, 0, 0, 0.1], [0.7, 0.3, 0, 0], [0.8, 0.2, 0, 0],
        ]
        tv_axes = [[0, 1, 0, 0], [0, 0.9, 0.1, 0], [0, 0.8, 0, 0.2], [0.1, 0.9, 0, 0], [0, 0.7, 0.3, 0]]
        with open(directory / "vectors.txt", "w") as handle:
            for word, vec in zip(self.PV_WORDS, axes):
                handle.write(word + " " + " ".join(map(str, vec)) + "\n")
            for word, vec in zip(self.TV_WORDS, tv_axes):
                handle.write(word + " " + " ".join(map(str, vec)) + "\n")

        months = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]
        records = []
        counter = itertools.count(1)
        for code, words in (("8541.40", self.PV_WORDS), ("8528.52", self.TV_WORDS)):
            for i, month in enumerate(months):
                picked = [words[(i + j) % len(words)] for j in range(4)]
                records.append(
                    {
                        "id": f"fx-{next(counter):03d}",
                        "description": " ".join(picked) + " apparatus",
                        "hs_code": code,
                        "date": f"2024-{month:02d}-10",
                        "origin": "domestic",
                    }
                )
        with open(directory / "cases.jsonl", "w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")

        manual = [
            {
                "heading": "8541",
                "sentences": [
                    "Photosensitive devices including photovoltaic cell assemblies in a panel",
                    "Silicon diode articles for converting light",
                ],
            },
            {
                "heading": "8528",
                "sentences": [
                    "Monitor and projector apparatus with a display screen",
                    "Reception apparatus for television",
                ],
            },
        ]
        with open(directory / "manual.jsonl", "w") as handle:
            for record in manual:
                handle.write(json.dumps(record) + "\n")

        config = {
            "cases": "cases.jsonl",
            "manual": "manual.jsonl",
            "vectors": "vectors.txt",
            "checkpoint_dir": "checkpoint",
            "seed": 5,
            "heading_train": {"epochs": 25, "learning_rate": 0.5},
            "subheading_train": {"epochs": 25, "learning_rate": 0.5},
        }
        path = directory / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_photovoltaic_description_maps_to_854140(self, runner, tmp_path):
        config_path = self.build_corpus(tmp_path)
        assert runner.invoke(main, ["--config", str(config_path), "train"]).exit_code == 0
        description = (
            "Photovoltaic cell panel silicon embedded in plastic with an aluminum frame, "
            "which converts sunlight into electricity, maximum power of 135W"
        )
        result = runner.invoke(
            main, ["--config", str(config_path), "--format", "structured", "predict", description]
        )
        assert result.exit_code == 0, result.output
        report = CandidateReport.from_dict(json.loads(result.output))
        assert "854140" in [c.subheading for c in report.subheading_candidates]
        assert report.heading_candidates[0].heading == "8541"
        assert report.heading_candidates[0].key_sentences  # evidence retrieved


class TestTrainVariants:
    def test_no_evidence_flag(self, runner, corpus_dir, tmp_path):
        config = json.loads((corpus_dir / "config.json").read_text())
        config["cases"] = str(corpus_dir / "cases.jsonl")
        config["manual"] = str(corpus_dir / "manual.jsonl")
        config["vectors"] = str(corpus_dir / "vectors.txt")
        config["checkpoint_dir"] = str(tmp_path / "ckpt-noev")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        result = runner.invoke(main, ["--config", str(path), "--seed", "13", "train", "--no-evidence"])
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "ckpt-noev" / "manifest.json").read_text())
        assert manifest["config"]["use_evidence"] is False

    def test_with_ablation_flag(self, runner, corpus_dir, tmp_path):
        config = json.loads((corpus_dir / "config.json").read_text())
        config["cases"] = str(corpus_dir / "cases.jsonl")
        config["manual"] = str(corpus_dir / "manual.jsonl")
        config["vectors"] = str(corpus_dir / "vectors.txt")
        config["checkpoint_dir"] = str(tmp_path / "ckpt-abl")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        result = runner.invoke(
            main, ["--config", str(path), "--seed", "13", "train", "--with-ablation"]
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "ckpt-abl" / "ablation_classifier.json").exists()


def truncate_case_index(checkpoint: Path) -> None:
    path = checkpoint / "case_index.json"
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


def shorten_one_embedding(checkpoint: Path) -> None:
    path = checkpoint / "case_index.json"
    data = json.loads(path.read_text())
    next(iter(data["by_subheading"].values()))[0]["embedding"].pop()
    path.write_text(json.dumps(data))


def delete_idf(checkpoint: Path) -> None:
    (checkpoint / "idf.json").unlink()


class TestExitCodes:
    """2 for bad user input, 1 for a corrupt checkpoint; never a traceback."""

    @pytest.mark.parametrize(
        "corrupt, bad_file",
        [
            (truncate_case_index, "case_index.json"),
            (shorten_one_embedding, "case_index.json"),
            (delete_idf, "idf.json"),
        ],
    )
    def test_corrupt_checkpoint_exit_1(self, runner, trained_dir, tmp_path, corrupt, bad_file):
        checkpoint = tmp_path / "ckpt"
        shutil.copytree(trained_dir / "checkpoint", checkpoint)
        corrupt(checkpoint)
        config = write_config(trained_dir, tmp_path / "config.json", checkpoint_dir=str(checkpoint))
        result = runner.invoke(main, ["--config", str(config), "predict", "solar panel"])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        (line,) = result.output.strip().splitlines()
        assert line.startswith("Error:")
        assert bad_file in line

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("pipeline", "use_evidnce", True),
            ("heading_train", "epochs", 0),
            ("retrieval", "coverage_threshold", 2),
            ("pipeline", "idf_documents", "bogus"),
        ],
    )
    def test_bad_config_value_exit_2(self, runner, corpus_dir, tmp_path, section, key, value):
        config = json.loads((corpus_dir / "config.json").read_text())
        options = {**config.get(section, {}), key: value}
        path = write_config(
            corpus_dir, tmp_path / "config.json", checkpoint_dir=str(tmp_path), **{section: options}
        )
        result = runner.invoke(main, ["--config", str(path), "train"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert str(path) in result.output
